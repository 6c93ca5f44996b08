import itertools
import random
from fractions import Fraction

import pytest

from ocs.errors import ResourceLimitError
from ocs.groups import SurfaceGroup, cyclic_group
from ocs import lie as lie_mod
from ocs.verify import eval_expression_tree, random_expression_tree, random_lie_element
from test_nonabelian_oracles import s3_group


@pytest.fixture
def c3_ctx():
    C3 = cyclic_group(3)
    return lie_mod.LieContext(C3, 4), C3


class TestGenerators:
    def test_already_normalized(self, c3_ctx):
        ctx, C3 = c3_ctx
        g = C3.parse_element("g")
        x = ctx.generator(3, 1, g)
        assert x.sorted_terms() == [((3, ((1, g.uid),)), Fraction(1))]

    def test_mirrored_index_inverts_decoration(self, c3_ctx):
        ctx, C3 = c3_ctx
        g = C3.parse_element("g")
        assert ctx.generator(1, 3, g) == ctx.generator(3, 1, C3.invert(g))

    def test_diagonal_rejected(self, c3_ctx):
        ctx, C3 = c3_ctx
        with pytest.raises(ValueError, match="distinct"):
            ctx.generator(2, 2, C3.identity())
        with pytest.raises(ValueError, match="range"):
            ctx.generator(5, 1, C3.identity())


class TestBracket:
    def test_disjoint_pairs_commute(self, c3_ctx):
        ctx, C3 = c3_ctx
        g = C3.parse_element("g")
        x = ctx.generator(2, 1, g)
        y = ctx.generator(4, 3, C3.identity())
        assert ctx.bracket(x, y).is_zero()

    def test_cross_block_derivation(self, c3_ctx):
        # [B^sigma_{2,1}, B^tau_{3,1}] = [B^tau_{3,1}, B^{tau sigma^-1}_{3,2}]
        ctx, C3 = c3_ctx
        sigma = C3.parse_element("g")
        tau = C3.parse_element("g2")
        lhs = ctx.bracket(ctx.generator(2, 1, sigma), ctx.generator(3, 1, tau))
        dec = C3.multiply(tau, C3.invert(sigma))
        rhs = ctx.bracket(ctx.generator(3, 1, tau), ctx.generator(3, 2, dec))
        assert lhs == rhs
        assert list(lhs.blocks) == [3]

    def test_alternating(self, c3_ctx):
        ctx, C3 = c3_ctx
        rng = random.Random(3)
        for _ in range(20):
            x = random_lie_element(rng, ctx, C3.elements())
            assert ctx.bracket(x, x).is_zero()

    def test_nested_brackets_stay_in_top_block(self, c3_ctx):
        ctx, C3 = c3_ctx
        sigma, tau = C3.parse_element("g"), C3.identity()
        inner = ctx.bracket(ctx.generator(2, 1, sigma), ctx.generator(3, 1, tau))
        outer = ctx.bracket(inner, ctx.generator(2, 1, sigma))
        assert not outer.is_zero()
        assert list(outer.blocks) == [3]

    def test_context_mismatch(self, c3_ctx):
        ctx, C3 = c3_ctx
        other = lie_mod.LieContext(C3, 4)
        with pytest.raises(ValueError, match="mismatch"):
            ctx.bracket(ctx.generator(2, 1, C3.identity()), other.generator(2, 1, C3.identity()))


def test_antisymmetry_jacobi_100_samples():
    # module invariant: exact on 100 random triples of degree <= 3*2q
    C2 = cyclic_group(2)
    ctx = lie_mod.LieContext(C2, 3)
    rng = random.Random(17)
    for _ in range(100):
        x = random_lie_element(rng, ctx, C2.elements())
        y = random_lie_element(rng, ctx, C2.elements())
        z = random_lie_element(rng, ctx, C2.elements())
        assert (ctx.bracket(x, y) + ctx.bracket(y, x)).is_zero()
        jac = (
            ctx.bracket(x, ctx.bracket(y, z))
            + ctx.bracket(y, ctx.bracket(z, x))
            + ctx.bracket(z, ctx.bracket(x, y))
        )
        assert jac.is_zero()


def test_normal_form_linear_and_idempotent():
    C2 = cyclic_group(2)
    ctx = lie_mod.LieContext(C2, 3)
    rng = random.Random(23)
    for _ in range(20):
        x = random_lie_element(rng, ctx, C2.elements())
        y = random_lie_element(rng, ctx, C2.elements())
        assert (x + y) - y == x
        assert x.scale(Fraction(3, 4)).scale(Fraction(4, 3)) == x
        # rebuilding from the stored terms reproduces the element
        rebuilt = ctx.zero()
        for label, coef in x.sorted_terms():
            rebuilt = rebuilt + lie_mod.LieElement(ctx, {label: coef})
        assert rebuilt == x


def test_integral_inputs_have_integral_normal_forms():
    C2 = cyclic_group(2)
    ctx = lie_mod.LieContext(C2, 4)
    rng = random.Random(29)
    for _ in range(40):
        tree = random_expression_tree(rng, 4, C2.elements(), rng.randint(1, 4))
        x = eval_expression_tree(ctx, tree)
        for coef in x.terms.values():
            assert coef.denominator == 1


class TestSymmetricAction:
    def test_transposition_inverts_decoration(self, c3_ctx):
        ctx, C3 = c3_ctx
        sigma = C3.parse_element("g")
        x = ctx.generator(3, 1, sigma)
        swap = (3, 2, 1, 4)  # transposition (1 3)
        assert ctx.act_symmetric(swap, x) == ctx.generator(3, 1, C3.invert(sigma))

    def test_identity_action(self, c3_ctx):
        ctx, C3 = c3_ctx
        rng = random.Random(31)
        for _ in range(10):
            x = random_lie_element(rng, ctx, C3.elements())
            assert ctx.act_symmetric((1, 2, 3, 4), x) == x

    def test_cycle_on_generator(self):
        # gamma = (1 2 3): B^sigma_{2,1} -> B^sigma_{3,2}
        C3 = cyclic_group(3)
        ctx = lie_mod.LieContext(C3, 3)
        sigma = C3.parse_element("g")
        cycle = (2, 3, 1)
        assert ctx.act_symmetric(cycle, ctx.generator(2, 1, sigma)) == ctx.generator(
            3, 2, sigma
        )

    def test_group_action_law(self):
        C2 = cyclic_group(2)
        ctx = lie_mod.LieContext(C2, 3)
        rng = random.Random(37)
        perms = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 3, 2)]
        for _ in range(10):
            x = random_lie_element(rng, ctx, C2.elements())
            p, r = rng.choice(perms), rng.choice(perms)
            composed = tuple(p[r[i - 1] - 1] for i in (1, 2, 3))
            assert ctx.act_symmetric(p, ctx.act_symmetric(r, x)) == ctx.act_symmetric(
                composed, x
            )

    def test_relations_map_to_relations(self):
        C2 = cyclic_group(2)
        ctx = lie_mod.LieContext(C2, 3)
        perms = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 3, 2)]
        for perm in perms:
            for _, terms in lie_mod.pure_braid_relations(3, C2.elements(), C2):
                image = ctx.zero()
                for coef, (i, j, s1), (s, t, s2) in terms:
                    image = image + ctx.bracket(
                        ctx.act_symmetric(perm, ctx.generator(i, j, s1)),
                        ctx.act_symmetric(perm, ctx.generator(s, t, s2)),
                    ).scale(coef)
                assert image.is_zero()

    @pytest.mark.parametrize("make", [lambda: cyclic_group(2), s3_group], ids=["C2", "S3"])
    def test_permutations_moving_strand_1(self, make):
        # at n = 5 the first 24 permutations in lexicographic order all fix strand 1
        group = make()
        ctx = lie_mod.LieContext(group, 5)
        decorations = group.elements()
        perms = [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)]
        relations = list(lie_mod.pure_braid_relations(5, decorations, group))
        for perm in perms:
            images = {}

            def image(idx):
                if idx not in images:
                    images[idx] = ctx.act_symmetric(perm, ctx.generator(*idx))
                return images[idx]

            for label, terms in relations:
                mapped = ctx.bracket_sum([(coef, image(a), image(b)) for coef, a, b in terms])
                assert mapped.is_zero(), (perm, label)
        rng = random.Random(57)
        for perm, other in itertools.product(perms, repeat=2):
            x = random_lie_element(rng, ctx, decorations)
            y = random_lie_element(rng, ctx, decorations)
            assert ctx.act_symmetric(perm, ctx.bracket(x, y)) == ctx.bracket(
                ctx.act_symmetric(perm, x), ctx.act_symmetric(perm, y)
            )
            composed = tuple(perm[other[i - 1] - 1] for i in range(1, 6))
            assert ctx.act_symmetric(perm, ctx.act_symmetric(other, x)) == ctx.act_symmetric(
                composed, x
            )

    def test_not_a_bijection(self, c3_ctx):
        ctx, C3 = c3_ctx
        with pytest.raises(ValueError, match="bijection"):
            ctx.act_symmetric((1, 1, 2, 3), ctx.generator(2, 1, C3.identity()))


class TestDimensions:
    def test_counting_examples(self):
        C2 = cyclic_group(2)
        ctx = lie_mod.LieContext(C2, 3)
        assert [lie_mod.graded_dimension(ctx, l) for l in (1, 2, 3)] == [6, 7, 22]

    def test_counts_match_enumeration(self):
        for make, n in ((lambda: cyclic_group(2), 3), (lambda: cyclic_group(3), 3)):
            ctx = lie_mod.LieContext(make(), n)
            for ell in (1, 2, 3):
                assert lie_mod.graded_dimension(ctx, ell) == (
                    lie_mod.graded_dimension_by_enumeration(ctx, ell)
                )

    @pytest.mark.parametrize("ell", [0, -1])
    def test_counts_refuse_lengths_below_one(self, ell):
        ctx = lie_mod.LieContext(cyclic_group(2), 3)
        for count in (
            lie_mod.graded_dimension,
            lie_mod.graded_dimension_by_enumeration,
            lie_mod.block_lyndon_basis,
        ):
            with pytest.raises(ValueError, match=r"^bracket length must be >= 1$"):
                count(ctx, ell)

    def test_bruteforce_examples(self):
        triv = cyclic_group(1)
        assert lie_mod.bruteforce_dimension(lie_mod.LieContext(triv, 3), 2) == 1
        assert lie_mod.bruteforce_dimension(lie_mod.LieContext(triv, 2), 2) == 0
        C2 = cyclic_group(2)
        assert lie_mod.bruteforce_dimension(lie_mod.LieContext(C2, 3), 2) == 7

    def test_bruteforce_guards(self):
        C2 = cyclic_group(2)
        ctx = lie_mod.LieContext(C2, 3)
        with pytest.raises(ResourceLimitError):
            lie_mod.bruteforce_dimension(ctx, 4)
        with pytest.raises(ResourceLimitError):
            lie_mod.bruteforce_dimension(ctx, 3, max_basis=10)

    def test_infinite_backend_rejected(self):
        ctx = lie_mod.LieContext(SurfaceGroup(2), 3)
        with pytest.raises(ValueError, match="finite"):
            lie_mod.graded_dimension(ctx, 2)
        assert lie_mod.graded_dimension(ctx, 1, group_order=9) == 27


def test_relation_instances_vanish_small():
    for n in (3, 4):
        for make in (lambda: cyclic_group(2), lambda: cyclic_group(3)):
            group = make()
            ctx = lie_mod.LieContext(group, n)
            for label, terms in lie_mod.pure_braid_relations(n, group.elements(), group):
                assert lie_mod.evaluate_relation(ctx, terms).is_zero(), label


def test_q_only_scales_degrees():
    C2 = cyclic_group(2)
    ctx1 = lie_mod.LieContext(C2, 3, q=1)
    ctx3 = lie_mod.LieContext(C2, 3, q=3)
    rng = random.Random(41)
    for _ in range(20):
        tree = random_expression_tree(rng, 3, C2.elements(), rng.randint(1, 3))
        x1 = eval_expression_tree(ctx1, tree)
        x3 = eval_expression_tree(ctx3, tree)
        assert x1.blocks == x3.blocks
        assert [3 * d for d in x1.degrees()] == x3.degrees()
