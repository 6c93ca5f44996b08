import random
from fractions import Fraction

import pytest

from ocs.errors import ResourceLimitError
from ocs.groups import cyclic_group, load_group
from ocs import assoc as assoc_mod
from ocs import sparse
from ocs import lie as lie_mod
from ocs.linalg import rank_of_rows
from ocs.verify import random_lie_element
from test_nonabelian_oracles import s3_group


@pytest.fixture
def c2():
    C2 = cyclic_group(2)
    return assoc_mod.AssocContext(C2, 3), C2


def random_word(rng, ctx, decorations, max_len=3):
    letters = []
    for _ in range(rng.randint(1, max_len)):
        i = rng.randint(2, ctx.n)
        j = rng.randint(1, i - 1)
        letters.append(ctx.letter(i, j, rng.choice(decorations)))
    return ctx.word(letters)


class TestStraightening:
    def test_disjoint_letters_commute(self):
        C2 = cyclic_group(2)
        ctx = assoc_mod.AssocContext(C2, 4)
        e, g = C2.elements()
        prod = ctx.generator(4, 3, e) * ctx.generator(2, 1, g)
        assert prod == ctx.word([ctx.letter(2, 1, g), ctx.letter(4, 3, e)])

    def test_overlapping_swap_adds_correction(self, c2):
        # X^tau_{3,1} X^sigma_{2,1}
        #   = X^sigma_{2,1} X^tau_{3,1} - X^tau_{3,1} X^{tau sigma^-1}_{3,2}
        #     + X^{tau sigma^-1}_{3,2} X^tau_{3,1}
        ctx, C2 = c2
        e, g = C2.elements()
        tau, sigma = e, g
        prod = ctx.generator(3, 1, tau) * ctx.generator(2, 1, sigma)
        dec = C2.multiply(tau, C2.invert(sigma))
        x21 = ctx.letter(2, 1, sigma)
        x31 = ctx.letter(3, 1, tau)
        x32 = ctx.letter(3, 2, dec)
        expected = (
            ctx.word([x21, x31])
            - ctx.word([x31, x32])
            + ctx.word([x32, x31])
        )
        assert prod == expected

    def test_single_block_words_free(self, c2):
        ctx, C2 = c2
        e, g = C2.elements()
        prod = ctx.generator(2, 1, g) * ctx.generator(2, 1, e)
        assert prod == ctx.word([ctx.letter(2, 1, g), ctx.letter(2, 1, e)])
        # no rewriting inside one block: order is preserved
        assert list(prod.terms) == [(ctx.letter(2, 1, g), ctx.letter(2, 1, e))]

    def test_associativity_100_triples(self, c2):
        ctx, C2 = c2
        rng = random.Random(43)
        for _ in range(100):
            a = random_word(rng, ctx, C2.elements())
            b = random_word(rng, ctx, C2.elements())
            c = random_word(rng, ctx, C2.elements())
            assert ((a * b) * c - a * (b * c)).is_zero()

    def test_degree_additive(self, c2):
        ctx, C2 = c2
        rng = random.Random(47)
        for _ in range(30):
            a = random_word(rng, ctx, C2.elements())
            b = random_word(rng, ctx, C2.elements())
            assert (a * b).degrees() == [a.degrees()[0] + b.degrees()[0]]

    def test_unit(self, c2):
        ctx, C2 = c2
        a = ctx.generator(3, 2, C2.elements()[1])
        assert ctx.one() * a == a
        assert a * ctx.one() == a

    def test_relations_vanish(self, c2):
        ctx, C2 = c2
        for gamma in C2.elements():
            for delta in C2.elements():
                for (i, j, s) in [(2, 1, 3), (1, 2, 3), (3, 1, 2), (3, 2, 1), (2, 3, 1), (1, 3, 2)]:
                    x = ctx.generator(i, j, gamma)
                    yz = ctx.generator(j, s, delta) + ctx.generator(
                        i, s, C2.multiply(gamma, delta)
                    )
                    assert (x * yz - yz * x).is_zero()


class TestActions:
    def test_conjugation_fixes_other_slots(self, c2):
        ctx, C2 = c2
        g = C2.elements()[1]
        a = ctx.generator(3, 2, g)
        assert ctx.conjugate(g, 1, a) == a

    def test_conjugation_top_slot(self, c2):
        ctx, C2 = c2
        e, g = C2.elements()
        a = ctx.generator(3, 2, e)
        assert ctx.conjugate(g, 3, a) == ctx.generator(3, 2, g)

    def test_conjugation_lower_slot(self, c2):
        # slot j sends gamma to gamma mu^-1
        C3 = cyclic_group(3)
        ctx = assoc_mod.AssocContext(C3, 3)
        g = C3.parse_element("g")
        a = ctx.generator(3, 2, C3.identity())
        assert ctx.conjugate(g, 2, a) == ctx.generator(3, 2, C3.invert(g))

    def test_identity_conjugation(self, c2):
        ctx, C2 = c2
        rng = random.Random(53)
        for _ in range(10):
            a = random_word(rng, ctx, C2.elements())
            assert ctx.conjugate(C2.identity(), rng.randint(1, 3), a) == a

    def test_conjugation_is_algebra_automorphism(self, c2):
        ctx, C2 = c2
        rng = random.Random(59)
        g = C2.elements()[1]
        for _ in range(20):
            a = random_word(rng, ctx, C2.elements())
            b = random_word(rng, ctx, C2.elements())
            slot = rng.randint(1, 3)
            lhs = ctx.conjugate(g, slot, a * b)
            rhs = ctx.conjugate(g, slot, a) * ctx.conjugate(g, slot, b)
            assert lhs == rhs
            assert (a * b).degrees() == lhs.degrees()

    def test_conjugations_commute_across_slots(self):
        C3 = cyclic_group(3)
        ctx = assoc_mod.AssocContext(C3, 3)
        g, h = C3.parse_element("g"), C3.parse_element("g2")
        a = ctx.generator(3, 1, C3.identity()) * ctx.generator(2, 1, g)
        ab = ctx.conjugate(g, 1, ctx.conjugate(h, 3, a))
        ba = ctx.conjugate(h, 3, ctx.conjugate(g, 1, a))
        assert ab == ba

    @pytest.mark.parametrize("name", ["S3", "surface:2"])
    def test_conjugation_rewrites_nothing_and_matches_the_rewritten_route(self, name, monkeypatch):
        group = s3_group() if name == "S3" else load_group(name)
        decorations = group.enumerate_ball(1)
        ctx = assoc_mod.AssocContext(group, 3)
        s = ctx.zero()
        for i, j in ((2, 1), (3, 1), (3, 2)):
            for g in decorations[:3]:
                s = s + ctx.generator(i, j, g)
        x = s * s * s + s
        assert len(x.terms) > 500
        rewrites = []
        original = sparse.rewrite

        def counting(terms, rule):
            rewrites.append(len(terms))
            return original(terms, rule)

        monkeypatch.setattr(sparse, "rewrite", counting)
        monkeypatch.setattr(assoc_mod, "rewrite", counting)
        for slot in (1, 2, 3):
            for mu in decorations:
                got = ctx.conjugate(mu, slot, x)
                assert rewrites == []

                def twisted(letter):
                    i, j, uid = letter
                    g = group.element_by_uid(uid)
                    if slot == i:
                        g = group.multiply(mu, g)
                    elif slot == j:
                        g = group.multiply(g, group.invert(mu))
                    return ctx.letter(i, j, g)

                assert got.terms == ctx.substitute(x, twisted).terms
                rewrites.clear()

    def test_permutation_transposition(self, c2):
        # (i j) sends X^gamma_{i,j} to X^{gamma^-1}_{i,j}
        ctx, C2 = c2
        g = C2.elements()[1]
        a = ctx.generator(3, 1, g)
        assert ctx.act_permutation((3, 2, 1), a) == ctx.generator(3, 1, C2.invert(g))

    def test_permutation_cycle(self, c2):
        ctx, C2 = c2
        g = C2.elements()[1]
        a = ctx.generator(2, 1, g)
        assert ctx.act_permutation((2, 3, 1), a) == ctx.generator(3, 2, g)

    def test_act_tilde_identity(self, c2):
        ctx, C2 = c2
        rng = random.Random(61)
        triv = tuple(C2.identity() for _ in range(3))
        for _ in range(10):
            a = random_word(rng, ctx, C2.elements())
            assert ctx.act_tilde((1, 2, 3), triv, a) == a

    def test_act_tilde_matches_lie_action(self, c2):
        ctx, C2 = c2
        lctx = lie_mod.LieContext(C2, 3)
        rng = random.Random(67)
        triv = tuple(C2.identity() for _ in range(3))
        perms = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 3, 2)]
        for _ in range(15):
            x = random_lie_element(rng, lctx, C2.elements())
            perm = rng.choice(perms)
            lhs = ctx.embed_lie(lctx.act_symmetric(perm, x))
            rhs = ctx.act_tilde(perm, triv, ctx.embed_lie(x))
            assert lhs == rhs

    def test_lambda_element_module_law(self, c2):
        ctx, C2 = c2
        e, g = C2.elements()
        lam1 = assoc_mod.LambdaElement(ctx, {(g, e, e): 1, (e, g, e): -2})
        lam2 = assoc_mod.LambdaElement(ctx, {(e, e, g): 3})
        a = ctx.generator(3, 1, g) * ctx.generator(2, 1, e)
        assert (lam1 * lam2).act(a) == lam1.act(lam2.act(a))


@pytest.fixture(params=["S3-n3", "surface2-ball1"])
def decorated(request):
    """A chord algebra over a nonabelian group and the decorations its
    random words and group tuples draw from."""
    if request.param == "S3-n3":
        group = s3_group()
        return assoc_mod.AssocContext(group, 3), group.elements()
    group = load_group("surface:2")
    return assoc_mod.AssocContext(group, 3), group.enumerate_ball(1)


class TestDecoratedActionsNonabelian:
    def _random(self, rng, ctx, decorations):
        perm = tuple(rng.sample(range(1, ctx.n + 1), ctx.n))
        return perm, tuple(rng.choice(decorations) for _ in range(ctx.n))

    def _element(self, rng, ctx, decorations):
        return random_word(rng, ctx, decorations) - random_word(rng, ctx, decorations).scale(2)

    def test_act_tilde_is_an_algebra_automorphism(self, decorated):
        ctx, decorations = decorated
        rng = random.Random(71)
        for _ in range(12):
            perm, mu = self._random(rng, ctx, decorations)
            a, b = self._element(rng, ctx, decorations), self._element(rng, ctx, decorations)
            image_a, image_b = ctx.act_tilde(perm, mu, a), ctx.act_tilde(perm, mu, b)
            assert ctx.act_tilde(perm, mu, a * b) == image_a * image_b
            assert ctx.act_tilde(perm, mu, a + b) == image_a + image_b

    def test_wreath_composition_law(self, decorated):
        ctx, decorations = decorated
        group = ctx.group
        rng = random.Random(73)
        for _ in range(12):
            pi, mu = self._random(rng, ctx, decorations)
            rho, nu = self._random(rng, ctx, decorations)
            x = self._element(rng, ctx, decorations)
            # (pi o rho)(i) = pi(rho(i)); lambda_k = mu_k nu_{pi^-1(k)}
            composed = tuple(pi[rho[i] - 1] for i in range(ctx.n))
            lam = tuple(group.multiply(mu[k], nu[pi.index(k + 1)]) for k in range(ctx.n))
            lhs = ctx.act_tilde(pi, mu, ctx.act_tilde(rho, nu, x))
            assert lhs == ctx.act_tilde(composed, lam, x)


class TestEmbedding:
    def test_generator_embeds_to_letter(self, c2):
        ctx, C2 = c2
        lctx = lie_mod.LieContext(C2, 3)
        g = C2.elements()[1]
        assert ctx.embed_lie(lctx.generator(3, 1, g)) == ctx.generator(3, 1, g)

    def test_bracket_embeds_to_commutator(self):
        triv = cyclic_group(1)
        ctx = assoc_mod.AssocContext(triv, 3)
        lctx = lie_mod.LieContext(triv, 3)
        e = triv.identity()
        x = lctx.generator(3, 1, e)
        y = lctx.generator(3, 2, e)
        ex, ey = ctx.embed_lie(x), ctx.embed_lie(y)
        assert ctx.embed_lie(lctx.bracket(x, y)) == ex * ey - ey * ex

    def test_relation_instance_embeds_to_zero(self, c2):
        ctx, C2 = c2
        lctx = lie_mod.LieContext(C2, 3)
        for label, terms in lie_mod.pure_braid_relations(3, C2.elements(), C2):
            value = ctx.zero()
            for coef, (i, j, s1), (s, t, s2) in terms:
                ea = ctx.embed_lie(lctx.generator(i, j, s1))
                eb = ctx.embed_lie(lctx.generator(s, t, s2))
                value = value + (ea * eb - eb * ea).scale(coef)
            assert value.is_zero(), label

    def test_intertwines_brackets(self, c2):
        ctx, C2 = c2
        lctx = lie_mod.LieContext(C2, 3)
        rng = random.Random(71)
        for _ in range(20):
            x = random_lie_element(rng, lctx, C2.elements())
            y = random_lie_element(rng, lctx, C2.elements())
            ex, ey = ctx.embed_lie(x), ctx.embed_lie(y)
            assert ctx.embed_lie(lctx.bracket(x, y)) == ex * ey - ey * ex

    def test_injective_on_lyndon_basis_up_to_degree_3(self, c2):
        ctx, C2 = c2
        lctx = lie_mod.LieContext(C2, 3)
        rows = []
        count = 0
        for ell in (1, 2, 3):
            for block, word in lie_mod.block_lyndon_basis(lctx, ell):
                x = lie_mod.LieElement(lctx, {(block, word): Fraction(1)})
                rows.append(dict(ctx.embed_lie(x).terms))
                count += 1
        assert count == 6 + 7 + 22
        assert rank_of_rows(rows) == count


class TestHilbert:
    def test_series_n2_trivial(self):
        ctx = assoc_mod.AssocContext(cyclic_group(1), 2)
        assert assoc_mod.hilbert_coefficients(ctx, 5) == [1, 1, 1, 1, 1, 1]

    def test_series_n3_c2(self, c2):
        ctx, _ = c2
        assert assoc_mod.hilbert_coefficients(ctx, 3) == [1, 6, 28, 120]

    def test_series_matches_enumeration(self, c2):
        ctx, _ = c2
        series = assoc_mod.hilbert_coefficients(ctx, 3)
        for deg in range(4):
            assert assoc_mod.count_canonical_words(ctx, deg) == series[deg]

    def test_degree2_bruteforce_rank(self, c2):
        ctx, _ = c2
        assert assoc_mod.bruteforce_quotient_dimension(ctx, 2) == 28

    def test_degree3_bruteforce_trivial_group(self):
        ctx = assoc_mod.AssocContext(cyclic_group(1), 3)
        assert assoc_mod.hilbert_coefficients(ctx, 3) == [1, 3, 7, 15]
        assert assoc_mod.bruteforce_quotient_dimension(ctx, 3) == 15

    def test_guards(self, c2):
        ctx, _ = c2
        with pytest.raises(ResourceLimitError):
            assoc_mod.bruteforce_quotient_dimension(ctx, 4)
        with pytest.raises(ResourceLimitError):
            assoc_mod.bruteforce_quotient_dimension(ctx, 3, max_basis=5)
