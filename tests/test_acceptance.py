"""End-to-end acceptance criteria.

Every check is exact (integer or rational equality, no tolerances).  Run
with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import random
from fractions import Fraction

from ocs import cli
from ocs.groups import SurfaceGroup, cyclic_group
from ocs import assoc as assoc_mod
from ocs import cohomology as cohom_mod
from ocs import lie as lie_mod
from ocs import poisson as poisson_mod
from ocs.verify import (
    eval_expression_tree,
    monomials_by_degree,
    random_expression_tree,
    random_homogeneous_poisson,
)

GENUS2_LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


def test_criterion_1_relation_vanishing():
    # all decorated pure-braid relation instances normalize to exactly 0,
    # for n in {3,4} with G in {trivial, C2, C3} and with decorations from
    # the genus-2 ball B1 (9 elements)
    checked = 0
    for n in (3, 4):
        for group in (cyclic_group(1), cyclic_group(2), cyclic_group(3)):
            ctx = lie_mod.LieContext(group, n)
            for label, terms in lie_mod.pure_braid_relations(n, group.elements(), group):
                assert lie_mod.evaluate_relation(ctx, terms).is_zero(), label
                checked += 1
    surf = SurfaceGroup(2)
    ball = surf.enumerate_ball(1)
    assert len(ball) == 9
    for n in (3, 4):
        ctx = lie_mod.LieContext(surf, n)
        for label, terms in lie_mod.pure_braid_relations(n, ball, surf):
            assert lie_mod.evaluate_relation(ctx, terms).is_zero(), label
            checked += 1
    print(f"ACCEPTANCE 1 (relation vanishing, {checked} instances): PASS")


def test_criterion_2_dimension_oracle_agreement():
    expected = {
        (3, 2): [6, 7, 22],
        (3, 1): [3, 1, 2],
        (2, 1): [1, 0, 0],
    }
    for (n, order), dims in expected.items():
        group = cyclic_group(order)
        ctx = lie_mod.LieContext(group, n)
        for ell in (1, 2, 3):
            counted = lie_mod.graded_dimension(ctx, ell)
            brute = lie_mod.bruteforce_dimension(ctx, ell)
            assert counted == brute == dims[ell - 1], (n, order, ell)
    print("ACCEPTANCE 2 (dimension oracle agreement): PASS")


def test_criterion_3_enveloping_hilbert_series():
    C2 = cyclic_group(2)
    ctx = assoc_mod.AssocContext(C2, 3)
    series = assoc_mod.hilbert_coefficients(ctx, 3)
    assert series == [1, 6, 28, 120]
    assert [assoc_mod.count_canonical_words(ctx, d) for d in range(4)] == series
    assert assoc_mod.bruteforce_quotient_dimension(ctx, 2) == 28
    triv_ctx = assoc_mod.AssocContext(cyclic_group(1), 3)
    assert assoc_mod.bruteforce_quotient_dimension(triv_ctx, 3) == 15
    print("ACCEPTANCE 3 (enveloping/chord Hilbert series): PASS")


def test_criterion_4_cohomology_dimensions():
    for order, poly in ((2, [1, 6, 8]), (1, [1, 3, 2])):
        ctx = cohom_mod.CohomContext(cyclic_group(order), 3)
        assert cohom_mod.poincare_polynomial(ctx) == poly
        assert [cohom_mod.count_admissible(ctx, d) for d in range(3)] == poly
        assert cohom_mod.bruteforce_cohom_dimension(ctx, 2) == poly[2]
    print("ACCEPTANCE 4 (cohomology Poincare/rank agreement): PASS")


def test_criterion_5_poisson_axioms():
    C2 = cyclic_group(2)
    for k, q in ((2, 1), (2, 2), (3, 2)):
        grading = poisson_mod.PoissonGrading(k, q)
        ctx = poisson_mod.PoissonContext(C2, 3, grading)
        shift = grading.shift
        pool = monomials_by_degree(
            ctx, grading.primitive_degree(2) + grading.generator_degree
        )
        rng = random.Random(f"acceptance5:{k}:{q}")
        for trial in range(200):
            a, da = random_homogeneous_poisson(rng, ctx, pool)
            b, db = random_homogeneous_poisson(rng, ctx, pool)
            c, dc = random_homogeneous_poisson(rng, ctx, pool)
            exponent = da * db + 1 + shift * (da + db + 1)
            anti = ctx.bracket(a, b) - ctx.bracket(b, a).scale(
                Fraction(-1) ** exponent
            )
            assert anti.is_zero(), (k, q, trial, "antisymmetry")
            alpha = Fraction(-1) ** ((da + shift) * (dc + shift))
            beta = Fraction(-1) ** ((db + shift) * (da + shift))
            gamma = Fraction(-1) ** ((dc + shift) * (db + shift))
            jac = (
                ctx.bracket(a, ctx.bracket(b, c)).scale(alpha)
                + ctx.bracket(b, ctx.bracket(c, a)).scale(beta)
                + ctx.bracket(c, ctx.bracket(a, b)).scale(gamma)
            )
            assert jac.is_zero(), (k, q, trial, "jacobi")
            lhs = ctx.bracket(ctx.multiply(a, b), c)
            rhs = ctx.multiply(a, ctx.bracket(b, c)) + ctx.multiply(
                b, ctx.bracket(a, c)
            ).scale(Fraction(-1) ** (da * db))
            assert (lhs - rhs).is_zero(), (k, q, trial, "product formula")
            br = ctx.bracket(a, b)
            assert br.is_zero() or br.degree() == shift + da + db, (k, q, trial)
        for label, terms in lie_mod.pure_braid_relations(3, C2.elements(), C2):
            value = ctx.zero()
            for coef, (i, j, s1), (s, t, s2) in terms:
                value = value + ctx.bracket(
                    ctx.generator(i, j, s1), ctx.generator(s, t, s2)
                ).scale(coef)
            assert value.is_zero(), (k, q, str(label))
    print("ACCEPTANCE 5 (Poisson axioms, 200 triples x 3 gradings): PASS")


def test_criterion_6_suspension_naturality():
    C2 = cyclic_group(2)
    src = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
    dst = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(2, 2))
    rng = random.Random("acceptance6")
    for trial in range(100):
        i = rng.randint(2, 3)
        s = rng.randint(2, 3)
        a = src.generator(i, rng.randint(1, i - 1), rng.choice(C2.elements()))
        b = src.generator(s, rng.randint(1, s - 1), rng.choice(C2.elements()))
        lhs = poisson_mod.suspension(src.bracket(a, b))
        rhs = dst.bracket(poisson_mod.suspension(a), poisson_mod.suspension(b))
        assert (lhs - rhs).is_zero(), trial
    print("ACCEPTANCE 6 (suspension naturality, 100 pairs): PASS")


def test_criterion_7_word_problem():
    surf = SurfaceGroup(2)
    assert surf.is_trivial_word(surf.relator)
    inv_rel = tuple(-l for l in reversed(surf.relator))
    rng = random.Random("acceptance7")
    for trial in range(1000):
        word = ()
        for _ in range(rng.randint(1, 5)):
            conj = tuple(rng.choice(GENUS2_LETTERS) for _ in range(rng.randint(0, 4)))
            base = surf.relator if rng.random() < 0.5 else inv_rel
            word = word + conj + base + tuple(-l for l in reversed(conj))
        assert surf.is_trivial_word(word), trial
    # every freely-reduced word of length <= 4 is nontrivial (Greendlinger)
    words = [()]
    total = 0
    for _ in range(4):
        words = [
            w + (l,) for w in words for l in GENUS2_LETTERS if not w or w[-1] != -l
        ]
        for w in words:
            total += 1
            assert not surf.is_trivial_word(w), w
    assert total == 8 + 56 + 392 + 2744
    assert [len(surf.enumerate_ball(r)) for r in range(3)] == [1, 9, 65]
    print("ACCEPTANCE 7 (word problem: 1000 products, 3200 short words): PASS")


def test_criterion_8_symmetric_compatibility():
    C2 = cyclic_group(2)
    n = 3
    lctx = lie_mod.LieContext(C2, n)
    actx = assoc_mod.AssocContext(C2, n)
    trivial_tuple = tuple(C2.identity() for _ in range(n))
    perms = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)]
    relations = list(lie_mod.pure_braid_relations(n, C2.elements(), C2))
    rng = random.Random("acceptance8")
    for perm in perms:
        # relations map to zero under the generator-wise action
        for label, terms in relations:
            image = lctx.zero()
            for coef, (i, j, s1), (s, t, s2) in terms:
                image = image + lctx.bracket(
                    lctx.act_symmetric(perm, lctx.generator(i, j, s1)),
                    lctx.act_symmetric(perm, lctx.generator(s, t, s2)),
                ).scale(coef)
            assert image.is_zero(), (perm, str(label))
        for other in perms:
            composed = tuple(perm[other[i - 1] - 1] for i in range(1, n + 1))
            for _ in range(3):
                tree = random_expression_tree(rng, n, C2.elements(), rng.randint(1, 3))
                x = eval_expression_tree(lctx, tree)
                # composition law in the lie module
                assert lctx.act_symmetric(perm, lctx.act_symmetric(other, x)) == (
                    lctx.act_symmetric(composed, x)
                )
                # automorphism property in the assoc module
                ex = actx.embed_lie(x)
                ey = actx.act_tilde(perm, trivial_tuple, ex)
                assert actx.act_tilde(other, trivial_tuple, ey) == actx.act_tilde(
                    tuple(other[perm[i - 1] - 1] for i in range(1, n + 1)),
                    trivial_tuple,
                    ex,
                )
                # the two actions agree under the enveloping embedding
                assert actx.embed_lie(lctx.act_symmetric(perm, x)) == actx.act_tilde(
                    perm, trivial_tuple, ex
                )
        # act_tilde is an algebra automorphism
        for _ in range(5):
            a = actx.embed_lie(
                eval_expression_tree(
                    lctx, random_expression_tree(rng, n, C2.elements(), 2)
                )
            )
            b = actx.embed_lie(
                eval_expression_tree(
                    lctx, random_expression_tree(rng, n, C2.elements(), 1)
                )
            )
            lhs = actx.act_tilde(perm, trivial_tuple, a * b)
            rhs = actx.act_tilde(perm, trivial_tuple, a) * actx.act_tilde(
                perm, trivial_tuple, b
            )
            assert lhs == rhs, perm
    print("ACCEPTANCE 8 (symmetric group compatibility, 6 permutations): PASS")


def test_criterion_9_regrading_triviality():
    C2 = cyclic_group(2)
    ctx1 = lie_mod.LieContext(C2, 3, q=1)
    ctx3 = lie_mod.LieContext(C2, 3, q=3)
    rng = random.Random("acceptance9")
    for trial in range(100):
        tree = random_expression_tree(rng, 3, C2.elements(), rng.randint(1, 3))
        x1 = eval_expression_tree(ctx1, tree)
        x3 = eval_expression_tree(ctx3, tree)
        assert x1.blocks == x3.blocks, trial
        assert [3 * d for d in x1.degrees()] == x3.degrees(), trial
    print("ACCEPTANCE 9 (regrading triviality, 100 expressions): PASS")


def test_criterion_10_determinism(capsys):
    argv = ["verify", "all", "--group", "C2", "--n", "3", "--seed", "42"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    report = json.loads(out1)
    assert report["suite"] == "all" and report["failures"] == []
    print(f"ACCEPTANCE 10 (verify-all determinism, {report['cases']} cases): PASS")
