import random

import pytest

from ocs.errors import ResourceLimitError
from ocs.groups import cyclic_group
from ocs import cohomology as cohom_mod


@pytest.fixture
def c2():
    C2 = cyclic_group(2)
    return cohom_mod.CohomContext(C2, 3), C2


class TestCup:
    def test_same_pair_annihilates(self, c2):
        ctx, C2 = c2
        e, g = C2.elements()
        assert ctx.cup(ctx.generator(3, 1, e), ctx.generator(3, 1, g)).is_zero()
        assert ctx.cup(ctx.generator(3, 1, g), ctx.generator(3, 1, g)).is_zero()

    def test_repeated_top_rewrites_down(self, c2):
        # A^mu_{3,1} A^nu_{3,2}
        #   = A^{mu nu^-1}_{2,1} A^nu_{3,2} - A^{mu nu^-1}_{2,1} A^mu_{3,1}
        ctx, C2 = c2
        e, g = C2.elements()
        mu, nu = e, g
        prod = ctx.cup(ctx.generator(3, 1, mu), ctx.generator(3, 2, nu))
        dec = C2.multiply(mu, C2.invert(nu))
        z = ctx.factor(2, 1, dec)
        expected = cohom_mod.CohomElement(
            ctx,
            {
                (z, ctx.factor(3, 2, nu)): 1,
                (z, ctx.factor(3, 1, mu)): -1,
            },
        )
        assert prod == expected

    def test_distinct_tops_already_admissible(self, c2):
        ctx, C2 = c2
        e, g = C2.elements()
        prod = ctx.cup(ctx.generator(2, 1, e), ctx.generator(3, 1, g))
        assert list(prod.terms) == [(ctx.factor(2, 1, e), ctx.factor(3, 1, g))]

    def test_anticommutativity(self, c2):
        ctx, C2 = c2
        rng = random.Random(73)
        for _ in range(40):
            i = rng.choice([2, 3])
            s = rng.choice([2, 3])
            a = ctx.generator(i, rng.randint(1, i - 1), rng.choice(C2.elements()))
            b = ctx.generator(s, rng.randint(1, s - 1), rng.choice(C2.elements()))
            assert (ctx.cup(a, b) + ctx.cup(b, a)).is_zero()

    def test_associativity_and_admissibility(self, c2):
        ctx, C2 = c2
        rng = random.Random(79)
        for _ in range(40):
            gens = []
            for _ in range(3):
                i = rng.choice([2, 3])
                gens.append(ctx.generator(i, rng.randint(1, i - 1), rng.choice(C2.elements())))
            a, b, c = gens
            left = ctx.cup(ctx.cup(a, b), c)
            right = ctx.cup(a, ctx.cup(b, c))
            assert (left - right).is_zero()
            for mono in left.terms:
                tops = [f[0] for f in mono]
                assert tops == sorted(tops) and len(set(tops)) == len(tops)

    def test_unit(self, c2):
        ctx, C2 = c2
        a = ctx.generator(3, 2, C2.elements()[1])
        assert ctx.cup(ctx.one(), a) == a
        assert ctx.cup(a, ctx.one()) == a


class TestCounting:
    def test_poincare_n2(self):
        ctx = cohom_mod.CohomContext(cyclic_group(2), 2)
        assert cohom_mod.poincare_polynomial(ctx) == [1, 2]

    def test_poincare_n3_c2(self, c2):
        ctx, _ = c2
        assert cohom_mod.poincare_polynomial(ctx) == [1, 6, 8]

    def test_poincare_n3_trivial(self):
        # |G| = 1 recovers the classical plane-configuration polynomial
        ctx = cohom_mod.CohomContext(cyclic_group(1), 3)
        assert cohom_mod.poincare_polynomial(ctx) == [1, 3, 2]

    def test_admissible_counts_match(self, c2):
        ctx, _ = c2
        poly = cohom_mod.poincare_polynomial(ctx)
        for deg, want in enumerate(poly):
            assert cohom_mod.count_admissible(ctx, deg) == want
        assert cohom_mod.count_admissible(ctx, len(poly)) == 0

    def test_bruteforce_rank_oracle(self, c2):
        ctx, C2 = c2
        assert cohom_mod.bruteforce_cohom_dimension(ctx, 2) == 8
        ctx4 = cohom_mod.CohomContext(C2, 4)
        assert cohom_mod.bruteforce_cohom_dimension(ctx4, 3) == 48
        assert cohom_mod.poincare_polynomial(ctx4)[3] == 48

    def test_bruteforce_trivial_group(self):
        ctx = cohom_mod.CohomContext(cyclic_group(1), 3)
        assert cohom_mod.bruteforce_cohom_dimension(ctx, 2) == 2
        ctx = cohom_mod.CohomContext(cyclic_group(1), 4)
        assert cohom_mod.bruteforce_cohom_dimension(ctx, 3) == 6
        assert cohom_mod.poincare_polynomial(ctx)[3] == 6

    def test_bruteforce_n2_degree2_vanishes(self):
        for order in (1, 2, 3):
            ctx = cohom_mod.CohomContext(cyclic_group(order), 2)
            assert cohom_mod.bruteforce_cohom_dimension(ctx, 2) == 0

    def test_guard(self, c2):
        ctx, _ = c2
        with pytest.raises(ResourceLimitError):
            cohom_mod.bruteforce_cohom_dimension(ctx, 4)


def test_factor_validation(c2):
    ctx, C2 = c2
    with pytest.raises(ValueError):
        ctx.factor(1, 3, C2.identity())
    with pytest.raises(ValueError):
        ctx.factor(4, 1, C2.identity())
