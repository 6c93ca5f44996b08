import random
from fractions import Fraction

import pytest

from ocs import cli
from ocs.groups import cyclic_group
from ocs import lie as lie_mod
from ocs import poisson as poisson_mod
from ocs.verify import monomials_by_degree, random_homogeneous_poisson


@pytest.fixture
def k2q1():
    C2 = cyclic_group(2)
    grading = poisson_mod.PoissonGrading(2, 1)
    return poisson_mod.PoissonContext(C2, 3, grading), C2


class TestGrading:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            poisson_mod.PoissonGrading(1, 1)
        with pytest.raises(ValueError):
            poisson_mod.PoissonGrading(3, 1)  # k = 2q+1 excluded
        poisson_mod.PoissonGrading(2, 1)
        poisson_mod.PoissonGrading(4, 2)

    def test_degree_formula(self):
        g = poisson_mod.PoissonGrading(3, 2)
        assert g.generator_degree == 2
        # length m bracket: m*(2q+1-k) + (m-1)*(k-1)
        assert [g.primitive_degree(m) for m in (1, 2, 3)] == [2, 6, 10]
        g2 = poisson_mod.PoissonGrading(2, 1)
        assert [g2.primitive_degree(m) for m in (1, 2, 3)] == [1, 3, 5]

    def test_parity(self):
        assert poisson_mod.PoissonGrading(2, 1).odd_primitives
        assert not poisson_mod.PoissonGrading(3, 2).odd_primitives


class TestProduct:
    def test_odd_square_vanishes(self, k2q1):
        ctx, C2 = k2q1
        a = ctx.generator(2, 1, C2.identity())
        assert ctx.multiply(a, a).is_zero()

    def test_koszul_commutativity(self, k2q1):
        ctx, C2 = k2q1
        rng = random.Random(83)
        pool = monomials_by_degree(ctx, 4)
        for _ in range(30):
            a, da = random_homogeneous_poisson(rng, ctx, pool)
            b, db = random_homogeneous_poisson(rng, ctx, pool)
            lhs = ctx.multiply(a, b)
            rhs = ctx.multiply(b, a).scale(Fraction(-1) ** (da * db))
            assert (lhs - rhs).is_zero()

    def test_unit(self, k2q1):
        ctx, C2 = k2q1
        a = ctx.generator(3, 1, C2.elements()[1])
        assert ctx.multiply(ctx.one(), a) == a

    def test_even_primitives_are_polynomial(self):
        C2 = cyclic_group(2)
        ctx = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
        a = ctx.generator(2, 1, C2.identity())
        sq = ctx.multiply(a, a)
        assert not sq.is_zero()
        assert sq.degree() == 4


class TestBracket:
    def test_disjoint_generators(self):
        C2 = cyclic_group(2)
        ctx = poisson_mod.PoissonContext(C2, 4, poisson_mod.PoissonGrading(2, 1))
        a = ctx.generator(2, 1, C2.identity())
        b = ctx.generator(4, 3, C2.elements()[1])
        assert ctx.bracket(a, b).is_zero()

    def test_antisymmetry_printed_sign_k2(self, k2q1):
        # |a| = |b| = 1, k = 2: exponent |a||b|+1+(k-1)(|a|+|b|+1) = 5, odd
        ctx, C2 = k2q1
        a = ctx.generator(2, 1, C2.identity())
        b = ctx.generator(3, 1, C2.elements()[1])
        assert (ctx.bracket(a, b) + ctx.bracket(b, a)).is_zero()

    def test_product_formula(self, k2q1):
        ctx, C2 = k2q1
        rng = random.Random(89)
        pool = monomials_by_degree(ctx, 4)
        for _ in range(25):
            a, da = random_homogeneous_poisson(rng, ctx, pool)
            b, db = random_homogeneous_poisson(rng, ctx, pool)
            c, _ = random_homogeneous_poisson(rng, ctx, pool)
            lhs = ctx.bracket(ctx.multiply(a, b), c)
            rhs = ctx.multiply(a, ctx.bracket(b, c)) + ctx.multiply(
                b, ctx.bracket(a, c)
            ).scale(Fraction(-1) ** (da * db))
            assert (lhs - rhs).is_zero()

    def test_structure_constants_match_lie(self):
        # even generator degree: bracket on primitives has the lie constants
        C2 = cyclic_group(2)
        ctx = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
        lctx = ctx.lie
        rng = random.Random(97)
        for _ in range(25):
            i, s = rng.choice([2, 3]), rng.choice([2, 3])
            x = lctx.generator(i, rng.randint(1, i - 1), rng.choice(C2.elements()))
            y = lctx.generator(s, rng.randint(1, s - 1), rng.choice(C2.elements()))
            lhs = ctx.bracket(ctx.from_lie(x), ctx.from_lie(y))
            assert lhs == ctx.from_lie(lctx.bracket(x, y))

    def test_poisson_braid_relations_vanish(self, k2q1):
        ctx, C2 = k2q1
        for label, terms in lie_mod.pure_braid_relations(3, C2.elements(), C2):
            value = ctx.zero()
            for coef, (i, j, s1), (s, t, s2) in terms:
                value = value + ctx.bracket(
                    ctx.generator(i, j, s1), ctx.generator(s, t, s2)
                ).scale(coef)
            assert value.is_zero(), label

    def test_desuspension_sign_parity(self):
        # printed antisymmetry exponent == 1 + (|a|+k-1)(|b|+k-1) mod 2
        for k, q in ((2, 1), (2, 2), (3, 2), (4, 3)):
            shift = k - 1
            for da in range(1, 7):
                for db in range(1, 7):
                    printed = da * db + 1 + shift * (da + db + 1)
                    internal = 1 + (da + shift) * (db + shift)
                    assert (printed - internal) % 2 == 0

    def test_grading_mismatch(self, k2q1):
        ctx, C2 = k2q1
        other = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(2, 2))
        with pytest.raises(ValueError, match="mismatch"):
            ctx.bracket(ctx.generator(2, 1, C2.identity()), other.generator(2, 1, C2.identity()))


class TestSuspension:
    def test_generator_degree_shift(self):
        C2 = cyclic_group(2)
        src = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
        a = src.generator(2, 1, C2.identity())
        assert a.degree() == 2
        sa = poisson_mod.suspension(a)
        assert sa.ctx.grading.k == 2
        assert sa.degree() == 3

    def test_naturality_on_brackets(self):
        C2 = cyclic_group(2)
        src = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
        dst = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(2, 2))
        rng = random.Random(101)
        for _ in range(40):
            i, s = rng.choice([2, 3]), rng.choice([2, 3])
            a = src.generator(i, rng.randint(1, i - 1), rng.choice(C2.elements()))
            b = src.generator(s, rng.randint(1, s - 1), rng.choice(C2.elements()))
            lhs = poisson_mod.suspension(src.bracket(a, b))
            rhs = dst.bracket(poisson_mod.suspension(a), poisson_mod.suspension(b))
            assert (lhs - rhs).is_zero()

    def test_rejects_products(self):
        C2 = cyclic_group(2)
        src = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
        a = src.generator(2, 1, C2.identity())
        with pytest.raises(ValueError, match="primitive"):
            poisson_mod.suspension(src.multiply(a, a))

    def test_rejects_low_k(self, k2q1):
        ctx, C2 = k2q1
        with pytest.raises(ValueError):
            poisson_mod.suspension(ctx.generator(2, 1, C2.identity()))


class TestCounting:
    def test_dimension_examples(self, k2q1):
        ctx, _ = k2q1
        assert poisson_mod.basis_dimension(ctx, 1) == 6
        assert poisson_mod.basis_dimension(ctx, 2) == 15
        assert poisson_mod.basis_dimension(ctx, 3) == 27

    def test_dimensions_match_enumeration(self, k2q1):
        ctx, _ = k2q1
        for d in (1, 2, 3, 4):
            assert poisson_mod.basis_dimension(ctx, d) == len(
                poisson_mod.enumerate_monomials(ctx, d)
            )

    def test_even_case_enumeration(self):
        C2 = cyclic_group(2)
        ctx = poisson_mod.PoissonContext(C2, 3, poisson_mod.PoissonGrading(3, 2))
        for d in (1, 2, 3, 4, 6):
            assert poisson_mod.basis_dimension(ctx, d) == len(
                poisson_mod.enumerate_monomials(ctx, d)
            )

    @pytest.mark.parametrize("order", [2, 3], ids=["C2", "C3"])
    @pytest.mark.parametrize("k, q", [(2, 1), (3, 2), (2, 2)])
    def test_one_series_gives_every_degree(self, order, k, q):
        ctx = poisson_mod.PoissonContext(
            cyclic_group(order), 3, poisson_mod.PoissonGrading(k, q)
        )
        dims = poisson_mod.basis_dimensions(ctx, 14)
        assert dims == [poisson_mod.basis_dimension(ctx, d) for d in range(15)]
        with pytest.raises(ValueError, match="degree must be >= 0"):
            poisson_mod.basis_dimensions(ctx, -1)

    def test_cli_dims_counts_each_bracket_length_once(self, monkeypatch, capsys):
        lengths = []
        count = lie_mod.graded_dimension

        def counted(ctx, ell, group_order=None):
            lengths.append(ell)
            return count(ctx, ell, group_order=group_order)

        monkeypatch.setattr(lie_mod, "graded_dimension", counted)
        argv = ["poisson", "dims", "--group", "C2", "--n", "3", "--k", "2", "--q", "1"]
        assert cli.main(argv + ["--max-deg", "40"]) == 0
        grading = poisson_mod.PoissonGrading(2, 1)
        bracket_lengths = sum(1 for m in range(1, 41) if grading.primitive_degree(m) <= 40)
        assert bracket_lengths == 20
        assert len(lengths) <= bracket_lengths
        assert capsys.readouterr().out.splitlines()[-1].split()[0] == "40"

    def test_regrading_bookkeeping(self):
        g = poisson_mod.PoissonGrading(2, 1)
        r = g.regraded()
        assert (r.k, r.q) == (4, 2)
        assert r.generator_degree == g.generator_degree
        assert r.odd_primitives == g.odd_primitives
