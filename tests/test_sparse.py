from fractions import Fraction

import pytest

from ocs.assoc import AssocContext, AssocElement
from ocs.cohomology import CohomContext, CohomElement
from ocs.groups import cyclic_group
from ocs.poisson import PoissonContext, PoissonElement, PoissonGrading
from ocs.sparse import add_into


@pytest.fixture
def c2():
    return cyclic_group(2)


class TestAddInto:
    def test_cancelled_label_is_popped(self):
        dst = {"a": Fraction(1), "b": Fraction(2)}
        add_into(dst, {"a": Fraction(-1), "c": Fraction(3)})
        assert dst == {"b": 2, "c": 3}
        assert "a" not in dst

    def test_coef_scales_source(self):
        dst = {"a": Fraction(1)}
        add_into(dst, {"a": Fraction(1, 2), "b": Fraction(2)}, coef=-2)
        assert dst == {"b": -4}

    def test_returns_dst(self):
        dst = {}
        assert add_into(dst, {"a": 1}) is dst
        assert add_into(dst, {}, coef=5) is dst

    def test_source_untouched(self):
        src = {"a": Fraction(1)}
        add_into({"a": Fraction(-1)}, src)
        assert src == {"a": 1}


def _assoc(c2):
    ctx = AssocContext(c2, 3)
    return ctx, ctx.generator(2, 1, c2.identity())


def _cohom(c2):
    ctx = CohomContext(c2, 3)
    return ctx, ctx.generator(2, 1, c2.identity())


def _poisson(c2):
    ctx = PoissonContext(c2, 3, PoissonGrading(2, 1))
    return ctx, ctx.generator(2, 1, c2.identity())


class TestCombination:
    def test_poisson_equality_is_by_grading(self, c2):
        ctx, x = _poisson(c2)
        twin = PoissonContext(c2, 3, PoissonGrading(2, 1))
        other = PoissonContext(c2, 3, PoissonGrading(3, 2))
        assert twin is not ctx
        assert PoissonElement(twin, x.terms) == x
        assert PoissonElement(other, x.terms) != x
        assert PoissonElement(PoissonContext(c2, 4, PoissonGrading(2, 1)), x.terms) != x
        # compatible contexts combine, too
        assert (x + PoissonElement(twin, x.terms)) == x.scale(2)

    @pytest.mark.parametrize(
        "make, ctx_type, cls",
        [(_assoc, AssocContext, AssocElement), (_cohom, CohomContext, CohomElement)],
    )
    def test_equality_is_by_context_identity(self, c2, make, ctx_type, cls):
        ctx, x = make(c2)
        assert cls(ctx, dict(x.terms)) == x
        assert cls(ctx_type(c2, 3), x.terms) != x
        with pytest.raises(ValueError, match="context mismatch"):
            x + cls(ctx_type(c2, 3), x.terms)

    @pytest.mark.parametrize("make", [_assoc, _cohom, _poisson])
    def test_unhashable(self, c2, make):
        _, x = make(c2)
        with pytest.raises(TypeError, match=f"^{type(x).__name__} is not hashable$"):
            hash(x)

    @pytest.mark.parametrize("make", [_assoc, _cohom, _poisson])
    def test_linear_structure(self, c2, make):
        ctx, x = make(c2)
        y = x.scale(Fraction(3, 2))
        assert (y - x) == x.scale(Fraction(1, 2))
        assert (x - x).is_zero() and (x - x) == ctx.zero()
        assert -x == x.scale(-1)
        assert x.scale(0).is_zero()
        assert all(isinstance(c, Fraction) for c in (y + x).terms.values())
        assert type(x)(ctx, {key: Fraction(0) for key in x.terms}).terms == {}

    def test_repr(self, c2):
        g, e = c2.parse_element("g"), c2.identity()
        a, c, p = _assoc(c2)[0], _cohom(c2)[0], _poisson(c2)[0]
        xa = a.generator(3, 1, g) * a.generator(2, 1, e)
        xc = c.generator(2, 1, g) * c.generator(3, 2, e)
        xp = p.generator(2, 1, g) * p.generator(3, 1, e) + p.bracket(
            p.generator(2, 1, g), p.generator(3, 2, e)
        ).scale(Fraction(-1, 2))
        assert repr(xa) == (
            "AssocElement(1*X(2,1|e) X(3,1|g) + -1*X(3,1|g) X(3,2|g) + 1*X(3,2|g) X(3,1|g))"
        )
        assert repr(xc) == "CohomElement(1*A(2,1|g) A(3,2|e))"
        assert repr(xp) == (
            "PoissonElement(1*(P2[(1, 1)] * P3[(1, 0)]) + 1/2*(P3[(1, 1), (2, 0)]))"
        )
        assert [repr(a.one().scale(3)), repr(c.one()), repr(p.one())] == [
            "AssocElement(3*1)", "CohomElement(1*1)", "PoissonElement(1*(1))"
        ]
        assert [repr(a.zero()), repr(c.zero()), repr(p.zero())] == [
            "AssocElement(0)", "CohomElement(0)", "PoissonElement(0)"
        ]
