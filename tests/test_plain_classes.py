"""The contract of the four plain value classes (``GroupElement``,
``Combination``, ``PoissonGrading``, ``VerifyConfig``): constructor order
and defaults, reprs, equality and hashing, frozenness, type hints, and no
instance ``__dict__`` on any element class."""

import typing

import pytest

from ocs.assoc import AssocContext, AssocElement, LambdaElement
from ocs.cohomology import CohomContext, CohomElement
from ocs.groups import GroupElement, cyclic_group, load_group
from ocs.lie import LieContext, LieElement
from ocs.poisson import PoissonContext, PoissonElement, PoissonGrading
from ocs.sparse import Combination, StrandWordElement
from ocs.verify import VerifyConfig

# the reprs the dataclass versions printed
VERIFY_CONFIG_REPR = (
    "VerifyConfig(group='C2', n=3, q=1, k=2, seed=0, radius=1, samples=40, max_basis=200000)"
)


def elements():
    """One instance of each Combination subclass over C2, n = 3."""
    c2 = cyclic_group(2)
    e, g = c2.elements()
    actx = AssocContext(c2, 3)
    return [
        StrandWordElement(actx, {((2, 1, g.uid),): 1}),
        actx.generator(2, 1, g),
        CohomContext(c2, 3).generator(3, 1, g),
        LieContext(c2, 3).generator(3, 2, g),
        PoissonContext(c2, 3, PoissonGrading(2, 1)).generator(2, 1, e),
        LambdaElement(actx, {(e, g, e): 1}),
    ]


def test_reprs_match_the_dataclass_reprs():
    assert repr(VerifyConfig()) == VERIFY_CONFIG_REPR
    assert repr(PoissonGrading(2, 1)) == "PoissonGrading(k=2, q=1)"
    assert repr(cyclic_group(2).elements()) == "[<finite e>, <finite g>]"
    ball = load_group("surface:2").enumerate_ball(1)
    assert repr(ball[:3]) == "[<surface e>, <surface a1>, <surface a1^-1>]"


def test_positional_order_and_defaults():
    cfg = VerifyConfig("S3", 4, 2, 3, 7, 2, 10, 99)
    assert (cfg.group, cfg.n, cfg.q, cfg.k) == ("S3", 4, 2, 3)
    assert (cfg.seed, cfg.radius, cfg.samples, cfg.max_basis) == (7, 2, 10, 99)
    assert VerifyConfig(samples=5) == VerifyConfig("C2", 3, 1, 2, 0, 1, 5, 200_000)
    grading = PoissonGrading(3, 2)
    assert (grading.k, grading.q) == (3, 2)
    c2 = cyclic_group(2)
    el = GroupElement(c2, (1,), 1)
    assert (el.ctx, el.payload, el.uid) == (c2, (1,), 1)
    with pytest.raises(ValueError, match="need 1 < k < 2q\\+1"):
        PoissonGrading(1, 1)


def test_verify_config_compares_by_field_and_is_unhashable():
    assert VerifyConfig() == VerifyConfig()
    assert VerifyConfig() != VerifyConfig(n=4)
    assert VerifyConfig() != ("C2", 3, 1, 2, 0, 1, 40, 200_000)
    with pytest.raises(TypeError):
        hash(VerifyConfig())
    cfg = VerifyConfig()
    cfg.samples = 3  # not frozen
    assert cfg == VerifyConfig(samples=3)


def test_poisson_grading_is_hashed_by_k_and_q():
    a, b = PoissonGrading(2, 1), PoissonGrading(2, 1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PoissonGrading(3, 2) and a != (2, 1)
    assert {a: 1}[PoissonGrading(2, 1)] == 1


def test_group_elements_compare_by_group_and_uid():
    c2, other = cyclic_group(2), cyclic_group(2)
    g = c2.elements()[1]
    twin = GroupElement(c2, g.payload, g.uid)
    assert twin == g and hash(twin) == hash(g)
    assert g != other.elements()[1] and g != c2.elements()[0]


def test_group_element_hash_contract():
    # equal elements hash equal; a shared hash alone never makes keys collide
    c2, other, surface = cyclic_group(2), cyclic_group(2), load_group("surface:2")
    for x in c2.elements() + surface.enumerate_ball(1):
        twin = GroupElement(x.ctx, x.payload, x.uid)
        assert twin == x and hash(twin) == hash(x)
        assert {x: "first"}[twin] == "first" and len({x, twin}) == 1
    g, h, a = c2.elements()[1], other.elements()[1], surface.element_by_uid(1)
    assert g.uid == h.uid == a.uid and g != h and g != a
    keys = {g: "c2", h: "other", a: "surface", 1: "int"}
    assert len(keys) == 4 and len({g, h, a, 1}) == 4
    assert (keys[g], keys[h], keys[a], keys[1]) == ("c2", "other", "surface", "int")


def test_combinations_refuse_hashing():
    for x in elements():
        with pytest.raises(TypeError, match="is not hashable"):
            hash(x)


@pytest.mark.parametrize("make, field", [
    (lambda: cyclic_group(2).elements()[1], "uid"),
    (lambda: PoissonGrading(2, 1), "k"),
    (lambda: LieContext(cyclic_group(2), 3).zero(), "terms"),
    (lambda: AssocContext(cyclic_group(2), 3).one(), "ctx"),
])
def test_fields_are_frozen(make, field):
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


def test_no_instance_dict():
    built = elements()
    assert {type(x) for x in built} == {
        StrandWordElement, AssocElement, CohomElement, LieElement, PoissonElement, LambdaElement
    }
    built += [LieContext(cyclic_group(2), 3).zero(), AssocContext(cyclic_group(2), 3).one()]
    built += [cyclic_group(2).elements()[0], PoissonGrading(2, 1), VerifyConfig()]
    for x in built:
        assert not hasattr(x, "__dict__"), type(x).__name__
        with pytest.raises(AttributeError):
            x.extra = 1


def test_every_combination_subclass_declares_slots():
    stack, seen = [Combination], []
    while stack:
        cls = stack.pop()
        assert "__slots__" in cls.__dict__, cls.__name__
        seen.append(cls)
        stack.extend(c for c in cls.__subclasses__() if c.__module__.startswith("ocs."))
    assert len(seen) >= 7


@pytest.mark.parametrize("cls, fields", [
    (GroupElement, {"ctx", "payload", "uid"}),
    (Combination, {"ctx", "terms"}),
    (PoissonGrading, {"k", "q"}),
    (VerifyConfig, {"group", "n", "q", "k", "seed", "radius", "samples", "max_basis"}),
])
def test_type_hints_are_the_fields(cls, fields):
    assert set(typing.get_type_hints(cls)) == fields
