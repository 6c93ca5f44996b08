"""Strand indices and permutations are validated in one place
(``groups.strand_pair`` / ``groups.strand_permutation``), so every algebra
layer refuses the same non-int, out-of-range and repeated inputs."""

import pytest

from ocs.assoc import AssocContext
from ocs.cohomology import CohomContext
from ocs.groups import cyclic_group, strand_pair, strand_permutation
from ocs.lie import LieContext
from ocs.poisson import PoissonContext, PoissonGrading

NON_INT_PAIRS = [(3.0, 1), (3, True), (True, 2), (2, 1.0)]
NON_INT_PERMS = [(1.0, 2, 3), (True, 2, 3), (1, 2, 3.0)]


@pytest.fixture
def c2():
    return cyclic_group(2)


def mirroring_makers(group):
    """Constructors that accept a pair in either order."""
    return [
        LieContext(group, 3).generator,
        AssocContext(group, 3).generator,
        AssocContext(group, 3).letter,
        PoissonContext(group, 3, PoissonGrading(2, 1)).generator,
    ]


@pytest.mark.parametrize("i, j", NON_INT_PAIRS)
def test_every_layer_refuses_non_int_strands(c2, i, j):
    for make in mirroring_makers(c2) + [CohomContext(c2, 3).generator]:
        with pytest.raises(ValueError, match="ints"):
            make(i, j, c2.identity())


@pytest.mark.parametrize("i, j, match", [(4, 1, "range"), (0, 2, "range"), (2, 2, "distinct")])
def test_every_mirroring_layer_refuses_bad_pairs(c2, i, j, match):
    for make in mirroring_makers(c2):
        with pytest.raises(ValueError, match=match):
            make(i, j, c2.identity())


def test_strand_pair_mirrors_with_the_inverse():
    c3 = cyclic_group(3)
    g = c3.elements()[1]
    assert strand_pair(c3, 3, 3, 1, g) == (3, 1, g)
    assert strand_pair(c3, 3, 1, 3, g) == (3, 1, c3.invert(g))
    actx = AssocContext(c3, 3)
    assert actx.letter(1, 3, g) == (3, 1, c3.invert(g).uid)
    ctx = LieContext(c3, 3)
    assert ctx.generator(1, 3, g) == ctx.generator(3, 1, c3.invert(g))


def test_cohomology_factor_keeps_its_strict_order(c2):
    ctx = CohomContext(c2, 3)
    assert ctx.factor(3, 1, c2.identity()) == (3, 1, c2.identity().uid)
    with pytest.raises(ValueError, match="need 1 <= j < i <= n"):
        ctx.factor(1, 3, c2.identity())


@pytest.mark.parametrize("perm", NON_INT_PERMS)
def test_permutation_actions_refuse_non_int_entries(c2, perm):
    actx = AssocContext(c2, 3)
    x = actx.generator(3, 1, c2.identity())
    trivial = (c2.identity(),) * 3
    for act in (
        lambda: actx.act_permutation(perm, x),
        lambda: actx.act_tilde(perm, trivial, x),
        lambda: strand_permutation(perm, 3),
    ):
        with pytest.raises(ValueError, match="ints"):
            act()


@pytest.mark.parametrize("perm", [(1, 2), (1, 1, 2), (0, 1, 2), (2, 3, 4)])
def test_permutation_actions_refuse_non_bijections(c2, perm):
    actx = AssocContext(c2, 3)
    ctx = LieContext(c2, 3)
    with pytest.raises(ValueError, match="bijection"):
        actx.act_permutation(perm, actx.generator(3, 1, c2.identity()))
    with pytest.raises(ValueError, match="bijection"):
        ctx.act_symmetric(perm, ctx.generator(3, 1, c2.identity()))


def test_strand_permutation_returns_a_tuple():
    assert strand_permutation([2, 3, 1], 3) == (2, 3, 1)


@pytest.mark.parametrize("slot", [True, 3.0, 1.0])
def test_conjugation_refuses_non_int_slots(c2, slot):
    actx = AssocContext(c2, 3)
    x = actx.generator(3, 1, c2.identity())
    with pytest.raises(ValueError, match="ints"):
        actx.conjugate(c2.elements()[1], slot, x)


@pytest.mark.parametrize(
    "letter",
    [(2, 3, 0), (5, 1, 0), (3, 0, 0), (3.0, 1, 0), (3, 1.0, 0), (3, 1, True), (3, 1, 7), (3, 1, -1),
     (3, 1, 1.0), (3, 1), (3, 1, 0, 0), [3, 1, 0]],
)
def test_word_refuses_letters_that_are_not_normalized(c2, letter):
    actx = AssocContext(c2, 3)
    with pytest.raises(ValueError, match="letter"):
        actx.word([actx.letter(2, 1, c2.identity()), letter])

