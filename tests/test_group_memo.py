"""The per-group product/inverse memo and the one-element-per-uid registry:
memoized results agree with a fresh reduction, uid assignment is unchanged,
backend checks run before the lookup, and a dropped group is still freed."""

import gc
import itertools
import random
import weakref

import pytest

from ocs import lie as lie_mod
from ocs.groups import LatticeGroup, SurfaceGroup, load_group
from test_nonabelian_oracles import s3_group


def reference_product(H, a, b):
    """The reduced payload of a·b by a route independent of the junction scan:
    a full Dehn scan of the concatenation, or the coordinate sum."""
    if isinstance(H, SurfaceGroup):
        return H._reduce(a + b)
    return (a[0] + b[0], a[1] + b[1])


@pytest.mark.parametrize(
    "name, radius, size", [("surface:2", 2, 65), ("lattice", 2, 13)]
)
def test_memoized_results_match_a_fresh_reduction(name, radius, size):
    G, H = load_group(name), load_group(name)
    ball = G.enumerate_ball(radius)
    assert len(ball) == size
    for x in ball:
        inv = G.invert(x)
        assert G.invert(x) is inv
        ref = H.canonicalize(H._inv_payload(x.payload))
        assert H.canonicalize(inv.payload) is ref
        for y in ball:
            z = G.multiply(x, y)
            assert G.multiply(x, y) is z
            ref = H.canonicalize(reference_product(H, x.payload, y.payload))
            assert H.canonicalize(z.payload) is ref


def test_s3_products_and_inverses_match_the_table():
    G, perms = s3_group(), list(itertools.permutations(range(3)))
    elements = G.elements()
    for _ in range(2):  # the second pass reads the memo
        for a, x in zip(perms, elements):
            inv = tuple(sorted(range(3), key=lambda k: a[k]))
            assert G.invert(x).uid == perms.index(inv)
            for b, y in zip(perms, elements):
                composed = tuple(a[b[k]] for k in range(3))
                assert G.multiply(x, y).uid == perms.index(composed)


@pytest.mark.parametrize("name", ["surface:2", "lattice"])
def test_memo_leaves_uid_assignment_unchanged(name):
    G, R = load_group(name), load_group(name)
    rng = random.Random(12)

    def reference_multiply(x, y):
        return R._intern(reference_product(R, x.payload, y.payload))

    def reference_invert(x):
        return R._intern(R._reduce(R._inv_payload(x.payload)))

    pool_g = [G.canonicalize(p) for p in G._generator_payloads()]
    pool_r = [R.canonicalize(p) for p in R._generator_payloads()]
    for _ in range(400):
        i, j = rng.randrange(len(pool_g)), rng.randrange(len(pool_g))
        if rng.random() < 0.3:
            pool_g.append(G.invert(pool_g[i]))
            pool_r.append(reference_invert(pool_r[i]))
        else:
            pool_g.append(G.multiply(pool_g[i], pool_g[j]))
            pool_r.append(reference_multiply(pool_r[i], pool_r[j]))
        if len(pool_g) > 60:  # keep words short enough to stay cheap
            del pool_g[:20], pool_r[:20]
    assert len(G._elements) == len(R._elements) > 50
    for uid in range(len(G._elements)):
        assert G.format_element(G.element_by_uid(uid)) == R.format_element(
            R.element_by_uid(uid)
        )


def test_element_by_uid_returns_the_stored_object():
    G = SurfaceGroup(2)
    ball = G.enumerate_ball(1)
    for x in ball:
        assert G.element_by_uid(x.uid) is G.element_by_uid(x.uid) is x
    assert G.canonicalize((1, -1, 2)) is G.canonicalize((2,))


@pytest.mark.parametrize("build", [lambda: SurfaceGroup(2), LatticeGroup])
def test_backend_check_runs_before_the_memo(build):
    G, H = build(), build()
    gens_g = G.enumerate_ball(1)
    gens_h = H.enumerate_ball(1)
    x, y = gens_g[1], gens_g[2]
    G.multiply(x, y)
    G.invert(x)
    foreign_x, foreign_y = gens_h[1], gens_h[2]
    assert (foreign_x.uid, foreign_y.uid) == (x.uid, y.uid)
    with pytest.raises(ValueError, match="group backend mismatch"):
        G.multiply(foreign_x, y)
    with pytest.raises(ValueError, match="group backend mismatch"):
        G.multiply(x, foreign_y)
    with pytest.raises(ValueError, match="group backend mismatch"):
        G.invert(foreign_x)


def test_dropped_group_and_its_lie_memo_are_collected():
    group = SurfaceGroup(2)
    ctx = lie_mod.LieContext(group, 3)
    ball = group.enumerate_ball(1)
    ctx.bracket(ctx.generator(3, 1, ball[1]), ctx.generator(2, 1, ball[2]))
    for x in ball:
        group.invert(x)
        for y in ball:
            group.multiply(x, y)
    probe = ctx._deriv_cache["probe"] = set()  # a set can be weakly referenced
    group_ref, probe_ref = weakref.ref(group), weakref.ref(probe)
    del group, ctx, ball, x, y, probe
    gc.collect()
    assert group_ref() is None
    assert probe_ref() is None
