"""Elements built without re-pruning, and the memo of permutation images
kept in each context's structure memo."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from ocs.assoc import AssocContext, LambdaElement
from ocs.cohomology import CohomContext
from ocs.groups import cyclic_group
from ocs.lie import LieContext, LieElement
from ocs.poisson import PoissonContext, PoissonGrading
from ocs.verify import VerifyConfig, random_lie_element, run_suite
from test_nonabelian_oracles import s3_group


CASES = [(lambda: cyclic_group(2), 4), (s3_group, 3)]
IDS = ["C2-n4", "S3-n3"]


def _samples(ctx, seed, count=8):
    rng = random.Random(seed)
    gens = [
        ctx.generator(i, j, sigma)
        for i in range(1, ctx.n + 1)
        for j in range(1, ctx.n + 1)
        if i != j
        for sigma in ctx.group.elements()
    ]
    randoms = [random_lie_element(rng, ctx, ctx.group.elements()) for _ in range(count)]
    return gens[:: max(1, len(gens) // 6)] + randoms


def _assert_canonical(x):
    assert all(x.terms.values())
    assert x.terms == type(x)(x.ctx, x.terms).terms


@pytest.mark.parametrize("make_group, n", CASES, ids=IDS)
def test_every_producer_returns_canonical_blocks(make_group, n):
    group = make_group()
    ctx = LieContext(group, n)
    xs = _samples(ctx, 41)
    perms = list(itertools.permutations(range(1, n + 1)))
    _assert_canonical(ctx.zero())
    for x, y in zip(xs, xs[1:] + xs[:1]):
        for z in (
            x,
            x + y,
            x - y,
            x - x,
            -x,
            x.scale(0),
            x.scale(3),
            x.scale(Fraction(1, 2)),
            x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) - x,
            ctx.bracket(x, y),
            ctx.bracket(x, x),
            ctx.act_symmetric(perms[-1], x),
        ):
            _assert_canonical(z)
    assert (xs[0] - xs[0]).terms == {}
    assert xs[0].scale(0).terms == {}


def _linear_samples(group):
    """A few elements of every other element type over C2, n=3."""
    g = group.parse_element("g")
    actx, cctx = AssocContext(group, 3), CohomContext(group, 3)
    pctx = PoissonContext(group, 3, PoissonGrading(2, 1))
    e = group.identity()
    return [
        [actx.generator(3, 1, g) * actx.generator(2, 1, e), actx.generator(3, 2, g).scale(3)],
        [cctx.cup(cctx.generator(3, 1, g), cctx.generator(2, 1, e)), cctx.generator(3, 2, g)],
        [pctx.generator(3, 1, g) * pctx.generator(2, 1, e), pctx.generator(3, 2, g).scale(2)],
        [LambdaElement(actx, {(g, e, g): 2, (e, e, e): 1}), LambdaElement(actx, {(g, e, g): -2})],
    ]


@pytest.mark.parametrize("kind", range(4), ids=["assoc", "cohom", "poisson", "lambda"])
def test_every_element_type_returns_canonical_terms(kind):
    xs = _linear_samples(cyclic_group(2))[kind]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        for z in (x + y, x - y, x - x, -x, x.scale(0), x.scale(Fraction(1, 2))):
            assert type(z) is type(x)
            _assert_canonical(z)
        assert (x - x).terms == {} and x.scale(0).terms == {}
        assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x


def test_public_constructor_still_prunes():
    ctx = LieContext(cyclic_group(2), 3)
    x = LieElement(ctx, {(2, ((1, 0),)): 0, (3, ((1, 1),)): 2, (3, ((2, 0),)): 0})
    assert x.terms == {(3, ((1, 1),)): 2}


@pytest.mark.parametrize("make_group, n", CASES, ids=IDS)
def test_blocks_group_the_terms_by_top_index(make_group, n):
    ctx = LieContext(make_group(), n)
    for x in _samples(ctx, 47) + [ctx.zero()]:
        tops = {i for i, _ in x.terms}
        want = {i: {w: c for (t, w), c in x.terms.items() if t == i} for i in tops}
        assert x.blocks == want
        x.blocks.clear()  # a fresh dict each time: the element is unchanged
        assert x.blocks == want


def _unmemoized_image(ctx, perm, i, w):
    """The image of b(w) of block i, recomputed: a letter's image is a
    generator, a longer word's the bracket of its standard factors' images."""
    if len(w) == 1:
        j, uid = w[0]
        return ctx.generator(perm[i - 1], perm[j - 1], ctx.group.element_by_uid(uid))
    v = min(w[k:] for k in range(1, len(w)))  # the least proper suffix
    u = w[: len(w) - len(v)]
    return ctx.bracket(_unmemoized_image(ctx, perm, i, u), _unmemoized_image(ctx, perm, i, v))


@pytest.mark.parametrize("make_group, n", CASES, ids=IDS)
def test_images_match_a_fresh_group_on_miss_and_hit(make_group, n):
    group, fresh = make_group(), make_group()
    assert [group.format_element(e) for e in group.elements()] == [
        fresh.format_element(e) for e in fresh.elements()
    ]
    ctx, ref = LieContext(group, n), LieContext(fresh, n)
    assert ctx._deriv_cache is not ref._deriv_cache
    xs = _samples(ctx, 43)
    for perm in itertools.permutations(range(1, n + 1)):
        for x in xs:
            miss = ctx.act_symmetric(perm, x)
            hit = ctx.act_symmetric(perm, x)
            # the unmemoized computation, word by word, on the other group
            want = ref.zero()
            for (i, w), c in x.terms.items():
                want = want + _unmemoized_image(ref, perm, i, w).scale(c)
            assert miss.terms == hit.terms == want.terms
            assert ref.act_symmetric(perm, LieElement(ref, x.terms)).terms == want.terms


def test_mutating_a_result_does_not_change_later_results():
    group = s3_group()
    ctx = LieContext(group, 3)
    x = ctx.bracket(ctx.generator(3, 1, group.elements()[1]), ctx.generator(2, 1, group.elements()[2]))
    x = x + ctx.generator(3, 2, group.elements()[3])
    perm = (3, 1, 2)
    for y in (x, ctx.generator(2, 1, group.elements()[4])):
        for _ in range(2):  # a memo miss, then a hit
            first = ctx.act_symmetric(perm, y)
            want = dict(first.terms)
            for label in first.terms:
                first.terms[label] = 99
            first.terms[1, ((1, 0),)] = 5
            assert ctx.act_symmetric(perm, y).terms == want
    product = ctx.bracket(x, ctx.generator(3, 1, group.identity()))
    want = dict(product.terms)
    product.terms.clear()
    assert ctx.bracket(x, ctx.generator(3, 1, group.identity())).terms == want


def test_image_memo_is_per_context_and_freed_with_the_group():
    group = cyclic_group(2)
    ctx1, ctx3 = LieContext(group, 3, q=1), LieContext(group, 3, q=3)
    g = group.parse_element("g")
    x1, x3 = ctx1.generator(2, 1, g), ctx3.generator(2, 1, g)
    perm = (3, 1, 2)
    key = (perm, 2, ((1, g.uid),))
    image = ctx1.act_symmetric(perm, x1)
    assert ctx1._deriv_cache[key] == image.terms
    assert key not in ctx3._deriv_cache  # q=3 does not see the images of q=1
    assert ctx3.act_symmetric(perm, x3).terms == image.terms
    assert ctx3._deriv_cache[key] == image.terms
    group_ref = weakref.ref(group)
    del group, ctx1, ctx3, g, x1, x3, image
    gc.collect()
    assert group_ref() is None


def _is_word(w):
    return (
        type(w) is tuple and w
        and all(type(a) is tuple and len(a) == 2 and all(type(b) is int for b in a) for a in w)
    )


@pytest.mark.parametrize("group", ["C3", "surface:2"])
def test_memo_holds_two_key_shapes_and_every_sub_image(monkeypatch, group):
    contexts = []
    original = LieContext.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(LieContext, "__init__", init)
    cfg = VerifyConfig(group=group, n=3, seed=1, samples=4)
    assert run_suite("symmetric-action", cfg)["failures"] == []
    ctx = contexts[0]
    memo = ctx._deriv_cache
    perms = set(itertools.permutations((1, 2, 3)))
    derivations = images = 0
    for key in memo:
        assert type(key) is tuple and len(key) == 3
        first, second, w = key
        assert _is_word(w)
        if type(first) is int:
            assert _is_word(second) and first < 3
            derivations += 1
        else:
            assert first in perms and type(second) is int and 2 <= second <= 3
            images += 1
            if len(w) > 1:
                v = min(w[k:] for k in range(1, len(w)))
                u = w[: len(w) - len(v)]
                assert (first, second, u) in memo and (first, second, v) in memo
                want = ctx.bracket(
                    LieElement(ctx, memo[first, second, u]),
                    LieElement(ctx, memo[first, second, v]),
                )
                assert memo[key] == want.terms
    assert derivations and images
    assert any(len(w) > 1 for p, _, w in memo if type(p) is tuple)


def test_a_wrong_memoized_image_fails_symmetric_action(monkeypatch):
    cfg = VerifyConfig(group="C2", n=3, seed=1, samples=4)
    assert run_suite("symmetric-action", cfg)["failures"] == []
    original = LieContext.__init__

    def init(self, group, n, q=1):
        original(self, group, n, q)
        g = group.parse_element("g")
        # (1 2) sends B^g_{2,1} to B^{g^-1}_{2,1} = B^g_{2,1}; store B^e_{2,1}
        self._deriv_cache[((2, 1, 3), 2, ((1, g.uid),))] = {(2, ((1, group.identity().uid),)): 1}

    monkeypatch.setattr(LieContext, "__init__", init)
    failures = run_suite("symmetric-action", cfg)["failures"]
    assert any(f["instance"].startswith("relation-image[(2, 1, 3);") for f in failures)


class TestIntegerStrands:
    @pytest.mark.parametrize("perm", [(1.0, 2, 3), (True, 2, 3), (1, 2, 3.0)])
    def test_act_symmetric_rejects_non_int_entries(self, perm):
        C2 = cyclic_group(2)
        ctx = LieContext(C2, 3)
        x = ctx.generator(3, 1, C2.identity())
        assert ctx.act_symmetric((1, 2, 3), x) == x  # the memo now holds (1, 2, 3)
        with pytest.raises(ValueError, match="ints"):
            ctx.act_symmetric(perm, x)

    @pytest.mark.parametrize("i, j", [(3.0, 1), (3, True), (True, 2), (2, 1.0)])
    def test_generator_rejects_non_int_indices(self, i, j):
        C2 = cyclic_group(2)
        ctx = LieContext(C2, 3)
        with pytest.raises(ValueError, match="ints"):
            ctx.generator(i, j, C2.identity())
