"""The element layer: the Lie embedding against a reference copy of the
straightened-commutator recursion, the group-ring contract, and the
sparse core's import boundary."""

import json
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ocs
from ocs import lyndon
from ocs.assoc import AssocContext, AssocElement, LambdaElement
from ocs.groups import SurfaceGroup, cyclic_group
from ocs.lie import LieContext, LieElement, block_lyndon_basis
from ocs.verify import random_lie_element

from test_nonabelian_oracles import s3_group


def straightened_embedding(actx: AssocContext, x: LieElement) -> AssocElement:
    """Reference: each Lyndon word's standard bracketing expanded through
    commutators computed with the chord algebra's own product."""

    def embed_word(block, w):
        if len(w) == 1:
            j, uid = w[0]
            return AssocElement(actx, {((block, j, uid),): 1})
        u, v = lyndon.standard_factorization(w)
        eu, ev = embed_word(block, u), embed_word(block, v)
        return actx.multiply(eu, ev) - actx.multiply(ev, eu)

    out = actx.zero()
    for (i, w), c in x.sorted_terms():
        out = out + embed_word(i, w).scale(c)
    return out


@pytest.mark.parametrize(
    "make_group, n", [(lambda: cyclic_group(2), 4), (s3_group, 3)], ids=["C2-n4", "S3-n3"]
)
def test_embedding_of_every_basis_word_matches_straightened_commutators(make_group, n):
    group = make_group()
    lctx, actx = LieContext(group, n), AssocContext(group, n)
    for ell in (1, 2, 3):
        for i, w in block_lyndon_basis(lctx, ell):
            x = LieElement(lctx, {(i, w): 1})
            assert actx.embed_lie(x) == straightened_embedding(actx, x), (i, w)


def test_embedding_of_random_surface_elements_matches_straightened_commutators():
    group = SurfaceGroup(2)
    ball = group.enumerate_ball(1)
    lctx, actx = LieContext(group, 3), AssocContext(group, 3)
    rng = random.Random(20)
    for _ in range(40):
        x = random_lie_element(rng, lctx, ball, max_leaves=4, terms=3)
        assert actx.embed_lie(x) == straightened_embedding(actx, x)


# -- the group ring Z[G^n] -----------------------------------------------------


@pytest.fixture
def s3_ring():
    group = s3_group()
    return AssocContext(group, 3), group.elements()


def test_group_ring_refuses_wrong_length_tuples(s3_ring):
    ctx, els = s3_ring
    with pytest.raises(ValueError, match="strand count"):
        LambdaElement(ctx, {(els[0], els[1]): 1})


def test_group_ring_prunes_zero_coefficients(s3_ring):
    ctx, els = s3_ring
    a, b = (els[1], els[0], els[2]), (els[3], els[3], els[3])
    assert LambdaElement(ctx, {a: 2, b: 0}) == LambdaElement(ctx, {a: 2})
    assert LambdaElement(ctx, {b: 0}) == LambdaElement(ctx, {})
    assert LambdaElement(ctx, {a: 1}) != LambdaElement(ctx, {a: 2})


def test_group_ring_equality_is_by_context_identity(s3_ring):
    ctx, els = s3_ring
    twin = AssocContext(ctx.group, 3)
    tup = (els[1], els[2], els[0])
    assert LambdaElement(ctx, {tup: 1}) == LambdaElement(ctx, {tup: 1})
    assert LambdaElement(ctx, {tup: 1}) != LambdaElement(twin, {tup: 1})


def test_group_ring_adds_and_refuses_foreign_operands(s3_ring):
    ctx, els = s3_ring
    tup = (els[1], els[2], els[0])
    lam = LambdaElement(ctx, {tup: 1})
    assert lam + lam == lam.scale(2)
    assert (lam - lam).is_zero()
    foreign = LambdaElement(AssocContext(ctx.group, 3), {tup: 1})
    for other in (foreign, ctx.generator(2, 1, els[0])):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="context mismatch"):
                op(lam, other)


def test_group_ring_elements_are_unhashable(s3_ring):
    ctx, els = s3_ring
    with pytest.raises(TypeError):
        hash(LambdaElement(ctx, {(els[0],) * 3: 1}))


def test_group_ring_module_law_over_s3(s3_ring):
    ctx, els = s3_ring
    rng = random.Random(7)

    def random_lambda():
        return LambdaElement(
            ctx, {tuple(rng.choice(els) for _ in range(3)): rng.randint(-2, 2) for _ in range(3)}
        )

    for _ in range(5):
        lam1, lam2 = random_lambda(), random_lambda()
        a = ctx.word([ctx.letter(3, 1, rng.choice(els)), ctx.letter(2, 1, rng.choice(els))])
        a = a + ctx.generator(3, 2, rng.choice(els))
        assert (lam1 * lam2).act(a) == lam1.act(lam2.act(a))


def test_group_ring_refuses_entries_outside_its_group(s3_ring):
    ctx, els = s3_ring
    foreign = cyclic_group(2).identity()
    for bad in [(1, 2, 3), (els[0], els[1], foreign), (els[0], "e", els[1])]:
        with pytest.raises(ValueError, match="group backend mismatch"):
            LambdaElement(ctx, {bad: 1})


# -- the sparse core's import boundary -------------------------------------------


def test_sparse_core_imports_no_other_ocs_module():
    src = str(Path(ocs.__file__).resolve().parent.parent)
    code = "import json, sys, ocs.sparse; print(json.dumps(list(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {name for name in json.loads(done.stdout) if name.split(".")[0] == "ocs"}
    assert loaded == {"ocs", "ocs.sparse"}

