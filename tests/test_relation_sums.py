"""The fused sums ``LieContext.bracket_sum``, ``PoissonContext.bracket_sum``
and ``StrandWordContext.product_sum`` against the fold of binary products
they stand for: ``zero() + op(x, y).scale(coef)`` over (coef, x, y)."""

import random
from fractions import Fraction

import pytest

from ocs import lie, poisson
from ocs.assoc import AssocContext
from ocs.cohomology import CohomContext
from ocs.groups import cyclic_group, load_group
from test_nonabelian_oracles import s3_group

COEFS = [0, 1, -1, 2, -3, Fraction(1, 2)]


def decorations(group):
    return group.elements() if group.is_finite else group.enumerate_ball(1)


def lie_case(group, n):
    ctx = lie.LieContext(group, n)
    return ctx, ctx.bracket, ctx.bracket_sum, [ctx.bracket], lie.LieContext(group, n)


def poisson_case(group, n, k, q):
    ctx = poisson.PoissonContext(group, n, poisson.PoissonGrading(k, q))
    other = poisson.PoissonContext(group, n, poisson.PoissonGrading(k + 2, q + 1))
    return ctx, ctx.bracket, ctx.bracket_sum, [ctx.bracket, ctx.multiply], other


def strand_word_case(context, group, n):
    ctx = context(group, n)
    return ctx, ctx._product, ctx.product_sum, [ctx._product], context(group, n)


CASES = {
    "lie-C2-n4": lambda: lie_case(cyclic_group(2), 4),
    "lie-S3-n3": lambda: lie_case(s3_group(), 3),
    "lie-surface2-n3": lambda: lie_case(load_group("surface:2"), 3),
    "poisson-C2-n3-k2-q1": lambda: poisson_case(cyclic_group(2), 3, 2, 1),
    "poisson-C2-n3-k3-q2": lambda: poisson_case(cyclic_group(2), 3, 3, 2),
    "assoc-S3-n3": lambda: strand_word_case(AssocContext, s3_group(), 3),
    "assoc-surface2-n3": lambda: strand_word_case(AssocContext, load_group("surface:2"), 3),
    "cohom-S3-n3": lambda: strand_word_case(CohomContext, s3_group(), 3),
    "cohom-surface2-n3": lambda: strand_word_case(CohomContext, load_group("surface:2"), 3),
}


def generators(ctx):
    return [
        ctx.generator(i, j, g)
        for i in range(2, ctx.n + 1)
        for j in range(1, i)
        for g in decorations(ctx.group)
    ]


def random_element(rng, ctx, gens, products):
    """A sum of one to three multiples of products of one to three generators."""
    out = ctx.zero()
    for _ in range(rng.randint(1, 3)):
        x = rng.choice(gens)
        for _ in range(rng.randint(0, 2)):
            x = rng.choice(products)(x, rng.choice(gens))
        out = out + x.scale(rng.randint(-2, 2))
    return out


def fold(ctx, op, triples):
    out = ctx.zero()
    for coef, x, y in triples:
        out = out + op(x, y).scale(coef)
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_sum_equals_the_fold_of_binary_products(case):
    ctx, op, fused, products, _ = CASES[case]()
    gens = generators(ctx)
    rng = random.Random(f"relation-sums:{case}")
    for _ in range(40):
        triples = [
            (rng.choice(COEFS), random_element(rng, ctx, gens, products),
             random_element(rng, ctx, gens, products))
            for _ in range(rng.randint(0, 4))
        ]
        got = fused(triples)
        assert got == fold(ctx, op, triples)
        assert all(got.terms.values())


@pytest.mark.parametrize("case", list(CASES))
def test_empty_sum_is_zero(case):
    ctx, _, fused, _, _ = CASES[case]()
    assert fused(()) == ctx.zero() and fused(iter(())).is_zero()


@pytest.mark.parametrize("case", list(CASES))
def test_operand_from_another_context_is_refused(case):
    ctx, op, fused, _, other = CASES[case]()
    x = generators(ctx)[0]
    foreign = generators(other)[0]
    with pytest.raises(ValueError) as binary:
        op(x, foreign)
    message = str(binary.value)
    assert "mismatch" in message
    for triples in (
        [(1, foreign, x)],
        [(1, x, foreign)],
        [(1, x, x), (2, x, foreign)],
        [(0, foreign, foreign)],
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fused(triples)
