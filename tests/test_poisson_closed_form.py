"""The closed-form Poisson bracket against the Leibniz recursion it replaced.

``leibniz_bracket`` is the old recursive evaluation, kept here as an
independent reference: it splits one factor at a time with the printed
Leibniz rules, and brackets primitives through a Lie context on a separate
copy of the group, so it shares no memo with the context under test.
"""

import random
from fractions import Fraction

import pytest

from ocs.groups import cyclic_group
from ocs.lie import LieContext, LieElement
from ocs.poisson import PoissonContext, PoissonElement, PoissonGrading
from ocs.verify import monomials_by_degree
from test_nonabelian_oracles import s3_group


def leibniz_bracket(ctx, reference_lie, left, right):
    """L[left, right] for two monomials by the Leibniz recursion:
    L[a.b, c] = a.L[b,c] + (-1)^{|a||b|} b.L[a,c] on the left factor, then
    L[a, b.c] = L[a,b].c + (-1)^{|b|(|a|+k-1)} b.L[a,c] on the right."""
    if not left or not right:
        return ctx.zero()

    def mono(m):
        return PoissonElement(ctx, {m: 1})

    if len(left) > 1:
        head, rest = left[:1], left[1:]
        sign = (-1) ** (ctx.monomial_degree(head) * ctx.monomial_degree(rest))
        return ctx.multiply(mono(head), leibniz_bracket(ctx, reference_lie, rest, right)) + (
            ctx.multiply(mono(rest), leibniz_bracket(ctx, reference_lie, head, right)).scale(sign)
        )
    if len(right) > 1:
        head, rest = right[:1], right[1:]
        sign = (-1) ** (
            ctx.monomial_degree(head) * (ctx.monomial_degree(left) + ctx.grading.shift)
        )
        return ctx.multiply(leibniz_bracket(ctx, reference_lie, left, head), mono(rest)) + (
            ctx.multiply(mono(head), leibniz_bracket(ctx, reference_lie, left, rest)).scale(sign)
        )
    (pa, wa), (pb, wb) = left[0], right[0]
    value = reference_lie.bracket(
        LieElement(reference_lie, {(pa, wa): 1}), LieElement(reference_lie, {(pb, wb): 1})
    )
    return PoissonElement(ctx, {(p,): c for p, c in value.terms.items()})


@pytest.mark.parametrize("make_group", [lambda: cyclic_group(2), s3_group], ids=["C2", "S3"])
@pytest.mark.parametrize("k,q", [(2, 1), (3, 2)], ids=["odd-primitives", "even-primitives"])
def test_closed_form_matches_leibniz_recursion(make_group, k, q):
    group = make_group()
    ctx = PoissonContext(group, 3, PoissonGrading(k, q))
    # uids are table indices, so a second build of the table shares labels
    reference_lie = LieContext(make_group(), 3, q)
    assert reference_lie._deriv_cache is not ctx.lie._deriv_cache
    grading = ctx.grading
    pool = monomials_by_degree(ctx, grading.primitive_degree(2) + grading.generator_degree)
    monomials = [m for d in sorted(pool) for m in pool[d]]
    rng = random.Random(f"closed-form:{k}:{q}:{group.order}")
    longest = 0
    for _ in range(60):
        left, right = rng.choice(monomials), rng.choice(monomials)
        longest = max(longest, len(left), len(right))
        got = ctx.bracket(PoissonElement(ctx, {left: 1}), PoissonElement(ctx, {right: 1}))
        assert got == leibniz_bracket(ctx, reference_lie, left, right), (left, right)
    assert longest >= 3  # the pool reaches products of three or more factors


def test_closed_form_on_combinations_with_rational_coefficients():
    group = s3_group()
    ctx = PoissonContext(group, 3, PoissonGrading(2, 1))
    reference_lie = LieContext(s3_group(), 3, 1)
    pool = monomials_by_degree(ctx, 4)
    monomials = [m for d in sorted(pool) for m in pool[d]]
    rng = random.Random(5)
    for _ in range(10):
        xs = rng.sample(monomials, 3)
        ys = rng.sample(monomials, 2)
        x = PoissonElement(ctx, {m: rng.randint(-3, 3) for m in xs})
        x = x.scale(Fraction(rng.choice([1, 2]), 3))
        y = PoissonElement(ctx, {m: rng.randint(-3, 3) for m in ys})
        want = ctx.zero()
        for mu, cu in x.terms.items():
            for mv, cv in y.terms.items():
                want = want + leibniz_bracket(ctx, reference_lie, mu, mv).scale(cu * cv)
        assert ctx.bracket(x, y) == want
