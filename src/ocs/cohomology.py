"""Cohomology ring of the n-point orbit configuration space of the
hyperbolic plane, presented by degree-1 classes A^sigma_{i,j} (i > j,
sigma in G) subject to

    (1)  A^mu_{i,j} . A^nu_{i,j} = 0                    for all mu, nu;
    (2)  A^mu_{i,t} . A^nu_{i,j}
             = A^{mu nu^-1}_{j,t} . (A^nu_{i,j} - A^mu_{i,t})   (t < j < i).

Degree-1 classes anticommute (graded commutativity).  ``CohomContext`` is
a ``sparse.StrandWordContext``, so the cup product is the shared product of
the chord algebra: it concatenates every pair of monomials and rewrites the
sum once to the admissible basis -- products with pairwise distinct top
indices, sorted ascending -- by ``sparse.rewrite`` under the one-step rule
``CohomContext.rewrite_pair``.  Additively the ring is a tensor product of
n-1 bouquet-of-circles factors, the factor for top index i carrying
(i-1)|G| classes, whence the Poincare polynomial
prod_{i=2..n} (1 + (i-1)|G| t).

The anticommutativity convention is validated against relations (1)-(2)
by the rank oracle below; a mismatch would surface as a dimension drop.
It states the relations on its own and runs in degrees 0 to 3 on the chord
oracle's two-sided core: over Q the exterior algebra is the tensor algebra
modulo the symmetric tensors, so its rows are those and (1)-(2) on commutators.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from .groups import (
    GroupElement,
    check_int_strands,
    decoration_order,
    strand_letters,
    strand_word_count,
)
from .linalg import commutators, quotient_dimension, rank_of_rows  # noqa: F401 (a perfbench probe)
from .sparse import Coef, Step, StrandWordContext, StrandWordElement

Factor = Tuple[int, int, int]  # (top strand i, lower strand j, decoration uid)
Monomial = Tuple[Factor, ...]  # strictly increasing top indices
Terms = Dict[Monomial, Coef]


class CohomElement(StrandWordElement):
    """Rational combination of admissible monomials, graded by length."""

    __slots__ = ()
    ctx: "CohomContext"
    terms: Terms
    symbol = "A"

    def __mul__(self, other: "CohomElement") -> "CohomElement":
        return self.ctx.cup(self, other)


class CohomContext(StrandWordContext):
    element = CohomElement
    mismatch = "cohomology context mismatch"

    def factor(self, i: int, j: int, sigma: GroupElement) -> Factor:
        check_int_strands(i, j)
        if not (1 <= j < i <= self.n):
            raise ValueError(f"need 1 <= j < i <= n, got i={i}, j={j}")
        self.group._check(sigma)
        return (i, j, sigma.uid)

    letter = factor  # strict: no mirroring of a reversed pair

    def rewrite_pair(self, x: Factor, y: Factor) -> Optional[Step]:
        """One rewriting step on the adjacent classes x y: None when
        x[0] < y[0], else the anticommuting swap, nothing for relation (1),
        or the two terms of relation (2).  It terminates: a swap keeps the
        multiset of top indices and drops the inversions in (top, lower)
        order, while relation (2) lowers a repeated top index i to j < i."""
        i, a, mu_uid = x
        s, b, nu_uid = y
        if i < s:
            return None
        if i > s or a > b:
            return (((y, x), -1),)
        if a == b:
            return ()
        # relation (2) with t = a < j = b < i
        group = self.group
        mu = group.element_by_uid(mu_uid)
        nu = group.element_by_uid(nu_uid)
        z = (b, a, group.multiply(mu, group.invert(nu)).uid)
        return (((z, y), 1), ((z, x), -1))

    cup = StrandWordContext._product  # bound here: the tracer looks in this class


# ---------------------------------------------------------------------------
# dimension counts


def poincare_polynomial(
    ctx: CohomContext, group_order: Optional[int] = None
) -> List[int]:
    """Coefficients of prod_{i=2..n} (1 + (i-1)|G| t)."""
    group_order = decoration_order(ctx.group, group_order, "Poincare polynomial")
    coeffs = [1]
    for i in range(2, ctx.n + 1):
        ratio = (i - 1) * group_order
        nxt = coeffs + [0]
        for d in range(1, len(nxt)):
            nxt[d] += ratio * coeffs[d - 1]
        coeffs = nxt
    return coeffs


def enumerate_admissible(ctx: CohomContext, deg: int) -> Iterable[Monomial]:
    """All admissible monomials of the given degree (finite groups)."""
    letters = strand_letters(ctx.group, ctx.n)
    classes_by_top = {i: [f for f in letters if f[0] == i] for i in range(2, ctx.n + 1)}

    def rec(prefix: Monomial, top: int, remaining: int):
        if remaining == 0:
            yield prefix
            return
        for i in range(top, ctx.n + 1):
            if ctx.n - i + 1 < remaining:
                break
            for factor in classes_by_top[i]:
                yield from rec(prefix + (factor,), i + 1, remaining - 1)

    yield from rec((), 2, deg)


def count_admissible(ctx: CohomContext, deg: int) -> int:
    return sum(1 for _ in enumerate_admissible(ctx, deg))


def bruteforce_cohom_dimension(
    ctx: CohomContext, deg: int = 2, max_basis: int = 200_000
) -> int:
    """Independent oracle: dimension of the degree-deg part of the free
    associative algebra on the degree-1 classes modulo the two-sided ideal
    generated by the symmetric tensors and relations (1)-(2) on commutators."""
    words = strand_word_count(ctx.group, ctx.n, deg, max_basis)
    if deg < 2:
        return words
    gens = strand_letters(ctx.group, ctx.n)
    rows = [{(x, x): 1} for x in gens]
    for x, y in itertools.combinations(gens, 2):
        rows.append({(x, y): 1, (y, x): 1})
        if x[:2] == y[:2]:  # relation (1) for mu != nu; the square is symmetric
            rows.append(commutators([(1, x, y)]))
    group = ctx.group
    for t, j, i in itertools.combinations(range(1, ctx.n + 1), 3):  # relation (2)
        for mu, nu in itertools.product(group.elements(), repeat=2):
            dec = group.multiply(mu, group.invert(nu))
            x, y, z = (i, t, mu.uid), (i, j, nu.uid), (j, t, dec.uid)
            rows.append(commutators([(1, x, y), (-1, z, y), (1, z, x)]))
    return quotient_dimension(words, rows, gens, deg)
