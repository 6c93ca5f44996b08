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
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ResourceLimitError
from .groups import (
    GroupElement,
    check_int_strands,
    decoration_order,
    strand_letter_count,
    strand_letters,
)
from .linalg import quotient_dimension, rank_of_rows  # noqa: F401 (a perfbench probe)
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
    """Independent oracle: exact rank of the degree-deg quotient (deg <= 2)
    of the free anticommutative algebra on the degree-1 classes by
    relations (1)-(2)."""
    n_gens = strand_letter_count(ctx.group, ctx.n)
    if deg < 0:
        raise ValueError("degree must be >= 0")
    if deg > 2:
        raise ResourceLimitError("the rank oracle is implemented for degree 2 only")
    if comb(n_gens, deg) > max_basis:
        raise ResourceLimitError(
            f"wedge basis of size C({n_gens},{deg}) exceeds cap {max_basis}"
        )
    if deg < 2:
        return n_gens ** deg
    gens = strand_letters(ctx.group, ctx.n)
    index = {g: a for a, g in enumerate(gens)}

    def wedges(pairs) -> Dict[Tuple[int, int], int]:
        """The row sum of c * (x ^ y) over ``pairs`` of distinct classes, on
        index pairs (a, b) with a < b; cancelled entries are dropped."""
        row: Dict[Tuple[int, int], int] = {}
        for c, x, y in pairs:
            a, b = index[x], index[y]
            key, c = ((a, b), c) if a < b else ((b, a), -c)
            row[key] = row.get(key, 0) + c
        return {k: c for k, c in row.items() if c}

    # relation (1) for mu != nu on one strand pair; the square already vanishes over Q
    rows = [wedges([(1, x, y)]) for x, y in itertools.permutations(gens, 2) if x[:2] == y[:2]]
    elements = ctx.group.elements()
    for i in range(3, ctx.n + 1):
        for j in range(2, i):
            for t in range(1, j):
                for mu, nu in itertools.product(elements, repeat=2):
                    dec = ctx.group.multiply(mu, ctx.group.invert(nu))
                    x, y, z = (i, t, mu.uid), (i, j, nu.uid), (j, t, dec.uid)
                    rows.append(wedges([(1, x, y), (-1, z, y), (1, z, x)]))
    return quotient_dimension(comb(n_gens, 2), rows, gens, 2)
