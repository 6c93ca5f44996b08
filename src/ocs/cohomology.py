"""Cohomology ring of the n-point orbit configuration space of the
hyperbolic plane, presented by degree-1 classes A^sigma_{i,j} (i > j,
sigma in G) subject to

    (1)  A^mu_{i,j} . A^nu_{i,j} = 0                    for all mu, nu;
    (2)  A^mu_{i,t} . A^nu_{i,j}
             = A^{mu nu^-1}_{j,t} . (A^nu_{i,j} - A^mu_{i,t})   (t < j < i).

Degree-1 classes anticommute (graded commutativity); relation (2) pushes a
repeated top index i down to j < i, so rewriting to the admissible basis
-- products with pairwise distinct top indices, sorted ascending --
terminates.  Additively the ring is a tensor product of n-1 bouquet-of-
circles factors, the factor for top index i carrying (i-1)|G| classes,
whence the Poincare polynomial prod_{i=2..n} (1 + (i-1)|G| t).

The anticommutativity convention is validated against relations (1)-(2)
by the rank oracle below; a mismatch would surface as a dimension drop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ResourceLimitError
from .groups import GroupContext, GroupElement
from .linalg import rank_of_rows
from .sparse import Coef, Combination, add_into

Factor = Tuple[int, int, int]  # (top strand i, lower strand j, decoration uid)
Monomial = Tuple[Factor, ...]  # strictly increasing top indices
Terms = Dict[Monomial, Coef]


class CohomContext:
    def __init__(self, group: GroupContext, n: int):
        if n < 2:
            raise ValueError("need at least n = 2 strands")
        self.group = group
        self.n = n

    def factor(self, i: int, j: int, sigma: GroupElement) -> Factor:
        if not (1 <= j < i <= self.n):
            raise ValueError(f"need 1 <= j < i <= n, got i={i}, j={j}")
        self.group._check(sigma)
        return (i, j, sigma.uid)

    def one(self) -> "CohomElement":
        return CohomElement(self, {(): 1})

    def zero(self) -> "CohomElement":
        return CohomElement(self, {})

    def generator(self, i: int, j: int, sigma: GroupElement) -> "CohomElement":
        return CohomElement(self, {(self.factor(i, j, sigma),): 1})

    def _check(self, x: "CohomElement") -> None:
        if not isinstance(x, CohomElement) or x.ctx is not self:
            raise ValueError("cohomology context mismatch")

    # -- cup product -------------------------------------------------------

    def cup(self, x: "CohomElement", y: "CohomElement") -> "CohomElement":
        self._check(x)
        self._check(y)
        out: Terms = {}
        for mu, cu in x.terms.items():
            for mv, cv in y.terms.items():
                add_into(out, self._normalize(mu + mv, cu * cv))
        return CohomElement(self, out)

    def _normalize(self, factors: Monomial, coef: Coef) -> Terms:
        """Rewrite a raw product of degree-1 classes to admissible form.
        Monomials that cancel may remain with coefficient zero."""
        out: Terms = {}
        stack = [(factors, coef)]
        while stack:
            fac, c = stack.pop()
            if not c:
                continue
            pos = next(
                (p for p in range(len(fac) - 1) if fac[p][0] >= fac[p + 1][0]),
                None,
            )
            if pos is None:
                out[fac] = out.get(fac, 0) + c
                continue
            x, y = fac[pos], fac[pos + 1]
            head, tail = fac[:pos], fac[pos + 2 :]
            if x[0] > y[0]:
                # degree-1 classes anticommute
                stack.append((head + (y, x) + tail, -c))
                continue
            i, a, mu_uid = x
            _, b, nu_uid = y
            if a == b:
                continue  # relation (1): same strand pair annihilates
            if a > b:
                stack.append((head + (y, x) + tail, -c))
                continue
            # relation (2) with t = a < j = b < i
            mu = self.group.element_by_uid(mu_uid)
            nu = self.group.element_by_uid(nu_uid)
            dec = self.group.multiply(mu, self.group.invert(nu))
            z = (b, a, dec.uid)
            stack.append((head + (z, y) + tail, c))
            stack.append((head + (z, x) + tail, -c))
        return out


class CohomElement(Combination):
    """Rational combination of admissible monomials, graded by length."""

    ctx: CohomContext
    terms: Terms

    def __mul__(self, other: "CohomElement") -> "CohomElement":
        return self.ctx.cup(self, other)

    def sorted_terms(self) -> List[Tuple[Monomial, Coef]]:
        """Sorted by (degree, top-index sequence, letters)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (
                len(item[0]),
                tuple(f[0] for f in item[0]),
                item[0],
            ),
        )

    def degrees(self) -> List[int]:
        return sorted({len(m) for m in self.terms})

    def _label_repr(self, m: Monomial) -> str:
        g = self.ctx.group
        factors = (f"A({i},{j}|{g.format_element(g.element_by_uid(uid))})" for i, j, uid in m)
        return " ".join(factors) or "1"


# ---------------------------------------------------------------------------
# dimension counts


def poincare_polynomial(
    ctx: CohomContext, group_order: Optional[int] = None
) -> List[int]:
    """Coefficients of prod_{i=2..n} (1 + (i-1)|G| t)."""
    if group_order is None:
        if not ctx.group.is_finite:
            raise ValueError(
                "Poincare polynomial needs a finite group; pass an explicit "
                "truncation order for infinite backends"
            )
        group_order = ctx.group.order
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
    if not ctx.group.is_finite:
        raise ValueError("enumeration needs a finite group")
    classes_by_top = {
        i: sorted(
            (i, j, el.uid) for j in range(1, i) for el in ctx.group.elements()
        )
        for i in range(2, ctx.n + 1)
    }

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
    """Independent oracle: exact rank of the degree-2 quotient of the free
    anticommutative algebra on the degree-1 classes by relations (1)-(2)."""
    if not ctx.group.is_finite:
        raise ValueError("brute force needs a finite group")
    if deg != 2:
        raise ResourceLimitError("the rank oracle is implemented for degree 2 only")
    gens = sorted(
        (i, j, el.uid)
        for i in range(2, ctx.n + 1)
        for j in range(1, i)
        for el in ctx.group.elements()
    )
    index = {g: a for a, g in enumerate(gens)}
    n_gens = len(gens)
    if n_gens * (n_gens - 1) // 2 > max_basis:
        raise ResourceLimitError(
            f"wedge basis of size C({n_gens},2) exceeds cap {max_basis}"
        )

    def wedge(x: Factor, y: Factor) -> Dict[Tuple[int, int], int]:
        a, b = index[x], index[y]
        if a == b:
            return {}
        if a < b:
            return {(a, b): 1}
        return {(b, a): -1}

    rows: List[Dict[Tuple[int, int], int]] = []
    elements = ctx.group.elements()
    for i in range(2, ctx.n + 1):
        for j in range(1, i):
            for mu in elements:
                for nu in elements:
                    if mu == nu:
                        continue  # the square already vanishes over Q
                    row = wedge((i, j, mu.uid), (i, j, nu.uid))
                    if row:
                        rows.append(row)
    for i in range(3, ctx.n + 1):
        for j in range(2, i):
            for t in range(1, j):
                for mu in elements:
                    for nu in elements:
                        dec = ctx.group.multiply(mu, ctx.group.invert(nu))
                        x, y, z = (i, t, mu.uid), (i, j, nu.uid), (j, t, dec.uid)
                        row: Dict[Tuple[int, int], int] = {}
                        for key, c in wedge(x, y).items():
                            row[key] = row.get(key, 0) + c
                        for key, c in wedge(z, y).items():
                            row[key] = row.get(key, 0) - c
                        for key, c in wedge(z, x).items():
                            row[key] = row.get(key, 0) + c
                        row = {k: c for k, c in row.items() if c}
                        if row:
                            rows.append(row)
    return n_gens * (n_gens - 1) // 2 - rank_of_rows(rows)
