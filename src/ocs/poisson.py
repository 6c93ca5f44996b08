"""Graded Poisson model for k-fold loop homology of decorated
configuration spaces: the free graded-commutative algebra on the
blockwise Lyndon basis of the ``lie`` module, regraded so a basis bracket
of length m has degree m(2q+1-k) + (m-1)(k-1), equipped with the bracket
of degree k-1 (the Browder operation) satisfying, for homogeneous a, b, c:

  Jacobi     a_1 L[a,L[b,c]] + a_2 L[b,L[c,a]] + a_3 L[c,L[a,b]] = 0
             with a_1 = (-1)^{(|a|+k-1)(|c|+k-1)} and cyclic companions;
  Antisym    L[a,b] = (-1)^{|a||b| + 1 + (k-1)(|a|+|b|+1)} L[b,a];
  Leibniz    L[a.b, c] = a.L[b,c] + (-1)^{|a||b|} b.L[a,c];
  Degree     |L[a,b]| = k-1 + |a| + |b|.

Internally everything is computed in the (k-1)-desuspended grading
|x|* = |x| + k - 1, where every primitive has even degree 2q*(length) and
the bracket restricted to primitives is the plain Lie bracket of the
``lie`` module with its integer structure constants.  The Koszul signs of
the printed axioms fall out of this one convention; the suites assert the
printed exponents verbatim.  A primitive is a ``lie`` term label, so
``from_lie`` wraps each term as a one-factor monomial.  The one bracket
loop, ``bracket_sum``, sums coef * L[x, y] into one dict.

All primitives share the parity of k-1, so the underlying algebra is
polynomial for odd k and exterior-like (odd squares vanish) for even k.
The homology suspension is modeled on the primitive part only: it fixes
basis labels and lowers k by one.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Optional, Tuple

from . import lie as lie_mod
from .groups import GroupContext, GroupElement, decoration_order, strand_pair
from .lie import label_key
from .sparse import Coef, Combination, add_into

Primitive = lie_mod.Label  # (block, Lyndon word of block-local letters)
Monomial = Tuple[Primitive, ...]  # sorted by label_key
Terms = Dict[Monomial, Coef]


class PoissonGrading:
    """The (k, q) grading: frozen, equal and hashed by (k, q)."""

    __slots__ = ("k", "q")
    k: int
    q: int

    def __init__(self, k: int, q: int):
        if not 1 < k < 2 * q + 1:
            raise ValueError(
                f"need 1 < k < 2q+1 for a positive generator degree, got k={k}, q={q}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"PoissonGrading(k={self.k!r}, q={self.q!r})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.k, self.q) == (other.k, other.q)

    def __hash__(self) -> int:
        return hash((self.k, self.q))

    @property
    def generator_degree(self) -> int:
        return 2 * self.q + 1 - self.k

    @property
    def shift(self) -> int:
        """The bracket degree shift k - 1."""
        return self.k - 1

    def primitive_degree(self, length: int) -> int:
        """Degree of a basis bracket of the given length:
        length*(2q+1-k) + (length-1)*(k-1) = 2q*length - (k-1)."""
        return 2 * self.q * length - self.shift

    @property
    def odd_primitives(self) -> bool:
        return self.shift % 2 == 1

    def suspended(self) -> "PoissonGrading":
        return PoissonGrading(self.k - 1, self.q)

    def regraded(self) -> "PoissonGrading":
        """(q, k) -> (q+1, k+2): fixes the generator degree 2q+1-k."""
        return PoissonGrading(self.k + 2, self.q + 1)


class PoissonContext:
    def __init__(self, group: GroupContext, n: int, grading: PoissonGrading):
        self.group = group
        self.n = n
        self.grading = grading
        self.lie = lie_mod.LieContext(group, n, q=grading.q)

    def compatible(self, other: "PoissonContext") -> bool:
        return (
            self.group is other.group
            and self.n == other.n
            and self.grading == other.grading
        )

    def _check(self, x: "PoissonElement") -> None:
        if not isinstance(x, PoissonElement) or not self.compatible(x.ctx):
            raise ValueError("poisson grading mismatch")

    # -- constructors ------------------------------------------------------

    def one(self) -> "PoissonElement":
        return PoissonElement(self, {(): 1})

    def zero(self) -> "PoissonElement":
        return PoissonElement(self, {})

    def generator(self, i: int, j: int, sigma: GroupElement) -> "PoissonElement":
        i, j, sigma = strand_pair(self.group, self.n, i, j, sigma)
        prim: Primitive = (i, ((j, sigma.uid),))
        return PoissonElement(self, {(prim,): 1})

    def from_lie(self, x: lie_mod.LieElement) -> "PoissonElement":
        """A Lie normal form as a combination of primitive monomials."""
        if x.ctx.group is not self.group or x.ctx.n != self.n:
            raise ValueError("poisson grading mismatch")
        return PoissonElement(self, {(p,): c for p, c in x.terms.items()})

    def primitive_degree_of(self, p: Primitive) -> int:
        return self.grading.primitive_degree(len(p[1]))

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self.primitive_degree_of(p) for p in mono)

    # -- graded-commutative product -----------------------------------------

    def _merge(self, left: Monomial, right: Monomial) -> Tuple[Optional[Monomial], int]:
        """Sort the concatenation left + right, returning (monomial, sign);
        (None, 0) when an odd-degree factor repeats."""
        odd = self.grading.odd_primitives
        merged: List[Primitive] = []
        sign = 1
        a, b = 0, 0
        while a < len(left) and b < len(right):
            ka, kb = label_key(left[a]), label_key(right[b])
            if ka <= kb:
                merged.append(left[a])
                a += 1
            else:
                # right[b] crosses the remaining left factors
                if odd and (len(left) - a) % 2 == 1:
                    sign = -sign
                merged.append(right[b])
                b += 1
        merged.extend(left[a:])
        merged.extend(right[b:])
        if odd:
            for idx in range(len(merged) - 1):
                if merged[idx] == merged[idx + 1]:
                    return None, 0
        return tuple(merged), sign

    def multiply(self, x: "PoissonElement", y: "PoissonElement") -> "PoissonElement":
        self._check(x)
        self._check(y)
        out: Terms = {}
        for mu, cu in x.terms.items():
            for mv, cv in y.terms.items():
                mono, sign = self._merge(mu, mv)
                if mono is None:
                    continue
                out[mono] = out.get(mono, 0) + sign * cu * cv
        return PoissonElement(self, out)

    # -- the bracket ---------------------------------------------------------

    def bracket(self, x: "PoissonElement", y: "PoissonElement") -> "PoissonElement":
        return self.bracket_sum(((1, x, y),))

    def bracket_sum(self, pairs) -> "PoissonElement":
        """Sum of coef * L[x, y] over (coef, x, y) triples, in one dict pruned once."""
        out: Terms = {}
        for coef, x, y in pairs:
            self._check(x)
            self._check(y)
            for mu, cu in x.terms.items():
                for mv, cv in y.terms.items():
                    add_into(out, self._bracket_monomials(mu, mv), coef * cu * cv)
        return PoissonElement(self, out)

    def _bracket_monomials(self, left: Monomial, right: Monomial) -> Terms:
        """L[a_0...a_m, b_0...b_l] as the double sum over factor pairs: in the
        desuspended grading every primitive is even, so term (i, j) is L[a_i, b_j]
        . (left without a_i) . (right without b_j) times one Koszul sign that
        brings a_i and b_j to the front, (-1)^(i+j) when primitives are odd."""
        out: Terms = {}
        odd = self.grading.odd_primitives
        pair_bracket = self.lie.pair_bracket
        for i, (p, wu) in enumerate(left):
            rest_left = left[:i] + left[i + 1 :]
            for j, (r, wv) in enumerate(right):
                rest, sign = self._merge(rest_left, right[:j] + right[j + 1 :])
                if rest is None:
                    continue
                block, words, s0 = pair_bracket(p, wu, r, wv)
                if odd and (i + j) % 2:
                    s0 = -s0
                sign *= s0
                for word, c in words.items():
                    mono, s = self._merge(((block, word),), rest)
                    if mono is not None:
                        out[mono] = out.get(mono, 0) + sign * s * c
        return out


class PoissonElement(Combination):
    """Exact combination of sorted primitive monomials; elements over
    compatible contexts (same group, n and grading) compare and combine."""

    __slots__ = ()
    ctx: PoissonContext
    terms: Terms

    def _same_ctx(self, ctx) -> bool:
        return self.ctx.compatible(ctx)

    def __mul__(self, other: "PoissonElement") -> "PoissonElement":
        return self.ctx.multiply(self, other)

    def degree(self) -> Optional[int]:
        """Common degree of all monomials, or None if inhomogeneous/zero."""
        degs = {self.ctx.monomial_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> List[Tuple[Monomial, Coef]]:
        return sorted(
            self.terms.items(),
            key=lambda item: (
                self.ctx.monomial_degree(item[0]),
                len(item[0]),
                tuple(label_key(p) for p in item[0]),
            ),
        )

    def _label_repr(self, m: Monomial) -> str:
        return "(" + (" * ".join(f"P{p[0]}{list(p[1])}" for p in m) or "1") + ")"


# ---------------------------------------------------------------------------
# suspension


def suspension(x: PoissonElement) -> PoissonElement:
    """Homology suspension on the primitive part: basis labels are fixed,
    the loop depth k drops by one (so degrees rise by one)."""
    ctx = x.ctx
    target = PoissonContext(ctx.group, ctx.n, ctx.grading.suspended())
    if any(len(mono) != 1 for mono in x.terms):
        raise ValueError(
            "suspension is defined on the primitive part only; "
            "got a product monomial"
        )
    return PoissonElement(target, x.terms)


# ---------------------------------------------------------------------------
# basis counting


def basis_dimension(
    ctx: PoissonContext, degree: int, group_order: Optional[int] = None
) -> int:
    """Number of basis monomials of the given total degree: multisets of
    basis brackets, square-free in the odd-primitive regime."""
    return basis_dimensions(ctx, degree, group_order)[degree]


def basis_dimensions(
    ctx: PoissonContext, max_deg: int, group_order: Optional[int] = None
) -> List[int]:
    """``basis_dimension`` for every degree 0..max_deg: the coefficients of
    one truncated series, the product over bracket lengths of one factor
    per basis bracket (1/(1-t^d)^count, or (1+t^d)^count when odd)."""
    if max_deg < 0:
        raise ValueError("degree must be >= 0")
    group_order = decoration_order(ctx.group, group_order, "basis counting")
    poly = [1] + [0] * max_deg
    length = 1
    while True:
        delta = ctx.grading.primitive_degree(length)
        if delta > max_deg:
            break
        count = lie_mod.graded_dimension(ctx.lie, length, group_order=group_order)
        if count:
            factor = [
                comb(count, m) if ctx.grading.odd_primitives else comb(count + m - 1, m)
                for m in range(max_deg // delta + 1)
            ]
            nxt = [0] * (max_deg + 1)
            for a, ca in enumerate(poly):
                if ca:
                    for m, f in enumerate(factor[: (max_deg - a) // delta + 1]):
                        nxt[a + m * delta] += ca * f
            poly = nxt
        length += 1
    return poly


def enumerate_monomials(ctx: PoissonContext, degree: int) -> List[Monomial]:
    """Explicit basis monomials of the given total degree (finite groups)."""
    if not ctx.group.is_finite:
        raise ValueError("enumeration needs a finite group")
    primitives: List[Primitive] = []
    length = 1
    while ctx.grading.primitive_degree(length) <= degree:
        primitives.extend(lie_mod.block_lyndon_basis(ctx.lie, length))
        length += 1
    primitives.sort(key=label_key)
    odd = ctx.grading.odd_primitives
    out: List[Monomial] = []

    def rec(prefix: Monomial, start: int, remaining: int):
        if remaining == 0:
            out.append(prefix)
            return
        for idx in range(start, len(primitives)):
            p = primitives[idx]
            d = ctx.primitive_degree_of(p)
            if d > remaining:
                continue
            rec(prefix + (p,), idx + 1 if odd else idx, remaining - d)

    rec((), 0, degree)
    return out
