"""The G-decorated chord-diagram algebra on n strands: the quotient of the
free associative algebra on generators X^gamma_{i,j} (i > j, gamma in G,
degree 1, with X^gamma_{j,i} denoting X^{gamma^-1}_{i,j}) by

    [X^gamma_{i,j}, X^delta_{s,t}] = 0            ({i,j,s,t} distinct),
    [X^gamma_{i,j}, X^delta_{j,s} + X^{gamma delta}_{i,s}] = 0
                                                  ({i,j,s} distinct).

It is the universal enveloping algebra of the Lie algebra in ``lie``, and
a Poincare-Birkhoff-Witt basis is given by canonical words: top indices
nondecreasing left to right, the letters within one block free.
Multiplication straightens concatenations to this basis by pushing larger
top indices right; each swap across blocks adds the commutator correction
dictated by the derivation formulas of the Lie module.

Straightening terminates: a swap preserves the multiset of top indices and
strictly drops the inversion count, while a correction replaces a lower
top index by a higher one, which strictly raises the multiset in dominance
order -- and at fixed word length the multiset is bounded.

The group ring Z[G^n] acts by slot-wise conjugation (slot i twists the
decoration to mu*gamma, slot j to gamma*mu^-1), and the symmetric group
acts by relabeling strands; both are degree-preserving automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import lyndon
from .errors import ResourceLimitError
from .groups import GroupContext, GroupElement
from .lie import LieElement
from .linalg import rank_of_rows
from .sparse import Coef, Combination, add_into

Letter = Tuple[int, int, int]  # (top strand i, lower strand j, decoration uid)
Word = Tuple[Letter, ...]
Terms = Dict[Word, Coef]


class AssocContext:
    def __init__(self, group: GroupContext, n: int):
        if n < 2:
            raise ValueError("need at least n = 2 strands")
        self.group = group
        self.n = n
        self._embed_cache: Dict[tuple, Terms] = {}

    def letter(self, i: int, j: int, gamma: GroupElement) -> Letter:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"strand index out of range for n={self.n}")
        if i == j:
            raise ValueError("generator needs two distinct strands")
        self.group._check(gamma)
        if i < j:
            i, j, gamma = j, i, self.group.invert(gamma)
        return (i, j, gamma.uid)

    def one(self) -> "AssocElement":
        return AssocElement(self, {(): 1})

    def zero(self) -> "AssocElement":
        return AssocElement(self, {})

    def generator(self, i: int, j: int, gamma: GroupElement) -> "AssocElement":
        return AssocElement(self, {(self.letter(i, j, gamma),): 1})

    def word(self, letters: Sequence[Letter]) -> "AssocElement":
        return self._straighten({tuple(letters): 1})

    def _check(self, x: "AssocElement") -> None:
        if not isinstance(x, AssocElement) or x.ctx is not self:
            raise ValueError("assoc context mismatch")

    # -- straightening ----------------------------------------------------

    def _straighten(self, terms: Terms) -> "AssocElement":
        out: Terms = {}
        stack = [(w, c) for w, c in terms.items() if c]
        while stack:
            word, coef = stack.pop()
            pos = next(
                (p for p in range(len(word) - 1) if word[p][0] > word[p + 1][0]),
                None,
            )
            if pos is None:
                out[word] = out.get(word, 0) + coef
                continue
            x, y = word[pos], word[pos + 1]
            head, tail = word[:pos], word[pos + 2 :]
            stack.append((head + (y, x) + tail, coef))
            i, a, delta_uid = x
            s, b, gamma_uid = y
            if a == b or a == s:
                delta = self.group.element_by_uid(delta_uid)
                gamma = self.group.element_by_uid(gamma_uid)
                if a == b:
                    dec = self.group.multiply(delta, self.group.invert(gamma))
                    p, r = (i, a, delta_uid), (i, s, dec.uid)
                else:  # a == s
                    dec = self.group.multiply(delta, gamma)
                    p, r = (i, a, delta_uid), (i, b, dec.uid)
                # correction -[p, r] from the commutation relation
                stack.append((head + (r, p) + tail, coef))
                stack.append((head + (p, r) + tail, -coef))
        return AssocElement(self, out)

    def multiply(self, x: "AssocElement", y: "AssocElement") -> "AssocElement":
        self._check(x)
        self._check(y)
        raw: Terms = {}
        for wu, cu in x.terms.items():
            for wv, cv in y.terms.items():
                key = wu + wv
                raw[key] = raw.get(key, 0) + cu * cv
        return self._straighten(raw)

    # -- group-ring and symmetric-group actions ---------------------------

    def conjugate(self, mu: GroupElement, slot: int, x: "AssocElement") -> "AssocElement":
        """Conjugation by mu inserted at the given strand slot (1..n)."""
        self._check(x)
        self.group._check(mu)
        if not 1 <= slot <= self.n:
            raise ValueError(f"slot {slot} out of range for n={self.n}")
        mu_inv = self.group.invert(mu)

        def map_letter(letter: Letter) -> Letter:
            i, j, uid = letter
            if slot == i:
                dec = self.group.multiply(mu, self.group.element_by_uid(uid))
                return (i, j, dec.uid)
            if slot == j:
                dec = self.group.multiply(self.group.element_by_uid(uid), mu_inv)
                return (i, j, dec.uid)
            return letter

        return AssocElement(
            self,
            {tuple(map_letter(l) for l in w): c for w, c in x.terms.items()},
        )

    def conjugate_tuple(
        self, decorations: Sequence[GroupElement], x: "AssocElement"
    ) -> "AssocElement":
        if len(decorations) != self.n:
            raise ValueError(f"need an n-tuple of decorations, n={self.n}")
        for slot, mu in enumerate(decorations, start=1):
            x = self.conjugate(mu, slot, x)
        return x

    def act_permutation(self, perm: Sequence[int], x: "AssocElement") -> "AssocElement":
        """Strand relabeling gamma: X^g_{i,j} -> X^g_{gamma(i),gamma(j)},
        renormalized to top > lower and re-straightened."""
        self._check(x)
        perm = tuple(perm)
        if sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError("not a bijection of 1..n")
        raw: Terms = {}
        for w, c in x.terms.items():
            new = tuple(
                self.letter(perm[i - 1], perm[j - 1], self.group.element_by_uid(uid))
                for i, j, uid in w
            )
            raw[new] = raw.get(new, 0) + c
        return self._straighten(raw)

    def act_tilde(
        self,
        perm: Sequence[int],
        decorations: Sequence[GroupElement],
        x: "AssocElement",
    ) -> "AssocElement":
        """Decorated-permutation action: strand relabeling followed by
        slot-wise conjugation."""
        return self.conjugate_tuple(decorations, self.act_permutation(perm, x))

    # -- enveloping-algebra structure --------------------------------------

    def embed_lie(self, x: LieElement) -> "AssocElement":
        """Lyndon bracket words expanded through iterated commutators."""
        if not isinstance(x, LieElement):
            raise ValueError("assoc context mismatch")
        lctx = x.ctx
        if lctx.group is not self.group or lctx.n != self.n:
            raise ValueError("assoc context mismatch")
        out: Terms = {}
        for i, w, c in x.terms():
            add_into(out, self._embed_word(i, w), c)
        return AssocElement(self, out)

    def _embed_word(self, block: int, w) -> Terms:
        key = (block, w)
        cached = self._embed_cache.get(key)
        if cached is not None:
            return cached
        if len(w) == 1:
            j, uid = w[0]
            result: Terms = {((block, j, uid),): 1}
        else:
            u, v = lyndon.standard_factorization(w)
            eu = AssocElement(self, self._embed_word(block, u))
            ev = AssocElement(self, self._embed_word(block, v))
            result = (self.multiply(eu, ev) - self.multiply(ev, eu)).terms
        self._embed_cache[key] = result
        return result


class AssocElement(Combination):
    """Rational combination of canonical words, graded by word length."""

    ctx: AssocContext
    terms: Terms

    def __mul__(self, other: "AssocElement") -> "AssocElement":
        return self.ctx.multiply(self, other)

    def sorted_terms(self) -> List[Tuple[Word, Coef]]:
        """Sorted by (length, block sequence, letters)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (
                len(item[0]),
                tuple(l[0] for l in item[0]),
                item[0],
            ),
        )

    def degrees(self) -> List[int]:
        return sorted({len(w) for w in self.terms})

    def _label_repr(self, w: Word) -> str:
        g = self.ctx.group
        letters = (f"X({i},{j}|{g.format_element(g.element_by_uid(uid))})" for i, j, uid in w)
        return " ".join(letters) or "1"


# ---------------------------------------------------------------------------
# group-ring elements


@dataclass(frozen=True, eq=False)
class LambdaElement:
    """Integer combination of decoration n-tuples (the group ring Z[G^n]),
    acting on the algebra by slot-wise conjugation."""

    ctx: AssocContext
    coeffs: Dict[Tuple[GroupElement, ...], int]

    def __post_init__(self):
        for tup in self.coeffs:
            if len(tup) != self.ctx.n:
                raise ValueError("tuple length must equal the strand count")
        object.__setattr__(
            self, "coeffs", {t: c for t, c in self.coeffs.items() if c}
        )

    def __mul__(self, other: "LambdaElement") -> "LambdaElement":
        out: Dict[Tuple[GroupElement, ...], int] = {}
        g = self.ctx.group
        for ta, ca in self.coeffs.items():
            for tb, cb in other.coeffs.items():
                key = tuple(g.multiply(a, b) for a, b in zip(ta, tb))
                out[key] = out.get(key, 0) + ca * cb
        return LambdaElement(self.ctx, out)

    def act(self, x: AssocElement) -> AssocElement:
        out = self.ctx.zero()
        for tup, c in self.coeffs.items():
            out = out + self.ctx.conjugate_tuple(tup, x).scale(c)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaElement)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("LambdaElement is not hashable")


# ---------------------------------------------------------------------------
# Hilbert series and brute-force oracle


def hilbert_coefficients(
    ctx: AssocContext, max_deg: int, group_order: Optional[int] = None
) -> List[int]:
    """Coefficients 0..max_deg of prod_{i=2..n} 1/(1 - (i-1)|G| t), which
    count canonical words by length."""
    if max_deg < 0:
        raise ValueError("degree must be >= 0")
    if group_order is None:
        if not ctx.group.is_finite:
            raise ValueError(
                "Hilbert series needs a finite group; pass an explicit "
                "truncation order for infinite backends"
            )
        group_order = ctx.group.order
    coeffs = [1] + [0] * max_deg
    for i in range(2, ctx.n + 1):
        ratio = (i - 1) * group_order
        # multiply by the geometric series 1/(1 - ratio*t)
        for d in range(1, max_deg + 1):
            coeffs[d] += ratio * coeffs[d - 1]
    return coeffs


def count_canonical_words(ctx: AssocContext, deg: int) -> int:
    """Number of canonical words of the given length, by enumeration."""
    return sum(1 for _ in enumerate_canonical_words(ctx, deg))


def enumerate_canonical_words(ctx: AssocContext, deg: int) -> Iterable[Word]:
    if not ctx.group.is_finite:
        raise ValueError("enumeration needs a finite group")
    alphabet = sorted(
        (i, j, el.uid)
        for i in range(2, ctx.n + 1)
        for j in range(1, i)
        for el in ctx.group.elements()
    )

    def rec(prefix: Word, remaining: int):
        if remaining == 0:
            yield prefix
            return
        min_top = prefix[-1][0] if prefix else 2
        for letter in alphabet:
            if letter[0] >= min_top:
                yield from rec(prefix + (letter,), remaining - 1)

    yield from rec((), deg)


def relation_tensors(ctx: AssocContext) -> List[Dict[Word, int]]:
    """Quadratic relations of the algebra as elements of the free
    associative algebra on all generators (for the rank oracle)."""
    if not ctx.group.is_finite:
        raise ValueError("relation sweep needs a finite group")
    elements = ctx.group.elements()
    rows: List[Dict[Word, int]] = []

    def commutator(x: Letter, y: Letter) -> Dict[Word, int]:
        return {(x, y): 1, (y, x): -1}

    def add(row: Dict[Word, int]) -> None:
        row = {w: c for w, c in row.items() if c}
        if row:
            rows.append(row)

    strands = range(1, ctx.n + 1)
    for i in strands:
        for j in strands:
            for s in strands:
                if len({i, j, s}) != 3:
                    continue
                for gamma in elements:
                    for delta in elements:
                        x = ctx.letter(i, j, gamma)
                        y = ctx.letter(j, s, delta)
                        z = ctx.letter(i, s, ctx.group.multiply(gamma, delta))
                        row: Dict[Word, int] = {}
                        for word, c in commutator(x, y).items():
                            row[word] = row.get(word, 0) + c
                        for word, c in commutator(x, z).items():
                            row[word] = row.get(word, 0) + c
                        add(row)
    for i in strands:
        for j in range(1, i):
            for s in strands:
                for t in range(1, s):
                    if {i, j} & {s, t} or (i, j) >= (s, t):
                        continue
                    for gamma in elements:
                        for delta in elements:
                            add(
                                dict(
                                    commutator(
                                        ctx.letter(i, j, gamma), ctx.letter(s, t, delta)
                                    )
                                )
                            )
    return rows


def bruteforce_quotient_dimension(
    ctx: AssocContext, deg: int, max_basis: int = 200_000
) -> int:
    """Independent oracle: dimension of the degree-deg part of the free
    associative algebra on all generators modulo the two-sided ideal
    generated by the quadratic relations."""
    if not ctx.group.is_finite:
        raise ValueError("brute force needs a finite group")
    if deg < 0:
        raise ValueError("degree must be >= 0")
    if deg > 3:
        raise ResourceLimitError("brute-force quotient is guarded to degree <= 3")
    letters = sorted(
        (i, j, el.uid)
        for i in range(2, ctx.n + 1)
        for j in range(1, i)
        for el in ctx.group.elements()
    )
    if len(letters) ** max(deg, 1) > max_basis:
        raise ResourceLimitError(
            f"free algebra basis {len(letters)}^{deg} exceeds cap {max_basis}"
        )
    if deg <= 1:
        return 1 if deg == 0 else len(letters)
    relations = relation_tensors(ctx)
    if deg == 2:
        return len(letters) ** 2 - rank_of_rows(relations)
    rows = []
    for g in letters:
        for rel in relations:
            rows.append({(g,) + w: c for w, c in rel.items()})
            rows.append({w + (g,): c for w, c in rel.items()})
    return len(letters) ** 3 - rank_of_rows(rows)
