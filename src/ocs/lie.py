"""The graded Lie algebra of G-decorated strand-pair generators on n
strands, in its direct-sum-of-free-Lie-algebras normal form.

Generators B^sigma_{i,j} are indexed by a strand pair i > j and a
decoration sigma in the group G; the mirrored symbol with i < j denotes
B^{sigma^-1}_{j,i}.  The defining relations are the G-decorated
infinitesimal pure-braid relations:

  (a) [B^sigma_{i,j}, B^tau_{s,t}] = 0 when {i,j} and {s,t} are disjoint;
  (b) [B^tau_{i,j}, B^{tau sigma^-1}_{i,s} + B^sigma_{s,j}] = 0, j < s < i;
  (c) [B^sigma_{s,j}, B^tau_{i,j} + B^{tau sigma^-1}_{i,s}] = 0, j < s < i.

The quotient decomposes additively as the direct sum over top index
i = 2..n of the free Lie algebra L[i] on the letters B^sigma_{i,j},
j < i.  Normal forms live in the blockwise Lyndon bases, and the bracket
is evaluated by the semidirect structure the relations force:

* within one block, the free Lie bracket, re-expressed in the Lyndon basis;
* a generator B^sigma_{s,j} acts on a higher block i > s as the derivation

      B^tau_{i,m} -> 0                                    (m not in {s, j})
      B^tau_{i,j} -> [B^tau_{i,j}, B^{tau sigma^-1}_{i,s}]
      B^tau_{i,s} -> [B^tau_{i,s}, B^{tau sigma}_{i,j}]

  (both forced by relations (b)-(c)), and longer left arguments act by
  iterated commutators of these derivations.

Every bracket therefore lands in the higher block, relations (a)-(c)
normalize to zero by construction, and termination is structural.  That
this action is consistent (descends to the quotient of lower blocks) is
exercised by the Jacobi/antisymmetry property suites rather than proved
here.

All generators have even homological degree 2q, so no Koszul signs enter;
structure constants are integers, so coefficients are ints until a rational
scalar brings in Fractions.  q only scales the degree 2q * (bracket length).

Letters inside a block are ordered by (lower strand j, decoration uid);
words are tuples of letters.  An element is a ``sparse.Combination`` keyed
by (top index, Lyndon word), the labels of ``poisson`` primitives.  The one
bracket loop, ``bracket_sum``, sums coef * [x, y] into one dict.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from . import lyndon
from .errors import ResourceLimitError
from .groups import (
    GroupContext,
    GroupElement,
    decoration_order,
    strand_letter_count,
    strand_letters,
    strand_pair,
    strand_permutation,
)
from .linalg import commutators, quotient_dimension, rank_of_rows  # noqa: F401 (a perfbench probe)
from .sparse import Coef, Combination, add_into

Letter = Tuple[int, int]  # (lower strand j, decoration uid), inside a block
Word = Tuple[Letter, ...]
Label = Tuple[int, Word]  # (top index, Lyndon word of that block)
Terms = Dict[Label, Coef]


def label_key(label: Label) -> Tuple[int, int, Word]:
    """The canonical order of labels: (top index, length, word)."""
    top, word = label
    return (top, len(word), word)


# group -> n -> structure memo, shared by every q; holding no reference to
# the group, it dies with it.  It has two key shapes: derivations
# (s, act, w), an int and two Lyndon words, and permutation images
# (perm, i, w), a tuple, an int and a word, so the two never collide.
_STRUCTURES: "weakref.WeakKeyDictionary[GroupContext, dict]" = weakref.WeakKeyDictionary()


class LieContext:
    def __init__(self, group: GroupContext, n: int, q: int = 1):
        if n < 2:
            raise ValueError("need at least n = 2 strands")
        if q < 1:
            raise ValueError("q must be a positive integer")
        self.group = group
        self.n = n
        self.q = q
        self._deriv_cache = _STRUCTURES.setdefault(group, {}).setdefault(n, {})

    # -- element constructors -------------------------------------------

    def zero(self) -> "LieElement":
        return LieElement._pruned(self, {})

    def generator(self, i: int, j: int, sigma: GroupElement) -> "LieElement":
        """B^sigma_{i,j}; inputs with i < j are normalized via sigma -> sigma^-1."""
        i, j, sigma = strand_pair(self.group, self.n, i, j, sigma)
        return LieElement._pruned(self, {(i, ((j, sigma.uid),)): 1})

    def _check(self, x: "LieElement") -> None:
        if not isinstance(x, LieElement) or x.ctx is not self:
            raise ValueError("lie context mismatch")

    # -- bracket ---------------------------------------------------------

    def bracket(self, x: "LieElement", y: "LieElement") -> "LieElement":
        return self.bracket_sum(((1, x, y),))

    def bracket_sum(self, pairs) -> "LieElement":
        """Sum of coef * [x, y] over (coef, x, y) triples, in one dict pruned once."""
        out: Terms = {}
        get, pair_bracket = out.get, self.pair_bracket
        for coef, x, y in pairs:
            if not (
                isinstance(x, LieElement) and x.ctx is self
                and isinstance(y, LieElement) and y.ctx is self
            ):
                raise ValueError("lie context mismatch")
            for (p, wu), cu in x.terms.items():
                for (r, wv), cv in y.terms.items():
                    block, words, sign = pair_bracket(p, wu, r, wv)
                    scale = coef * sign * cu * cv
                    for w, c in words.items():
                        out[block, w] = get((block, w), 0) + scale * c
        return LieElement(self, out)

    def pair_bracket(self, p: int, wu: Word, r: int, wv: Word) -> Tuple[int, Dict[Word, int], int]:
        """[b(wu), b(wv)] = sign * terms in the given block, for Lyndon words wu
        of block p and wv of block r; terms are memoized and must not be mutated."""
        if p < r:
            return r, self._act(p, wu, wv), 1
        if p > r:
            return p, self._act(r, wv, wu), -1
        if wv < wu:
            return p, lyndon.lyndon_pair_bracket(wv, wu), -1
        return p, lyndon.lyndon_pair_bracket(wu, wv), 1

    def _act(self, s: int, act: Word, w: Word) -> Dict[Word, int]:
        """ad(b(act)) b(w), memoized, for a Lyndon word act of block s and w of
        a higher block.  A letter acts on a letter by the derivation above and
        on a longer w through its standard factorization; a longer act is the
        commutator of its factors' actions."""
        key = (s, act, w)
        cached = self._deriv_cache.get(key)
        if cached is not None:
            return cached
        if len(act) > 1:
            u, v = lyndon.standard_factorization(act)
            uv: Dict[Word, int] = {}
            vu: Dict[Word, int] = {}
            for x, c in self._act(s, v, w).items():
                add_into(uv, self._act(s, u, x), c)
            for x, c in self._act(s, u, w).items():
                add_into(vu, self._act(s, v, x), c)
            result = add_into(uv, vu, -1)
        elif len(w) > 1:
            u, v = lyndon.standard_factorization(w)
            du, dv = self._act(s, act, u), self._act(s, act, v)
            result = add_into(
                lyndon.free_lie_bracket(du, {v: 1}), lyndon.free_lie_bracket({u: 1}, dv)
            )
        else:
            (j_act, sig_uid), (m, tau_uid) = act[0], w[0]
            result = {}
            if m in (j_act, s):
                g = self.group
                tau, sig = g.element_by_uid(tau_uid), g.element_by_uid(sig_uid)
                if m == j_act:
                    other = (s, g.multiply(tau, g.invert(sig)).uid)
                else:
                    other = (j_act, g.multiply(tau, sig).uid)
                result = lyndon.free_lie_bracket({w: 1}, {(other,): 1})
        self._deriv_cache[key] = result
        return result

    # -- symmetric group action ------------------------------------------

    def act_symmetric(self, perm: Sequence[int], x: "LieElement") -> "LieElement":
        """Generator-wise action of a permutation of 1..n (image form:
        perm[i-1] = gamma(i)), extended as a Lie homomorphism; memoized
        images are only read, into a fresh result."""
        self._check(x)
        perm = strand_permutation(perm, self.n)
        out: Terms = {}
        for (i, w), c in x.terms.items():
            add_into(out, self._image(perm, i, w), c)
        return LieElement._pruned(self, out)

    def _image(self, perm: Tuple[int, ...], i: int, w: Word) -> Terms:
        """The image of b(w) of block i, memoized per (group, n) like the
        images of its sub-words: a letter maps to a generator, a longer word
        to the bracket of its factors' images."""
        key = (perm, i, w)
        image = self._deriv_cache.get(key)
        if image is None:
            if len(w) == 1:
                j, uid = w[0]
                x = self.generator(perm[i - 1], perm[j - 1], self.group.element_by_uid(uid))
            else:
                u, v = lyndon.standard_factorization(w)
                x = self.bracket(
                    LieElement._pruned(self, self._image(perm, i, u)),
                    LieElement._pruned(self, self._image(perm, i, v)),
                )
            image = self._deriv_cache[key] = x.terms
        return image


class LieElement(Combination):
    """Exact combination of blockwise Lyndon-basis words, keyed by
    (top index, word)."""

    __slots__ = ()
    ctx: LieContext
    terms: Terms

    @property
    def blocks(self) -> Dict[int, Dict[Word, Coef]]:
        """The terms grouped by top index, as a fresh dict."""
        out: Dict[int, Dict[Word, Coef]] = {}
        for (i, w), c in self.terms.items():
            out.setdefault(i, {})[w] = c
        return out

    def sorted_terms(self) -> List[Tuple[Label, Coef]]:
        return sorted(self.terms.items(), key=lambda item: label_key(item[0]))

    def degrees(self) -> List[int]:
        """Homological degrees 2q * length present in this element."""
        return sorted({2 * self.ctx.q * len(w) for _, w in self.terms})

    def _label_repr(self, label: Label) -> str:
        i, w = label
        g = self.ctx.group
        letters = (f"B({i},{j}|{g.format_element(g.element_by_uid(uid))})" for j, uid in w)
        return "[" + " ".join(letters) + "]"

    def __repr__(self):
        # asks is_zero first, so that with is_zero patched a zero prints "LieElement()"
        if self.is_zero():
            return "LieElement(0)"
        bits = (f"{c}*{self._label_repr(label)}" for label, c in self.sorted_terms())
        return f"LieElement({' + '.join(bits)})"


# ---------------------------------------------------------------------------
# relation instances


class RelationLabel:
    """A relation instance's name, formatted only when printed: its
    ``str()`` and ``repr()`` are ``template.format(*args)``."""

    __slots__ = ("template", "args")

    def __init__(self, template: str, *args):
        self.template, self.args = template, args

    def __str__(self) -> str:
        return self.template.format(*self.args)

    __repr__ = __str__


def pure_braid_relations(
    n: int, decorations: Sequence[GroupElement], group: GroupContext
):
    """All instances of the decorated pure-braid relations (a)-(c) on n
    strands, with decorations drawn from ``decorations``.

    Yields (label, [(coef, (i, j, sigma), (s, t, tau)), ...]) where each
    entry stands for coef * [B^sigma_{i,j}, B^tau_{s,t}], with i > j and s > t;
    the label is a ``RelationLabel``.
    """
    pairs = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (i, j), (s, t) = pairs[a], pairs[b]
            if {i, j} & {s, t}:
                continue
            for sigma in decorations:
                for tau in decorations:
                    yield (
                        RelationLabel("disjoint[{},{};{},{};{};{}]", i, j, s, t, sigma, tau),
                        [(1, (i, j, sigma), (s, t, tau))],
                    )
    for i in range(3, n + 1):
        for s in range(2, i):
            for j in range(1, s):
                for sigma in decorations:
                    for tau in decorations:
                        tsi = group.multiply(tau, group.invert(sigma))
                        yield (
                            RelationLabel("triangle-b[{}<{}<{};{};{}]", j, s, i, sigma, tau),
                            [
                                (1, (i, j, tau), (i, s, tsi)),
                                (1, (i, j, tau), (s, j, sigma)),
                            ],
                        )
                        yield (
                            RelationLabel("triangle-c[{}<{}<{};{};{}]", j, s, i, sigma, tau),
                            [
                                (1, (s, j, sigma), (i, j, tau)),
                                (1, (s, j, sigma), (i, s, tsi)),
                            ],
                        )


def evaluate_relation(ctx: LieContext, terms) -> LieElement:
    """Normal form of a pure_braid_relations instance: one ``ctx.bracket_sum``."""
    return ctx.bracket_sum(
        (coef, ctx.generator(i, j, sigma), ctx.generator(s, t, tau))
        for coef, (i, j, sigma), (s, t, tau) in terms
    )


# ---------------------------------------------------------------------------
# graded dimensions


def graded_dimension(
    ctx: LieContext, ell: int, group_order: Optional[int] = None
) -> int:
    """Dimension of the bracket-length-ell part: the sum over blocks of the
    number of Lyndon words of length ell over (i-1)*|G| letters."""
    if ell < 1:
        raise ValueError("bracket length must be >= 1")
    group_order = decoration_order(ctx.group, group_order, "graded dimension")
    return sum(
        lyndon.lyndon_count((i - 1) * group_order, ell) for i in range(2, ctx.n + 1)
    )


def graded_dimension_by_enumeration(ctx: LieContext, ell: int) -> int:
    """Same count by explicit Lyndon enumeration (independent of the
    necklace formula), for a finite decoration group."""
    return len(block_lyndon_basis(ctx, ell))


def block_lyndon_basis(ctx: LieContext, ell: int) -> List[Tuple[int, Word]]:
    """All (top index, Lyndon word) basis labels of bracket length ell,
    for a finite decoration group."""
    if ell < 1:
        raise ValueError("bracket length must be >= 1")
    letters = strand_letters(ctx.group, ctx.n)
    out = []
    for i in range(2, ctx.n + 1):
        alphabet = [(j, uid) for top, j, uid in letters if top == i]
        for w in lyndon.lyndon_words(alphabet, ell)[ell]:
            out.append((i, w))
    return out


def bruteforce_dimension(ctx: LieContext, ell: int, max_basis: int = 200_000) -> int:
    """Independent oracle: rank-based dimension of the degree-ell part of
    the free Lie algebra on all generators modulo the Lie ideal generated
    by relations (a)-(c), in tensor coordinates over the full alphabet."""
    size = strand_letter_count(ctx.group, ctx.n)
    if ell < 0:
        raise ValueError("bracket length must be >= 0")
    if ell > 3:
        raise ResourceLimitError("brute-force dimension is guarded to length <= 3")
    if size**ell > max_basis:
        raise ResourceLimitError(f"free algebra basis {size}^{ell} exceeds cap {max_basis}")
    if ell < 2:
        return size**ell
    letters = strand_letters(ctx.group, ctx.n)
    relations = [
        commutators((c, (i, j, a.uid), (s, t, b.uid)) for c, (i, j, a), (s, t, b) in terms)
        for _, terms in pure_braid_relations(ctx.n, ctx.group.elements(), ctx.group)
    ]
    return quotient_dimension(
        lyndon.lyndon_count(len(letters), ell), relations, letters, ell, lie=True
    )
