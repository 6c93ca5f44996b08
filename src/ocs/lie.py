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
words are tuples of such letters.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import lyndon
from .errors import ResourceLimitError
from .groups import GroupContext, GroupElement
from .linalg import rank_of_rows
from .sparse import Coef, add_into

Letter = Tuple[int, int]  # (lower strand j, decoration uid), inside a block
Word = Tuple[Letter, ...]
Blocks = Dict[int, Dict[Word, Coef]]


# group -> n -> derivation memo, shared by every q; holding no reference to
# the group, it dies with it.
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
        return LieElement(self, {})

    def generator(self, i: int, j: int, sigma: GroupElement) -> "LieElement":
        """B^sigma_{i,j}; inputs with i < j are normalized via sigma -> sigma^-1."""
        i, j, sigma = self.normalize_index(i, j, sigma)
        word: Word = ((j, sigma.uid),)
        return LieElement(self, {i: {word: 1}})

    def normalize_index(
        self, i: int, j: int, sigma: GroupElement
    ) -> Tuple[int, int, GroupElement]:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"strand index out of range for n={self.n}")
        if i == j:
            raise ValueError("generator needs two distinct strands")
        self.group._check(sigma)
        if i < j:
            return j, i, self.group.invert(sigma)
        return i, j, sigma

    def _check(self, x: "LieElement") -> None:
        if not isinstance(x, LieElement) or x.ctx is not self:
            raise ValueError("lie context mismatch")

    # -- bracket ---------------------------------------------------------

    def bracket(self, x: "LieElement", y: "LieElement") -> "LieElement":
        self._check(x)
        self._check(y)
        out: Blocks = {}
        for p, du in x.blocks.items():
            for r, dv in y.blocks.items():
                for wu, cu in du.items():
                    for wv, cv in dv.items():
                        block, terms, sign = self.pair_bracket(p, wu, r, wv)
                        _add_block(out, block, terms, sign * cu * cv)
        return LieElement(self, out)

    def pair_bracket(self, p: int, wu: Word, r: int, wv: Word) -> Tuple[int, Dict[Word, int], int]:
        """[b(wu), b(wv)] = sign * terms in the given block, for Lyndon words wu
        of block p and wv of block r; terms are memoized and must not be mutated."""
        if p < r:
            return r, self._act_word_single(p, wu, wv), 1
        if p > r:
            return p, self._act_word_single(r, wv, wu), -1
        if wv < wu:
            return p, lyndon.lyndon_pair_bracket(wv, wu), -1
        return p, lyndon.lyndon_pair_bracket(wu, wv), 1

    def _act_word(self, s: int, act: Word, target: Dict[Word, int]) -> Dict[Word, int]:
        """ad(b(act)) applied to a combination in a higher block, where act
        is a Lyndon word of block s.  Longer words act through commutators
        of the letter derivations."""
        out: Dict[Word, int] = {}
        for w, c in target.items():
            add_into(out, self._act_word_single(s, act, w), c)
        return out

    def _act_word_single(self, s: int, act: Word, w: Word) -> Dict[Word, int]:
        if len(act) == 1:
            return self._act_letter_word(s, act[0], w)
        key = (s, act, w)
        cached = self._deriv_cache.get(key)
        if cached is not None:
            return cached
        u, v = lyndon.standard_factorization(act)
        result = add_into(
            self._act_word(s, u, self._act_word_single(s, v, w)),
            self._act_word(s, v, self._act_word_single(s, u, w)),
            -1,
        )
        self._deriv_cache[key] = result
        return result

    def _act_letter_word(self, s: int, letter: Letter, w: Word) -> Dict[Word, int]:
        key = (s, letter, w)
        cached = self._deriv_cache.get(key)
        if cached is not None:
            return cached
        j_act, sig_uid = letter
        if len(w) == 1:
            m, tau_uid = w[0]
            if m in (j_act, s):
                tau = self.group.element_by_uid(tau_uid)
                sig = self.group.element_by_uid(sig_uid)
                if m == j_act:
                    other = (s, self.group.multiply(tau, self.group.invert(sig)).uid)
                else:
                    other = (j_act, self.group.multiply(tau, sig).uid)
                result = lyndon.free_lie_bracket({w: 1}, {(other,): 1})
            else:
                result = {}
        else:
            u, v = lyndon.standard_factorization(w)
            du = self._act_letter_word(s, letter, u)
            dv = self._act_letter_word(s, letter, v)
            result = add_into(
                lyndon.free_lie_bracket(du, {v: 1}),
                lyndon.free_lie_bracket({u: 1}, dv),
            )
        self._deriv_cache[key] = result
        return result

    # -- symmetric group action ------------------------------------------

    def act_symmetric(self, perm: Sequence[int], x: "LieElement") -> "LieElement":
        """Generator-wise action of a permutation of 1..n (image form:
        perm[i-1] = gamma(i)), extended as a Lie homomorphism."""
        self._check(x)
        perm = tuple(perm)
        if sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError("not a bijection of 1..n")
        out: Blocks = {}
        for i, d in x.blocks.items():
            for w, c in d.items():
                for block, terms in self._map_word(perm, i, w).blocks.items():
                    _add_block(out, block, terms, c)
        return LieElement(self, out)

    def _map_word(self, perm: Tuple[int, ...], i: int, w: Word) -> "LieElement":
        if len(w) == 1:
            j, uid = w[0]
            return self.generator(perm[i - 1], perm[j - 1], self.group.element_by_uid(uid))
        u, v = lyndon.standard_factorization(w)
        return self.bracket(self._map_word(perm, i, u), self._map_word(perm, i, v))


def _add_block(out: Blocks, block: int, terms: Dict[Word, Coef], coef: Coef) -> None:
    if not coef:
        return
    dst = add_into(out.setdefault(block, {}), terms, coef)
    if not dst:
        out.pop(block, None)


@dataclass(frozen=True, eq=False)
class LieElement:
    """Exact combination of Lyndon-basis words, stored by top index."""

    ctx: LieContext
    blocks: Blocks

    def __post_init__(self):
        pruned = {i: {w: c for w, c in d.items() if c} for i, d in self.blocks.items()}
        object.__setattr__(self, "blocks", {i: d for i, d in pruned.items() if d})

    def __add__(self, other: "LieElement") -> "LieElement":
        self.ctx._check(other)
        out: Blocks = {i: dict(d) for i, d in self.blocks.items()}
        for i, d in other.blocks.items():
            _add_block(out, i, d, 1)
        return LieElement(self.ctx, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def __neg__(self) -> "LieElement":
        return self.scale(-1)

    def scale(self, c) -> "LieElement":
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return LieElement(self.ctx, {})
        return LieElement(
            self.ctx,
            {i: {w: c * v for w, v in d.items()} for i, d in self.blocks.items()},
        )

    def bracket(self, other: "LieElement") -> "LieElement":
        return self.ctx.bracket(self, other)

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other) -> bool:
        same_ctx = isinstance(other, LieElement) and self.ctx is other.ctx
        return same_ctx and self.blocks == other.blocks

    def __hash__(self):
        raise TypeError("LieElement is not hashable")

    def terms(self) -> List[Tuple[int, Word, Coef]]:
        """(top index, word, coefficient), sorted by (top, length, word)."""
        out = []
        for i in sorted(self.blocks):
            for w in sorted(self.blocks[i], key=lambda w: (len(w), w)):
                out.append((i, w, self.blocks[i][w]))
        return out

    def degrees(self) -> List[int]:
        """Homological degrees 2q * length present in this element."""
        return sorted({2 * self.ctx.q * len(w) for d in self.blocks.values() for w in d})

    def __repr__(self):
        if self.is_zero():
            return "LieElement(0)"
        bits = []
        for i, w, c in self.terms():
            word = " ".join(
                f"B({i},{j}|{self.ctx.group.format_element(self.ctx.group.element_by_uid(uid))})"
                for j, uid in w
            )
            bits.append(f"{c}*[{word}]")
        return "LieElement(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# relation instances


def pure_braid_relations(
    n: int, decorations: Sequence[GroupElement], group: GroupContext
):
    """All instances of the decorated pure-braid relations (a)-(c) on n
    strands, with decorations drawn from ``decorations``.

    Yields (label, [(coef, (i, j, sigma), (s, t, tau)), ...]) where each
    entry stands for coef * [B^sigma_{i,j}, B^tau_{s,t}].
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
                        f"disjoint[{i},{j};{s},{t};{sigma};{tau}]",
                        [(1, (i, j, sigma), (s, t, tau))],
                    )
    for i in range(3, n + 1):
        for s in range(2, i):
            for j in range(1, s):
                for sigma in decorations:
                    for tau in decorations:
                        tsi = group.multiply(tau, group.invert(sigma))
                        yield (
                            f"triangle-b[{j}<{s}<{i};{sigma};{tau}]",
                            [
                                (1, (i, j, tau), (i, s, tsi)),
                                (1, (i, j, tau), (s, j, sigma)),
                            ],
                        )
                        yield (
                            f"triangle-c[{j}<{s}<{i};{sigma};{tau}]",
                            [
                                (1, (s, j, sigma), (i, j, tau)),
                                (1, (s, j, sigma), (i, s, tsi)),
                            ],
                        )


def evaluate_relation(ctx: LieContext, terms) -> LieElement:
    """Normal form of a relation instance produced by pure_braid_relations."""
    out = ctx.zero()
    for coef, (i, j, sigma), (s, t, tau) in terms:
        out = out + ctx.bracket(ctx.generator(i, j, sigma), ctx.generator(s, t, tau)).scale(coef)
    return out


# ---------------------------------------------------------------------------
# graded dimensions


def graded_dimension(
    ctx: LieContext, ell: int, group_order: Optional[int] = None
) -> int:
    """Dimension of the bracket-length-ell part: the sum over blocks of the
    number of Lyndon words of length ell over (i-1)*|G| letters."""
    if ell < 1:
        raise ValueError("bracket length must be >= 1")
    if group_order is None:
        if not ctx.group.is_finite:
            raise ValueError(
                "graded dimension needs a finite group; pass an explicit "
                "truncation order for infinite backends"
            )
        group_order = ctx.group.order
    return sum(
        lyndon.lyndon_count((i - 1) * group_order, ell) for i in range(2, ctx.n + 1)
    )


def graded_dimension_by_enumeration(
    ctx: LieContext, ell: int, group_order: Optional[int] = None
) -> int:
    """Same count by explicit Lyndon enumeration (independent of the
    necklace formula)."""
    if group_order is None:
        if not ctx.group.is_finite:
            raise ValueError("enumeration needs a finite group")
        group_order = ctx.group.order
    total = 0
    for i in range(2, ctx.n + 1):
        alphabet = [(j, u) for j in range(1, i) for u in range(group_order)]
        total += len(lyndon.lyndon_words(alphabet, ell)[ell]) if alphabet else 0
    return total


def block_lyndon_basis(ctx: LieContext, ell: int) -> List[Tuple[int, Word]]:
    """All (top index, Lyndon word) basis labels of bracket length ell,
    for a finite decoration group."""
    if not ctx.group.is_finite:
        raise ValueError("basis enumeration needs a finite group")
    out = []
    for i in range(2, ctx.n + 1):
        alphabet = [
            (j, el.uid) for j in range(1, i) for el in ctx.group.elements()
        ]
        alphabet.sort()
        for w in lyndon.lyndon_words(alphabet, ell)[ell]:
            out.append((i, w))
    return out


def bruteforce_dimension(ctx: LieContext, ell: int, max_basis: int = 200_000) -> int:
    """Independent oracle: rank-based dimension of the degree-ell part of
    the free Lie algebra on all generators modulo the Lie ideal generated
    by relations (a)-(c).

    Works in tensor coordinates over the full alphabet; the degree-ell
    ideal component is spanned by the relation instances (ell = 2) and
    their single brackets with generators (ell = 3).
    """
    if not ctx.group.is_finite:
        raise ValueError("brute force needs a finite group")
    if ell < 1:
        raise ValueError("bracket length must be >= 1")
    if ell > 3:
        raise ResourceLimitError("brute-force dimension is guarded to length <= 3")
    letters = [
        (i, j, el.uid)
        for i in range(2, ctx.n + 1)
        for j in range(1, i)
        for el in ctx.group.elements()
    ]
    letters.sort()
    if len(letters) ** ell > max_basis:
        raise ResourceLimitError(
            f"free algebra basis {len(letters)}^{ell} exceeds cap {max_basis}"
        )
    free_dim = lyndon.lyndon_count(len(letters), ell)
    if ell == 1:
        return free_dim

    def letter_of(triple) -> tuple:
        i, j, sigma = triple
        if i < j:
            i, j, sigma = j, i, ctx.group.invert(sigma)
        return (i, j, sigma.uid)

    relations = []
    for _, terms in pure_braid_relations(ctx.n, ctx.group.elements(), ctx.group):
        tensor: Dict[tuple, int] = {}
        for coef, ga, gb in terms:
            x, y = letter_of(ga), letter_of(gb)
            for word, sign in (((x, y), 1), ((y, x), -1)):
                nv = tensor.get(word, 0) + coef * sign
                if nv:
                    tensor[word] = nv
                else:
                    tensor.pop(word, None)
        if tensor:
            relations.append(tensor)
    if ell == 2:
        return free_dim - rank_of_rows(relations)
    rows = []
    for g in letters:
        for rel in relations:
            tensor = {}
            for word, c in rel.items():
                tensor[(g,) + word] = tensor.get((g,) + word, 0) + c
                tensor[word + (g,)] = tensor.get(word + (g,), 0) - c
            rows.append({w: c for w, c in tensor.items() if c})
    return free_dim - rank_of_rows(rows)
