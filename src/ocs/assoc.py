"""The G-decorated chord-diagram algebra on n strands: the quotient of the
free associative algebra on generators X^gamma_{i,j} (i > j, gamma in G,
degree 1, with X^gamma_{j,i} denoting X^{gamma^-1}_{i,j}) by

    [X^gamma_{i,j}, X^delta_{s,t}] = 0            ({i,j,s,t} distinct),
    [X^gamma_{i,j}, X^delta_{j,s} + X^{gamma delta}_{i,s}] = 0
                                                  ({i,j,s} distinct).

It is the universal enveloping algebra of the Lie algebra in ``lie``, and
a Poincare-Birkhoff-Witt basis is given by canonical words: top indices
nondecreasing left to right, the letters within one block free.
``AssocContext`` is a ``sparse.StrandWordContext``, whose one product,
shared with the cohomology ring, straightens concatenations to this basis
with ``sparse.rewrite`` under the one-step rule ``AssocContext.rewrite_pair``,
which pushes larger top indices right; each swap across blocks adds the
commutator correction dictated by the derivation formulas of the Lie
module.

The group ring Z[G^n] acts by slot-wise conjugation (slot i twists the
decoration to mu*gamma, slot j to gamma*mu^-1), and the symmetric group
acts by relabeling strands; both are degree-preserving automorphisms and
letter maps.  A relabeling is applied by ``StrandWordContext.substitute``;
a conjugation keeps canonical words canonical and needs no rewrite.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import lyndon
from .groups import (
    GroupElement,
    check_int_strands,
    decoration_order,
    strand_letters,
    strand_pair,
    strand_permutation,
    strand_word_count,
)
from .lie import LieElement
from .linalg import commutators, quotient_dimension, rank_of_rows  # noqa: F401 (a perfbench probe)
from .sparse import Coef, Combination, Step, StrandWordContext, StrandWordElement, add_into, rewrite

Letter = Tuple[int, int, int]  # (top strand i, lower strand j, decoration uid)
Word = Tuple[Letter, ...]
Terms = Dict[Word, Coef]


class AssocElement(StrandWordElement):
    """Rational combination of canonical words, graded by word length."""

    __slots__ = ()
    ctx: "AssocContext"
    terms: Terms
    symbol = "X"

    def __mul__(self, other: "AssocElement") -> "AssocElement":
        return self.ctx.multiply(self, other)


class AssocContext(StrandWordContext):
    element = AssocElement
    mismatch = "assoc context mismatch"

    def letter(self, i: int, j: int, gamma: GroupElement) -> Letter:
        i, j, gamma = strand_pair(self.group, self.n, i, j, gamma)
        return (i, j, gamma.uid)

    def word(self, letters: Sequence[Letter]) -> AssocElement:
        """The product of normalized letters (i, j, uid), n >= i > j >= 1."""
        letters = tuple(letters)
        for letter in letters:
            if type(letter) is not tuple or len(letter) != 3 or {type(k) for k in letter} != {int}:
                raise ValueError(f"a letter is a tuple (i, j, uid) of ints, got {letter!r}")
            i, j, uid = letter
            if not (self.n >= i > j >= 1 and 0 <= uid < len(self.group._elements)):
                raise ValueError(f"letter {letter!r} needs {self.n} >= i > j >= 1 and a known uid")
        return AssocElement(self, rewrite({letters: 1}, self.rewrite_pair))

    def rewrite_pair(self, x: Letter, y: Letter) -> Optional[Step]:
        """One straightening step on the adjacent letters x y: None when
        x[0] <= y[0], else the swap y x plus, when the letters share a strand,
        the correction -[x, r] from the commutation relation.  It terminates:
        a swap keeps the multiset of top indices and drops the inversion
        count, while a correction replaces a lower top index by a higher one,
        which raises the multiset in dominance order, bounded at fixed length."""
        i, a, delta_uid = x
        s, b, gamma_uid = y
        if i <= s:
            return None
        if a != b and a != s:
            return (((y, x), 1),)
        group = self.group
        delta = group.element_by_uid(delta_uid)
        gamma = group.element_by_uid(gamma_uid)
        if a == b:
            r = (i, s, group.multiply(delta, group.invert(gamma)).uid)
        else:  # a == s
            r = (i, b, group.multiply(delta, gamma).uid)
        return (((y, x), 1), ((r, x), 1), ((x, r), -1))

    multiply = StrandWordContext._product  # bound here: the tracer looks in this class

    # -- group-ring and symmetric-group actions ---------------------------

    def conjugate(self, mu: GroupElement, slot: int, x: AssocElement) -> AssocElement:
        """Conjugation by mu inserted at the given strand slot (1..n).  It is a
        bijection on the letters of each strand pair and keeps every top index,
        so it maps distinct canonical words to distinct canonical words, with
        no rewrite."""
        group = self.group
        group._check(mu)
        check_int_strands(slot)
        if not 1 <= slot <= self.n:
            raise ValueError(f"slot {slot} out of range for n={self.n}")
        self._check(x)
        mu_inv = group.invert(mu)

        def map_letter(letter: Letter) -> Letter:
            i, j, uid = letter
            if slot == i:
                return (i, j, group.multiply(mu, group.element_by_uid(uid)).uid)
            if slot == j:
                return (i, j, group.multiply(group.element_by_uid(uid), mu_inv).uid)
            return letter

        return AssocElement._pruned(
            self, {tuple(map(map_letter, w)): c for w, c in x.terms.items()}
        )

    def conjugate_tuple(self, decorations: Sequence[GroupElement], x: AssocElement) -> AssocElement:
        if len(decorations) != self.n:
            raise ValueError(f"need an n-tuple of decorations, n={self.n}")
        for slot, mu in enumerate(decorations, start=1):
            x = self.conjugate(mu, slot, x)
        return x

    def act_permutation(self, perm: Sequence[int], x: AssocElement) -> AssocElement:
        """Strand relabeling gamma: X^g_{i,j} -> X^g_{gamma(i),gamma(j)},
        renormalized to top > lower and re-straightened."""
        perm = strand_permutation(perm, self.n)
        by_uid = self.group.element_by_uid
        return self.substitute(
            x, lambda l: self.letter(perm[l[0] - 1], perm[l[1] - 1], by_uid(l[2]))
        )

    def act_tilde(
        self,
        perm: Sequence[int],
        decorations: Sequence[GroupElement],
        x: AssocElement,
    ) -> AssocElement:
        """Decorated-permutation action: strand relabeling followed by
        slot-wise conjugation."""
        return self.conjugate_tuple(decorations, self.act_permutation(perm, x))

    # -- enveloping-algebra structure --------------------------------------

    def embed_lie(self, x: LieElement) -> AssocElement:
        """Each Lyndon bracket's tensor expansion, lifted into its block.
        The letters of one block share their top index, so the expansion is
        already canonical and needs no straightening."""
        if not isinstance(x, LieElement):
            raise ValueError(self.mismatch)
        lctx = x.ctx
        if lctx.group is not self.group or lctx.n != self.n:
            raise ValueError(self.mismatch)
        out: Terms = {}
        for (i, w), c in x.sorted_terms():
            expansion = lyndon.bracket_tensor(w)
            add_into(out, {tuple((i, j, uid) for j, uid in t): k for t, k in expansion.items()}, c)
        return AssocElement(self, out)


# ---------------------------------------------------------------------------
# group-ring elements


class LambdaElement(Combination):
    """Integer combination of decoration n-tuples (the group ring Z[G^n]),
    acting on the algebra by slot-wise conjugation."""

    __slots__ = ()
    ctx: AssocContext
    terms: Dict[Tuple[GroupElement, ...], int]

    def __init__(self, ctx: AssocContext, terms: Dict[Tuple[GroupElement, ...], int]):
        for tup in terms:
            if len(tup) != ctx.n:
                raise ValueError("tuple length must equal the strand count")
            for mu in tup:
                ctx.group._check(mu)
        super().__init__(ctx, terms)

    def __mul__(self, other: "LambdaElement") -> "LambdaElement":
        other = self._operand(other)
        out: Dict[Tuple[GroupElement, ...], int] = {}
        g = self.ctx.group
        for ta, ca in self.terms.items():
            for tb, cb in other.terms.items():
                key = tuple(g.multiply(a, b) for a, b in zip(ta, tb))
                out[key] = out.get(key, 0) + ca * cb
        return LambdaElement(self.ctx, out)

    def act(self, x: AssocElement) -> AssocElement:
        out = self.ctx.zero()
        for tup, c in self.terms.items():
            out = out + self.ctx.conjugate_tuple(tup, x).scale(c)
        return out

    def sorted_terms(self) -> List[Tuple[Tuple[GroupElement, ...], int]]:
        return sorted(self.terms.items(), key=lambda item: [mu.uid for mu in item[0]])

    def _label_repr(self, tup: Tuple[GroupElement, ...]) -> str:
        return "(" + ",".join(self.ctx.group.format_element(mu) for mu in tup) + ")"


# ---------------------------------------------------------------------------
# Hilbert series and brute-force oracle


def hilbert_coefficients(
    ctx: AssocContext, max_deg: int, group_order: Optional[int] = None
) -> List[int]:
    """Coefficients 0..max_deg of prod_{i=2..n} 1/(1 - (i-1)|G| t), which
    count canonical words by length."""
    if max_deg < 0:
        raise ValueError("degree must be >= 0")
    group_order = decoration_order(ctx.group, group_order, "Hilbert series")
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
    alphabet = strand_letters(ctx.group, ctx.n)

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
    decorations = list(itertools.product(ctx.group.elements(), repeat=2))
    rows: List[Dict[Word, int]] = []
    for i, j, s in itertools.permutations(range(1, ctx.n + 1), 3):
        for gamma, delta in decorations:
            x = ctx.letter(i, j, gamma)
            y = ctx.letter(j, s, delta)
            z = ctx.letter(i, s, ctx.group.multiply(gamma, delta))
            rows.append(commutators([(1, x, y), (1, x, z)]))
    pairs = [(i, j) for i in range(2, ctx.n + 1) for j in range(1, i)]
    for (i, j), (s, t) in itertools.combinations(pairs, 2):
        if not {i, j} & {s, t}:
            for gamma, delta in decorations:
                x, y = ctx.letter(i, j, gamma), ctx.letter(s, t, delta)
                rows.append(commutators([(1, x, y)]))
    return rows


def bruteforce_quotient_dimension(
    ctx: AssocContext, deg: int, max_basis: int = 200_000
) -> int:
    """Independent oracle: dimension of the degree-deg part of the free
    associative algebra on all generators modulo the two-sided ideal
    generated by the quadratic relations."""
    words = strand_word_count(ctx.group, ctx.n, deg, max_basis)
    if deg < 2:
        return words
    letters = strand_letters(ctx.group, ctx.n)
    return quotient_dimension(words, relation_tensors(ctx), letters, deg)
