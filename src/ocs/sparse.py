"""Sparse linear combinations: dicts from basis labels to nonzero exact
coefficients (ints, or Fractions once a rational scalar comes in).

``add_into`` is the one in-place accumulation step of the algebra modules,
``rewrite`` the one loop that rewrites words under an algebra's ``rewrite_pair``.
``Combination`` is the frozen (ctx, terms) value type of the Lie,
enveloping, cohomology, Poisson and group-ring elements, with their shared
linear structure and repr; its sums and multiples wrap the dicts they
build, which hold no zero coefficient, without a re-pruning copy
(``_pruned``).  A subclass adds its product, its canonical term order
and how one label prints.  ``StrandWordElement`` is the subclass whose
labels are words of strand letters (i, j, uid), shared by the chord and
cohomology algebras; ``StrandWordContext`` is their shared (group, n)
context, with the one product loop ``product_sum`` (concatenate every
pair, then rewrite once) and the one letter-substitution action
``substitute``, through which the chord algebra's actions are defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

Coef = Union[int, Fraction]  # an int unless a rational scalar came in
Terms = Dict[Hashable, Coef]
Step = Tuple[Tuple[tuple, int], ...]  # (pair of letters, factor) replacements


def add_into(dst: Terms, src: Terms, coef=1) -> Terms:
    """dst += coef * src in place, dropping labels that cancel to zero.
    Returns dst."""
    items = src.items()
    if coef != 1:
        items = ((label, c * coef) for label, c in items)
    for label, c in items:
        nv = dst.get(label, 0) + c
        if nv:
            dst[label] = nv
        else:
            dst.pop(label, None)
    return dst


def rewrite(terms: Terms, rule: Callable[[Any, Any], Optional[Step]]) -> Terms:
    """Words (tuples of letters) rewritten to irreducible form: a word popped
    from a stack has its leftmost adjacent pair (x, y) with ``rule(x, y)`` not
    None replaced by each returned ``(pair, factor)``, pushed in that order;
    a word with no such pair is accumulated.  The rule must terminate.
    Words that cancel may remain with coefficient zero."""
    out: Terms = {}
    stack = list(terms.items())
    while stack:
        word, coef = stack.pop()
        if not coef:
            continue
        for pos in range(len(word) - 1):
            step = rule(word[pos], word[pos + 1])
            if step is not None:
                break
        else:
            out[word] = out.get(word, 0) + coef
            continue
        head, tail = word[:pos], word[pos + 2 :]
        for pair, factor in step:
            stack.append((head + pair + tail, coef * factor))
    return out


class Combination:
    """Exact combination of basis labels over a context.  Zero coefficients
    are pruned on construction; ``+`` and ``-`` accept only operands that
    ``_operand`` accepts.  A subclass supplies ``sorted_terms()`` (canonical
    order) and ``_label_repr(label)`` for the repr, and declares empty
    ``__slots__`` so that its instances carry no ``__dict__``.  Frozen: the
    fields are set once, through ``object.__setattr__``."""

    __slots__ = ("ctx", "terms")
    ctx: Any
    terms: Terms

    def __init__(self, ctx, terms: Terms):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if c})

    @classmethod
    def _pruned(cls, ctx, terms: Terms):
        """Wrap, without copying, a fresh terms dict that has no zero
        coefficient; the public constructor prunes."""
        x = object.__new__(cls)
        object.__setattr__(x, "ctx", ctx)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def _same_ctx(self, ctx) -> bool:
        return self.ctx is ctx

    def _operand(self, other):
        """``other`` if it combines with self: of this class, over the same
        context (``_same_ctx``); a ValueError otherwise."""
        if isinstance(other, type(self)) and self._same_ctx(other.ctx):
            return other
        raise ValueError(f"{type(self).__name__} context mismatch")

    def __add__(self, other):
        return self._pruned(self.ctx, add_into(dict(self.terms), self._operand(other).terms))

    def __sub__(self, other):
        return self._pruned(self.ctx, add_into(dict(self.terms), self._operand(other).terms, -1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        if not isinstance(c, int):
            c = Fraction(c)
        return self._pruned(self.ctx, {k: c * v for k, v in self.terms.items()} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self._same_ctx(other.ctx)
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self):
        bits = [f"{c}*{self._label_repr(label)}" for label, c in self.sorted_terms()]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class StrandWordElement(Combination):
    """Combination of words of strand letters (i, j, uid), graded by word
    length; a subclass adds its product and the ``symbol`` that prints
    each letter."""

    __slots__ = ()

    def sorted_terms(self) -> List[Tuple[Tuple, Coef]]:
        """Sorted by (length, top-index sequence, letters)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (len(item[0]), tuple(l[0] for l in item[0]), item[0]),
        )

    def degrees(self) -> List[int]:
        return sorted({len(w) for w in self.terms})

    def _label_repr(self, w: Tuple) -> str:
        g = self.ctx.group
        letters = (
            f"{self.symbol}({i},{j}|{g.format_element(g.element_by_uid(uid))})" for i, j, uid in w
        )
        return " ".join(letters) or "1"


class StrandWordContext:
    """The (group, n) context of a quadratic algebra on strand letters
    (i, j, uid).  A subclass names its ``element`` class and ``mismatch``
    message, and supplies ``letter(i, j, g)`` and the one-step
    ``rewrite_pair``.  It binds its public product name to ``_product`` in
    its own class body, so that the name is in that class's ``__dict__``."""

    element: type
    mismatch: str

    def __init__(self, group, n: int):
        if n < 2:
            raise ValueError("need at least n = 2 strands")
        self.group = group
        self.n = n

    def one(self):
        return self.element(self, {(): 1})

    def zero(self):
        return self.element(self, {})

    def generator(self, i: int, j: int, g):
        return self.element(self, {(self.letter(i, j, g),): 1})

    def _check(self, x) -> None:
        if not isinstance(x, self.element) or x.ctx is not self:
            raise ValueError(self.mismatch)

    def _product(self, x, y):
        return self.product_sum(((1, x, y),))

    def product_sum(self, pairs):
        """Sum of coef * x * y over (coef, x, y) triples: one ``rewrite``."""
        raw: Terms = {}
        for coef, x, y in pairs:
            self._check(x)
            self._check(y)
            for wu, cu in x.terms.items():
                scale = coef * cu
                for wv, cv in y.terms.items():
                    key = wu + wv
                    raw[key] = raw.get(key, 0) + scale * cv
        return self.element(self, rewrite(raw, self.rewrite_pair))

    def substitute(self, x, letter_map: Callable[[tuple], tuple]):
        """Every letter of x replaced by ``letter_map(letter)``, then one
        ``rewrite``."""
        self._check(x)
        raw: Terms = {}
        for w, c in x.terms.items():
            key = tuple(map(letter_map, w))
            raw[key] = raw.get(key, 0) + c
        return self.element(self, rewrite(raw, self.rewrite_pair))
