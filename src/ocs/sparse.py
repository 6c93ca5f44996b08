"""Sparse linear combinations: dicts from basis labels to nonzero exact
coefficients (ints, or Fractions once a rational scalar comes in).

``add_into`` is the one in-place accumulation step of the algebra modules.
``Combination`` is the frozen (ctx, terms) value type of the enveloping,
cohomology, Poisson and group-ring elements, with their shared linear
structure and repr; a subclass adds its product, its canonical term order
and how one label prints.  ``StrandWordElement`` is the subclass whose
labels are words of strand letters (i, j, uid), shared by the chord and
cohomology algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Hashable, List, Tuple, Union

Coef = Union[int, Fraction]  # an int unless a rational scalar came in
Terms = Dict[Hashable, Coef]


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


@dataclass(frozen=True, eq=False)
class Combination:
    """Exact combination of basis labels over a context.  Zero coefficients
    are pruned on construction; contexts check operands through
    ``ctx._check``.  A subclass supplies ``sorted_terms()`` (canonical
    order) and ``_label_repr(label)`` for the repr."""

    ctx: Any
    terms: Terms

    def __post_init__(self):
        object.__setattr__(self, "terms", {k: c for k, c in self.terms.items() if c})

    def _same_ctx(self, ctx) -> bool:
        return self.ctx is ctx

    def __add__(self, other):
        self.ctx._check(other)
        return type(self)(self.ctx, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        self.ctx._check(other)
        return type(self)(self.ctx, add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        if not isinstance(c, int):
            c = Fraction(c)
        return type(self)(self.ctx, {k: c * v for k, v in self.terms.items()})

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
