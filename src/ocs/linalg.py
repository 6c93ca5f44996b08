"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping a comparable basis label to an int or a Fraction.
Ranks are computed by fraction-free elimination over the integers: each
row's denominators are cleared first, every stored or reduced row is kept
primitive (divided by the gcd of its entries), and elimination pivots on
the least label, so ranks are reproducible run to run.  Scaling a row by a
nonzero rational does not change the span, so the rank is the rank over Q.

``quotient_dimension`` is the core of the brute-force rank oracles: the
dimension of a graded piece of a free algebra modulo the ideal generated by
quadratic relations, in word (tensor) coordinates.  It knows nothing of the
algebras whose normal forms the oracles check.  The Lie oracle uses its Lie
mode, the chord and cohomology oracles its two-sided mode: over Q the
exterior algebra is the tensor algebra modulo the symmetric tensors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Sequence, Tuple, Union

Row = Dict[Hashable, Union[int, Fraction]]
WordRow = Dict[tuple, int]


def _primitive(row: Dict[Hashable, int]) -> Dict[Hashable, int]:
    """``row`` divided by its content, the gcd of its (nonzero) entries."""
    g = gcd(*row.values())
    if g <= 1:  # 0 only for the empty row
        return row
    return {k: v // g for k, v in row.items()}


def _integral(row: Row) -> Dict[Hashable, int]:
    """The nonzero entries of ``row`` times the lcm of their denominators,
    as ints."""
    work = {k: v for k, v in row.items() if v}
    if all(type(v) is int for v in work.values()):
        return work
    den = lcm(*(v.denominator for v in work.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in work.items()}


def rank_of_rows(rows: Iterable[Row]) -> int:
    """Rank over Q of the span of ``rows``, consumed once.

    Fraction-free elimination: a row whose least label already has a
    pivot is replaced by ``a*row - b*pivot`` (``a``, ``b`` the two leading
    entries over their gcd), which cancels that label, until it vanishes
    or its least label is new and it becomes that label's pivot.
    """
    pivots: Dict[Hashable, Dict[Hashable, int]] = {}
    for row in rows:
        work = _primitive(_integral(row))
        while work:
            key = min(work)
            piv = pivots.get(key)
            if piv is None:
                pivots[key] = work
                break
            a, b = piv[key], work[key]
            # a > 0 after the division, so a pivot led by +-1 needs no rescaling
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                work = {k: a * v for k, v in work.items()}
            for k, v in piv.items():
                nv = work.get(k, 0) - b * v
                if nv:
                    work[k] = nv
                else:
                    del work[k]
            work = _primitive(work)
    return len(pivots)


def commutators(pairs: Iterable[Tuple[int, Hashable, Hashable]]) -> WordRow:
    """The row sum of c*(uv - vu) over ``pairs`` of (c, u, v), on the
    two-letter words (u, v) and (v, u); cancelled words are dropped."""
    row: WordRow = {}
    for c, u, v in pairs:
        for word, d in (((u, v), c), ((v, u), -c)):
            nv = row.get(word, 0) + d
            if nv:
                row[word] = nv
            else:
                row.pop(word, None)
    return row


def quotient_dimension(
    basis_size: int,
    relations: Sequence[WordRow],
    letters: Sequence[Hashable],
    deg: int,
    lie: bool = False,
) -> int:
    """``basis_size`` minus the rank of the degree-``deg`` part (deg >= 2)
    of the ideal generated by the quadratic ``relations``, rows being dicts
    over words (tuples of ``letters``).

    Each degree above 2 spreads the previous rows one letter g at a time,
    g outermost: to [g, r] for a Lie ideal (``lie``), else to g.r and then
    r.g for a two-sided ideal.
    """
    rows = relations
    for _ in range(deg - 2):
        rows, prev = [], rows
        for g in letters:
            head = (g,)
            for row in prev:
                if lie:
                    tensor: WordRow = {}
                    for word, c in row.items():
                        tensor[head + word] = tensor.get(head + word, 0) + c
                        tensor[word + head] = tensor.get(word + head, 0) - c
                    rows.append({w: c for w, c in tensor.items() if c})
                else:
                    rows.append({head + w: c for w, c in row.items()})
                    rows.append({w + head: c for w, c in row.items()})
    return basis_size - rank_of_rows(rows)
