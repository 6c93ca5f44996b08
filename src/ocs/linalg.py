"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping a comparable basis label to an int or a Fraction.
Ranks are computed by fraction-free elimination over the integers: each
row's denominators are cleared first, every stored or reduced row is kept
primitive (divided by the gcd of its entries), and elimination pivots on
the least label, so ranks are reproducible run to run.  Scaling a row by a
nonzero rational does not change the span, so the rank is the rank over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Union

Row = Dict[Hashable, Union[int, Fraction]]


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
