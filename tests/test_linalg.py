"""The fraction-free integer eliminator against exact rational elimination.

``fraction_rank_of_rows`` is the Gaussian elimination over ``Fraction`` that
``ocs.linalg.rank_of_rows`` used before it became fraction-free; it is kept
here as the reference.  Every matrix is drawn from a seeded generator, so a
failure reproduces.
"""

import random
from fractions import Fraction
from typing import Dict, Hashable, Iterable

import pytest

from ocs.linalg import rank_of_rows


def fraction_rank_of_rows(rows: Iterable[Dict[Hashable, Fraction]]) -> int:
    """Rank over Q of the span of ``rows``.  Exact Gaussian elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        work = {k: Fraction(v) for k, v in row.items() if v}
        while work:
            key = min(work)
            piv = pivots.get(key)
            if piv is None:
                lead = work[key]
                pivots[key] = {k: v / lead for k, v in work.items()}
                rank += 1
                break
            factor = work[key]
            for k, v in piv.items():
                nv = work.get(k, Fraction(0)) - factor * v
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
    return rank


def random_rows(rng, n_rows, n_cols, density, bound):
    """Integer rows over tuple labels; an entry is nonzero with probability
    ``density`` and drawn from [-bound, bound]."""
    rows = []
    for _ in range(n_rows):
        row = {}
        for col in range(n_cols):
            if rng.random() < density:
                row[(col % 3, col)] = rng.randint(-bound, bound)
        rows.append(row)
    return rows


def combine(rng, base, n_rows, bound):
    """``n_rows`` integer combinations of the rows in ``base``."""
    rows = []
    for _ in range(n_rows):
        row = {}
        for b in base:
            c = rng.randint(-bound, bound)
            for k, v in b.items():
                row[k] = row.get(k, 0) + c * v
        rows.append(row)
    return rows


def assert_same_rank(rows):
    snapshot = [dict(r) for r in rows]
    rank = rank_of_rows(rows)
    assert rank == fraction_rank_of_rows(rows)
    assert rows == snapshot  # the input rows are not modified
    return rank


@pytest.mark.parametrize("seed", range(40))
def test_sparse(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
    assert_same_rank(random_rows(rng, n_rows, n_cols, rng.uniform(0.05, 0.3), 3))


@pytest.mark.parametrize("seed", range(30))
def test_dense(seed):
    rng = random.Random(1000 + seed)
    n_rows, n_cols = rng.randint(1, 18), rng.randint(1, 18)
    rank = assert_same_rank(random_rows(rng, n_rows, n_cols, 0.95, 9))
    assert rank <= min(n_rows, n_cols)


@pytest.mark.parametrize("seed", range(30))
def test_rank_deficient(seed):
    rng = random.Random(2000 + seed)
    n_cols = rng.randint(4, 25)
    base = random_rows(rng, rng.randint(1, n_cols - 1), n_cols, 0.6, 4)
    rows = combine(rng, base, rng.randint(n_cols, 2 * n_cols), 3)
    rng.shuffle(rows)
    assert assert_same_rank(rows) <= len(base)
    assert rank_of_rows(base + rows) == fraction_rank_of_rows(base)


@pytest.mark.parametrize("seed", range(20))
def test_negative_leads_large_entries_zero_and_duplicate_rows(seed):
    rng = random.Random(3000 + seed)
    n_cols = rng.randint(2, 15)
    rows = random_rows(rng, rng.randint(2, 15), n_cols, 0.5, 10**6)
    for row in rows:
        if row:
            lead = min(row)
            row[lead] = -abs(row[lead]) or -1
    rows += [{}, {(0, 0): 0, (1, 1): 0}]
    rows += [dict(r) for r in rng.sample(rows, len(rows) // 2)]
    rows += [{k: -3 * v for k, v in r.items()} for r in rows[:3]]
    rng.shuffle(rows)
    assert_same_rank(rows)


@pytest.mark.parametrize("seed", range(20))
def test_fraction_entries(seed):
    rng = random.Random(4000 + seed)
    n_cols = rng.randint(2, 15)
    rows = [
        {k: Fraction(v, rng.randint(1, 12)) for k, v in row.items()}
        for row in random_rows(rng, rng.randint(1, 20), n_cols, 0.4, 7)
    ]
    base = rows[: max(1, len(rows) // 3)]
    rows += [{k: Fraction(v) for k, v in r.items()} for r in combine(rng, base, 4, 3)]
    rows += [{k: Fraction(v.numerator) for k, v in r.items()} for r in rows[:2]]
    rng.shuffle(rows)
    assert_same_rank(rows)


def test_denominators_are_cleared_exactly():
    half = {"a": Fraction(1, 2), "b": Fraction(1, 3)}
    assert rank_of_rows([half, {"a": 3, "b": 2}]) == 1
    assert rank_of_rows([half, {"a": 3, "b": 2, "c": Fraction(1, 10**9)}]) == 2
    assert rank_of_rows([{"a": Fraction(4, 1)}, {"a": 1}]) == 1


def test_one_shot_generator():
    rng = random.Random(5000)
    rows = random_rows(rng, 30, 20, 0.3, 5)
    consumed = []

    def once():
        for row in rows:
            consumed.append(row)
            yield row

    assert rank_of_rows(once()) == fraction_rank_of_rows(rows)
    assert consumed == rows


def test_small_cases():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{}, {"x": 0}]) == 0
    identity = [{i: 1} for i in range(7)]
    assert rank_of_rows(identity) == 7
    assert rank_of_rows([{0: 2, 1: 4}, {0: -3, 1: -6}, {1: 5}]) == 2
