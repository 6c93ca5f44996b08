"""The three rank oracles (Lie, chord, cohomology) and the enumerators
that share their alphabet: pinned values, pinned refusals, a pinned digest
of the rows that reach ``rank_of_rows``, and the independence of
``ocs.linalg`` from the rest of the package."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_nonabelian_oracles import s3_group

import ocs
from ocs import assoc, cohomology, lie, linalg
from ocs.errors import ResourceLimitError
from ocs.groups import cyclic_group, load_group

GROUPS = {
    "trivial": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "S3": s3_group,
}


def lie_oracle(group, n, deg, **kw):
    return lie.bruteforce_dimension(lie.LieContext(group, n), deg, **kw)


def chord_oracle(group, n, deg, **kw):
    return assoc.bruteforce_quotient_dimension(assoc.AssocContext(group, n), deg, **kw)


def cohom_oracle(group, n, deg, **kw):
    return cohomology.bruteforce_cohom_dimension(cohomology.CohomContext(group, n), deg, **kw)


ORACLES = {"lie": lie_oracle, "chord": chord_oracle, "cohom": cohom_oracle}

# (group, n, oracle, degree, dimension); each dimension is also the
# closed-form count (necklace, Hilbert or Poincare coefficient)
MATRIX = [
    (group, n, kind, deg, dim)
    for (group, n), dims in {
        ("trivial", 3): (1, 2, 7, 15, 2),
        ("trivial", 4): (4, 10, 25, 90, 11),
        ("C2", 3): (7, 22, 28, 120, 8),
        ("C3", 3): (18, 78, 63, 405, 18),
        ("C3", 4): (54, 318, 225, 2430, 99),
        ("S3", 3): (81, 642, 252, 3240, 72),
    }.items()
    for (kind, deg), dim in zip(
        [("lie", 2), ("lie", 3), ("chord", 2), ("chord", 3), ("cohom", 2)], dims
    )
]

# sha256 over every row handed to rank_of_rows across MATRIX, in call
# order; each row is written as its sorted (label, coefficient) pairs
ROWS_DIGEST = "5f57cbf0d9d93390553bec37fe6087e248977efaa3383dea415f914774052a75"
ROWS_TOTAL = 22_884


@pytest.mark.parametrize("group, n, kind, deg, dim", MATRIX)
def test_oracle_values(group, n, kind, deg, dim):
    assert ORACLES[kind](GROUPS[group](), n, deg) == dim


def test_rows_reaching_the_rank_are_pinned(monkeypatch):
    calls = []
    rank = linalg.rank_of_rows

    def spy(rows):
        rows = list(rows)
        calls.append(rows)
        return rank(rows)

    for module in (linalg, lie, assoc, cohomology):
        if hasattr(module, "rank_of_rows"):
            monkeypatch.setattr(module, "rank_of_rows", spy)
    digest = hashlib.sha256()
    for group, n, kind, deg, _ in MATRIX:
        before = len(calls)
        ORACLES[kind](GROUPS[group](), n, deg)
        assert len(calls) == before + 1
        for row in calls[-1]:
            digest.update(repr(sorted(row.items())).encode() + b"\n")
        digest.update(b"--\n")
    assert sum(map(len, calls)) == ROWS_TOTAL
    assert digest.hexdigest() == ROWS_DIGEST


ENUMERATORS = {
    "block_lyndon_basis": lambda g: lie.block_lyndon_basis(lie.LieContext(g, 3), 2),
    "enumerate_canonical_words": lambda g: list(
        assoc.enumerate_canonical_words(assoc.AssocContext(g, 3), 2)
    ),
    "enumerate_admissible": lambda g: list(
        cohomology.enumerate_admissible(cohomology.CohomContext(g, 3), 2)
    ),
}


@pytest.mark.parametrize("name", ["lattice", "surface:2"])
@pytest.mark.parametrize(
    "call",
    [lambda g, o=o: o(g, 3, 2) for o in ORACLES.values()] + list(ENUMERATORS.values()),
    ids=[*ORACLES, *ENUMERATORS],
)
def test_infinite_groups_are_refused(call, name):
    with pytest.raises(ValueError, match="finite"):
        call(load_group(name))


@pytest.mark.parametrize(
    "kind, deg, max_basis, message",
    [
        ("lie", 4, 200_000, r"^brute-force dimension is guarded to length <= 3$"),
        ("lie", 3, 10, r"^free algebra basis 6\^3 exceeds cap 10$"),
        ("chord", 4, 200_000, r"^brute-force quotient is guarded to degree <= 3$"),
        ("chord", 3, 5, r"^free algebra basis 6\^3 exceeds cap 5$"),
        ("cohom", 4, 200_000, r"^brute-force quotient is guarded to degree <= 3$"),
        ("cohom", 2, 10, r"^free algebra basis 6\^2 exceeds cap 10$"),
    ],
)
def test_guard_and_cap_refusals(kind, deg, max_basis, message):
    with pytest.raises(ResourceLimitError, match=message):
        ORACLES[kind](cyclic_group(2), 3, deg, max_basis=max_basis)


@pytest.mark.parametrize("kind", list(ORACLES))
def test_negative_degree_is_a_value_error(kind):
    with pytest.raises(ValueError):
        ORACLES[kind](cyclic_group(2), 3, -1)


@pytest.mark.parametrize("kind", list(ORACLES))
def test_degrees_zero_and_one(kind):
    assert [ORACLES[kind](cyclic_group(2), 3, deg) for deg in (0, 1)] == [1, 6]


def test_linalg_imports_no_other_ocs_module():
    env = dict(os.environ, PYTHONPATH=str(Path(ocs.__file__).resolve().parent.parent))
    code = "import json, sys, ocs.linalg; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = [m for m in json.loads(done.stdout) if m == "ocs" or m.startswith("ocs.")]
    assert loaded == ["ocs", "ocs.linalg"]
