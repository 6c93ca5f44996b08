"""Pinned digests of ``verify all`` reports, so that a change to how the
suites count cases or label failures cannot pass unnoticed.

The passing reports pin every suite's case count.  The forced-failure
reports make every check that goes through ``is_zero`` or
``GroupContext.equals`` fail, which pins every instance label and every
``expected``/``got`` string those checks print.
"""

import hashlib
import itertools
import json

import pytest

from ocs.groups import GroupContext
from ocs.lie import LieElement
from ocs.sparse import Combination
from ocs.verify import VerifyConfig, run_suite


@pytest.fixture
def s3_spec(tmp_path):
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps(
            {"kind": "finite", "elements": ["".join(map(str, p)) for p in perms], "table": table}
        )
    )
    return str(path)


def report_digest(group: str, n: int, samples: int) -> str:
    report = run_suite("all", VerifyConfig(group=group, n=n, samples=samples))
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


PASSING = [
    ("trivial", 2, 2, "815e6cdcd2aefa0d6f080d2b95c9f5bb8157d88c4a78f1713084669adbe72727"),
    ("C2", 3, 2, "be62ad45d5654bc6be0cde9db2556942d6765524b131588c36d2c56ff0086513"),
    ("C3", 3, 2, "675312db543aeee0bcead6b40dba275047b3bdd2f5d8a69376cb3e89796ed55b"),
    ("S3", 3, 2, "b20afa33e8c86c6e2a864a885a69ef92bec89b8a9fdc9b96aefbf795c110d884"),
    ("lattice", 3, 0, "03ca02cc3c1c75657d841595beb93b9bb2d62d70c85d15d0515bfe00900b71d5"),
    ("surface:2", 3, 0, "796232d0302afc63a7f1c94a01417f76053755b41f57d570a2bd2c0aca41f1b9"),
    ("C2", 4, 0, "d893a9fcd7042577e56edf4388cb33b4af3ea8cb8f683fc5abf7cd673144123e"),
]


@pytest.mark.parametrize("group, n, samples, digest", PASSING)
def test_passing_report_digest(group, n, samples, digest, s3_spec):
    if group == "S3":
        group = s3_spec
    assert report_digest(group, n, samples) == digest


FORCED = [
    ("C2", 3, 2, "0fead5a8cd6548b9fa0208d9f681488e32a2b15969ae4ef11c4db7d1c59143e5"),
    ("S3", 3, 2, "f014e96dde1d8eb58f692aefdf78168917ed791bc70172c3ce96749d67aaaf8e"),
    ("surface:2", 3, 2, "734e7c20836d40ab87ffffc27f1e8a568a75a442a699ab7c2bb7e301d449404f"),
]


@pytest.mark.parametrize("group, n, samples, digest", FORCED)
def test_forced_failure_report_digest(group, n, samples, digest, s3_spec, monkeypatch):
    def fails(*args):
        return False

    monkeypatch.setattr(Combination, "is_zero", fails)
    monkeypatch.setattr(LieElement, "is_zero", fails)
    monkeypatch.setattr(GroupContext, "equals", fails)
    if group == "S3":
        group = s3_spec
    assert report_digest(group, n, samples) == digest


# S3 at n = 4 is the first nonabelian case with relations of type (a)
# (disjoint strand pairs); at n = 3 there are none.
S3_N4 = [
    ("symmetric-action", 40, "472c0ac86b670bdfc199acebce79e0e7aeb8e5e8e046584c9e48785ada409649"),
    ("lie-relations", 40, "52afaf41884c90c0aa52a5a207718688f5dcd9e3010b06a69634fad43677473b"),
    ("poisson-axioms", 2, "2733cf2b719ec0a23c362c3d4d42897f099891a3339d26806cf9cb0c10167608"),
]


def suite_digest(suite: str, group: str, n: int, samples: int) -> str:
    report = run_suite(suite, VerifyConfig(group=group, n=n, seed=42, samples=samples))
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("suite, samples, digest", S3_N4, ids=[s for s, _, _ in S3_N4])
def test_s3_n4_suite_digest(suite, samples, digest, s3_spec):
    assert suite_digest(suite, s3_spec, 4, samples) == digest


def test_s3_n4_forced_failure_lie_relations_digest(s3_spec, monkeypatch):
    monkeypatch.setattr(LieElement, "is_zero", lambda self: False)
    digest = "12ebda503288f887e4fd2a1c3a6f94a2b0bada7170a62f18cb7f87feb16e446f"
    assert suite_digest("lie-relations", s3_spec, 4, 40) == digest


# Genus 3: the 12-letter relator.  The forced-failure report prints group
# elements and uid-ordered terms, so it pins the words and the uid order that
# the Dehn reduction produces.
def test_genus3_passing_report_digest():
    digest = "b58503c95058258184d0a6304ef865cf006d819f87d6a366d82fa9cd4142af82"
    assert report_digest("surface:3", 3, 0) == digest


def test_genus3_forced_failure_report_digest(monkeypatch):
    def fails(*args):
        return False

    monkeypatch.setattr(Combination, "is_zero", fails)
    monkeypatch.setattr(LieElement, "is_zero", fails)
    monkeypatch.setattr(GroupContext, "equals", fails)
    digest = "6451c31eb52af2ce4e0fec6ce8272eb921856b9b739dee7cd5ce2b5c739510a9"
    assert report_digest("surface:3", 3, 2) == digest


# ``symmetric-action`` alone at n = 3: the relation images, homomorphism,
# composition and intertwining checks.  The passing reports pin the case
# counts at every seed; the forced-failure reports pin every instance label
# in the order the checks run.
def symmetric_action_report(group: str, seed: int, samples: int) -> dict:
    return run_suite("symmetric-action", VerifyConfig(group=group, n=3, seed=seed, samples=samples))


def sha256_of(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_symmetric_action_digests_at_seeds_0_to_5(s3_spec):
    c2 = "e7b112c2745bf1a98be89a111519533dc2083551f95bc7d30d38488b2c12de26"
    s3 = "b2dc9950cc3b3c654e147dfba5edad18d6b09a01bdda0c3b564f56e759d97728"
    for seed in range(6):
        reports = [symmetric_action_report("C2", seed, 4), symmetric_action_report(s3_spec, seed, 0)]
        assert [r["cases"] for r in reports] == [60, 432]
        assert [sha256_of(r) for r in reports] == [c2, s3]


@pytest.mark.parametrize(
    "group, seed, samples, failures, want",
    [
        ("S3", 42, 0, 432, "35f42b1387b541c1087212169d395e2d5b9772b09a900698ee8a8ffbba01643e"),
        ("C2", 3, 4, 56, "5113f83145f30954b8a15b52727648a83afa1756c88e95d276cba17e5bed5e86"),
    ],
    ids=["S3-samples0", "C2-samples4"],
)
def test_symmetric_action_forced_failure_digests(
    group, seed, samples, failures, want, s3_spec, monkeypatch
):
    monkeypatch.setattr(LieElement, "is_zero", lambda self: False)
    if group == "S3":
        group = s3_spec
    report = symmetric_action_report(group, seed, samples)
    assert len(report["failures"]) == failures
    assert sha256_of(report) == want
