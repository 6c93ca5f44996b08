"""The rank oracles over a nonabelian group (S3) and over C3 at n = 4,
each checked against its closed-form count."""

import itertools

import pytest

from ocs import assoc, cohomology, lie
from ocs.groups import FiniteGroup, GroupElement, cyclic_group


def s3_group():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    return FiniteGroup(["".join(map(str, p)) for p in perms], table)


@pytest.mark.parametrize(
    "group, n, dims",
    [(s3_group(), 3, [18, 81, 642]), (cyclic_group(3), 4, [18, 54, 318])],
    ids=["S3-n3", "C3-n4"],
)
def test_lie_bruteforce_matches_necklace_count(group, n, dims):
    ctx = lie.LieContext(group, n)
    brute = [lie.bruteforce_dimension(ctx, ell) for ell in (1, 2, 3)]
    assert brute == dims
    assert brute == [lie.graded_dimension(ctx, ell) for ell in (1, 2, 3)]


def test_lie_bruteforce_formats_no_relation_labels(monkeypatch):
    def refuse(self):
        raise AssertionError("a group element was formatted")

    ctx = lie.LieContext(s3_group(), 3)
    monkeypatch.setattr(GroupElement, "__str__", refuse)
    assert lie.bruteforce_dimension(ctx, 2) == 81


def test_assoc_bruteforce_over_s3_matches_hilbert():
    ctx = assoc.AssocContext(s3_group(), 3)
    coeffs = assoc.hilbert_coefficients(ctx, 3)
    assert assoc.bruteforce_quotient_dimension(ctx, 2) == coeffs[2] == 252
    assert assoc.bruteforce_quotient_dimension(ctx, 3) == coeffs[3] == 3240


def test_cohom_bruteforce_over_s3_matches_poincare():
    ctx = cohomology.CohomContext(s3_group(), 3)
    assert cohomology.bruteforce_cohom_dimension(ctx) == 72
    assert cohomology.poincare_polynomial(ctx)[2] == 72
