"""Negative ``--max-len``/``--max-deg``/``--max-basis``/``--samples`` are usage
errors; 0 stays valid."""

import json

import pytest

from ocs import assoc, cli
from ocs.groups import cyclic_group

NEGATIVE = {
    "lie-dims": ["lie", "dims", "--n", "3", "--max-len", "-2"],
    "lie-bruteforce": ["lie", "bruteforce", "--n", "3", "--max-len", "-2"],
    "poisson-dims": ["poisson", "dims", "--n", "3", "--k", "2", "--q", "1", "--max-deg", "-2"],
    "assoc-hilbert": ["assoc", "hilbert", "--n", "3", "--max-deg", "-1"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE))
def test_cli_refuses_negative_size(case, capsys):
    code = cli.main(NEGATIVE[case] + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be >= 0, got -" in captured.err


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["lie", "dims", "--n", "3", "--max-len", "0"], {"dims": [], "lengths": []}),
        (
            ["lie", "bruteforce", "--n", "3", "--max-len", "0"],
            {"agree": True, "bruteforce": [], "necklace": []},
        ),
        (
            ["poisson", "dims", "--n", "3", "--k", "2", "--q", "1", "--max-deg", "0"],
            {"degrees": [0], "dims": [1]},
        ),
        (["assoc", "hilbert", "--n", "3", "--max-deg", "0"], {"coefficients": [1]}),
    ],
    ids=["lie-dims", "lie-bruteforce", "poisson-dims", "assoc-hilbert"],
)
def test_cli_accepts_zero_size(argv, payload, capsys):
    code = cli.main(argv + ["--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_hilbert_coefficients_refuses_negative_degree():
    ctx = assoc.AssocContext(cyclic_group(2), 3)
    with pytest.raises(ValueError):
        assoc.hilbert_coefficients(ctx, -1)
    with pytest.raises(ValueError):
        assoc.hilbert_coefficients(ctx, -1, group_order=4)
    assert assoc.hilbert_coefficients(ctx, 0) == [1]


def test_cli_refuses_negative_samples(capsys):
    code = cli.main(["verify", "cohom", "--n", "2", "--samples", "-4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--samples: must be >= 0, got -4" in captured.err


def test_cli_accepts_zero_samples(capsys):
    code = cli.main(["verify", "cohom", "--n", "2", "--samples", "0", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "cohom" and report["failures"] == []


NEGATIVE_MAX_BASIS = {
    "group-ball": ["group", "ball", "--group", "lattice", "--radius", "1"],
    "lie-bruteforce": ["lie", "bruteforce", "--n", "3", "--max-len", "2"],
    "assoc-hilbert": ["assoc", "hilbert", "--n", "3", "--max-deg", "1"],
    "verify": ["verify", "cohom", "--n", "2"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_MAX_BASIS))
def test_cli_refuses_negative_max_basis(case, capsys):
    code = cli.main(NEGATIVE_MAX_BASIS[case] + ["--max-basis", "-5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-basis: must be >= 0, got -5" in captured.err


def test_cli_zero_max_basis_is_a_resource_refusal(capsys):
    argv = ["lie", "bruteforce", "--n", "3", "--max-len", "2", "--max-basis", "0"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "exceeds cap 0" in captured.err
