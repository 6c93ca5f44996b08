"""Refusals: finite tables that are not groups or are too large, series
tables whose entries Python cannot print, and a Poisson grading header
that disagrees with explicit flags."""

import json
import random
import sys
import time

import pytest

from ocs import assoc as assoc_mod
from ocs import cli
from ocs import cohomology as cohom_mod
from ocs import lie as lie_mod
from ocs import poisson as poisson_mod
from ocs.assoc import AssocContext, bruteforce_quotient_dimension, hilbert_coefficients
from ocs.cohomology import CohomContext, bruteforce_cohom_dimension, poincare_polynomial
from ocs.errors import ResourceLimitError
from ocs.groups import MAX_FINITE_ORDER, FiniteGroup, GroupContext, _is_associative, cyclic_group
from ocs.lie import LieContext, bruteforce_dimension, graded_dimension

GEN = {"gen": {"i": 2, "j": 1, "sigma": "e"}}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _brute_associative(tbl):
    n = len(tbl)
    return all(
        tbl[tbl[a][b]][c] == tbl[a][tbl[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


class TestFiniteTables:
    def test_non_associative_loop_refused(self):
        # Z2^3 with two entries swapped in rows 3 and 4: still a table with a
        # two-sided identity and inverses, but no longer associative
        table = [[i ^ j for j in range(8)] for i in range(8)]
        for row in (3, 4):
            table[row][5], table[row][6] = table[row][6], table[row][5]
        with pytest.raises(ValueError, match="^table is not associative$"):
            FiniteGroup([f"x{i}" for i in range(8)], table)

    def test_failure_only_at_the_second_generator_refused(self):
        # (xy)g = x(yg) holds for g = 1 but not for g = 2; both are needed to
        # reach every element
        table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]]
        with pytest.raises(ValueError, match="^table is not associative$"):
            FiniteGroup(["e", "a", "b", "c"], table)

    def test_light_test_agrees_with_all_triples(self):
        # relabeled cyclic and Klein tables, half of them with one entry off
        # the identity row and column changed
        rng = random.Random(1)
        verdicts = set()
        for _ in range(2000):
            n = rng.randint(1, 6)
            klein = n == 4 and rng.random() < 0.5
            base = [[(i ^ j) if klein else (i + j) % n for j in range(n)] for i in range(n)]
            label = list(range(n))
            rng.shuffle(label)
            tbl = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    tbl[label[i]][label[j]] = label[base[i][j]]
            ident = label[0]
            if n > 1 and rng.random() < 0.5:
                i, j = (rng.choice([x for x in range(n) if x != ident]) for _ in range(2))
                tbl[i][j] = rng.randrange(n)
            tbl = tuple(tuple(row) for row in tbl)
            verdict = _brute_associative(tbl)
            assert _is_associative(tbl, ident) == verdict, tbl
            verdicts.add((n, verdict))
        assert {(n, v) for n in range(3, 7) for v in (True, False)} <= verdicts

    def test_slowly_growing_generating_set_refused_early(self):
        # x.x = e and x.y = x otherwise: identity and inverses, not associative,
        # and each greedy generator reaches one new element, so an unbounded
        # greedy set would cost about n^3/3 set operations at n = 512
        n = MAX_FINITE_ORDER
        lookups = []

        class Rows(tuple):
            def __getitem__(self, i):
                lookups.append(i)
                return tuple.__getitem__(self, i)

        table = Rows(
            tuple(y if x == 0 else 0 if y == x else x for y in range(n))
            for x in range(n)
        )
        assert not _is_associative(table, 0)
        assert len(lookups) < n * n.bit_length()
        with pytest.raises(ValueError, match="^table is not associative$"):
            FiniteGroup([f"x{i}" for i in range(n)], [list(row) for row in table])

    def test_groups_pass(self):
        assert _is_associative(cyclic_group(12).table, 0)
        table = [[i ^ j for j in range(16)] for i in range(16)]
        assert FiniteGroup([f"x{i}" for i in range(16)], table).order == 16

    def test_order_bound(self):
        assert cyclic_group(MAX_FINITE_ORDER).order == MAX_FINITE_ORDER
        with pytest.raises(ResourceLimitError, match="exceeds the limit"):
            cyclic_group(MAX_FINITE_ORDER + 1)

    def test_cli_refuses_an_oversized_spec_with_exit_3(self, capsys, tmp_path):
        m = MAX_FINITE_ORDER + 1
        spec = {
            "kind": "finite",
            "elements": [f"x{i}" for i in range(m)],
            "table": [[(i + j) % m for j in range(m)] for i in range(m)],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["cohom", "poincare", "--group", str(path), "--n", "2"])
        assert code == 3 and out == ""
        assert "resource guard" in err


class TestUnprintableTables:
    """An entry with more digits than ``sys.get_int_max_str_digits`` allows
    is refused with exit 3 before the series is built."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["cohom", "poincare", "--n", "3000"], "--n"),
            (["cohom", "poincare", "--n", "20000"], "--n"),
            (["assoc", "hilbert", "--n", "3", "--max-deg", "8000"], "--max-deg"),
            (["assoc", "hilbert", "--n", "3", "--max-deg", "200000"], "--max-deg"),
        ],
        ids=["poincare-n3000", "poincare-n20000", "hilbert-deg8000", "hilbert-deg200000"],
    )
    def test_refused_with_exit_3_at_once(self, capsys, argv, flag):
        if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("no integer-string digit limit in this interpreter")
        start = time.perf_counter()
        code, out, err = run(capsys, argv + ["--group", "C2"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "resource guard" in err and f"lower {flag}" in err

    def test_largest_printable_tables_still_print(self, capsys):
        c2 = cyclic_group(2)
        code, out, err = run(capsys, ["cohom", "poincare", "--group", "C2", "--n", "1200"])
        assert (code, err) == (0, "")
        assert out == f"{poincare_polynomial(CohomContext(c2, 1200))}\n"
        argv = ["assoc", "hilbert", "--group", "C2", "--n", "3", "--max-deg", "2000"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == f"{hilbert_coefficients(AssocContext(c2, 3), 2000)}\n"

    def test_no_refusal_without_a_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        cli._refuse_unprintable([10**9], "--n")
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        cli._refuse_unprintable([10**9], "--n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_refusal_implies_the_entry_cannot_print(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            refused = 0
            for bits in range(2000, 2300):
                try:
                    cli._refuse_unprintable([bits], "--n")
                except ResourceLimitError:
                    refused += 1
                    with pytest.raises(ValueError):
                        str(2**bits)
            assert refused > 0
        finally:
            sys.set_int_max_str_digits(limit)


class TestLongTables:
    """A table of more than ``--max-basis`` entries, or a Poisson series of
    more than ``--max-basis`` steps, is refused with exit 3 before any work,
    even when every entry is small."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["assoc", "hilbert", "--group", "trivial", "--n", "2", "--max-deg", "5000000"],
            ["assoc", "hilbert", "--n", "3", "--max-deg", "10", "--max-basis", "10"],
            ["poisson", "dims", "--n", "3", "--k", "2", "--q", "1", "--max-deg", "10",
             "--max-basis", "10"],
            ["poisson", "dims", "--group", "C2", "--n", "3", "--k", "2", "--q", "1",
             "--max-deg", "3200"],
            ["poisson", "dims", "--group", "C2", "--n", "3", "--k", "2", "--q", "1",
             "--max-deg", "447"],
        ],
        ids=["hilbert-trivial-n2", "hilbert-cap10", "poisson-cap10", "poisson-series-3200",
             "poisson-series-447"],
    )
    def test_refused_with_exit_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "resource guard" in err and "lower --max-deg" in err

    def test_tables_within_the_cap_still_print(self, capsys):
        argv = ["assoc", "hilbert", "--group", "trivial", "--n", "2", "--max-deg", "2000"]
        assert run(capsys, argv) == (0, f"{[1] * 2001}\n", "")
        argv = ["assoc", "hilbert", "--n", "3", "--max-deg", "9", "--max-basis", "10"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == f"{hilbert_coefficients(AssocContext(cyclic_group(2), 3), 9)}\n"
        # (max_deg + 1)^2 series steps: 446 is the largest degree under the default cap
        argv = ["poisson", "dims", "--group", "C2", "--n", "3", "--k", "2", "--q", "1",
                "--max-deg", "446", "--format", "json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["dims"]) == 447


class TestPoissonGradingConflict:
    def _bracket(self, capsys, flags, header):
        doc = {"grading": header, "expr": GEN}
        argv = ["poisson", "bracket", "--n", "3", "--format", "json", "--expr", json.dumps(doc)]
        return run(capsys, argv + flags)

    @pytest.mark.parametrize(
        "flags", [["--k", "3", "--q", "2"], ["--k", "3"], ["--q", "2"], ["--k", "2", "--q", "2"]]
    )
    def test_disagreeing_flags_refused(self, capsys, flags):
        code, out, err = self._bracket(capsys, flags, {"k": 2, "q": 1})
        assert code == 2 and out == ""
        assert "conflicts with the grading header" in err

    def test_agreeing_flags_accepted(self, capsys):
        code, out, _ = self._bracket(capsys, ["--k", "2", "--q", "1"], {"k": 2, "q": 1})
        assert code == 0
        assert json.loads(out)[0]["degree"] == 1


class TestLieTables:
    """``lie dims`` has the two table refusals of ``assoc hilbert`` (exit 3
    before any work), and ``lie bruteforce`` checks its cap before it builds
    the alphabet."""

    @pytest.mark.parametrize(
        "argv, unprintable",
        [
            (["--group", "C2", "--n", "3", "--max-len", "8000"], True),
            (["--group", "C2", "--n", "3", "--max-len", "200000"], True),
            (["--group", "trivial", "--n", "2", "--max-len", "300000"], False),
            (["--group", "C2", "--n", "3", "--max-len", "11", "--max-basis", "10"], False),
        ],
        ids=["len8000", "len200000", "trivial-n2-len300000", "cap10"],
    )
    def test_dims_refused_with_exit_3_at_once(self, capsys, argv, unprintable):
        if unprintable and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("no integer-string digit limit in this interpreter")
        start = time.perf_counter()
        code, out, err = run(capsys, ["lie", "dims", *argv])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "resource guard" in err and "lower --max-len" in err

    def test_dims_within_the_guards_still_print(self, capsys):
        argv = ["lie", "dims", "--group", "C2", "--n", "3", "--max-len", "10", "--max-basis", "10"]
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert (code, err) == (0, "")
        ctx = LieContext(cyclic_group(2), 3)
        assert json.loads(out)["dims"] == [graded_dimension(ctx, ell) for ell in range(1, 11)]
        argv = ["lie", "dims", "--group", "C2", "--n", "3", "--max-len", "3000", "--format", "json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["dims"][-1] == graded_dimension(ctx, 3000)

    def test_bruteforce_cap_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["lie", "bruteforce", "--group", "C2", "--n", "4000",
                                      "--max-len", "3"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "free algebra basis 15996000^1 exceeds cap 200000" in err

    @pytest.mark.parametrize(
        "oracle, message",
        [
            (lambda g: bruteforce_dimension(LieContext(g, 4000), 1),
             r"^free algebra basis 15996000\^1 exceeds cap 200000$"),
            (lambda g: bruteforce_quotient_dimension(AssocContext(g, 4000), 1),
             r"^free algebra basis 15996000\^1 exceeds cap 200000$"),
            (lambda g: bruteforce_cohom_dimension(CohomContext(g, 4000), 1),
             r"^free algebra basis 15996000\^1 exceeds cap 200000$"),
        ],
        ids=["lie", "chord", "cohom"],
    )
    def test_oracles_check_the_cap_before_the_letters(self, monkeypatch, oracle, message):
        def refuse(group, n):
            raise AssertionError("the letters were built before the cap")

        for module in (lie_mod, assoc_mod, cohom_mod):
            monkeypatch.setattr(module, "strand_letters", refuse)
        with pytest.raises(ResourceLimitError, match=message):
            oracle(cyclic_group(2))


def _tally(monkeypatch, owner, name, weigh):
    """Wrap ``owner.name`` so that each call adds ``weigh(result)`` to the tally returned."""
    tally = [0]
    original = getattr(owner, name)

    def counted(*args):
        out = original(*args)
        tally[0] += weigh(out)
        return out

    monkeypatch.setattr(owner, name, counted)
    return tally


def _suite_work(monkeypatch, suite, cfg):
    """Run ``suite`` with no samples and return its work as {what: count}, in the
    words of its case plan."""
    from ocs.verify import SUITES

    if suite == "cohom":
        cups = _tally(monkeypatch, CohomContext, "cup", lambda out: 1)
        walked = _tally(monkeypatch, cohom_mod, "count_admissible", lambda out: out)
        SUITES[suite](cfg)
        strands = f"admissible monomials on the first {cfg.n} strands"
        return {strands: walked[0], "square-zero cups": cups[0]}
    if suite == "assoc":
        sums = _tally(monkeypatch, AssocContext, "product_sum", lambda out: 1)
        words = _tally(monkeypatch, assoc_mod, "count_canonical_words", lambda out: out)
        SUITES[suite](cfg)
        return {"relation products and canonical words": sums[0] + words[0]}
    if suite == "regrading":
        walked = _tally(monkeypatch, poisson_mod, "enumerate_monomials", len)
        # a generator is a monomial of one primitive whose Lyndon word is one letter
        generators = _tally(
            monkeypatch,
            poisson_mod,
            "enumerate_monomials",
            lambda out: sum(len(m) == 1 and len(m[0][1]) == 1 for m in out),
        )
        SUITES[suite](cfg)
        return {
            "generators in the two gradings": generators[0],
            "monomials in the two gradings": walked[0],
        }
    cases, _ = SUITES[suite](cfg)  # with no samples, one case per relation check
    return {"relation checks": cases}


def _check_plan(monkeypatch, suite, order, n):
    """The suite's case plan yields the work the suite does, count by count, and
    refuses at one below each count with the text that names it."""
    from ocs import verify

    plan = {
        "lie-relations": verify._relation_plan,
        "symmetric-action": verify._symmetric_action_plan,
        "poisson-axioms": verify._relation_plan,
        "assoc": verify._assoc_plan,
        "cohom": verify._cohom_plan,
        "regrading": verify._regrading_plan,
    }[suite]
    spec = f"C{order}" if order > 1 else "trivial"
    cfg = verify.VerifyConfig(group=spec, n=n, samples=0)
    group = cfg.build_group()
    planned = [(what, count) for count, what in plan(cfg, group, order)]
    work = _suite_work(monkeypatch, suite, cfg)
    assert {what: dict(planned)[what] for what in work} == work
    cfg.max_basis = max(work.values())
    assert verify._decorations(cfg, group, plan) == group.elements()
    for what, total in work.items():
        # the refusal names the first planned count past the cap
        if total and next(p for p in planned if p[1] >= total) == (what, total):
            cfg.max_basis = total - 1
            want = f"^{total} {what} exceed the cap {total - 1}; lower --n$"
            with pytest.raises(ResourceLimitError, match=want):
                verify._decorations(cfg, group, plan)


class TestVerifyCaseBudget:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_the_closed_form_counts_every_relation_instance(self, monkeypatch, n, order):
        from ocs.verify import VerifyConfig, _relation_plan

        if n == 1:  # no relation instance, and no suite: LieContext refuses n < 2
            plan = _relation_plan(VerifyConfig(n=n), cyclic_group(order), order)
            assert list(plan) == [(0, "relation checks")]
            return
        for suite in ["lie-relations", "symmetric-action", "poisson-axioms"]:
            _check_plan(monkeypatch, suite, order, n)

    def test_radius_6_surface_suites_refused_before_any_decoration(self, capsys, monkeypatch):
        # the radius-6 ball has 155,577 elements, and no suite below may build it
        def refuse(*args, **kwargs):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(GroupContext, "enumerate_ball", refuse)
        for suite in ["lie-relations", "symmetric-action", "assoc", "cohom", "poisson-axioms"]:
            argv = ["verify", suite, "--group", "surface:2", "--n", "3", "--radius", "6"]
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1.0
            assert code == 3 and out == ""
            assert err.rstrip().endswith("exceed the cap 200000; lower --n")
        # a finite group's decorations are all its elements, whatever the radius
        monkeypatch.setattr(GroupContext, "ball_size", refuse)
        code, out, err = run(capsys, ["verify", "lie-relations", "--group", "C3", "--max-basis", "2"])
        assert code == 3 and out == ""
        assert "18 relation checks exceed the cap 2; lower --n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lie-relations", "--group", "C2", "--n", "300"],
            ["symmetric-action", "--group", "C2", "--n", "40", "--samples", "1"],
            ["poisson-axioms", "--group", "C2", "--n", "60", "--samples", "0"],
        ],
        ids=["lie-relations", "symmetric-action", "poisson-axioms"],
    )
    def test_oversized_suites_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify"] + argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "exceed the cap 200000; lower --n" in err

    def test_symmetric_action_counts_each_permutation(self, capsys):
        # C2 at n = 4: 44 relation instances, each mapped by all 24 permutations
        argv = ["verify", "symmetric-action", "--group", "C2", "--n", "4", "--samples", "0"]
        code, out, err = run(capsys, argv + ["--max-basis", str(44 * 24)])
        assert (code, err) == (0, "")
        code, out, err = run(capsys, argv + ["--max-basis", str(44 * 24 - 1)])
        assert code == 3 and out == "" and "1056 relation checks" in err


class TestVerifyCohomBudget:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_the_counts_are_the_cups_and_the_walked_monomials(self, monkeypatch, n, order):
        _check_plan(monkeypatch, "cohom", order, n)

    @pytest.mark.parametrize("n", ["8", "300", str(10**4000)], ids=["8", "300", "10^4000"])
    def test_refused_before_any_cup(self, capsys, monkeypatch, n):
        monkeypatch.setattr(CohomContext, "cup", None)  # any cup would raise TypeError
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", "cohom", "--group", "C2", "--n", n])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        want = "2027025 admissible monomials on the first 8 strands exceed the cap 200000; lower --n"
        assert want in err and len(err) < 200

    def test_square_zero_cups_counted_over_an_infinite_group(self, capsys):
        # surface:2, radius 1: 9 decorations, C(3,2) strand pairs, 243 cups
        argv = ["verify", "cohom", "--group", "surface:2", "--n", "3", "--samples", "0"]
        code, out, err = run(capsys, argv + ["--max-basis", "243"])
        assert (code, err) == (0, "")
        code, out, err = run(capsys, argv + ["--max-basis", "242"])
        assert code == 3 and out == ""
        assert "243 square-zero cups exceed the cap 242; lower --n" in err

    def test_largest_enumeration_within_the_cap_still_runs(self, capsys):
        # C2 at n = 7 walks 135,135 admissible monomials
        code, out, err = run(capsys, ["verify", "cohom", "--group", "C2", "--n", "7"])
        assert (code, err) == (0, "")
        assert '"failures": []' in out


HUGE_N = ["9223372036854775808", "1" * 1101]


class TestBoundedRefusals:
    def test_large_counts_are_shown_by_a_lower_power_of_ten(self):
        from ocs.verify import _refuse_over

        for count in [10**17, 10**18 - 1]:
            want = f"^{count} things exceed the cap 5; lower --n$"
            with pytest.raises(ResourceLimitError, match=want):
                _refuse_over(5, count, "things")
        for count in [10**18, 10**18 + 1, 2**64, 3**5000, 10**4400 - 1, 10**4400, 10**4400 + 1]:
            with pytest.raises(ResourceLimitError) as info:
                _refuse_over(5, count, "things")
            shown = str(info.value)
            assert shown.startswith("more than 10^")
            assert shown.endswith(" things exceed the cap 5; lower --n")
            power = int(shown[len("more than 10^") :].split()[0])
            assert 10**power < count < 10 ** (power + 2)
        _refuse_over(10**30, 10**30, "things")  # at the cap: accepted

    @pytest.mark.parametrize("n", HUGE_N, ids=["2^63", "1101-digits"])
    @pytest.mark.parametrize(
        "suite", ["lie-relations", "symmetric-action", "poisson-axioms", "cohom"]
    )
    @pytest.mark.parametrize("group", ["C2", "surface:2"])
    def test_huge_n_refused_at_once(self, capsys, monkeypatch, n, suite, group):
        monkeypatch.setattr("itertools.permutations", None)  # no permutation pool is built
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", suite, "--group", group, "--n", n])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert len(err) < 200 and err.rstrip().endswith("; lower --n")

    @pytest.mark.parametrize("n", range(2, 6))
    def test_symmetric_action_budgets_the_permutations_it_uses(self, capsys, n):
        argv = ["verify", "symmetric-action", "--group", "C2", "--n", str(n), "--samples", "0"]
        code, out, err = run(capsys, argv + ["--max-basis", "10000"])
        cases = json.loads(out)["cases"]  # one check per relation instance and permutation
        group, perms = cyclic_group(2), 1
        for k in range(2, n + 1):
            perms *= k
        relations = len(list(lie_mod.pure_braid_relations(n, group.elements(), group)))
        assert (code, cases) == (0, relations * min(perms, 24))
        assert run(capsys, argv + ["--max-basis", str(cases)])[0] == 0
        if cases:
            code, out, err = run(capsys, argv + ["--max-basis", str(cases - 1)])
            assert code == 3 and out == "" and f"{cases} relation checks" in err


class TestVerifyAssocRegradingBudget:
    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_assoc_count_is_the_products_and_walked_words(self, monkeypatch, n, order):
        _check_plan(monkeypatch, "assoc", order, n)

    @pytest.mark.parametrize("n", range(2, 5))
    @pytest.mark.parametrize("spec", ["trivial", "C2", "C3"])
    def test_regrading_count_is_the_walked_monomials(self, monkeypatch, n, spec):
        _check_plan(monkeypatch, "regrading", {"trivial": 1, "C2": 2, "C3": 3}[spec], n)

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["assoc", "--group", "C2", "--n", "300"], "106922400 relation products"),
            (["assoc", "--group", "C2", "--n", "40"], "237120 relation products"),
            (["assoc", "--group", "surface:2", "--n", HUGE_N[1]], "relation products"),
            (["regrading", "--group", "C2", "--n", "20", "--samples", "1"], "18296050 monomials"),
            (["regrading", "--group", "C2", "--n", "10"], "243675 monomials"),
            (["regrading", "--group", "C2", "--n", HUGE_N[1]], "generators in the two gradings"),
        ],
        ids=["assoc-300", "assoc-40", "assoc-huge", "regr-20", "regr-10", "regr-huge"],
    )
    def test_refused_before_any_product(self, capsys, monkeypatch, argv, shown):
        monkeypatch.setattr(AssocContext, "product_sum", None)  # any product would raise
        monkeypatch.setattr(LieContext, "bracket_sum", None)  # and so would any bracket
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify"] + argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert shown in err and err.rstrip().endswith("exceed the cap 200000; lower --n")
        assert len(err) < 200

    def test_surface_decorations_use_the_ball_cap(self, capsys):
        start = time.perf_counter()
        argv = ["verify", "all", "--group", "surface:3", "--n", "3", "--radius", "9"]
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "ball exceeds the configured cap of 200000 elements" in err
