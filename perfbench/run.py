"""Benchmark for ocs.  Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-finite --seed 42 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``verify-finite``, ``verify-surface`` and
``cli-oneshot``.  A run sets up ``SETUP_REPS`` times (import of ``ocs``,
group loading, input generation) and reports the fastest as ``setup_s``.
Then it walks its workload's cycle of distinct passes a fixed number of
times (the workload's ``walks``), so that every request runs that many
times whatever the speed of the code.  ``--seconds`` is only a ceiling: no
walk starts after it has passed, and the first walk always completes.

A request counts at its lowest latency over its repeats, as timeit does: on
a shared machine the slower repeats met interference, not more work.
``wall_s`` is the median over the distinct passes of a pass's summed
latencies; ``cases_per_s`` and ``requests_per_s`` are medians over the
passes of a pass's cases and requests over its time; the request
percentiles are taken over the distinct requests.

With ``--trace 0`` a run reports the end-to-end metrics.  With ``--trace 1``
it walks the cycle once and runs every request twice, untraced and traced
(alternating which goes first), and reports the per-layer metrics as means
per pass, plus ``trace.overhead``, the traced over the untraced time.

Every output is gated: a verify report must have no failures; a CLI request
must exit 0 and print what an independent formula or an in-process run of
the same request gives; at the default seed every output must match the
digests recorded in ``expected.json``; repeated and traced outputs must be
identical to the first.  A stamp line and a readable table precede the last
line, which is the JSON result.  Exit status: 0 when every gate passes, 1
when one fails, 2 when the checkout has no ``src/ocs``.  ``--record`` runs
one whole cycle and writes its digests to ``expected.json`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Totals, Tracer
from workloads import DEFAULT_SEED, EXPECTED_PATH, ROOT, WORKLOADS, digest

SETUP_REPS = 25
MIN_REQUESTS = 100  # one-shot requests in a cycle, so that ten lie beyond p90

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cases_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

SUITES = (
    "group-laws", "lie-relations", "lie-axioms", "lie-dims", "symmetric-action",
    "assoc", "cohom", "poisson-axioms", "suspension", "regrading",
)

# probe name -> the totals it reports, besides self_s
_LAYER_FIELDS = (
    ("groups.multiply", ("calls",)),
    ("groups.invert", ("calls",)),
    ("groups.enumerate_ball", ()),
    ("lyndon.free_lie_bracket", ("calls",)),
    ("lyndon.lyndon_pair_bracket", ("calls",)),
    ("lie.bracket", ("calls", "terms_out")),
    ("lie.act_symmetric", ()),
    ("poisson.bracket", ("calls", "terms_in", "terms_out")),
    ("poisson.multiply", ("calls",)),
    ("assoc.multiply", ("calls", "terms_in", "terms_out")),
    ("assoc.word", ()),
    ("assoc.embed_lie", ()),
    ("assoc.conjugate", ()),
    ("linalg.rank_of_rows", ("calls", "rows")),
    ("lie.bruteforce_dimension", ()),
    ("cohomology.cup", ("calls",)),
    ("cohomology.poincare_polynomial", ()),
    ("poisson.basis_dimension", ()),
    ("expressions.eval", ()),
    ("expressions.jsonable", ()),
    ("cli.main", ()),
)


def per_layer_units() -> dict:
    units = {}
    for name, fields in _LAYER_FIELDS:
        for field in fields:
            units[f"{name}.{field}"] = "count"
        units[f"{name}.self_s"] = "s"
    units["cli.startup_ms"] = "ms"
    for suite in SUITES:
        units[f"verify.{suite}.s"] = "s"
        units[f"verify.{suite}.cases"] = "count"
    units["trace.overhead"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# helpers


def git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def purge_ocs() -> None:
    for name in [m for m in sys.modules if m == "ocs" or m.startswith("ocs.")]:
        del sys.modules[name]


def percentile(values, pct: int) -> float:
    """The pct-th percentile by ``statistics.quantiles`` (exclusive method)."""
    return statistics.quantiles(values, n=100)[pct - 1]


def samples_beyond(values, pct: int) -> int:
    """How many values lie above the pct-th percentile."""
    cut = percentile(values, pct)
    return sum(1 for v in values if v > cut)


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setups = []
        self.records = []  # (cycle index, request, untraced outcome, traced outcome)
        self.npasses = 0
        self.walks = 0
        self.tracer = None

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            purge_ocs()
            start = time.perf_counter()
            self.wl.setup(self.seed)
            self.setups.append(time.perf_counter() - start)

    def _execute(self, request, index: int):
        if not self.trace:
            return self.wl.execute(request), None
        traced_first = index % 2 == 1
        if traced_first:
            traced = self._traced(request)
        plain = self.wl.execute(request)
        if not traced_first:
            traced = self._traced(request)
        return plain, traced

    def _traced(self, request):
        if not self.wl.in_process:
            return self.wl.execute(request, self.tracer)
        self.tracer.install()
        try:
            return self.wl.execute(request, self.tracer)
        finally:
            self.tracer.uninstall()
            self.tracer.flush()

    def measure(self) -> None:
        if self.trace:
            self.tracer = Tracer()
        for request in self.wl.pass_requests(0)[: self.wl.warmup_requests]:
            self.wl.execute(request)
        width = len(self.wl.pass_requests(0))
        deadline = time.perf_counter() + self.seconds
        walks = 1 if self.trace else self.wl.walks
        while self.walks < walks and (self.walks == 0 or time.perf_counter() < deadline):
            for p in range(self.wl.cycle):
                for pos, request in enumerate(self.wl.pass_requests(p)):
                    plain, traced = self._execute(request, len(self.records))
                    self.records.append((p * width + pos, request, plain, traced))
                self.npasses += 1
            self.walks += 1

    # -- gates ------------------------------------------------------------------

    def gate(self, expected) -> list:
        """Failure messages, one per failed request."""
        failures = []
        first = {}
        for index, request, plain, traced in self.records:
            problem = plain.detail if not plain.ok else self.wl.check(request, plain)
            text_digest = digest(plain.output)
            if not problem and traced is not None:
                if not traced.ok or traced.output != plain.output:
                    problem = f"{self.wl.label(request)}: traced output differs from untraced"
            if not problem and first.setdefault(index, text_digest) != text_digest:
                problem = f"{self.wl.label(request)}: output changed on a repeated request"
            if not problem and expected is not None:
                want = expected[index] if index < len(expected) else "none"
                if want != text_digest:
                    problem = f"{self.wl.label(request)}: digest {text_digest} != recorded {want}"
            if problem:
                failures.append(problem)
        return failures

    # -- metrics ----------------------------------------------------------------

    def best(self) -> dict:
        """Each distinct request's lowest latency over the run (as timeit
        does: the repeats that ran slower met interference, not more work)."""
        best = {}
        for index, _, plain, _ in self.records:
            best[index] = min(best.get(index, plain.latency_s), plain.latency_s)
        return best

    def end_to_end(self) -> dict:
        best = self.best()
        cases = {index: plain.cases for index, _, plain, _ in self.records}
        width = len(self.wl.pass_requests(0))
        pass_times, pass_cases = {}, {}
        for index, latency in best.items():
            p = index // width
            pass_times[p] = pass_times.get(p, 0.0) + latency
            pass_cases[p] = pass_cases.get(p, 0) + cases[index]
        latencies = list(best.values())
        if self.wl.in_process:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_s": statistics.median(pass_times.values()),
            "setup_s": min(self.setups),
            "cases_per_s": statistics.median(pass_cases[p] / t for p, t in pass_times.items()),
            "request_p50_ms": statistics.median(latencies) * 1000.0,
            "request_p90_ms": percentile(latencies, 90) * 1000.0,
            "requests_per_s": statistics.median(width / t for t in pass_times.values()),
            "peak_rss_mb": rss_kib / 1024.0,
        }
        counts = {
            "wall_s": len(pass_times),
            "setup_s": len(self.setups),
            "cases_per_s": len(pass_times),
            "request_p50_ms": len(latencies),
            "request_p90_ms": len(latencies),
            "requests_per_s": len(pass_times),
            "peak_rss_mb": 1,
        }
        return values, counts

    def startups(self) -> list:
        return [rec[3].startup_ms for rec in self.records if rec[3].startup_ms is not None]

    def per_layer(self) -> dict:
        npasses = self.npasses
        totals = self.tracer.totals
        values = {}
        for name, fields in _LAYER_FIELDS:
            tot = totals.get(name, Totals())
            for field in fields:
                count = tot.calls if field == "calls" else tot.counters.get(field, 0)
                values[f"{name}.{field}"] = count / npasses
            values[f"{name}.self_s"] = tot.self_s / npasses
        startups = self.startups()
        values["cli.startup_ms"] = statistics.median(startups) if startups else 0.0
        for suite in SUITES:
            values[f"verify.{suite}.s"] = totals.get(f"verify.{suite}", Totals()).total_s / npasses
            cases = sum(
                rec[2].cases for rec in self.records
                if self.wl.in_process and rec[1][0].suite == suite
            )
            values[f"verify.{suite}.cases"] = cases / npasses
        plain = sum(rec[2].latency_s for rec in self.records)
        traced = sum(rec[3].latency_s for rec in self.records)
        values["trace.overhead"] = traced / plain
        counts = {name: len(self.records) for name in values}
        counts["cli.startup_ms"] = len(startups)
        return values, counts

    def shares(self) -> dict:
        """Self time by layer (module prefix) as a share of traced time."""
        total = sum(rec[3].latency_s for rec in self.records)
        layers = {}
        for name, tot in self.tracer.totals.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + tot.self_s
        startups = self.startups()
        if startups:
            layers["startup"] = sum(startups) / 1000.0
        layers["other"] = total - sum(layers.values())
        return {layer: round(v / total, 4) for layer, v in sorted(layers.items())}


def load_expected(name: str, seed: int):
    if seed != DEFAULT_SEED or not EXPECTED_PATH.is_file():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(name)


def record(workload, name: str, seed: int) -> int:
    digests, failures = [], 0
    for p in range(workload.cycle):
        for request in workload.pass_requests(p):
            outcome = workload.execute(request)
            problem = outcome.detail if not outcome.ok else workload.check(request, outcome)
            if problem:
                print(problem, file=sys.stderr)
                failures += 1
            digests.append(digest(outcome.output))
    if failures:
        print(f"perfbench: {failures} failed requests; nothing recorded", file=sys.stderr)
        return 1
    data = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}
    data[name] = digests
    EXPECTED_PATH.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {name} at seed {seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the digests of one whole cycle to expected.json")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ocs" / "__init__.py").is_file():
        print(f"perfbench: no ocs package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]()
    run = Run(workload, seed, args.seconds, bool(args.trace))
    run.setup()
    import ocs

    if Path(ocs.__file__).resolve().parent != (src / "ocs").resolve():
        print(f"perfbench: imported ocs from {ocs.__file__}, not {src}", file=sys.stderr)
        return 2
    workload.open()
    try:
        if args.record:
            return record(workload, args.workload, seed)
        run.measure()
        failures = run.gate(load_expected(args.workload, seed))
    finally:
        workload.close()

    if run.trace:
        values, counts = run.per_layer()
        units = PER_LAYER
    else:
        values, counts = run.end_to_end()
        units = END_TO_END
    attempted = len(run.records)
    stamp = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_head": git_head(),
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": run.npasses,
        "walks": run.walks,
        "samples": counts,
    }
    if not run.trace:
        stamp["requests_beyond_p90"] = samples_beyond(list(run.best().values()), 90)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    for message in failures[:20]:
        print(f"FAILED {message}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>14.6g} {unit:6s} n={counts[name]}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:>14.6g} ratio  n={attempted}")
    if run.trace:
        print(json.dumps({"shares": run.shares()}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
