"""Self-tests for the benchmark.  Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PROBES, Probe, Tracer  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_a_synthetic_span_tree(self):
        # a[0,10] { b[1,4] { c[2,3] }, c[5,9] }, then a[20,21]
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 20.0, 21.0])
        tracer = Tracer(clock=lambda: next(ticks))
        a = tracer.open("a")
        b = tracer.open("b")
        tracer.close(tracer.open("c"))
        tracer.close(b)
        tracer.close(tracer.open("c"))
        tracer.close(a)
        tracer.close(tracer.open("a"))
        tracer.flush()
        totals = tracer.totals
        self.assertEqual(totals["a"].calls, 2)
        self.assertAlmostEqual(totals["a"].self_s, (10 - 3 - 4) + 1)
        self.assertAlmostEqual(totals["b"].self_s, 3 - 1)
        self.assertAlmostEqual(totals["c"].self_s, 1 + 4)
        self.assertAlmostEqual(totals["c"].total_s, 5)

    def test_recursion_records_only_the_outermost_call(self):
        tracer = Tracer()

        def fact(k):
            return 1 if k == 0 else k * wrapped(k - 1)

        wrapped = tracer.wrap(Probe("fact", "m", "fact"), fact)
        self.assertEqual(wrapped(5), 120)
        tracer.flush()
        self.assertEqual(tracer.totals["fact"].calls, 1)

    def test_flush_drops_spans(self):
        tracer = Tracer()
        tracer.close(tracer.open("a"))
        tracer.flush()
        tracer.flush()
        self.assertEqual(tracer.totals["a"].calls, 1)


class PercentileTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_p90_of_a_minimal_run(self):
        values = [float(v) for v in range(1, run.MIN_REQUESTS + 1)]
        self.assertAlmostEqual(run.percentile(values, 90), statistics.quantiles(values, n=10)[8])
        self.assertGreaterEqual(run.samples_beyond(values, 90), 10)

    def test_cli_cycle_fills_the_minimum(self):
        self.assertGreaterEqual(workloads.CliWorkload.cycle * workloads.BLOCK, run.MIN_REQUESTS)
        heavy = len(workloads.HEAVY_BRUTEFORCE) / workloads.BLOCK
        self.assertGreater(heavy, 0.1, "p90 must fall inside the bruteforce requests")


class _Fake:
    """A workload of constant-time requests, for the walk rule."""

    in_process = True
    warmup_requests = 0
    cycle = 2
    walks = 3

    def pass_requests(self, index):
        return ["a", "b"] if index % 2 == 0 else ["c"]

    def execute(self, request, tracer=None):
        return workloads.Outcome(0.001, request, True, 1)


class WalkTest(unittest.TestCase):
    def test_every_request_runs_a_fixed_number_of_times(self):
        r = run.Run(_Fake(), 0, 1000.0, False)
        r.measure()
        self.assertEqual(r.walks, 3)
        self.assertEqual(sorted(rec[1] for rec in r.records), ["a"] * 3 + ["b"] * 3 + ["c"] * 3)

    def test_seconds_is_a_ceiling_after_the_first_walk(self):
        r = run.Run(_Fake(), 0, 0.0, False)
        r.measure()
        self.assertEqual((r.walks, r.npasses, len(r.records)), (1, 2, 3))


class FormulaTest(unittest.TestCase):
    def test_readme_values(self):
        self.assertEqual(workloads.lie_dims(2, 3, 3), [6, 7, 22])
        self.assertEqual(workloads.hilbert_series(2, 3, 3), [1, 6, 28, 120])
        self.assertEqual(workloads.poincare(2, 3), [1, 6, 8])
        self.assertEqual(workloads.poisson_dims(2, 3, 2, 1, 3), [1, 6, 15, 27])
        self.assertEqual(workloads.SURFACE_BALL_SIZES, {0: 1, 1: 9, 2: 65})


class TracedRunTest(unittest.TestCase):
    def setUp(self):
        run.purge_ocs()

    def _originals(self):
        out = {}
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            if "." in probe.attr:
                cls, meth = probe.attr.split(".")
                out[(probe.module, probe.attr)] = getattr(module, cls).__dict__[meth]
            else:
                out[(probe.module, probe.attr)] = getattr(module, probe.attr)
        return out

    def test_traced_and_untraced_reports_are_identical(self):
        wl = workloads.VerifyWorkload(workloads.SURFACE_PLAN + workloads.FINITE_PLAN, 1, 1)
        wl.setup(workloads.DEFAULT_SEED)
        tracer = Tracer()
        for request in wl.pass_requests(0):
            plain = wl.execute(request)
            tracer.install()
            try:
                traced = wl.execute(request, tracer)
            finally:
                tracer.uninstall()
            tracer.flush()
            self.assertTrue(plain.ok)
            self.assertEqual(workloads.digest(plain.output), workloads.digest(traced.output))
        self.assertGreater(tracer.totals["groups.multiply"].calls, 0)
        self.assertGreater(tracer.totals["lie.bracket"].calls, 0)
        # the sampled symmetric-action trials reach the embedding and conjugation
        self.assertGreater(tracer.totals["assoc.embed_lie"].calls, 0)
        self.assertGreater(tracer.totals["assoc.conjugate"].calls, 0)

    def test_traced_cli_child_prints_the_same_bytes(self):
        wl = workloads.CliWorkload()
        wl.setup(workloads.DEFAULT_SEED)
        wl.open()
        try:
            request = next(r for r in wl.pass_requests(0) if r.kind == "lie-nf")
            tracer = Tracer()
            plain = wl.execute(request)
            traced = wl.execute(request, tracer)
        finally:
            wl.close()
        self.assertTrue(plain.ok and traced.ok)
        self.assertEqual(plain.output, traced.output)
        self.assertEqual(wl.check(request, plain), "")
        self.assertGreater(traced.startup_ms, 0)
        self.assertEqual(tracer.totals["cli.main"].calls, 1)

    def test_wrappers_are_removed(self):
        import ocs.cli  # noqa: F401  (load every module that re-imports a probe)
        import ocs.verify  # noqa: F401

        before = self._originals()
        rank = importlib.import_module("ocs.linalg").rank_of_rows
        holders = [importlib.import_module(m) for m in ("ocs.lie", "ocs.assoc", "ocs.cohomology")]
        tracer = Tracer()
        tracer.install()
        for holder in holders:
            self.assertIsNot(holder.rank_of_rows, rank)
        self.assertNotEqual(self._originals(), before)
        tracer.uninstall()
        self.assertEqual(self._originals(), before)
        for holder in holders:
            self.assertIs(holder.rank_of_rows, rank)

    def test_wrappers_are_removed_after_a_traced_run(self):
        import ocs.verify  # noqa: F401

        wl = workloads.WORKLOADS["verify-surface"]()
        r = run.Run(wl, workloads.DEFAULT_SEED, 0.0, True)
        r.setup()
        before = self._originals()
        r.measure()
        self.assertEqual(self._originals(), before)
        self.assertEqual(r.gate(None), [])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
