"""The benchmark's workloads, their seeded inputs and their output gates.

A workload is a cycle of distinct passes, and pass ``p`` draws its inputs
from the derived seed ``seed + SEED_STRIDE * p``; the default seed's first
derived seed is the criterion-10 config (C2, n=3, seed 42).  A run walks the
cycle a fixed number of times (``walks``).  ``execute`` runs one request and
returns an ``Outcome``.

* ``verify-finite`` -- in-process ``run_suite`` calls on C2 n=3 and S3 n=3.
* ``verify-surface`` -- in-process ``run_suite`` calls on surface:2 n=3.
* ``cli-oneshot`` -- ``python -m ocs.cli`` requests, one fresh interpreter
  each, one after another (a closed loop with one client).

A verify pass is one sweep of its plan at one derived seed, as ``ocs
verify`` at that seed would run it; the seed-independent suites
(``lie-relations``, ``lie-dims``, ``assoc`` and the others at 0 samples)
give the same report in every pass.  Sample counts are per suite call.  The
cost of a random trial is heavy-tailed, and most in the products of
``assoc`` and ``poisson-axioms``: one ``assoc`` associativity triple over
surface:2 took 97 s (seed 1025, samples=1), one over C2 took 17 s, and one
``poisson-axioms`` trial over C2 up to 0.7 s.  Those sections run at 0
samples.  The sampled ``symmetric-action`` (4 trials, up to 0.4 s a call,
which reach ``embed_lie``, ``act_tilde`` and ``conjugate``) and
``lie-axioms`` (2 trials) run over C2, one call a pass; ``wall_s`` is a
median over passes, so a slow seed moves it little.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
S3_SPEC = str(BENCH_DIR / "s3.json")
EXPECTED_PATH = BENCH_DIR / "expected.json"
ONESHOT = str(BENCH_DIR / "oneshot.py")

DEFAULT_SEED = 42
SEED_STRIDE = 100_003


def derived_seed(seed: int, index: int) -> int:
    return seed + SEED_STRIDE * index


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    latency_s: float
    output: str  # report JSON or child stdout: the bytes the gate digests
    ok: bool
    cases: int
    detail: str = ""
    startup_ms: Optional[float] = None  # traced CLI children only


# ---------------------------------------------------------------------------
# verify workloads


@dataclass(frozen=True)
class SuiteCall:
    group: str
    suite: str
    samples: int


def _c2(suite: str, samples: int) -> SuiteCall:
    return SuiteCall("C2", suite, samples)


def _s3(suite: str, samples: int) -> SuiteCall:
    return SuiteCall(S3_SPEC, suite, samples)


def _surface(suite: str, samples: int) -> SuiteCall:
    return SuiteCall("surface:2", suite, samples)


# Each suite runs once a pass, over C2 or S3 (symmetric-action over both).
# S3 symmetric-action, the slowest call of a pass with a steady cost, is one
# call in eight, so the 90th percentile of call latency falls among its
# calls rather than in the tail of the sampled calls.
FINITE_PLAN = (
    _c2("lie-dims", 0),  # fixed dimension models: the group is not used
    _c2("symmetric-action", 4),
    _c2("lie-axioms", 2),
    _c2("suspension", 40),
    _c2("regrading", 40),
    _s3("lie-relations", 0),
    _s3("symmetric-action", 0),
    _s3("poisson-axioms", 0),
)

SURFACE_PLAN = (
    _surface("group-laws", 40),
    _surface("assoc", 0),
    _surface("cohom", 40),
)


class VerifyWorkload:
    """Warm, in-process verify suites; one request is one ``run_suite`` call.

    Pass ``p`` runs the plan once with the derived seed ``p``."""

    in_process = True
    warmup_requests = 0

    def __init__(self, plan, cycle: int, walks: int) -> None:
        self.plan = plan
        self.cycle = cycle
        self.walks = walks

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def setup(self, seed: int) -> None:
        from ocs import verify

        self.verify = verify
        for group in sorted({call.group for call in self.plan}):
            verify.load_group(group)
        self.passes = [[
            (call, verify.VerifyConfig(
                group=call.group, n=3, q=1, k=2, radius=1,
                seed=derived_seed(seed, index), samples=call.samples,
            ))
            for call in self.plan
        ] for index in range(self.cycle)]

    def pass_requests(self, index: int) -> list:
        return self.passes[index % self.cycle]

    def label(self, request) -> str:
        call, cfg = request
        return f"verify.{call.suite}"

    def execute(self, request, tracer=None) -> Outcome:
        call, cfg = request
        start = time.perf_counter()
        if tracer is None:
            report = self.verify.run_suite(call.suite, cfg)
        else:
            with tracer.span(f"verify.{call.suite}"):
                report = self.verify.run_suite(call.suite, cfg)
        latency = time.perf_counter() - start
        text = json.dumps(report, sort_keys=True)
        failures = report["failures"]
        detail = f"{call.suite} seed={cfg.seed}: {len(failures)} failures" if failures else ""
        return Outcome(latency, text, not failures, report["cases"], detail)

    def check(self, request, outcome: Outcome) -> str:
        return ""  # zero failures is checked per call; digests by the runner


# ---------------------------------------------------------------------------
# independent dimension formulas for the counting requests


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def lyndon_count(k: int, length: int) -> int:
    total = sum(_mobius(d) * k ** (length // d) for d in range(1, length + 1) if length % d == 0)
    return total // length


def lie_dims(order: int, n: int, max_len: int) -> List[int]:
    return [
        sum(lyndon_count((i - 1) * order, ell) for i in range(2, n + 1))
        for ell in range(1, max_len + 1)
    ]


def _poly_mul(a: List[int], b: List[int], top: int) -> List[int]:
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y and i + j <= top:
                out[i + j] += x * y
    return out


def hilbert_series(order: int, n: int, max_deg: int) -> List[int]:
    """prod_{i=2..n} 1/(1 - (i-1)|G| t): the PBW basis is a tensor product of
    free associative algebras, one per top index."""
    out = [1] + [0] * max_deg
    for i in range(2, n + 1):
        r = (i - 1) * order
        out = _poly_mul(out, [r ** d for d in range(max_deg + 1)], max_deg)
    return out


def poincare(order: int, n: int) -> List[int]:
    out = [1]
    for i in range(2, n + 1):
        out = _poly_mul(out, [1, (i - 1) * order], len(out))
    return out


def poisson_dims(order: int, n: int, k: int, q: int, max_deg: int) -> List[int]:
    """Free graded-commutative algebra on the Lyndon basis, a bracket of
    length m in degree 2qm - (k-1): exterior when k-1 is odd, else symmetric."""
    out = [1] + [0] * max_deg
    odd = (k - 1) % 2 == 1
    m = 1
    while 2 * q * m - (k - 1) <= max_deg:
        deg = 2 * q * m - (k - 1)
        count = lie_dims(order, n, m)[-1]
        for _ in range(count):
            if odd:
                factor = [0] * (max_deg + 1)
                factor[0] = 1
                factor[deg] = 1
            else:
                factor = [1 if d % deg == 0 else 0 for d in range(max_deg + 1)]
            out = _poly_mul(out, factor, max_deg)
        m += 1
    return out


SURFACE_BALL_SIZES = {0: 1, 1: 9, 2: 65}


# ---------------------------------------------------------------------------
# the one-shot CLI workload


@dataclass(frozen=True)
class CliRequest:
    kind: str
    argv: tuple
    expect: Optional[tuple] = None  # independent expectation for counting kinds


_ORDERS = {"trivial": 1, "C2": 2, "C3": 3, S3_SPEC: 6}
_SURFACE_LETTERS = ("a1", "b1", "a2", "b2")
_RELATOR = ("a1", "b1", "a1^-1", "b1^-1", "a2", "b2", "a2^-1", "b2^-1")

# Light requests are start-up bound (about 200 ms); the six bruteforce oracles
# (300-450 ms, rank_of_rows-bound) are the slowest quarter of every block.
# The four over S3 n=3 and C3 n=4 (390-430 ms) are the slowest sixth, so the
# 90th percentile falls inside their band rather than at its edge, where two
# oracles of near cost would take turns.  Four blocks hold 104 distinct
# requests, so ten lie beyond the 90th percentile; one walk of the cycle
# takes about 20 s.
LIGHT_KINDS = (
    ("lie-nf",) * 4 + ("assoc-mul",) * 3 + ("cohom-cup",) * 3 + ("poisson-br",) * 3
    + ("lie-dims", "assoc-hilbert", "cohom-poincare", "poisson-dims")
    + ("group-reduce",) * 2 + ("group-ball",)
)
HEAVY_BRUTEFORCE = (("C2", 4), ("trivial", 6), (S3_SPEC, 3), (S3_SPEC, 3), ("C3", 4), ("C3", 4))
BLOCK = len(LIGHT_KINDS) + len(HEAVY_BRUTEFORCE)


def _inverse_letter(tok: str) -> str:
    return tok[:-3] if tok.endswith("^-1") else tok + "^-1"


class CliWorkload:
    """Cold one-shot requests; one request is one ``python -m ocs.cli`` child."""

    in_process = False
    cycle = 4
    walks = 1  # one walk of 104 cold starts already takes about 20 s
    warmup_requests = 1

    def setup(self, seed: int) -> None:
        from ocs import cli, load_group

        self.cli = cli
        self.names = {
            g: [str(x) for x in load_group(g).elements()] for g in ("C2", "C3", S3_SPEC)
        }
        self.names["surface:2"] = [str(x) for x in load_group("surface:2").enumerate_ball(1)]
        self.passes = [self._block(random.Random(derived_seed(seed, b))) for b in range(self.cycle)]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def open(self) -> None:
        """Make a directory for child output inside the checkout."""
        parent = ROOT / ".perfbench_work"
        parent.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=str(parent))

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.unlink(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)
        with contextlib.suppress(OSError):
            os.rmdir(ROOT / ".perfbench_work")

    # -- inputs ---------------------------------------------------------------

    def _gen(self, rng, group: str, n: int) -> dict:
        i = rng.randint(2, n)
        j = rng.randint(1, i - 1)
        if rng.random() < 0.2:
            i, j = j, i  # mirrored indices exercise normalization
        return {"gen": {"i": i, "j": j, "sigma": rng.choice(self.names[group])}}

    def _lie_tree(self, rng, group: str, n: int, leaves: int) -> dict:
        if leaves == 1:
            return self._gen(rng, group, n)
        split = rng.randint(1, leaves - 1)
        return {"bracket": [self._lie_tree(rng, group, n, split),
                            self._lie_tree(rng, group, n, leaves - split)]}

    def _word(self, rng, group: str, n: int) -> dict:
        return {"word": [self._gen(rng, group, n)["gen"] for _ in range(rng.randint(1, 2))]}

    def _factor(self, rng, group: str, n: int) -> dict:
        gen = self._gen(rng, group, n)
        if rng.random() < 0.5:
            return gen
        coef = rng.choice(["-1", "2", "1/2"])
        return {"add": [gen, {"scale": {"coef": coef, "arg": self._gen(rng, group, n)}}]}

    def _surface_word(self, rng) -> str:
        word = [rng.choice(_SURFACE_LETTERS) + rng.choice(("", "^-1")) for _ in range(rng.randint(2, 6))]
        for _ in range(rng.randint(1, 2)):
            rel = list(_RELATOR) if rng.random() < 0.5 else [_inverse_letter(t) for t in reversed(_RELATOR)]
            shift = rng.randrange(len(rel))
            pos = rng.randint(0, len(word))
            word[pos:pos] = rel[shift:] + rel[:shift]
        return " ".join(word)

    def _request(self, rng, kind: str) -> CliRequest:
        finite = ("C2", "C3", S3_SPEC)
        if kind == "lie-nf":
            group, n = rng.choice(finite), rng.choice((3, 4))
            expr = self._lie_tree(rng, group, n, rng.randint(2, 4))
            return CliRequest(kind, ("lie", "normal-form", "--group", group, "--n", str(n),
                                     "--expr", json.dumps(expr)))
        if kind == "assoc-mul":
            group = rng.choice(("C2", S3_SPEC, "surface:2"))
            expr = {"mul": [self._word(rng, group, 3), self._word(rng, group, 3)]}
            return CliRequest(kind, ("assoc", "multiply", "--group", group, "--n", "3",
                                     "--expr", json.dumps(expr)))
        if kind == "cohom-cup":
            group, n = rng.choice(finite), rng.choice((3, 4))
            expr = {"cup": [self._factor(rng, group, n) for _ in range(rng.randint(2, 3))]}
            return CliRequest(kind, ("cohom", "cup", "--group", group, "--n", str(n),
                                     "--format", "json", "--expr", json.dumps(expr)))
        if kind == "poisson-br":
            group = rng.choice(("C2", S3_SPEC))

            def operand():
                if rng.random() < 0.5:
                    return self._gen(rng, group, 3)
                return {"mul": [self._gen(rng, group, 3), self._gen(rng, group, 3)]}

            expr = {"lambda": [operand(), operand()]}
            return CliRequest(kind, ("poisson", "bracket", "--group", group, "--n", "3",
                                     "--k", "2", "--q", "1", "--expr", json.dumps(expr)))
        if kind == "lie-dims":
            group = rng.choice(("trivial",) + finite)
            n, top = rng.choice((3, 4, 5)), rng.choice((3, 4))
            return CliRequest(kind, ("lie", "dims", "--group", group, "--n", str(n),
                                     "--max-len", str(top), "--format", "json"),
                              tuple(lie_dims(_ORDERS[group], n, top)))
        if kind == "assoc-hilbert":
            group, n, top = rng.choice(finite), rng.choice((3, 4)), rng.choice((3, 4))
            return CliRequest(kind, ("assoc", "hilbert", "--group", group, "--n", str(n),
                                     "--max-deg", str(top), "--format", "json"),
                              tuple(hilbert_series(_ORDERS[group], n, top)))
        if kind == "cohom-poincare":
            group, n = rng.choice(finite), rng.choice((3, 4, 5))
            return CliRequest(kind, ("cohom", "poincare", "--group", group, "--n", str(n),
                                     "--format", "json"),
                              tuple(poincare(_ORDERS[group], n)))
        if kind == "poisson-dims":
            group = rng.choice(("C2", "C3"))
            k, q = rng.choice(((2, 1), (3, 2), (2, 2)))
            top = rng.choice((3, 4))
            return CliRequest(kind, ("poisson", "dims", "--group", group, "--n", "3",
                                     "--k", str(k), "--q", str(q), "--max-deg", str(top),
                                     "--format", "json"),
                              tuple(poisson_dims(_ORDERS[group], 3, k, q, top)))
        if kind == "group-reduce":
            return CliRequest(kind, ("group", "reduce", "--group", "surface:2",
                                     "--word", self._surface_word(rng)))
        if kind == "group-ball":
            radius = rng.choice((1, 2))
            return CliRequest(kind, ("group", "ball", "--group", "surface:2",
                                     "--radius", str(radius), "--format", "json"),
                              (SURFACE_BALL_SIZES[radius],))
        raise ValueError(kind)

    def _block(self, rng) -> List[CliRequest]:
        block = [self._request(rng, kind) for kind in LIGHT_KINDS]
        for group, n in HEAVY_BRUTEFORCE:
            block.append(CliRequest("lie-bruteforce", (
                "lie", "bruteforce", "--group", group, "--n", str(n), "--max-len", "3",
                "--format", "json"), tuple(lie_dims(_ORDERS[group], n, 3))))
        rng.shuffle(block)
        return block

    def pass_requests(self, index: int) -> List[CliRequest]:
        return self.passes[index % self.cycle]

    def label(self, request: CliRequest) -> str:
        return request.kind

    # -- execution ------------------------------------------------------------

    def execute(self, request: CliRequest, tracer=None) -> Outcome:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        env = self.env
        if tracer is None:
            cmd = [sys.executable, "-m", "ocs.cli", *request.argv]
        else:
            trace_path = os.path.join(self.workdir, "trace.json")
            cmd = [sys.executable, ONESHOT, *request.argv]
            env = dict(env, PERFBENCH_TRACE_OUT=trace_path,
                       PERFBENCH_SPAWN=repr(time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=env, cwd=str(ROOT))
            latency = time.perf_counter() - start
        with open(out_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        ok = proc.returncode == 0
        detail = ""
        if not ok:
            with open(err_path, "r", encoding="utf-8") as fh:
                detail = f"{' '.join(request.argv[:2])}: exit {proc.returncode}: {fh.read()[-300:]}"
        startup_ms = None
        if tracer is not None and ok:
            with open(trace_path, "r", encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.merge(child["totals"])
            startup_ms = child["startup_ms"]
        return Outcome(latency, text, ok, 1, detail, startup_ms)

    def check(self, request: CliRequest, outcome: Outcome) -> str:
        """Return an empty string when the request's stdout is right."""
        kind, text = request.kind, outcome.output
        if request.expect is None:
            # normal forms and reductions: the same request evaluated in process
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(request.argv))
            if code != 0 or buf.getvalue() != text:
                return f"{kind}: stdout differs from the in-process result"
            return ""
        payload = json.loads(text)
        want = list(request.expect)
        if kind == "lie-bruteforce":
            got = payload["bruteforce"]
            if not (payload["agree"] is True and got == payload["necklace"] == want):
                return f"{kind} {request.argv[3]} n={request.argv[5]}: {payload} != {want}"
            return ""
        if kind == "group-ball":
            names = payload["elements"]
            if not (payload["size"] == len(names) == len(set(names)) == want[0]):
                return f"{kind}: size {payload['size']} != {want[0]}"
            return ""
        got = payload.get("dims", payload.get("coefficients"))
        if got != want:
            return f"{kind} {' '.join(request.argv[2:6])}: {got} != {want}"
        return ""


WORKLOADS = {
    # a run of either takes 20-30 s on 2 CPUs
    "verify-finite": lambda: VerifyWorkload(FINITE_PLAN, cycle=24, walks=4),
    "verify-surface": lambda: VerifyWorkload(SURFACE_PLAN, cycle=24, walks=8),
    "cli-oneshot": CliWorkload,
}
