"""Span tracing for the benchmark, installed from outside the ``ocs`` package.

``Tracer.install()`` replaces the public functions listed in ``PROBES`` with
timing wrappers: module functions on every ``ocs`` module that holds them
(so ``rank_of_rows`` is wrapped in ``linalg``, ``lie``, ``assoc`` and
``cohomology`` alike), and methods on the class that defines them.
``Tracer.uninstall()`` puts every original back.

Each wrapped call records a span (name, start, end, parent) in flat arrays.
A function that re-enters itself, directly or through another probe of the
same name, records only its outermost call.  ``Tracer.flush()`` folds the
recorded spans into per-name totals -- calls, self time (span duration minus
the time covered by its child spans) and the probe's counters -- and drops
the spans, so memory stays bounded by one unit of work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class CountedRows:
    """Iterator wrapper that counts the rows a consumer pulls through it."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self.n += 1
        return row


def _terms(x) -> int:
    return len(x.terms)


def _pair_products(args, result) -> Dict[str, int]:
    return {"terms_in": _terms(args[1]) * _terms(args[2]), "terms_out": _terms(result)}


def _lie_terms_out(args, result) -> Dict[str, int]:
    return {"terms_out": sum(len(words) for words in result.blocks.values())}


@dataclass(frozen=True)
class Probe:
    """One traced function: ``module.attr`` where attr may be ``Class.method``."""

    name: str
    module: str
    attr: str
    counters: Optional[Callable] = None  # (args, result) -> {counter: int}
    counts_rows: bool = False  # first argument is an iterable of rows


PROBES: List[Probe] = [
    Probe("groups.multiply", "ocs.groups", "GroupContext.multiply"),
    Probe("groups.invert", "ocs.groups", "GroupContext.invert"),
    Probe("groups.enumerate_ball", "ocs.groups", "GroupContext.enumerate_ball"),
    Probe("lyndon.free_lie_bracket", "ocs.lyndon", "free_lie_bracket"),
    Probe("lyndon.lyndon_pair_bracket", "ocs.lyndon", "lyndon_pair_bracket"),
    Probe("lie.bracket", "ocs.lie", "LieContext.bracket", _lie_terms_out),
    Probe("lie.act_symmetric", "ocs.lie", "LieContext.act_symmetric"),
    Probe("lie.bruteforce_dimension", "ocs.lie", "bruteforce_dimension"),
    Probe("assoc.multiply", "ocs.assoc", "AssocContext.multiply", _pair_products),
    Probe("assoc.word", "ocs.assoc", "AssocContext.word"),
    Probe("assoc.embed_lie", "ocs.assoc", "AssocContext.embed_lie"),
    Probe("assoc.conjugate", "ocs.assoc", "AssocContext.conjugate"),
    Probe("cohomology.cup", "ocs.cohomology", "CohomContext.cup"),
    Probe("cohomology.poincare_polynomial", "ocs.cohomology", "poincare_polynomial"),
    Probe("poisson.bracket", "ocs.poisson", "PoissonContext.bracket", _pair_products),
    Probe("poisson.multiply", "ocs.poisson", "PoissonContext.multiply"),
    Probe("poisson.basis_dimension", "ocs.poisson", "basis_dimension"),
    Probe("linalg.rank_of_rows", "ocs.linalg", "rank_of_rows", counts_rows=True),
    Probe("expressions.eval", "ocs.expressions", "eval_lie"),
    Probe("expressions.eval", "ocs.expressions", "eval_assoc"),
    Probe("expressions.eval", "ocs.expressions", "eval_cohom"),
    Probe("expressions.eval", "ocs.expressions", "eval_poisson"),
    Probe("expressions.jsonable", "ocs.expressions", "lie_jsonable"),
    Probe("expressions.jsonable", "ocs.expressions", "assoc_jsonable"),
    Probe("expressions.jsonable", "ocs.expressions", "cohom_jsonable"),
    Probe("expressions.jsonable", "ocs.expressions", "poisson_jsonable"),
    Probe("cli.main", "ocs.cli", "main"),
]


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._active: List[bool] = []  # per name id: a span of that name is open
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._counts: List[Optional[Dict[str, int]]] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.totals: Dict[str, Totals] = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self._active.append(False)
        return nid

    def open(self, name: str) -> int:
        nid = self._name_id(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(self.clock())
        self._end.append(0.0)
        self._counts.append(None)
        self._stack.append(idx)
        self._active[nid] = True
        return idx

    def close(self, idx: int, counts: Optional[Dict[str, int]] = None) -> None:
        self._end[idx] = self.clock()
        self._counts[idx] = counts
        self._stack.pop()
        self._active[self._name[idx]] = False

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        nid = self._name_id(probe.name)
        active = self._active
        counters = probe.counters
        counts_rows = probe.counts_rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            rows = None
            if counts_rows:
                rows = CountedRows(args[0])
                args = (rows,) + args[1:]
            idx = self.open(probe.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            counts = counters(args, result) if counters else None
            if rows is not None:
                counts = {"rows": rows.n}
            self.close(idx, counts)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            if "." in probe.attr:
                cls_name, meth = probe.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(probe, original))
                continue
            original = getattr(module, probe.attr)
            wrapper = self.wrap(probe, original)
            for holder in list(sys.modules.values()):
                name = getattr(holder, "__name__", "")
                if name != "ocs" and not name.startswith("ocs."):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def flush(self) -> None:
        """Fold the finished spans into ``totals`` and drop them."""
        if self._stack:
            raise RuntimeError("cannot flush while spans are open")
        n = len(self._name)
        covered = [0.0] * n
        for idx in range(n):
            parent = self._parent[idx]
            if parent >= 0:
                covered[parent] += self._end[idx] - self._start[idx]
        for idx in range(n):
            tot = self.totals.setdefault(self._names[self._name[idx]], Totals())
            duration = self._end[idx] - self._start[idx]
            tot.calls += 1
            tot.total_s += duration
            tot.self_s += duration - covered[idx]
            counts = self._counts[idx]
            if counts:
                for key, value in counts.items():
                    tot.counters[key] = tot.counters.get(key, 0) + value
        for arr in (self._name, self._start, self._end, self._parent):
            del arr[:]
        self._counts.clear()

    def merge(self, other: Dict[str, dict]) -> None:
        """Add totals exported by ``export()`` (from a traced child process)."""
        for name, row in other.items():
            tot = self.totals.setdefault(name, Totals())
            tot.calls += row["calls"]
            tot.self_s += row["self_s"]
            tot.total_s += row["total_s"]
            for key, value in row["counters"].items():
                tot.counters[key] = tot.counters.get(key, 0) + value

    def export(self) -> Dict[str, dict]:
        return {
            name: {
                "calls": t.calls,
                "self_s": t.self_s,
                "total_s": t.total_s,
                "counters": dict(t.counters),
            }
            for name, t in self.totals.items()
        }
