"""Spans around calls into each sublevy layer, recorded from outside the library.

``instrument`` swaps the public functions that the CLI calls for wrappers that
record a span (name, start, end, parent, run id) and, for a few of them,
counts taken from the result.  Spans stay in memory until the benchmark
writes them out.  A layer's self time is the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

import sublevy.cli as cli
import sublevy.levy as levy
import sublevy.mc as mc

LAYERS = ("cli", "grid", "levy", "nisio", "oracles", "mc")


@dataclass(frozen=True)
class Span:
    run: int
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, layer: str, fn, observe=None):
        """Wrap fn so that each call records a span; observe(counts, result) adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.run, sid, parent, name, layer, start, end))
            if observe is not None:
                observe(self.counts[self.run], result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call adds one to a count; no span, for hot calls."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.run][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_spans(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer, and per span name under 'span:<name>'."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s.seconds - covered[s.id]
        out[s.layer] += own
        out["span:" + s.name] += own
    return out


def _observe_nisio(counts, result) -> None:
    steps = sum(rec.steps for rec in result.records)
    if result.argmax is not None:
        steps += result.argmax.step_count
    counts["nisio.steps"] += steps
    counts["nisio.levels_used"] += result.levels_used


def _observe_picard(counts, traj) -> None:
    counts["oracles.rk4_steps"] += len(traj.times) - 1
    counts["oracles.snapshot_values"] += sum(s.values.size for s in traj.snapshots)


def _observe_mc(counts, report) -> None:
    counts["mc.paths"] += sum(row.n_paths for row in report.rows)
    counts["mc.rows"] += len(report.rows)
    counts["mc.rows_ok"] += sum(1 for row in report.rows if row.bound_ok)


OUTPUT_WRITERS = ("write_function_csv", "write_convergence_csv", "write_trajectory_csv",
                  "write_residual_csv", "write_estimates_csv", "save_strategy",
                  "write_argmax_csv")

# (owner, attribute, span name, layer, observer); owners are what the CLI looks up
TARGETS = (
    (cli.RunConfig, "from_file", "cli.config", "cli", None),
    (cli, "build_family", "cli.build_family", "cli", None),
    (cli, "make_grid", "grid.make_grid", "grid", None),
    (cli, "sample", "grid.sample", "grid", None),
    (levy.SymbolTable, "build", "levy.table_build", "levy", None),
    (levy.SymbolTable, "multipliers", "levy.multipliers", "levy", None),
    (cli, "nisio_evolve", "nisio.evolve", "nisio", _observe_nisio),
    (cli, "picard_solve", "oracles.picard", "oracles", _observe_picard),
    (cli, "residual_check", "oracles.residuals", "oracles", None),
    (cli, "extract_strategy", "mc.extract", "mc", None),
    (cli, "random_strategy", "mc.random_strategy", "mc", None),
    (cli, "dual_bound_suite", "mc.suite", "mc", _observe_mc),
    *((cli, w, "cli.output." + w, "cli", None) for w in OUTPUT_WRITERS),
    (cli._Run, "write_manifest", "cli.output.manifest", "cli", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block; yields the names
    of targets the program no longer has, which are left untraced."""
    saved, missing = [], []
    try:
        for owner, attr, name, layer, observe in TARGETS:
            if attr not in vars(owner):
                missing.append(name)
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.span(name, layer, original.__func__, observe))
            else:
                wrapped = tracer.span(name, layer, original, observe)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        if "sample_increment" in vars(mc):
            saved.append((mc, "sample_increment", mc.sample_increment))
            mc.sample_increment = tracer.counter("mc.increments", mc.sample_increment)
        else:
            missing.append("mc.increments")
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
