"""Worst-case evolution by dyadic sup-envelope iteration.

One step of length t applies every member semigroup and takes the pointwise
maximum; composing steps over a refining partition drives the monotone limit
that defines the nonlinear evolution.  Dyadic levels n = 0, 1, 2, ... are
nested, so the per-level sup-norm increase is a machine-checkable
monotonicity diagnostic.  The member that attains each step's maximum at each
point, recorded at one dyadic level, is a feedback control on that level's
partition: a SimpleStrategy, which the Monte Carlo dual simulates.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigurationError, ConsistencyError
from .grid import (GridFunction, TorusGrid, _csv_header, _sup_norm, checked, numbers_only,
                   write_grid_table, write_table)
from .levy import SpectralWorkspace, SymbolTable, batch_rows

MAX_LEVEL = 20
MONOTONICITY_ERROR_TOL = 1e-8
INCREMENT_ROUNDING_TOL = 1e-10
# feedback entries (steps x grid points) a run may hold, 80 MB of int64: the
# maximizers nisio_evolve records, and in mc the feedback of every strategy
ARGMAX_BUDGET = 10**7


@dataclass(frozen=True)
class Partition:
    """Finite time partition 0 = t_0 < t_1 < ... < t_m."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(numbers_only(self.times, "partition time"), dtype=float)
        if t.ndim != 1:
            raise ConfigurationError(f"partition times must be a flat list, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ConfigurationError("partition times must be finite")
        if t.size == 0 or t[0] != 0.0:
            raise ConfigurationError("partition must start at time 0")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("partition times must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def dyadic(cls, t: float, level: int) -> "Partition":
        return cls.equidistant(t, 2 ** checked(level, "dyadic level", 0, MAX_LEVEL, integer=True))

    @classmethod
    def equidistant(cls, t: float, n: int) -> "Partition":
        checked(t, "partition end t", above=True)
        checked(n, "partition step count n", 1, 2**MAX_LEVEL, integer=True)
        return cls(np.arange(n + 1) * (t / n))

    @property
    def end(self) -> float:
        return float(self.times[-1])

    @property
    def step_count(self) -> int:
        return self.times.size - 1

    def gaps(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass(frozen=True)
class SimpleStrategy:
    """Per-interval feedback maps from grid points to family member indices;
    the maximizers that nisio_evolve records at a dyadic level are one."""

    grid: TorusGrid
    partition: Partition
    feedback: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        fb = np.asarray(self.feedback)
        # whole-valued floats (np.zeros) pass; NaN and inf fail a comparison
        if fb.dtype.kind not in "iuf" or not np.all((fb == np.round(fb)) & (abs(fb) < 2**53)):
            raise ConfigurationError("strategy feedback entries must be integers")
        fb = fb.astype(np.int64)
        expect = (self.partition.step_count,) + self.grid.shape
        if fb.shape != expect:
            raise ConfigurationError(
                f"feedback shape {fb.shape} must be (intervals, grid points) = {expect}"
            )
        if fb.size and fb.min() < 0:
            raise ConfigurationError("feedback indices must be nonnegative")
        fb.flags.writeable = False
        object.__setattr__(self, "feedback", fb)

    @property
    def step_count(self) -> int:
        return self.partition.step_count


@dataclass(frozen=True)
class LevelRecord:
    level: int
    steps: int
    sup_increment: float
    sup_norm: float
    elapsed_ms: float


@dataclass(frozen=True)
class NisioResult:
    """Dyadic approximation of the worst-case evolution plus diagnostics;
    argmax is the strategy of the recorded maximizers, None if none were."""

    t: float
    value: GridFunction
    converged: bool
    records: tuple[LevelRecord, ...]
    lipschitz_bound: float
    argmax: SimpleStrategy | None = None

    @property
    def levels_used(self) -> int:
        return self.records[-1].level

    @property
    def increments(self) -> tuple[float, ...]:  # levels 1 on: level 0 has none
        return tuple(r.sup_increment for r in self.records[1:])

    def __post_init__(self) -> None:
        for level, inc in enumerate(self.increments, start=1):
            if inc < -INCREMENT_ROUNDING_TOL:
                raise ConsistencyError(
                    f"level {level} sup-norm increment {inc:.3e} is negative beyond rounding"
                )


# -- one-step envelope ---------------------------------------------------------

def apply_J(table: SymbolTable, t: float, f: GridFunction) -> GridFunction:
    """One sup-envelope step: pointwise max over members of the t-evolution."""
    values = table.values_of(f)
    if t == 0:
        return f
    return GridFunction(table.grid, Rider.run(table, t, 1, values).finish())


class Rider:
    """A lane of the lockstep (_drive): a chain of kernel calls on its table.
    Its generator yields runs (x, steps), an input and how many envelope steps
    to take from it, is sent each run's result (a new array it may keep) and
    returns its result, kept in result.  pending is the run it waits on (None
    once it has returned): a driver steps a run whole or not at all, so one
    that stops leaves that run in pending, from its start, for finish().
    mults(out) writes its multipliers into out when a driver seats it, and a
    driver does not step it while paused."""

    def __init__(self, table: SymbolTable, mults, chain):
        self.table, self.mults, self.result, self._chain = table, mults, None, chain
        self.paused = False
        self.take(None)  # starts the chain

    @classmethod
    def run(cls, table: SymbolTable, gap: float, steps: int, x: np.ndarray) -> "Rider":
        """A lane of one run: steps envelope steps of gap from x, its result the last one's."""
        def chain():
            return (yield x, steps)
        return cls(table, functools.partial(table.multipliers, gap), chain())

    def take(self, g: np.ndarray | None) -> None:
        try:
            self.pending = self._chain.send(g)
        except StopIteration as end:
            self.pending, self.result = None, end.value

    def finish(self):
        """Step this lane alone, unpaused, through _drive to its return; its result."""
        self.paused = False
        return _ride([self])[0]


def _drive(lanes):
    """Step lanes, Riders, in lockstep on the first one's table, and yield
    after each tick on which a lane returns; a rider of another table, one
    given twice, or one whose chain raised is refused with ConfigurationError
    before any kernel call.  The lanes in flight are the first batch_rows(grid,
    m) unfinished ones in the order given, each in its slot until it returns,
    and each kernel call steps those not paused, every one bitwise as one-row
    calls step it.  Every run that ends on a tick is taken before the driver
    yields, and the caller may set paused when it does.  Closed, the driver
    leaves each lane in flight at the start of its run, in pending."""
    table = lanes[0].table
    grid, m = table.grid, len(table)
    for other in (lane.table for lane in lanes if lane.table is not table):
        raise ConfigurationError(f"a rider of another table on {other.grid} cannot ride on {grid}")
    if len(set(map(id, lanes))) < len(lanes):
        raise ConfigurationError("a rider given twice cannot ride twice in one lockstep")
    if any(lane.pending is not None and lane._chain.gi_frame is None for lane in lanes):
        raise ConfigurationError("a rider whose chain raised cannot ride again")
    slots = min(batch_rows(grid, m), len(lanes))
    ws = SpectralWorkspace(grid, m, rows=slots)
    vals = np.empty((slots,) + grid.shape)
    mults = np.empty((slots, m) + grid.half_shape, dtype=complex)
    seated, left = [None] * slots, [0] * slots  # each slot's lane and the steps left in its run
    waiting = (lane for lane in lanes if lane.pending is not None)
    while True:
        for i, lane in zip([i for i, lane in enumerate(seated) if lane is None], waiting):
            seated[i] = lane
            vals[i], left[i] = lane.pending
            lane.mults(mults[i])
        # the lanes to step swap into the leading slots, so that one call takes them
        stepped = [i for i, lane in enumerate(seated) if lane is not None and not lane.paused]
        b = len(stepped)
        if not b:
            return
        for i, j in zip(set(range(b)) - set(stepped), set(stepped) - set(range(b))):
            vals[[i, j]], mults[[i, j]] = vals[[j, i]], mults[[j, i]]
            seated[i], seated[j], left[i], left[j] = seated[j], seated[i], left[j], left[i]
        v, mu, ends, tick = vals[:b], mults[:b], left[:b], 0  # the tick each run ends on
        while all(seated[:b]):  # the runs ending on one tick at a time, until a lane returns
            tick, start = min(ends), tick
            for _ in range(tick - start):
                ws.envelope(mu, v, out=v)
            for i in [i for i, end in enumerate(ends) if end == tick]:
                seated[i].take(vals[i].copy())
                if seated[i].pending is None:
                    seated[i], ends[i] = None, math.inf
                else:
                    vals[i], steps = seated[i].pending
                    ends[i] = tick + steps
        left[:b] = [end - tick for end in ends]
        yield


def _ride(lanes) -> list:
    """The lanes' results, once _drive has stepped every one to its return."""
    for _ in _drive(lanes):
        pass
    return [lane.result for lane in lanes]


def nisio_evolve(table: SymbolTable, t: float, f: GridFunction,
                 max_level: int = 12, tol: float = 1e-6,
                 record_argmax_level: int | None = None,
                 monotonicity_tol: float = MONOTONICITY_ERROR_TOL,
                 riders=()) -> NisioResult:
    """Iterate dyadic levels until the sup-norm increment drops below tol.

    tol = 0 disables the increment stop and runs every level, reported as
    non-converged rather than raising.  A pointwise drop beyond
    monotonicity_tol between consecutive levels signals a semigroup bug and
    raises ConsistencyError; the default guard is calibrated for 1D desk grids,
    and envelopes on the 2-torus below n = 128 may need a wider one.  Each
    level is a one-run lane of one _drive, the levels ahead of riders.  After
    each level l >= 2 that does not stop, the ratio rho of its increment to
    level l-1's predicts the stop P, the first level j > l with inc_l *
    rho^(j-l) < tol (max_level when none is): the levels past P + 1, or past P
    when P = l + 1 and level P has never paused, are paused until a later
    prediction reaches them, and level j completes before tick 2^j * 11/8
    whatever the increments (README, "Lockstep levels").  The maximizers of
    record_argmax_level come from one pass of their own after the levels,
    2^record_argmax_level steps: the result's argmax, the SimpleStrategy on
    that level's dyadic partition of each step's maximizing member, in forward
    time.  Recording more than ARGMAX_BUDGET maximizer entries raises
    BudgetError before iterating.  riders, Riders of table, take the slots
    the levels leave, and the stop leaves each one done or at the start of the
    run it was stepping, for its finish() to step to its result.  Records,
    value and maximizers are bitwise those of each level run alone.
    """
    checked(t, "horizon t", above=True)
    max_level = checked(max_level, "max_level", 0, MAX_LEVEL, integer=True)
    checked(tol, "tol")
    checked(monotonicity_tol, "monotonicity_tol", above=True)
    values = table.values_of(f)
    if record_argmax_level is not None:
        record_argmax_level = checked(record_argmax_level, "record_argmax_level", 0, MAX_LEVEL,
                                      integer=True)
        if 2**record_argmax_level * f.grid.size > ARGMAX_BUDGET:
            raise BudgetError(
                f"recording the maximizers of 2^{record_argmax_level} steps on "
                f"{f.grid.size} grid points exceeds the budget of {ARGMAX_BUDGET:.0e} entries"
            )

    l_f = lipschitz_bound(table, f)

    records: list[LevelRecord] = []
    converged = False
    # level l takes 2^l steps, so the levels complete in order, ahead of the
    # riders; the stop drops the levels still in flight
    levels = [Rider.run(table, t / 2**level, 2**level, values) for level in range(max_level + 1)]
    drive = _drive(levels + list(riders))
    lowest = max_level + 1  # the fewest levels stepped so far
    start = time.perf_counter()
    for level, lane in enumerate(levels):
        while lane.pending is not None:
            next(drive)
        new_values, lane.result = lane.result, None  # so that each old level is freed
        now = time.perf_counter()
        elapsed, start = (now - start) * 1e3, now
        inc = float("nan")  # level 0 has no coarser level to compare with
        if level > 0:
            # the difference overwrites the predecessor, a _drive copy
            diff = np.subtract(new_values, values, out=values)
            drop = float(np.min(diff))
            if drop < -monotonicity_tol:
                raise ConsistencyError(
                    f"dyadic level {level} drops below level {level - 1} by {-drop:.3e}; "
                    "refinement must be monotone"
                )
            inc = float(np.max(diff))
        records.append(LevelRecord(level, 2**level, inc, _sup_norm(new_values), elapsed))
        values = new_values
        if tol > 0 and inc < tol:
            converged = True
            break
        if tol > 0 and level >= 2:
            # neither this level nor the one before stopped, so both increments
            # are >= tol > 0; their ratio predicts the stop P, the first level
            # whose geometric increment is below tol (max_level if it never
            # is).  Step the levels <= P, and P + 1 as well unless P is the
            # next level and has never paused
            rho, stop, guess = inc / records[-2].sup_increment, level, inc
            while guess >= tol and stop < max_level:
                stop, guess = stop + 1, guess * rho
            stepped = stop + 1 + (stop > level + 1 or lowest <= stop)
            lowest = min(lowest, stepped)
            for j, later in enumerate(levels):
                later.paused = j >= stepped
    drive.close()  # frees the lockstep buffers now, not when the function returns

    argmax = None
    if record_argmax_level is not None:
        steps = 2**record_argmax_level
        ws = SpectralWorkspace(table.grid, len(table))
        mults = table.multipliers(t / steps)[None]  # one row's set
        selections = np.empty((steps,) + table.grid.shape, dtype=np.int64)
        v = f.values[None].copy()  # one row
        for step in range(steps - 1, -1, -1):  # forward-time step, the last applied first
            ws.envelope(mults, v, out=v, argmax=selections[step, None])
        argmax = SimpleStrategy(table.grid, Partition.dyadic(t, record_argmax_level),
                                selections)

    return NisioResult(
        t=t,
        value=GridFunction(table.grid, values),
        converged=converged,
        records=tuple(records),
        lipschitz_bound=l_f,
        argmax=argmax,
    )


# -- generator-side diagnostics --------------------------------------------------

def generator_sup(table: SymbolTable, f: GridFunction) -> GridFunction:
    """Pointwise maximum of the member generators applied to f."""
    ws = SpectralWorkspace(table.grid, len(table))
    return GridFunction(table.grid, ws.envelope(table.psi[None], table.values_of(f)[None])[0])


def lipschitz_bound(table: SymbolTable, f: GridFunction) -> float:
    """Largest member generator sup-norm at f; the step-regularity constant.
    The members are evolved one at a time, through one member's buffers, and
    each one's sup norm is read from its minimum and maximum."""
    values = table.values_of(f)[None]
    ws = SpectralWorkspace(table.grid, 1)
    return max(_sup_norm(ws.apply(row, values)) for row in table.psi[:, None, None])


def generator_limit_table(table: SymbolTable, f: GridFunction,
                          h_list) -> list[tuple[float, float]]:
    """Error of the difference quotient (S(h)f - f)/h against the sup-generator.

    S(h) is refined to dyadic level max(8, ceil(log2(1/h)) + 4) so the inner
    refinement error stays well below the quotient error being measured.  The
    rows are one lane each of one _drive, h_list checked before any kernel call."""
    hs = [float(checked(h, "h_list entry", above=True))
          for h in (h_list if hasattr(h_list, "__iter__") and getattr(h_list, "ndim", 1) else [])]
    if not hs:
        raise ConfigurationError(f"h_list must be a nonempty list of steps h, got {h_list!r}")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ConfigurationError("h_list must be strictly decreasing")
    if hs[-1] < 2.0 ** (4 - MAX_LEVEL):
        raise ConfigurationError(f"h_list entries must be at least 2^{4 - MAX_LEVEL}, so that "
                                 f"S(h) needs at most dyadic level {MAX_LEVEL}, got {hs[-1]:g}")
    target = generator_sup(table, f).values
    steps = [2 ** max(8, math.ceil(math.log2(1.0 / h)) + 4) for h in hs]
    rows = _ride([Rider.run(table, h / n, n, f.values) for h, n in zip(hs, steps)])
    for h, values in zip(hs, rows):
        values -= f.values  # (values - f) / h - target, in place in the driver's copy
        values /= h
        values -= target
    return [(h, _sup_norm(values)) for h, values in zip(hs, rows)]


# -- CSV emission ----------------------------------------------------------------

def write_convergence_csv(path, result: NisioResult) -> None:
    write_table(path, ["level", "steps", "sup_increment", "sup_norm", "elapsed_ms"],
                [(r.level, r.steps, r.sup_increment, r.sup_norm, r.elapsed_ms)
                 for r in result.records])


def write_argmax_csv(path, strategy: SimpleStrategy) -> None:
    write_grid_table(path, strategy.grid, _csv_header(strategy.grid.dim, "step", "lambda_index"),
                     enumerate(strategy.feedback), fmt="%d")


def write_generator_limit_csv(path, rows) -> None:
    write_table(path, ["h", "error"], rows)
