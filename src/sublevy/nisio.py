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

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigurationError, ConsistencyError
from .grid import (GridFunction, TorusGrid, _csv_header, _sup_norm, checked, sup_distance,
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
        t = np.asarray(self.times, dtype=float).reshape(-1)
        if not np.all(np.isfinite(t)):
            raise ConfigurationError("partition times must be finite")
        if t.size == 0 or t[0] != 0.0:
            raise ConfigurationError("partition must start at time 0")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("partition times must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def dyadic(cls, t: float, level: int) -> "Partition":
        return cls.equidistant(t, 2 ** checked(level, "dyadic level", integer=True))

    @classmethod
    def equidistant(cls, t: float, n: int) -> "Partition":
        checked(t, "partition end t", above=True)
        checked(n, "partition step count n", 1, integer=True)
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
        fb = np.asarray(self.feedback, dtype=np.int64)
        expect = (self.partition.step_count,) + self.grid.shape
        if fb.shape != expect:
            raise ConfigurationError(
                f"feedback shape {fb.shape} must be (intervals, grid points) = {expect}"
            )
        if fb.size and fb.min() < 0:
            raise ConfigurationError("feedback indices must be nonnegative")
        fb = fb.copy()
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
    return GridFunction(table.grid, next(_compose(table, [(t, 1)], values)))


def apply_partition(table: SymbolTable, pi: Partition, f: GridFunction) -> GridFunction:
    """Compose one envelope step per partition gap, last interval applied first."""
    values = table.values_of(f)
    for run in reversed(_runs(pi)):
        values = next(_compose(table, [run], values))
    return GridFunction(table.grid, values)


def _runs(pi: Partition) -> list[tuple[float, int]]:
    """(step, count) runs of a partition's gaps in forward-time order.  Gaps that
    differ only by the rounding of the partition times form one run, stepped by
    (run end - run start) / count: a dyadic partition is one run of t / 2^level."""
    times, gaps = pi.times.tolist(), pi.gaps()
    tol = 4.0 * float(np.spacing(pi.end))
    runs, start = [], 0
    for j in range(1, gaps.size + 1):
        if j == gaps.size or abs(gaps[j] - gaps[start]) > tol:
            runs.append(((times[j] - times[start]) / (j - start), j - start))
            start = j
    return runs


class Rider:
    """A chain of kernel calls on table that _compose rides: a generator that
    yields runs (x, steps), an input and how many envelope steps of mults to
    take from it, is sent each run's result (a new array it may keep) and
    returns its result, kept in result.  pending is the run it waits on (None
    once it has returned), where a driver that stops mid-run leaves the rest."""

    def __init__(self, table: SymbolTable, mults: np.ndarray, chain):
        self.table, self.mults, self.result, self._chain = table, mults, None, chain
        self.take(None)  # starts the chain

    def take(self, g: np.ndarray | None) -> None:
        try:
            self.pending = self._chain.send(g)
        except StopIteration as end:
            self.pending, self.result = None, end.value


def _compose(table: SymbolTable, rows, values: np.ndarray, riders=()):
    """Compose envelope steps for independent rows in lockstep; yields each row's
    result, a new array, in row order.  A row is one run (gap, count) of count >= 1
    equal steps from values, which is only read; rows come in order of count, so
    that they complete in row order (any other order raises ConsistencyError).
    Each kernel call steps every row in flight, at most batch_rows(grid, m) of
    them, and the next row enters when one completes.  A caller may send, in
    place of next, how many leading rows (from row 0, the completed ones
    included) are stepped from then on: the rows after them pause until a
    later send reaches them.  The next row to complete is always stepped, and
    each row is bitwise what a call on it alone gives.

    riders, Riders of this table (one of another is refused with
    ConfigurationError), take slots ahead of the rows': each call also steps
    every pending rider run, and once the rows are done the calls carry the
    riders alone until every chain returns.  Where a call takes one row it
    costs its points: riders then ride only without rows, one at a time."""
    counts = [count for _, count in rows]
    if counts != sorted(counts) or min(counts, default=1) < 1:
        raise ConsistencyError(f"rows need step counts >= 1 in nondecreasing order, got {counts}")
    grid, m = table.grid, len(table)
    for other in (rider.table for rider in riders if rider.table is not table):
        raise ConfigurationError(f"a rider of another table on {other.grid} cannot ride on {grid}")
    batch = batch_rows(grid, m)
    cap = min(batch, len(rows))
    spare = len(riders) if batch >= 2 else min(len(riders), int(not rows))  # rider slots
    ws = SpectralWorkspace(grid, m, rows=spare + cap)
    vals = np.empty((spare + cap,) + grid.shape)
    mults = np.empty((spare + cap, m) + grid.half_shape, dtype=complex)
    row_vals, row_mults = vals[spare:], mults[spare:]
    waiting = iter(rows)
    # per slot in flight, the steps its row has left; a paused slot keeps its
    # count and every slot ahead of it is stepped, so the counts stay in order
    done, stepped, left = 0, len(rows), []
    while True:
        for gap, count in itertools.islice(waiting, cap - len(left)):
            row_vals[len(left)] = values
            table.multipliers(gap, out=row_mults[len(left)])
            left.append(count)
        seat = [rider for rider in riders if rider.pending is not None][:spare]
        if not (left or seat):
            return
        lo = spare - len(seat)  # the riders' slots, just ahead of the rows'
        due = [rider.pending[1] for rider in seat]  # the steps left in each one's run
        for i, rider in enumerate(seat, lo):
            mults[i], vals[i] = rider.mults, rider.pending[0]
        b = len(left)
        k = min(b, max(1, stepped - done))
        v, mu = vals[lo:spare + k], mults[lo:spare + k]
        slots = list(zip(seat, vals[lo:spare]))
        n, ahead, ended = 0, left[0] if left else math.inf, False
        while n < ahead and not ended:  # until row 0 completes or a chain returns
            step = min([ahead - n, *due])
            for _ in range(step):
                ws.envelope(mu, v, out=v)
            n += step
            for j, (rider, slot) in enumerate(slots):
                due[j] -= step
                if not due[j]:
                    rider.take(slot.copy())
                    ended |= rider.pending is None
                    if rider.pending is not None:
                        slot[...], due[j] = rider.pending
        for j, (rider, slot) in enumerate(slots):  # each keeps the rest of its run
            if rider.pending is not None:
                rider.pending = slot.copy(), due[j]
        left = [s - n for s in left[:k]] + left[k:]
        if left and not left[0]:
            done += 1
            sent = yield row_vals[0].copy()
            stepped = stepped if sent is None else sent
            left = left[1:]
            row_vals[:b - 1], row_mults[:b - 1] = row_vals[1:b], row_mults[1:b]


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
    and envelopes on the 2-torus below n = 128 may need a wider one.  The
    levels run in lockstep (_compose).  After each level l >= 2 that does not
    stop, the ratio rho of its increment to level l-1's predicts the stop P,
    the first level j > l with inc_l * rho^(j-l) < tol (max_level when none
    is): only the levels <= P + 1 are stepped, or <= P when P = l + 1 and level
    P has never paused.  A level past them pauses until a later prediction
    reaches it, and level j completes before tick 2^j * 11/8 whatever the
    increments (README, "Lockstep levels").  The maximizers of
    record_argmax_level come from one pass of their own after the levels,
    2^record_argmax_level steps: the result's argmax, the SimpleStrategy on
    that level's dyadic partition of each step's maximizing member, in forward
    time.  Recording more than ARGMAX_BUDGET maximizer entries raises
    BudgetError before iterating.  riders ride in the levels' calls, which leave
    them done or with the rest to their own functions.  Records, value and
    maximizers are bitwise those of each level run alone.
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
    # _compose needs its rows in order of step count: level l takes 2^l steps,
    # so the levels complete in order; the stop drops the levels still in flight
    levels = _compose(table, [(t / 2**level, 2**level) for level in range(max_level + 1)],
                      values, riders)
    stepped = None  # the levels _compose steps, by count from level 0; None for all
    lowest = max_level + 1  # the fewest levels stepped so far
    start = time.perf_counter()
    for level in range(max_level + 1):
        new_values = levels.send(stepped)
        now = time.perf_counter()
        elapsed, start = (now - start) * 1e3, now
        inc = float("nan")  # level 0 has no coarser level to compare with
        if level > 0:
            # the difference overwrites the predecessor, a _compose copy
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
    levels.close()  # frees the lockstep buffers now, not when the function returns

    argmax = None
    if record_argmax_level is not None:
        steps = 2**record_argmax_level
        ws = SpectralWorkspace(table.grid, len(table))
        mults = table.multipliers(t / steps)
        selections = np.empty((steps,) + table.grid.shape, dtype=np.int64)
        v = f.values.copy()
        for step in range(steps - 1, -1, -1):  # forward-time step, the last applied first
            ws.envelope(mults, v, out=v, argmax=selections[step])
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
    return GridFunction(table.grid, ws.envelope(table.psi, table.values_of(f)))


def lipschitz_bound(table: SymbolTable, f: GridFunction) -> float:
    """Largest member generator sup-norm at f; the step-regularity constant.
    The members are evolved one at a time, through one member's buffers, and
    each one's sup norm is read from its minimum and maximum."""
    values = table.values_of(f)
    ws = SpectralWorkspace(table.grid, 1)
    return max(_sup_norm(ws.apply(row[None], values)) for row in table.psi)


def dpp_check(table: SymbolTable, s: float, t: float, f: GridFunction,
              level: int) -> float:
    """Sup distance between the (s+t)-evolution and the composed s- then
    t-evolution, all at the same dyadic level.  The joint row and the t-run go
    in one lockstep pass, then the s-run on the t-run's result."""
    checked(s, "time s", above=True)
    checked(t, "time t", above=True)
    steps = 2 ** checked(level, "level", 0, MAX_LEVEL, integer=True)
    rows = [((s + t) / steps, steps), (t / steps, steps)]
    joint, later = _compose(table, rows, table.values_of(f))
    composed = next(_compose(table, [(s / steps, steps)], later))
    return _sup_norm(np.subtract(joint, composed, out=joint))  # joint is a _compose copy


def generator_quotients(table: SymbolTable, f: GridFunction, h_list) -> list[Rider]:
    """generator_limit_table's rows as Riders, h_list checked first; results (h, error)."""
    hs = [float(checked(h, "h_list entry", above=True)) for h in h_list]
    if not hs:
        raise ConfigurationError("h_list must be nonempty")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ConfigurationError("h_list must be strictly decreasing")
    if hs[-1] < 2.0 ** (4 - MAX_LEVEL):
        raise ConfigurationError(f"h_list entries must be at least 2^{4 - MAX_LEVEL}, so that "
                                 f"S(h) needs at most dyadic level {MAX_LEVEL}, got {hs[-1]:g}")
    target = generator_sup(table, f).values
    def quotient(h, steps):  # steps envelope steps from f, then (h, error)
        values = yield f.values, steps
        values -= f.values  # (values - f) / h - target, in place in the last step's result
        values /= h
        values -= target
        return h, _sup_norm(values)

    steps = [2 ** max(8, math.ceil(math.log2(1.0 / h)) + 4) for h in hs]
    return [Rider(table, table.multipliers(h / n), quotient(h, n)) for h, n in zip(hs, steps)]


def generator_limit_table(table: SymbolTable, f: GridFunction, h_list,
                          quotients: list[Rider] | None = None) -> list[tuple[float, float]]:
    """Error of the difference quotient (S(h)f - f)/h against the sup-generator.

    S(h) is refined to dyadic level max(8, ceil(log2(1/h)) + 4) so the inner
    refinement error stays well below the quotient error being measured.
    quotients, when given, are generator_quotients(table, f, h_list) after
    nisio_evolve has stepped part of them; the rest is stepped here, together."""
    quotients = generator_quotients(table, f, h_list) if quotients is None else quotients
    next(_compose(table, [], None, quotients), None)  # with no rows it yields nothing
    return [q.result for q in quotients]


def partition_continuity_probe(table: SymbolTable, pi: Partition, f: GridFunction,
                               eps: float) -> float:
    """Largest sup-distance caused by moving a single partition time by eps."""
    checked(eps, "perturbation eps")
    table.values_of(f)  # refused even when nothing moves
    if eps == 0 or pi.step_count == 0:
        return 0.0
    min_gap = float(np.min(pi.gaps()))
    if eps >= 0.5 * min_gap:
        raise ConfigurationError(
            f"perturbation {eps} must be below half the minimum gap {min_gap}"
        )
    base = apply_partition(table, pi, f)
    worst = 0.0
    for j in range(1, pi.times.size):
        for sign in (1.0, -1.0):
            times = pi.times.copy()
            times[j] += sign * eps
            moved = apply_partition(table, Partition(times), f)
            worst = max(worst, sup_distance(base, moved))
    return worst


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
