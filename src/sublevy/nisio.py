"""Worst-case evolution by dyadic sup-envelope iteration.

One step of length t applies every member semigroup and takes the pointwise
maximum; composing steps over a refining partition drives the monotone limit
that defines the nonlinear evolution.  Dyadic levels n = 0, 1, 2, ... are
nested, so the per-level sup-norm increase is a machine-checkable
monotonicity diagnostic, and the recorded per-step maximizer fields feed
strategy extraction for the Monte Carlo dual.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConsistencyError
from .grid import GridFunction, TorusGrid, sup_distance
from .levy import SpectralWorkspace, SymbolTable, apply_multipliers, family_constant

MAX_LEVEL = 20
MONOTONICITY_ERROR_TOL = 1e-8
INCREMENT_ROUNDING_TOL = 1e-10


@dataclass(frozen=True)
class Partition:
    """Finite time partition 0 = t_0 < t_1 < ... < t_m."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float).reshape(-1)
        if t.size == 0 or t[0] != 0.0:
            raise ConfigurationError("partition must start at time 0")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("partition times must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def dyadic(cls, t: float, level: int) -> "Partition":
        if t <= 0 or level < 0:
            raise ConfigurationError("dyadic partition needs t > 0 and level >= 0")
        steps = 2**level
        return cls(np.arange(steps + 1) * (t / steps))

    @classmethod
    def equidistant(cls, t: float, n: int) -> "Partition":
        if t <= 0 or n < 1:
            raise ConfigurationError("equidistant partition needs t > 0 and n >= 1")
        return cls(np.arange(n + 1) * (t / n))

    @property
    def end(self) -> float:
        return float(self.times[-1])

    @property
    def step_count(self) -> int:
        return self.times.size - 1

    @property
    def mesh(self) -> float:
        if self.step_count == 0:
            return 0.0
        return float(np.max(np.diff(self.times)))

    def gaps(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass(frozen=True)
class ArgmaxField:
    """Maximizing member index per composition step (forward time) per point."""

    level: int
    selections: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        sel = np.asarray(self.selections, dtype=np.int64)
        sel = sel.copy()
        sel.flags.writeable = False
        object.__setattr__(self, "selections", sel)

    @property
    def step_count(self) -> int:
        return self.selections.shape[0]


@dataclass(frozen=True)
class LevelRecord:
    level: int
    steps: int
    sup_increment: float
    sup_norm: float
    elapsed_ms: float


@dataclass(frozen=True)
class NisioResult:
    """Dyadic approximation of the worst-case evolution plus diagnostics."""

    t: float
    value: GridFunction
    levels_used: int
    converged: bool
    increments: tuple[float, ...]
    records: tuple[LevelRecord, ...]
    lipschitz_bound: float
    family_constant: float
    argmax: ArgmaxField | None = None

    def __post_init__(self) -> None:
        for level, inc in enumerate(self.increments, start=1):
            if inc < -INCREMENT_ROUNDING_TOL:
                raise ConsistencyError(
                    f"level {level} sup-norm increment {inc:.3e} is negative beyond rounding"
                )


# -- one-step envelope ---------------------------------------------------------

def apply_J(table: SymbolTable, t: float, f: GridFunction,
            record_argmax: bool = False) -> tuple[GridFunction, np.ndarray | None]:
    """One sup-envelope step: pointwise max over members of the t-evolution.

    The optional second return holds the maximizing member index per grid
    point (ties broken by lowest index).
    """
    if t < 0:
        raise ConfigurationError(f"step time must be nonnegative, got {t}")
    if f.grid != table.grid:
        raise ConfigurationError("grid function does not live on the table's grid")
    if t == 0:
        am = np.zeros(table.grid.shape, dtype=np.int64) if record_argmax else None
        return f, am
    stack = apply_multipliers(table.grid, table.multipliers(t), f.values)
    am = np.argmax(stack, axis=0) if record_argmax else None
    return GridFunction(table.grid, np.max(stack, axis=0)), am


def apply_partition(table: SymbolTable, pi: Partition, f: GridFunction) -> GridFunction:
    """Compose one envelope step per partition gap, last interval applied first."""
    if f.grid != table.grid:
        raise ConfigurationError("grid function does not live on the table's grid")
    ws = SpectralWorkspace(table.grid, len(table))
    out = np.empty(table.grid.shape)
    values = f.values
    for gap in pi.gaps()[::-1]:
        values = np.max(ws.apply(table.multipliers(float(gap)), values), axis=0, out=out)
    return GridFunction(table.grid, values)


def _iterate_uniform(table: SymbolTable, gap: float, steps: int, values: np.ndarray,
                     record: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """steps-fold composition of the gap-step envelope, optionally recording
    the maximizer fields in forward-time order.  The input array is only
    read; the returned array is new to this call."""
    mults = table.multipliers(gap)
    ws = SpectralWorkspace(table.grid, len(table))
    out = np.empty(table.grid.shape)
    am = np.empty((steps,) + table.grid.shape, dtype=np.int64) if record else None
    for j in range(steps):
        stack = ws.apply(mults, values)
        if record:
            # iteration j consumes the value with j steps remaining, which is
            # the lookahead for forward-time interval steps-1-j
            np.argmax(stack, axis=0, out=am[steps - 1 - j])
        values = np.max(stack, axis=0, out=out)
    return values, am


def nisio_evolve(table: SymbolTable, t: float, f: GridFunction,
                 max_level: int = 12, tol: float = 1e-6,
                 record_argmax_level: int | None = None,
                 monotonicity_tol: float = MONOTONICITY_ERROR_TOL) -> NisioResult:
    """Iterate dyadic levels until the sup-norm increment drops below tol.

    tol = 0 disables the increment stop and runs the full level budget; the
    result is then reported as non-converged rather than raising.  A pointwise
    drop beyond monotonicity_tol between consecutive levels signals a
    semigroup bug and raises ConsistencyError.  The default guard is
    calibrated for one-dimensional desk grids; envelopes on the 2-torus below
    n = 128 carry more spectral truncation at the maximizer interfaces and
    may need a wider guard.
    """
    if t <= 0:
        raise ConfigurationError(f"horizon must be positive, got {t}")
    if not 0 <= max_level <= MAX_LEVEL:
        raise ConfigurationError(f"max_level must be in [0, {MAX_LEVEL}], got {max_level}")
    if tol < 0:
        raise ConfigurationError(f"tolerance must be nonnegative, got {tol}")
    if monotonicity_tol <= 0:
        raise ConfigurationError("monotonicity guard must be positive")
    if f.grid != table.grid:
        raise ConfigurationError("grid function does not live on the table's grid")
    if not math.isfinite(t * table.max_abs_symbol()):
        raise ConfigurationError(f"horizon {t:g} is too long for this grid: t * |psi| overflows")

    l_f = lipschitz_bound(table, f)
    const = family_constant(table.family)

    start = time.perf_counter()
    values, _ = _iterate_uniform(table, t, 1, f.values, record=False)
    records = [LevelRecord(0, 1, float("nan"), float(np.max(np.abs(values))),
                           (time.perf_counter() - start) * 1e3)]
    increments: list[float] = []
    converged = False
    level = 0
    for level in range(1, max_level + 1):
        steps = 2**level
        start = time.perf_counter()
        new_values, _ = _iterate_uniform(table, t / steps, steps, f.values, record=False)
        elapsed = (time.perf_counter() - start) * 1e3
        diff = new_values - values
        drop = float(np.min(diff))
        if drop < -monotonicity_tol:
            raise ConsistencyError(
                f"dyadic level {level} drops below level {level - 1} by {-drop:.3e}; "
                "refinement must be monotone"
            )
        inc = float(np.max(diff))
        increments.append(inc)
        records.append(LevelRecord(level, steps, inc, float(np.max(np.abs(new_values))),
                                   elapsed))
        values = new_values
        if tol > 0 and inc < tol:
            converged = True
            break

    argmax = None
    if record_argmax_level is not None:
        if not 0 <= record_argmax_level <= MAX_LEVEL:
            raise ConfigurationError(f"argmax level must be in [0, {MAX_LEVEL}]")
        steps = 2**record_argmax_level
        _, selections = _iterate_uniform(table, t / steps, steps, f.values, record=True)
        argmax = ArgmaxField(record_argmax_level, selections)

    return NisioResult(
        t=t,
        value=GridFunction(table.grid, values),
        levels_used=level,
        converged=converged,
        increments=tuple(increments),
        records=tuple(records),
        lipschitz_bound=l_f,
        family_constant=const,
        argmax=argmax,
    )


def chernoff_equidistant(table: SymbolTable, t: float, f: GridFunction,
                         n: int) -> GridFunction:
    """n-fold composition of the t/n envelope step; for n = 2^m this matches
    the dyadic level-m iterate bitwise."""
    if t <= 0:
        raise ConfigurationError(f"horizon must be positive, got {t}")
    if n < 1:
        raise ConfigurationError(f"step count must be at least 1, got {n}")
    values, _ = _iterate_uniform(table, t / n, n, f.values, record=False)
    return GridFunction(table.grid, values)


# -- generator-side diagnostics --------------------------------------------------

def generator_sup(table: SymbolTable, f: GridFunction) -> GridFunction:
    """Pointwise maximum of the member generators applied to f."""
    if f.grid != table.grid:
        raise ConfigurationError("grid function does not live on the table's grid")
    stack = apply_multipliers(table.grid, table.psi_half, f.values)
    return GridFunction(table.grid, np.max(stack, axis=0))


def lipschitz_bound(table: SymbolTable, f: GridFunction) -> float:
    """Largest member generator sup-norm at f; the step-regularity constant."""
    return float(np.max(np.abs(apply_multipliers(table.grid, table.psi_half, f.values))))


def dpp_check(table: SymbolTable, s: float, t: float, f: GridFunction,
              level: int) -> float:
    """Sup distance between the (s+t)-evolution and the composed s- then
    t-evolution, all at the same dyadic level."""
    if s <= 0 or t <= 0:
        raise ConfigurationError("dynamic programming check needs s > 0 and t > 0")
    if not 0 <= level <= MAX_LEVEL:
        raise ConfigurationError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    steps = 2**level
    joint, _ = _iterate_uniform(table, (s + t) / steps, steps, f.values, record=False)
    inner, _ = _iterate_uniform(table, t / steps, steps, f.values, record=False)
    outer, _ = _iterate_uniform(table, s / steps, steps, inner, record=False)
    return float(np.max(np.abs(joint - outer)))


def generator_limit_table(table: SymbolTable, f: GridFunction,
                          h_list) -> list[tuple[float, float]]:
    """Error of the difference quotient (S(h)f - f)/h against the sup-generator.

    S(h) is refined to dyadic level max(8, ceil(log2(1/h)) + 4) so the inner
    refinement error stays well below the quotient error being measured.
    """
    hs = [float(h) for h in h_list]
    if not hs:
        raise ConfigurationError("h_list must be nonempty")
    if any(h <= 0 for h in hs):
        raise ConfigurationError("h_list entries must be positive")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ConfigurationError("h_list must be strictly decreasing")
    target = generator_sup(table, f)
    rows = []
    for h in hs:
        level = max(8, math.ceil(math.log2(1.0 / h)) + 4)
        steps = 2**level
        values, _ = _iterate_uniform(table, h / steps, steps, f.values, record=False)
        err = float(np.max(np.abs((values - f.values) / h - target.values)))
        rows.append((h, err))
    return rows


def partition_continuity_probe(table: SymbolTable, pi: Partition, f: GridFunction,
                               eps: float) -> float:
    """Largest sup-distance caused by moving a single partition time by eps."""
    if eps < 0:
        raise ConfigurationError(f"perturbation must be nonnegative, got {eps}")
    if eps == 0:
        return 0.0
    if pi.step_count == 0:
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "steps", "sup_increment", "sup_norm", "elapsed_ms"])
        for rec in result.records:
            w.writerow([rec.level, rec.steps, f"{rec.sup_increment:.17g}",
                        f"{rec.sup_norm:.17g}", f"{rec.elapsed_ms:.17g}"])


def write_argmax_csv(path, grid: TorusGrid, argmax: ArgmaxField) -> None:
    mesh = [m.ravel() for m in grid.meshgrid()]
    head = ["step", "index", "x", "lambda_index"] if grid.dim == 1 else \
        ["step", "index", "x", "y", "lambda_index"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(head)
        for step in range(argmax.step_count):
            flat = argmax.selections[step].ravel()
            for i in range(grid.size):
                coords = [f"{m[i]:.17g}" for m in mesh]
                w.writerow([step, i, *coords, int(flat[i])])


def write_generator_limit_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["h", "error"])
        for h, err in rows:
            w.writerow([f"{h:.17g}", f"{err:.17g}"])
