"""Monte Carlo dual: feedback-controlled paths bound the envelope from below.

A simple strategy fixes a time partition and, per interval, a finite-range
feedback map from grid points to family members.  Simulating the controlled
path and averaging the payoff yields a lower bound on the worst-case value;
the feedback extracted from the recorded maximizer fields should come within
the scheme tolerance of attaining it.

Paths run in blocks of BLOCK_PATHS; block b draws from the Philox stream keyed
by (seed, b).  On each step every member draws once for every path of the
block, and every strategy on that partition advances on those draws, so
results are bitwise reproducible and strategies share their random numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError
from .grid import GridFunction, TorusGrid, read_json, wrap_point, write_table
from .levy import GeneratorFamily, sample_increments
from .nisio import NisioResult, Partition

MIN_PATHS = 100
BLOCK_PATHS = 1024  # paths simulated together on one random stream


@dataclass(frozen=True)
class SimpleStrategy:
    """Per-interval feedback maps from grid points to family member indices."""

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


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ConfigurationError("standard error cannot be negative")


def constant_strategy(grid: TorusGrid, partition: Partition, index: int) -> SimpleStrategy:
    fb = np.full((partition.step_count,) + grid.shape, int(index), dtype=np.int64)
    return SimpleStrategy(grid, partition, fb)


def random_strategy(grid: TorusGrid, partition: Partition, member_count: int,
                    rng: Generator) -> SimpleStrategy:
    fb = rng.integers(0, member_count, size=(partition.step_count,) + grid.shape)
    return SimpleStrategy(grid, partition, fb)


def extract_strategy(result: NisioResult, level: int) -> SimpleStrategy:
    """Turn the recorded maximizer fields of a dyadic run into feedback maps."""
    argmax = result.argmax
    if argmax is None or argmax.level != level:
        have = "none" if argmax is None else f"level {argmax.level}"
        raise ConfigurationError(f"argmax not recorded at level {level} (have {have})")
    partition = Partition.dyadic(result.t, level)
    return SimpleStrategy(result.value.grid, partition, argmax.selections)


def interpolate_linear(f: GridFunction, point):
    """Periodic multilinear interpolation of a grid function at one torus point
    (a float) or at an (n, d) batch of points (an array of n values)."""
    grid = f.grid
    p = np.asarray(point, dtype=float)
    single = p.ndim <= 1
    pts = np.atleast_1d(p)[None] if single else p
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ConfigurationError(f"point must have {grid.dim} coordinates")
    u = (pts + np.pi) / grid.spacing
    i0 = np.floor(u).astype(np.int64)
    frac = u - i0
    i0 %= grid.n
    i1 = (i0 + 1) % grid.n
    v = f.values
    if grid.dim == 1:
        out = v[i0[:, 0]] * (1 - frac[:, 0]) + v[i1[:, 0]] * frac[:, 0]
    else:
        fx, fy = frac.T
        out = (
            v[i0[:, 0], i0[:, 1]] * (1 - fx) * (1 - fy)
            + v[i1[:, 0], i0[:, 1]] * fx * (1 - fy)
            + v[i0[:, 0], i1[:, 1]] * (1 - fx) * fy
            + v[i1[:, 0], i1[:, 1]] * fx * fy
        )
    return float(out[0]) if single else out


def check_strategies(strategies, members: int, t: float) -> None:
    """Refuse strategies whose partition does not end at the horizon t or whose
    feedback selects a member outside 0..members-1."""
    for s in strategies:
        end = s.partition.end
        if abs(end - t) > 1e-12 * max(1.0, t):
            raise ConfigurationError(f"strategy partition ends at {end}, horizon is {t}")
    top = max((int(s.feedback.max(initial=0)) for s in strategies), default=0)
    if top >= members:
        raise ConfigurationError(f"feedback selects member {top}, family has {members}")


def simulate_paths(family: GeneratorFamily, strategies, x0, t: float,
                   rng: Generator, size: int) -> np.ndarray:
    """Advance size controlled paths from x0 under each of strategies, which
    share one grid and one partition; returns the terminal torus points, shape
    (strategies, size, d).  On each step every member draws size increments
    once and every strategy's paths advance on those draws; the feedback is
    looked up at the nearest grid point of each current position."""
    if not strategies or any(s.grid != strategies[0].grid or not np.array_equal(
            s.partition.times, strategies[0].partition.times) for s in strategies):
        raise ConfigurationError("simulate_paths needs strategies on one grid and one partition")
    check_strategies(strategies, len(family), t)
    grid, partition = strategies[0].grid, strategies[0].partition
    start = wrap_point(np.atleast_1d(np.asarray(x0, dtype=float)))
    if start.shape != (grid.dim,):
        raise ConfigurationError(f"start point must have {grid.dim} coordinates")
    pos = np.tile(start, (len(strategies), size, 1))
    for j, dt in enumerate(partition.gaps()):
        draws = np.stack([sample_increments(q, float(dt), rng, size) for q in family.members])
        cells = np.rint((pos + np.pi) / grid.spacing).astype(np.int64) % grid.n
        member = np.stack([s.feedback[j][tuple(c.T)] for s, c in zip(strategies, cells)])
        pos = wrap_point(pos + draws[member, np.arange(size)])
    return pos


def path_payoffs(family: GeneratorFamily, strategies, f: GridFunction, x0,
                 t: float, n_paths: int, seed: int) -> np.ndarray:
    """Payoff of each of n_paths controlled paths under each strategy, shape
    (strategies, n_paths).  Strategies with the same partition times are
    simulated together; each such group replays the (seed, block) streams, so
    a full block's payoffs depend on neither n_paths nor the other strategies."""
    if n_paths < MIN_PATHS:
        raise ConfigurationError(f"need at least {MIN_PATHS} paths, got {n_paths}")
    if any(s.grid != f.grid for s in strategies):
        raise ConfigurationError("payoff function and strategy live on different grids")
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(strategies):
        groups.setdefault(tuple(s.partition.times.tolist()), []).append(i)
    payoffs = np.empty((len(strategies), n_paths))
    for block, lo in enumerate(range(0, n_paths, BLOCK_PATHS)):
        size = min(BLOCK_PATHS, n_paths - lo)
        for members in groups.values():
            rng = Generator(Philox(key=np.array([seed, block], dtype=np.uint64)))
            ends = simulate_paths(family, [strategies[i] for i in members], x0, t, rng, size)
            payoffs[members, lo:lo + size] = interpolate_linear(
                f, ends.reshape(-1, f.grid.dim)).reshape(len(members), size)
    return payoffs


def _summary(payoffs: np.ndarray, seed: int) -> McEstimate:
    stderr = float(np.std(payoffs, ddof=1) / math.sqrt(payoffs.size))
    return McEstimate(float(np.mean(payoffs)), stderr, payoffs.size, seed)


def estimate(family: GeneratorFamily, strat: SimpleStrategy, f: GridFunction, x0,
             t: float, n_paths: int, seed: int) -> McEstimate:
    """Mean payoff over n_paths controlled paths, with its standard error; the
    row of path_payoffs for this strategy alone."""
    return _summary(path_payoffs(family, [strat], f, x0, t, n_paths, seed)[0], seed)


@dataclass(frozen=True)
class BoundRow:
    name: str
    mean: float
    stderr: float
    n_paths: int
    seed: int
    bound_ok: bool


@dataclass(frozen=True)
class DualBoundReport:
    rows: tuple[BoundRow, ...]
    reference_value: float
    scheme_tol: float
    best_name: str
    best_mean: float

    @property
    def ok(self) -> bool:
        return all(r.bound_ok for r in self.rows)

    @property
    def violations(self) -> list[str]:
        return [r.name for r in self.rows if not r.bound_ok]

    @property
    def gap(self) -> float:
        return self.reference_value - self.best_mean


def dual_bound_suite(family: GeneratorFamily, f: GridFunction, x0, t: float,
                     strategies, n_paths: int, seed: int,
                     reference_value: float, scheme_tol: float) -> DualBoundReport:
    """Estimate every strategy and check mean <= reference + 3 stderr + tol.

    strategies is a sequence of (name, SimpleStrategy).  Violations are
    reported by name, not raised; a violation signals a bug in either the
    envelope or the simulator.
    """
    if scheme_tol < 0:
        raise ConfigurationError("scheme tolerance must be nonnegative")
    if not strategies:
        raise ConfigurationError("dual bound suite needs at least one strategy")
    payoffs = path_payoffs(family, [s for _, s in strategies], f, x0, t, n_paths, seed)
    rows = []
    best_name, best_mean = "", -math.inf
    for (name, _), row in zip(strategies, payoffs):
        est = _summary(row, seed)
        ok = est.mean <= reference_value + 3.0 * est.stderr + scheme_tol
        rows.append(BoundRow(str(name), est.mean, est.stderr, est.n_paths, est.seed, ok))
        if est.mean > best_mean:
            best_name, best_mean = str(name), est.mean
    return DualBoundReport(tuple(rows), reference_value, scheme_tol, best_name, best_mean)


# -- interchange ---------------------------------------------------------------

def strategy_to_dict(strat: SimpleStrategy) -> dict:
    return {
        "partition": [float(x) for x in strat.partition.times],
        "feedback": [strat.feedback[j].ravel().tolist()
                     for j in range(strat.partition.step_count)],
    }


def strategy_from_dict(obj: dict, grid: TorusGrid) -> SimpleStrategy:
    try:
        partition = Partition(np.asarray(obj["partition"], dtype=float))
        raw = np.asarray(obj["feedback"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed strategy object: {exc}") from exc
    # JSON true/false among integers would pass as 1/0 in an int64 array
    if (raw.dtype.kind not in "iuf" or not np.all((raw == np.round(raw)) & (abs(raw) < 2**53))
            or raw.ndim == 2 and any(bool in map(type, row) for row in obj["feedback"])):
        raise ConfigurationError("strategy feedback entries must be integers")
    fb = raw.astype(np.int64)
    if fb.ndim != 2 or fb.shape[1] != grid.size:
        raise ConfigurationError(
            f"strategy feedback must be (intervals, {grid.size}), got {fb.shape}"
        )
    return SimpleStrategy(grid, partition, fb.reshape((-1,) + grid.shape))


def save_strategy(path, strat: SimpleStrategy) -> None:
    with open(path, "w") as fh:
        json.dump(strategy_to_dict(strat), fh)


def load_strategy(path, grid: TorusGrid) -> SimpleStrategy:
    return strategy_from_dict(read_json(path, "strategy file"), grid)


def write_estimates_csv(path, report: DualBoundReport) -> None:
    write_table(path, ["strategy", "mean", "stderr", "n_paths", "seed", "bound_ok"],
                [(r.name, r.mean, r.stderr, r.n_paths, r.seed, int(r.bound_ok))
                 for r in report.rows])
