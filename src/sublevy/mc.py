"""Monte Carlo dual: feedback-controlled paths bound the envelope from below.

A simple strategy fixes a time partition and, per interval, a finite-range
feedback map from grid points to family members.  Simulating the controlled
path and averaging the payoff yields a lower bound on the worst-case value;
the maximizers an envelope run records at one dyadic level are such a strategy
(nisio.SimpleStrategy), whose mean payoff should come within the scheme
tolerance of that value.

Paths run in blocks of BLOCK_PATHS; block b draws from the Philox stream keyed
by (seed, b).  On each step every member draws once for every path of the
block, and every strategy on that partition advances on those draws, so
results are bitwise reproducible and strategies share their random numbers.
check_budgets refuses a suite over its budgets before it runs, for the mc
command and a library call alike.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigurationError
from .grid import (GridFunction, TorusGrid, checked, keys_only, numbers_only, read_json,
                   wrap_point, write_table)
from .levy import GeneratorFamily, sample_increments
from .nisio import ARGMAX_BUDGET, NisioResult, Partition, SimpleStrategy

MIN_PATHS = 100
BLOCK_PATHS = 1024  # paths simulated together on one random stream
# increments a suite may use, counted once per strategy that advances on them
DRAW_BUDGET = 10**8
# expected jump atoms; one sample_increments call may hold all: 0.34 GB at 10^7 in 2D
ATOM_BUDGET = 10**7


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        checked(self.stderr, "standard error")


def random_strategy(grid: TorusGrid, partition: Partition, member_count: int,
                    rng: np.random.Generator) -> SimpleStrategy:
    member_count = checked(member_count, "member_count", 1, integer=True)
    fb = rng.integers(0, member_count, size=(partition.step_count,) + grid.shape)
    return SimpleStrategy(grid, partition, fb)


def extract_strategy(result: NisioResult) -> SimpleStrategy:
    """The feedback strategy of a dyadic run: its recorded maximizers."""
    if result.argmax is None:
        raise ConfigurationError("no maximizers recorded: run nisio_evolve with "
                                 "record_argmax_level")
    return result.argmax


def _groups(partitions) -> dict[tuple, list[int]]:
    """Partition times -> the indices of the strategies on them: each group is
    simulated together and shares its draws."""
    groups: dict[tuple, list[int]] = {}
    for i, partition in enumerate(partitions):
        groups.setdefault(tuple(partition.times.tolist()), []).append(i)
    return groups


def check_budgets(family: GeneratorFamily, grid: TorusGrid, t: float, suite,
                  n_paths: int) -> None:
    """Refuse a suite, a list of (partition, strategy count) pairs, before it
    runs: DRAW_BUDGET increments, then ATOM_BUDGET expected jump atoms over
    the distinct partitions path_payoffs simulates, then ARGMAX_BUDGET
    feedback entries, each counted as its message says."""
    steps = sum(partition.step_count * count for partition, count in suite)
    if n_paths * len(family) * steps > DRAW_BUDGET:
        raise BudgetError(f"mc would use more than the budget of {DRAW_BUDGET:.0e} "
                          "increments (n_paths x members x the steps of every strategy)")
    mass = sum(float(q.mu_weights.sum() + q.nu_weights.sum()) for q in family.members)
    atoms = n_paths * len(_groups(partition for partition, _ in suite)) * t * mass
    if atoms > ATOM_BUDGET:
        raise BudgetError(f"mc would draw about {atoms:.3g} jump atoms, more than the budget "
                          f"of {ATOM_BUDGET:.0e} (n_paths x partitions x time x the members' "
                          "jump mass)")
    if steps * grid.size > ARGMAX_BUDGET:
        raise BudgetError(f"mc would hold {steps * grid.size:.3g} feedback entries, more "
                          f"than the budget of {ARGMAX_BUDGET:.0e} (the steps of every "
                          "strategy x grid points)")


def interpolate_linear(f: GridFunction, point):
    """Periodic multilinear interpolation of a grid function at one torus point
    (a float) or at an (n, d) batch of points (an array of n values); a NaN or
    infinite coordinate is refused."""
    grid = f.grid
    p = np.asarray(point, dtype=float)
    single = p.ndim <= 1
    pts = np.atleast_1d(p)[None] if single else p
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ConfigurationError(f"point must have {grid.dim} coordinates")
    if not np.all(np.isfinite(pts)):
        raise ConfigurationError("point coordinates must be finite")
    u = (pts + np.pi) / grid.spacing
    i0 = np.floor(u).astype(np.int64)
    frac = u - i0
    i0 %= grid.n
    sides = ((i0, 1 - frac), ((i0 + 1) % grid.n, frac))  # (cell index, weight) per side
    out = None
    # the 2^d corners, first axis fastest; each term v * w_x * w_y, left to right
    for bits in itertools.product((0, 1), repeat=grid.dim):
        corner = [sides[b] for b in reversed(bits)]
        term = f.values[tuple(index[:, a] for a, (index, _) in enumerate(corner))]
        for a, (_, weight) in enumerate(corner):
            term = term * weight[:, a]
        out = term if out is None else out + term
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
                   rng: np.random.Generator, size: int) -> np.ndarray:
    """Advance size controlled paths from x0 under each of strategies, which
    share one grid and one partition; returns the terminal torus points, shape
    (strategies, size, d).  On each step every member draws size increments
    once and every strategy's paths advance on those draws; the feedback is
    looked up at the nearest grid point of each current position."""
    size = checked(size, "path count size", integer=True)
    if not strategies or any(s.grid != strategies[0].grid or not np.array_equal(
            s.partition.times, strategies[0].partition.times) for s in strategies):
        raise ConfigurationError("simulate_paths needs strategies on one grid and one partition")
    check_strategies(strategies, len(family), t)
    grid, partition = strategies[0].grid, strategies[0].partition
    start = np.atleast_1d(np.asarray(x0, dtype=float))
    if start.shape != (grid.dim,):
        raise ConfigurationError(f"start point must have {grid.dim} coordinates")
    for coordinate in start.tolist():
        checked(coordinate, "start point coordinate", -math.inf)
    pos = np.tile(wrap_point(start), (len(strategies), size, 1))
    for j, dt in enumerate(partition.gaps()):
        draws = np.stack([sample_increments(q, float(dt), rng, size) for q in family.members])
        cells = grid.nearest_index(pos)
        member = np.stack([s.feedback[j][tuple(c[i] for c in cells)]
                           for i, s in enumerate(strategies)])
        pos = wrap_point(pos + draws[member, np.arange(size)])
    return pos


def path_payoffs(family: GeneratorFamily, strategies, f: GridFunction, x0,
                 t: float, n_paths: int, seed: int) -> np.ndarray:
    """Payoff of each of n_paths controlled paths under each strategy, shape
    (strategies, n_paths).  Strategies with the same partition times are
    simulated together; each such group replays the (seed, block) streams, so
    a full block's payoffs depend on neither n_paths nor the other strategies.
    A suite over the budgets of check_budgets is refused before any path runs."""
    n_paths = checked(n_paths, "n_paths", MIN_PATHS, integer=True)
    seed = checked(seed, "seed", 0, 2**64 - 1, integer=True)
    if any(s.grid != f.grid for s in strategies):
        raise ConfigurationError("payoff function and strategy live on different grids")
    groups = _groups(s.partition for s in strategies)
    suite = [(strategies[members[0]].partition, len(members)) for members in groups.values()]
    check_budgets(family, f.grid, t, suite, n_paths)
    payoffs = np.empty((len(strategies), n_paths))
    for block, lo in enumerate(range(0, n_paths, BLOCK_PATHS)):
        size = min(BLOCK_PATHS, n_paths - lo)
        for members in groups.values():
            key = np.array([seed, block], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
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
    limit: float  # reference + 3 stderr + scheme_tol
    bound_ok: bool


@dataclass(frozen=True)
class DualBoundReport:
    rows: tuple[BoundRow, ...]
    reference_value: float
    best_name: str
    best_mean: float

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
    checked(scheme_tol, "scheme_tol")
    checked(reference_value, "reference_value", -math.inf)
    if not strategies:
        raise ConfigurationError("dual bound suite needs at least one strategy")
    payoffs = path_payoffs(family, [s for _, s in strategies], f, x0, t, n_paths, seed)
    rows = []
    best_name, best_mean = "", -math.inf
    for (name, _), row in zip(strategies, payoffs):
        est = _summary(row, seed)
        limit = reference_value + 3.0 * est.stderr + scheme_tol
        rows.append(BoundRow(str(name), est.mean, est.stderr, est.n_paths, est.seed, limit,
                             est.mean <= limit))
        if est.mean > best_mean:
            best_name, best_mean = str(name), est.mean
    return DualBoundReport(tuple(rows), reference_value, best_name, best_mean)


# -- interchange ---------------------------------------------------------------

def strategy_from_dict(obj: dict, grid: TorusGrid) -> SimpleStrategy:
    keys_only(obj, ("partition", "feedback"), what="strategy")
    try:
        times = numbers_only(obj["partition"], "strategy field 'partition'")
        partition = Partition(np.asarray(times, dtype=float))
        raw = np.asarray(obj["feedback"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed strategy object: {exc}") from exc
    if raw.dtype.kind not in "iuf" or not np.all((raw == np.round(raw)) & (abs(raw) < 2**53)):
        raise ConfigurationError("strategy feedback entries must be integers")
    # after the integer check, which names a string entry; a true among
    # numbers passes that check as 1
    numbers_only(obj["feedback"], "strategy field 'feedback'")
    fb = raw.astype(np.int64)
    if fb.ndim != 2 or fb.shape[1] != grid.size:
        raise ConfigurationError(
            f"strategy feedback must be (intervals, {grid.size}), got {fb.shape}"
        )
    return SimpleStrategy(grid, partition, fb.reshape((-1,) + grid.shape))


def save_strategy(path, strat: SimpleStrategy) -> None:
    """Write the strategy JSON one feedback row at a time, each through json.dumps
    (json.dump would take the pure-Python encoder): one row is held as text."""
    with open(path, "w") as fh:
        fh.write(f'{{"partition": {json.dumps(strat.partition.times.tolist())}, "feedback": [')
        for j, row in enumerate(strat.feedback):
            fh.write((", " if j else "") + json.dumps(row.ravel().tolist()))
        fh.write("]}")


def load_strategy(path, grid: TorusGrid) -> SimpleStrategy:
    return strategy_from_dict(read_json(path, "strategy file"), grid)


def write_estimates_csv(path, report: DualBoundReport) -> None:
    write_table(path, ["strategy", "mean", "stderr", "n_paths", "seed", "bound_ok"],
                [(r.name, r.mean, r.stderr, r.n_paths, r.seed, int(r.bound_ok))
                 for r in report.rows])
