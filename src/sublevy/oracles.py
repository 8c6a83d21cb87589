"""An independent ground-truth computation used to cross-check the sup-envelope.

Nothing here composes envelope steps: the classical integrator time-steps
du/dt = max-of-generators with fourth-order Runge-Kutta on the same symbols.
Agreement between this route and the dyadic iteration is the central
numerical check of the artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigurationError, ConsistencyError
from .grid import GridFunction, _csv_header, _sup_norm, checked, write_grid_table, write_table
from .levy import SymbolTable
from .nisio import Partition, Rider

# steps x grid points for one picard_solve; every step keeps a snapshot, so
# this also caps the trajectory at 80 MB
PICARD_WORK_BUDGET = 10**7
RK4_ABS_STABILITY = 2.5  # inside the negative real-axis stability interval (~2.785)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one evolution at increasing times starting at 0, and one
    sup-norm residual per interior time times[1:-1] (see picard_solve)."""

    times: np.ndarray
    snapshots: tuple[GridFunction, ...] = field(repr=False)
    residuals: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        times = Partition(self.times).times  # read-only, from 0, finite, increasing
        snaps = tuple(self.snapshots)
        if times.size != len(snaps):
            raise ConfigurationError("snapshot count must equal time count")
        residuals = np.array(self.residuals, dtype=float)
        if residuals.shape != (max(times.size - 2, 0),):
            raise ConfigurationError("residual count must equal interior time count")
        residuals.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "snapshots", snaps)
        object.__setattr__(self, "residuals", residuals)

    @property
    def final(self) -> GridFunction:
        return self.snapshots[-1]


# -- classical integration of the sup-generator equation ---------------------------

def stability_limit(table: SymbolTable) -> float:
    """Largest step the explicit integrator accepts for this symbol table."""
    top = table.max_abs_symbol
    if top == 0.0:
        return math.inf
    return RK4_ABS_STABILITY / top


def picard_stages(table: SymbolTable, f: GridFunction, t: float, dt: float) -> Rider:
    """picard_solve's stages as a Rider on psi: its runs are the stages, one
    step each, its result the Trajectory, and its finish() the stages left.
    Before any stage, more than PICARD_WORK_BUDGET step-points (steps x grid
    points) raise BudgetError, and a t no integer multiple of dt or a dt above
    stability_limit(table) ConfigurationError."""
    checked(t, "horizon t", above=True)
    checked(dt, "step dt", above=True)
    u = table.values_of(f)
    if t / dt * u.size > PICARD_WORK_BUDGET:
        raise BudgetError(f"integration needs {t / dt:.3g} steps on {u.size} grid points, "
                          f"more than the budget of {PICARD_WORK_BUDGET:.0e} step-points")
    steps = round(t / dt)
    if steps < 1 or abs(steps * dt - t) > 1e-9 * max(1.0, t):
        raise ConfigurationError(f"horizon {t} must be an integer multiple of dt {dt}")
    limit = stability_limit(table)
    if dt > limit:
        raise ConfigurationError(f"step {dt} exceeds the stability limit {limit:.3e} "
                                 "for this table")

    def chain(u):  # the runs of the Runge-Kutta stages, one step each
        times, snaps, residuals = [0.0], [f], []
        for k in range(1, steps + 1):
            k1 = yield u, 1
            k2 = yield u + 0.5 * dt * k1, 1
            k3 = yield u + 0.5 * dt * k2, 1
            k4 = yield u + dt * k3, 1
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(u)):
                raise ConsistencyError(f"integration blew up at step {k}")
            if k >= 2:  # k1 is the generator at t_{k-1}
                r = u - snaps[k - 2].values  # (u - prev) / (2 dt) - k1, in place
                r /= 2.0 * dt
                r -= k1
                residuals.append(_sup_norm(r))
            times.append(k * dt)
            snaps.append(GridFunction(f.grid, u))
        return Trajectory(np.asarray(times), tuple(snaps), np.asarray(residuals))

    return Rider(table, lambda out: np.copyto(out, table.psi), chain(u))


def picard_solve(table: SymbolTable, f: GridFunction, t: float, dt: float) -> Trajectory:
    """Integrate du/dt = (sup-generator) u with classical 4-stage Runge-Kutta.

    The step must satisfy dt <= stability_limit(table); snapshots are kept at
    every multiple of dt, so the final snapshot approximates the worst-case
    evolution at time t with O(dt^4) accuracy away from maximizer switches.
    The residual at each interior snapshot time t_j is the sup norm of
    (u_{j+1} - u_{j-1}) / (2 dt) - (sup-generator) u_j, whose generator value
    is the first stage of step j+1.  It is picard_stages(table, f, t,
    dt).finish(): the stages, one kernel call each, through nisio's driver.
    """
    return picard_stages(table, f, t, dt).finish()


# -- CSV emission --------------------------------------------------------------------

def write_trajectory_csv(path, traj: Trajectory) -> None:
    grid = traj.snapshots[0].grid
    write_grid_table(path, grid, _csv_header(grid.dim, "time"),
                     zip(traj.times.tolist(), (s.values for s in traj.snapshots)))


def write_residual_csv(path, traj: Trajectory) -> None:
    write_table(path, ["time", "sup_residual"],
                zip(traj.times[1:-1].tolist(), traj.residuals.tolist()))
