"""Checks of the paper's properties that no command runs yet.

The tests check the paper's properties through these functions: the
composition over an arbitrary time partition (apply_partition), the dynamic
programming principle (dpp_check), continuity in the partition times
(partition_continuity_probe), the jump-count series of a pure large-jump
generator (poisson_series_apply) and the mass a member carries out of a window
(mass_diagnostic).  They run through the library's doors (SymbolTable.values_of,
grid.checked, the nisio lockstep and the spectral kernel).  Pytest does not
collect this module; the tests import it as they import conftest.  A ROADMAP item that gives one of
these functions a command, config or benchmark caller moves it back into
src/sublevy/ with that caller: item 5 (the structure block) the first three,
item 1 (the oracle's jump-count check) the series, item 6 (cauchy_interval)
the mass diagnostic.
"""

from __future__ import annotations

import math

import numpy as np

from sublevy.errors import BudgetError, ConfigurationError
from sublevy.grid import GridFunction, _sup_norm, checked, sup_distance
from sublevy.levy import LevyQuadruple, SpectralWorkspace, SymbolTable, snap_to_grid
from sublevy.nisio import MAX_LEVEL, Partition, Rider, _ride

SERIES_TERM_BUDGET = 10**4
MASS_WINDOW_SHRINK = 0.5


# -- compositions over a partition ------------------------------------------------

def apply_partition(table: SymbolTable, pi: Partition, f: GridFunction) -> GridFunction:
    """Compose one envelope step per partition gap, last interval applied first."""
    values = table.values_of(f)
    for gap, count in reversed(_runs(pi)):
        values = Rider.run(table, gap, count, values).finish()
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


def dpp_check(table: SymbolTable, s: float, t: float, f: GridFunction,
              level: int) -> float:
    """Sup distance between the (s+t)-evolution and the composed s- then
    t-evolution, all at the same dyadic level.  The joint row and the t-run go
    in one lockstep pass, then the s-run on the t-run's result."""
    checked(s, "time s", above=True)
    checked(t, "time t", above=True)
    steps = 2 ** checked(level, "level", 0, MAX_LEVEL, integer=True)
    x = table.values_of(f)
    joint, later = _ride([Rider.run(table, h / steps, steps, x) for h in (s + t, t)])
    composed = Rider.run(table, s / steps, steps, later).finish()
    return _sup_norm(np.subtract(joint, composed, out=joint))  # joint is a _drive copy


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


# -- compound-Poisson series ------------------------------------------------------

def poisson_series_apply(q: LevyQuadruple, t: float, f: GridFunction,
                         tail_tol: float = 1e-10) -> GridFunction:
    """Exponentiate a pure large-jump generator by the jump-count series.

    Sums exp(-m) m^k / k! Q^k f over k <= N where Q convolves with the
    normalized jump kernel (exact cyclic shifts, atoms lie on the grid),
    m = t * total atom weight, and N is chosen so the neglected tail
    contributes at most tail_tol in sup norm.
    """
    checked(t, "time t")
    checked(tail_tol, "tail_tol", above=True)
    if np.any(q.b != 0) or np.any(q.sigma != 0) or q.nu_points.size:
        raise ConfigurationError(
            "series oracle requires a pure large-jump quadruple "
            "(no drift, diffusion or small jumps)"
        )
    if q.mu_points.size == 0 or t == 0:
        return f
    grid = f.grid
    snapped, moved = snap_to_grid(q, grid)
    if moved > 1e-9:
        raise ConfigurationError("series oracle requires atoms on grid points")
    offsets = np.round(snapped.mu_points / grid.spacing).astype(int) % grid.n

    total = float(q.mu_weights.sum())
    m = total * t
    probs = q.mu_weights / total

    # smallest N with Poisson(m) tail below the scaled target
    target = tail_tol / (1.0 + f.sup_norm)
    pmf = math.exp(-m)
    cum = pmf
    n_terms = 0
    while 1.0 - cum > target:
        n_terms += 1
        if n_terms > SERIES_TERM_BUDGET:
            raise BudgetError(
                f"series needs more than {SERIES_TERM_BUDGET} terms (m = {m:.3g})"
            )
        pmf *= m / n_terms
        cum += pmf

    def convolve(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        axes = tuple(range(grid.dim))
        for j in range(offsets.shape[0]):
            shift = tuple(-int(o) for o in offsets[j])
            out += probs[j] * np.roll(v, shift=shift, axis=axes)
        return out

    pmf = math.exp(-m)
    term = f.values
    acc = pmf * term
    for k in range(1, n_terms + 1):
        term = convolve(term)
        pmf *= m / k
        acc = acc + pmf * term
    return GridFunction(grid, acc)


# -- mass / wrap-around diagnostic --------------------------------------------------

def mass_diagnostic(table: SymbolTable, t: float, window_halfwidth: float) -> float:
    """Worst-case mass escaping a plateau window under any single member.

    A function equal to 1 on the window (per-axis halfwidth) and decaying to 0
    over a raised-cosine ramp is evolved under each member alone; the report
    is max over members of 1 - min over the shrunk window (halfwidth scaled by
    MASS_WINDOW_SHRINK) of the evolved plateau.  Small values certify that a
    line-valued example embedded on a large torus does not see the wrap-around.
    """
    # below pi: at pi the ramp has no width to decay over
    w = checked(window_halfwidth, "window_halfwidth", 0, np.nextafter(np.pi, 0), above=True)
    grid = table.grid
    ramp = min(np.pi - w, w) / 2.0
    plateau = np.ones(grid.shape)
    inside = np.ones(grid.shape, dtype=bool)
    for xi in grid.meshgrid():
        d = np.abs(xi)
        axis_val = np.where(
            d <= w, 1.0,
            np.where(d <= w + ramp, 0.5 * (1.0 + np.cos(np.pi * (d - w) / ramp)), 0.0),
        )
        plateau = plateau * axis_val
        inside &= d <= MASS_WINDOW_SHRINK * w
    evolved = SpectralWorkspace(grid, len(table)).apply(table.multipliers(t)[None], plateau[None])
    return max(1.0 - float(np.min(evolved[0][:, inside])), 0.0)
