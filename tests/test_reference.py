"""Executable definitions: the optimized results against a naive reference.

The reference is a plain loop per dyadic level l of 2^l envelope steps of
t / 2^l: ``np.fft.rfftn`` of the values, the product with
``np.exp(h * reference_symbol)`` on the half spectrum, ``np.fft.irfftn`` and
``max(axis=0)`` over the members, with ``argmax(axis=0)`` (the lowest index)
for the maximizers.  A naive classical Runge-Kutta integrates du/dt = G(u) with
G(x) the same loop's envelope of the symbols themselves, and a naive
difference quotient steps S(h)f the same way.  None of it touches the
lockstep, the predicted-stop pause, the riders or the workspace.

A hypothesis test draws small 1D and 2D grids, a family of up to four members
(diffusion, drift, grid atoms, wrapped Cauchy), smooth data, t, tol (0
included), max_level <= 8, a maximizer level, the Runge-Kutta stages riding
in the levels' calls or none, and quotient rows or none, which
generator_limit_table steps in a lockstep of their own.  With the
monotonicity guard wide open, nisio_evolve's level records, value and
maximizers, the Picard trajectory and the quotient errors must equal the
reference bitwise.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sublevy import (  # noqa: E402
    GeneratorFamily,
    SymbolTable,
    compound_poisson,
    diffusion,
    drift,
    generator_limit_table,
    make_grid,
    nisio_evolve,
    picard_solve,
    picard_stages,
    stability_limit,
    wrapped_cauchy_quadruple,
)
from sublevy.levy import batch_rows  # noqa: E402
from conftest import random_trig, reference_symbol  # noqa: E402

WIDE_OPEN = 1e300  # the monotonicity guard


def _sup(a: np.ndarray) -> float:
    return max(abs(float(a.min())), abs(float(a.max())))


class Reference:
    """The naive kernel of one family on one grid: the full-grid symbol of each
    member by reference_symbol, cut to the half spectrum the real FFTs read."""

    def __init__(self, table: SymbolTable):
        grid = table.grid
        self.shape = grid.shape
        self.axes = tuple(range(1, grid.dim + 1))  # the grid axes behind the member axis
        self.psi = np.array([reference_symbol(q, grid)[..., : grid.n // 2 + 1]
                             for q in table.family.members])

    def stack(self, mults: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(mults * np.fft.rfftn(v), s=self.shape, axes=self.axes)

    def level(self, f: np.ndarray, t: float, level: int) -> np.ndarray:
        steps = 2**level
        return self.steps(f, np.exp((t / steps) * self.psi), steps)

    def steps(self, f: np.ndarray, mults: np.ndarray, steps: int) -> np.ndarray:
        v = f
        for _ in range(steps):
            v = self.stack(mults, v).max(axis=0)
        return v

    def maximizers(self, f: np.ndarray, t: float, level: int) -> np.ndarray:
        """Each step's maximizing member in forward time: the last step applied first."""
        steps = 2**level
        mults = np.exp((t / steps) * self.psi)
        out = np.empty((steps,) + self.shape, dtype=np.int64)
        v = f
        for j in range(steps):
            stack = self.stack(mults, v)
            out[steps - 1 - j] = stack.argmax(axis=0)
            v = stack.max(axis=0)
        return out

    def evolve(self, f: np.ndarray, t: float, max_level: int, tol: float):
        """(level, steps, increment, sup norm) per level up to the stop, and the value."""
        records, prev = [], None
        for level in range(max_level + 1):
            v = self.level(f, t, level)
            inc = float("nan") if prev is None else float(np.max(v - prev))
            records.append((level, 2**level, inc, _sup(v)))
            prev = v
            if tol > 0 and inc < tol:
                break
        return records, prev

    def generator(self, x: np.ndarray) -> np.ndarray:
        return self.stack(self.psi, x).max(axis=0)

    def rk4(self, f: np.ndarray, dt: float, steps: int):
        u, times, snaps, residuals = f, [0.0], [f], []
        for k in range(1, steps + 1):
            k1 = self.generator(u)
            k2 = self.generator(u + 0.5 * dt * k1)
            k3 = self.generator(u + 0.5 * dt * k2)
            k4 = self.generator(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k >= 2:
                residuals.append(_sup((u - snaps[k - 2]) / (2.0 * dt) - k1))
            times.append(k * dt)
            snaps.append(u)
        return times, snaps, residuals

    def quotient(self, f: np.ndarray, h: float) -> float:
        steps = 2 ** max(8, math.ceil(math.log2(1.0 / h)) + 4)
        evolved = self.steps(f, np.exp((h / steps) * self.psi), steps)
        return _sup((evolved - f) / h - self.generator(f))


GRIDS = [(1, n) for n in (8, 16, 32, 64, 128)] + [(2, n) for n in (8, 16, 32)]


@st.composite
def members(draw, grid):
    dim = grid.dim
    kinds = ["diffusion", "drift", "atoms"] + (["cauchy"] if dim == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "diffusion":
        return diffusion(draw(st.floats(0.05, 2.0)), dim=dim)
    if kind == "drift":
        return drift([draw(st.floats(-1.0, 1.0)) for _ in range(dim)], dim=dim)
    if kind == "atoms":
        points = draw(st.lists(st.tuples(*[st.integers(-grid.n // 2 + 1, grid.n // 2)] * dim),
                               min_size=1, max_size=3))
        atoms = [(np.array(p) * grid.spacing, draw(st.floats(0.1, 2.0))) for p in points]
        return compound_poisson(atoms, rate=draw(st.floats(0.1, 3.0)), dim=dim)
    return wrapped_cauchy_quadruple(grid, draw(st.floats(0.1, 1.0)),
                                    rate=draw(st.floats(0.1, 2.0)))


@st.composite
def cases(draw):
    grid = make_grid(*draw(st.sampled_from(GRIDS)))
    family = GeneratorFamily(tuple(draw(st.lists(members(grid), min_size=1, max_size=4))))
    max_level = draw(st.integers(0, 8))
    return {
        "table": SymbolTable.build(family, grid),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "t": draw(st.sampled_from([0.01, 0.05, 0.2, 0.5])),
        "tol": draw(st.sampled_from([0.0, 1e-2, 1e-4, 1e-7])),
        "max_level": max_level,
        "argmax_level": draw(st.one_of(st.none(), st.integers(0, max_level))),
        "picard_steps": draw(st.one_of(st.none(), st.integers(1, 12))),
        "h_list": draw(st.sampled_from([None, [0.25], [0.25, 0.0625]])),
    }


def _one_row_a_call() -> dict:
    """A case where a kernel call takes one row (batch_rows 1), so nothing rides."""
    grid = make_grid(2, 32)
    family = GeneratorFamily((diffusion(0.25, dim=2), diffusion(1.0, dim=2),
                              drift([0.5, -0.25], dim=2),
                              compound_poisson([(grid.spacing * np.array([2, -1]), 1.0)],
                                               dim=2)))
    return {"table": SymbolTable.build(family, grid), "seed": 5, "t": 0.2, "tol": 1e-4,
            "max_level": 6, "argmax_level": 3, "picard_steps": 3, "h_list": [0.25]}


ONE_ROW = _one_row_a_call()


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
@example(ONE_ROW)
def test_every_result_is_the_naive_reference_bitwise(case):
    table, t, tol = case["table"], case["t"], case["tol"]
    f = random_trig(table.grid, np.random.default_rng(case["seed"]), kmax=3)
    ref = Reference(table)
    assert ref.psi.tobytes() == table.psi.tobytes()
    if case is ONE_ROW:
        assert batch_rows(table.grid, len(table)) == 1

    riders = []
    if case["picard_steps"] is not None:
        dt = stability_limit(table)
        dt = 0.01 if math.isinf(dt) else dt
        stages = picard_stages(table, f, case["picard_steps"] * dt, dt)
        riders.append(stages)
    result = nisio_evolve(table, t, f, max_level=case["max_level"], tol=tol,
                          record_argmax_level=case["argmax_level"],
                          monotonicity_tol=WIDE_OPEN, riders=riders)

    records, value = ref.evolve(f.values, t, case["max_level"], tol)
    assert [(r.level, r.steps, repr(r.sup_increment), repr(r.sup_norm))
            for r in result.records] == [(l, s, repr(i), repr(n)) for l, s, i, n in records]
    assert result.value.values.tobytes() == value.tobytes()
    if case["argmax_level"] is not None:
        assert result.argmax.feedback.tobytes() == ref.maximizers(
            f.values, t, case["argmax_level"]).tobytes()

    if case["picard_steps"] is not None:
        traj = stages.finish()
        times, snaps, residuals = ref.rk4(f.values, dt, case["picard_steps"])
        assert traj.times.tolist() == times
        assert [s.values.tobytes() for s in traj.snapshots] == [s.tobytes() for s in snaps]
        assert [repr(r) for r in traj.residuals.tolist()] == [repr(r) for r in residuals]
    if case["h_list"] is not None:
        rows = generator_limit_table(table, f, case["h_list"])
        assert [(h, repr(e)) for h, e in rows] == [
            (h, repr(ref.quotient(f.values, h))) for h in case["h_list"]]
