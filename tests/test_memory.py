"""Memory of a run: the symbol table keeps the half spectrum the real FFTs
read and is written in place, and an envelope run keeps its temporaries to
buffers of one member's size.

tracemalloc sees numpy's array buffers, so a traced peak counts every array a
call holds at once.  The unit is a row: one member's complex symbol on the
whole grid, grid.size * 16 bytes.  The table holds HALF of a row per member,
the last-axis modes 0..n/2, and so does a multiplier or a spectrum; a float64
grid function is half a row.  The grid is 2D n=256, where the envelope runs
member at a time (at n=64 the 2D monotonicity guard trips, see nisio_evolve).
The recorded maximizers are counted in selection arrays instead.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sublevy import (GeneratorFamily, LevyQuadruple, Partition, SimpleStrategy, SymbolTable,
                     diffusion, extract_strategy, lipschitz_bound, make_grid, nisio_evolve,
                     sample, save_strategy)

GRID = make_grid(2, 256)
ROW = GRID.size * 16
HALF = (GRID.n // 2 + 1) / GRID.n  # rows in one half-spectrum row


def _traced_peak(fn):
    """fn's result and the peak of memory traced while it ran, in rows."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / ROW
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def family():
    # isotropic, anisotropic, and a weak diffusion with two jump atoms
    jumps = LevyQuadruple.create(b=[0.0, 0.0], sigma=0.1,
                                 mu=[([math.pi / 4, 0.0], 3.0), ([0.0, -math.pi / 4], 3.0)])
    return GeneratorFamily((diffusion(0.25, dim=2), diffusion(1.0, dim=2),
                            LevyQuadruple.create(b=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 0.5]]),
                            jumps))


def test_table_is_built_in_place(family):
    # the half-spectrum table, each member's two mode sets (its half
    # spectrum's modes and their negations, about a row), the jump terms'
    # scratch of that size and float temporaries of about half a row; a
    # table of full rows held 6.26 rows here, a full-row scratch 5.16
    table, peak = _traced_peak(lambda: SymbolTable.build(family, GRID))
    assert table.psi.nbytes == len(family) * HALF * ROW
    assert peak <= len(family) * HALF + 3.5


def test_an_envelope_run_holds_one_member_at_a_time(family):
    table = SymbolTable.build(family, GRID)
    f = sample(GRID, "bump", center=[0.0, 0.0], width=math.pi)
    # the Lipschitz bound: the coefficients, one member's spectrum and its
    # evolution, half a row each; its sup norm comes from the minimum and
    # maximum, where an |evolution| grid of its own held 2.01 rows here
    bound, peak = _traced_peak(lambda: lipschitz_bound(table, f))
    assert bound > 0.0
    assert peak <= 1.75
    # one dyadic level: the lockstep row's multipliers (a half row per
    # member), the coefficients, one member's spectrum and stack, the row's
    # values, and the level's value and its predecessor, which their
    # difference overwrites; a difference and an |V| grid of their own held
    # 6.03 rows here.  The table was built before tracing started
    result, peak = _traced_peak(lambda: nisio_evolve(table, 0.2, f, max_level=1, tol=0.0))
    assert result.levels_used == 1 and np.all(np.isfinite(result.value.values))
    assert peak <= len(table) * HALF + 3.25


def test_one_feedback_array_per_extracted_strategy(family):
    # the recorded maximizers are the extracted strategy: what stays held
    # after the run and the extraction, both kept alive, is one selection
    # array (and the small value grid); a field of its own beside a copy in
    # the strategy held two.  Level 0 runs no comparison, so the guard of
    # the coarse grid does not trip
    grid = make_grid(2, 64)
    table = SymbolTable.build(family, grid)
    f = sample(grid, "bump", center=[0.0, 0.0], width=math.pi)
    tracemalloc.start()
    try:
        result = nisio_evolve(table, 0.2, f, max_level=0, tol=0.0, record_argmax_level=6)
        strategy = extract_strategy(result)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    selections = 2**6 * grid.size * 8
    assert strategy.feedback.nbytes == selections
    assert held <= 1.25 * selections


def test_save_strategy_streams_the_feedback(tmp_path):
    # the strategy file is written one feedback row at a time, so the call holds
    # less than the feedback array it writes; the whole feedback as lists and
    # then one JSON string held 1.76 feedback arrays here
    rng = np.random.default_rng(0)
    feedback = rng.integers(0, 4, (16, *GRID.shape))
    strategy = SimpleStrategy(GRID, Partition.dyadic(0.2, 4), feedback)
    _, peak = _traced_peak(lambda: save_strategy(tmp_path / "strategy.json", strategy))
    assert peak * ROW < strategy.feedback.nbytes
