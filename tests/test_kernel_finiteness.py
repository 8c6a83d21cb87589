"""The envelope step refuses a non-finite member evolution exactly as the kernel does.

A NaN, +inf or -inf is put in one member's multiplier (the other members stay
finite) or in the input values, on 1D n=16 and 2D n=8 grids, with evolution
multipliers or generator symbols and data of either sign of mean, for one row
of values or a batch of three, with one set of multipliers broadcast to every
row or one set per row, and with the maximizers recorded.
SpectralWorkspace.envelope must raise ConsistencyError ("non-finite") exactly
when SpectralWorkspace.apply does on the same input, with the same warnings,
whether it runs on the whole member stack or member at a time.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sublevy import (  # noqa: E402
    ConsistencyError,
    GeneratorFamily,
    LevyQuadruple,
    SpectralWorkspace,
    SymbolTable,
    compound_poisson,
    make_grid,
)
from conftest import random_trig, schedule_workspace  # noqa: E402

GRIDS = {1: make_grid(1, 16), 2: make_grid(2, 8)}


def _table(dim: int, m: int) -> SymbolTable:
    grid = GRIDS[dim]
    h = grid.spacing
    members = (
        LevyQuadruple.create(b=[0.3] * dim, sigma=0.5, dim=dim),
        compound_poisson([([2 * h] * dim, 1.0)], rate=1.5, dim=dim),
        LevyQuadruple.create(b=[-0.4] * dim, sigma=0.1, dim=dim),
    )
    return SymbolTable.build(GeneratorFamily(members[:m]), grid)


TABLES = {(dim, m): _table(dim, m) for dim in GRIDS for m in (1, 2, 3)}


def _outcome(step):
    """Whether step raised the kernel's non-finite error, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            step()
            raised = False
        except ConsistencyError as exc:
            assert "non-finite" in str(exc)
            raised = True
    assert all(issubclass(w.category, RuntimeWarning) for w in caught)
    return raised, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]),
       t=st.sampled_from([None, 0.05, 0.5]), target=st.sampled_from(["mults", "values"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), member=st.integers(0, 2),
       position=st.integers(0, 10**6), mean=st.sampled_from([-2.0, 0.0, 2.0]),
       seed=st.integers(0, 2**16), rows=st.sampled_from([1, 3]), per_row=st.booleans())
def test_envelope_raises_exactly_when_apply_does(dim, m, t, target, bad, member, position,
                                                 mean, seed, rows, per_row):
    table = TABLES[dim, m]
    grid = table.grid
    rng = np.random.default_rng(seed)
    # None stands for the generator symbols, which vanish at mode 0
    scales = (1.0, 0.5, 2.0)[:rows] if per_row else (1.0,)
    mults = np.stack([table.psi * s if t is None else table.multipliers(t * s)
                      for s in scales])
    values = np.stack([random_trig(grid, rng, kmax=grid.n // 2).values + mean
                       for _ in range(rows)])
    row = mults[:, member % m] if target == "mults" else values
    row.flat[position % row.size] = bad
    if not per_row:  # the one set, a read-only view for every row
        mults = np.broadcast_to(mults, (rows,) + mults.shape[1:])
    expected = _outcome(lambda: SpectralWorkspace(grid, m, rows=rows).apply(mults, values))
    am = np.empty(values.shape, dtype=np.int64)
    for by_member in (False, True):
        ws = schedule_workspace(grid, m, by_member, rows=rows)
        v = values.copy()
        assert _outcome(lambda: ws.envelope(mults, v)) == expected
        assert _outcome(lambda: ws.envelope(mults, v, out=v, argmax=am)) == expected
        if not expected[0]:
            assert np.isfinite(v).all()
