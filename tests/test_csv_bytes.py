"""The grid-table writers give exactly the bytes of a csv.writer loop.

The reference writers below are the per-element ``csv.writer`` loops that
``write_function_csv``, ``write_trajectory_csv`` and ``write_argmax_csv``
used before they moved onto ``grid.write_grid_rows``.
"""

import csv

import numpy as np
import pytest

from sublevy.grid import (
    GridFunction,
    make_grid,
    read_function_csv,
    sup_distance,
    write_function_csv,
)
from sublevy.nisio import ArgmaxField, write_argmax_csv
from sublevy.oracles import Trajectory, write_trajectory_csv

SPECIAL = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0, -7.0, 0.0, -1e-300]


def reference_function_csv(path, f):
    mesh = [m.ravel() for m in f.grid.meshgrid()]
    flat = f.values.ravel()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "x", "value"] if f.grid.dim == 1 else ["index", "x", "y", "value"])
        for i in range(f.grid.size):
            coords = [f"{m[i]:.17g}" for m in mesh]
            w.writerow([i, *coords, f"{flat[i]:.17g}"])


def reference_trajectory_csv(path, traj):
    grid = traj.snapshots[0].grid
    mesh = [m.ravel() for m in grid.meshgrid()]
    head = ["time", "index", "x", "value"] if grid.dim == 1 else \
        ["time", "index", "x", "y", "value"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(head)
        for ti, snap in zip(traj.times, traj.snapshots):
            flat = snap.values.ravel()
            for i in range(grid.size):
                coords = [f"{m[i]:.17g}" for m in mesh]
                w.writerow([f"{ti:.17g}", i, *coords, f"{flat[i]:.17g}"])


def reference_argmax_csv(path, grid, argmax):
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


def awkward_values(grid, seed):
    """Random floats of every magnitude, with the special values spread through."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-300, 300, grid.size)
    v[rng.choice(grid.size, len(SPECIAL), replace=False)] = SPECIAL
    return GridFunction(grid, v.reshape(grid.shape))


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 64)])
def test_function_csv_bytes(tmp_path, dim, n):
    grid = make_grid(dim, n)
    f = awkward_values(grid, seed=dim)
    write_function_csv(tmp_path / "new.csv", f)
    reference_function_csv(tmp_path / "ref.csv", f)
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == 1 + grid.size
    assert sup_distance(read_function_csv(tmp_path / "new.csv", grid=grid), f) == 0.0
    assert np.array_equal(np.signbit(read_function_csv(tmp_path / "new.csv").values),
                          np.signbit(f.values))


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 16)])
def test_trajectory_csv_bytes(tmp_path, dim, n):
    grid = make_grid(dim, n)
    times = np.array([0.0, 1e-3, 0.1 + 0.2, 1.0, 2.5e300])
    traj = Trajectory(times, tuple(awkward_values(grid, seed=10 + i) for i in range(len(times))))
    write_trajectory_csv(tmp_path / "new.csv", traj)
    reference_trajectory_csv(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 16)])
def test_argmax_csv_bytes(tmp_path, dim, n):
    grid = make_grid(dim, n)
    rng = np.random.default_rng(dim)
    argmax = ArgmaxField(level=3, selections=rng.integers(0, 12, (8, *grid.shape)))
    write_argmax_csv(tmp_path / "new.csv", grid, argmax)
    reference_argmax_csv(tmp_path / "ref.csv", grid, argmax)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
