"""Every CSV writer gives exactly the bytes of a csv.writer loop.

The reference writers below are the per-element ``csv.writer`` loops that
the grid tables (``write_function_csv``, ``write_trajectory_csv``,
``write_argmax_csv``) and the small tables (convergence, generator limit,
residuals, estimates and the oracle gap table) used before they moved onto
``grid.write_grid_table`` and ``grid.write_table``.  The extracted strategy
file is held to the bytes of ``json.dump`` of the whole object, which
``save_strategy`` wrote before it streamed the feedback one row at a time.
"""

import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sublevy.grid import (
    GridFunction,
    TorusGrid,
    make_grid,
    read_function_csv,
    sup_distance,
    write_function_csv,
    write_table,
)
from sublevy.mc import (
    BoundRow,
    DualBoundReport,
    save_strategy,
    write_estimates_csv,
)
from sublevy.nisio import (
    LevelRecord,
    Partition,
    SimpleStrategy,
    write_argmax_csv,
    write_convergence_csv,
    write_generator_limit_csv,
)
from sublevy.oracles import Trajectory, write_residual_csv, write_trajectory_csv

SPECIAL = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0, -7.0, 0.0, -1e-300]


def strategy_to_dict(strat):
    return {
        "partition": [float(x) for x in strat.partition.times],
        "feedback": [strat.feedback[j].ravel().tolist()
                     for j in range(strat.partition.step_count)],
    }


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


def reference_argmax_csv(path, grid, strategy):
    mesh = [m.ravel() for m in grid.meshgrid()]
    head = ["step", "index", "x", "lambda_index"] if grid.dim == 1 else \
        ["step", "index", "x", "y", "lambda_index"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(head)
        for step in range(strategy.step_count):
            flat = strategy.feedback[step].ravel()
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
    traj = Trajectory(times, tuple(awkward_values(grid, seed=10 + i) for i in range(len(times))),
                      np.zeros(len(times) - 2))
    write_trajectory_csv(tmp_path / "new.csv", traj)
    reference_trajectory_csv(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_table_reads_coordinates_once(tmp_path, monkeypatch):
    grid = make_grid(2, 8)
    calls = []
    axis_points = TorusGrid.axis_points
    monkeypatch.setattr(TorusGrid, "axis_points", lambda g: calls.append(g) or axis_points(g))
    times = np.linspace(0.0, 1.0, 7)
    write_trajectory_csv(tmp_path / "t.csv",
                         Trajectory(times, tuple(awkward_values(grid, k) for k in range(7)),
                                    np.zeros(5)))
    assert len(calls) == 1


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 16)])
def test_argmax_csv_bytes(tmp_path, dim, n):
    grid = make_grid(dim, n)
    rng = np.random.default_rng(dim)
    strategy = SimpleStrategy(grid, Partition.dyadic(1.0, 3),
                              rng.integers(0, 12, (8, *grid.shape)))
    write_argmax_csv(tmp_path / "new.csv", strategy)
    reference_argmax_csv(tmp_path / "ref.csv", grid, strategy)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# -- small tables ---------------------------------------------------------------

def reference_convergence_csv(path, result):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "steps", "sup_increment", "sup_norm", "elapsed_ms"])
        for rec in result.records:
            w.writerow([rec.level, rec.steps, f"{rec.sup_increment:.17g}",
                        f"{rec.sup_norm:.17g}", f"{rec.elapsed_ms:.17g}"])


def reference_generator_limit_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["h", "error"])
        for h, err in rows:
            w.writerow([f"{h:.17g}", f"{err:.17g}"])


def reference_residual_csv(path, traj):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "sup_residual"])
        for t, r in zip(traj.times[1:-1], traj.residuals):
            w.writerow([f"{t:.17g}", f"{r:.17g}"])


def reference_estimates_csv(path, report):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "mean", "stderr", "n_paths", "seed", "bound_ok"])
        for r in report.rows:
            w.writerow([r.name, f"{r.mean:.17g}", f"{r.stderr:.17g}",
                        r.n_paths, r.seed, int(r.bound_ok)])


def reference_gap_table_csv(path, time, gap):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "sup_distance"])
        w.writerow([f"{time:.17g}", f"{gap:.17g}"])


def same_bytes(tmp_path, write, reference, *args):
    write(tmp_path / "new.csv", *args)
    reference(tmp_path / "ref.csv", *args)
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    return data


def test_convergence_csv_bytes(tmp_path):
    # level 0 has no increment: nan, as nisio_evolve records it
    records = [LevelRecord(0, 1, math.nan, SPECIAL[2], SPECIAL[3])]
    records += [LevelRecord(k, 2**k, SPECIAL[k - 1], SPECIAL[-k], np.float64(SPECIAL[k]))
                for k in range(1, len(SPECIAL))]
    data = same_bytes(tmp_path, write_convergence_csv, reference_convergence_csv,
                      SimpleNamespace(records=tuple(records)))
    assert data.splitlines()[1].startswith(b"0,1,nan,")


def test_generator_limit_csv_bytes(tmp_path):
    rows = list(zip(SPECIAL, reversed(SPECIAL)))
    same_bytes(tmp_path, write_generator_limit_csv, reference_generator_limit_csv, rows)


def test_residual_csv_bytes(tmp_path):
    # the interior times times[1:-1] are written; the end points are not
    traj = SimpleNamespace(times=np.array([0.0, *SPECIAL, 1.0]),
                           residuals=np.array(SPECIAL[::-1]))
    same_bytes(tmp_path, write_residual_csv, reference_residual_csv, traj)


def test_estimates_csv_bytes(tmp_path):
    names = ["extracted", "random-0", 'odd, "quoted" name.json', "level 3.json"]
    rows = tuple(BoundRow(name, SPECIAL[i], SPECIAL[-1 - i], 10_000 + i, 2**63 + i, SPECIAL[i],
                          i % 2 == 0)
                 for i, name in enumerate(names))
    report = DualBoundReport(rows, 1.0, names[0], SPECIAL[0])
    data = same_bytes(tmp_path, write_estimates_csv, reference_estimates_csv, report)
    assert b'"odd, ""quoted"" name.json",' in data


@pytest.mark.parametrize("time, gap", list(zip(SPECIAL, reversed(SPECIAL))))
def test_gap_table_csv_bytes(tmp_path, time, gap):
    write_table(tmp_path / "new.csv", ["time", "sup_distance"], [(time, gap)])
    reference_gap_table_csv(tmp_path / "ref.csv", time, gap)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("times", [Partition.equidistant(0.2, 16).times,
                                   np.array([0.0, 5e-324, 1e-300, 0.1 + 0.2, 3.0, 1e300])])
def test_extracted_strategy_json_bytes(tmp_path, times):
    # the 16 x 128 shape of the strategy the mc command extracts on a 1D n=128 grid
    grid = make_grid(1, 128)
    partition = Partition(times)
    rng = np.random.default_rng(partition.step_count)
    strat = SimpleStrategy(grid, partition,
                           rng.integers(0, 12, (partition.step_count, *grid.shape)))
    save_strategy(tmp_path / "new.json", strat)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(strategy_to_dict(strat), fh)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
