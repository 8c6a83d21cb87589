"""Per-layer micro-benchmarks, timed by calling each layer's public functions
directly rather than through the CLI."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from sublevy.cli import build_family
from sublevy.grid import forward_transform, inverse_transform, make_grid, sample
from sublevy.levy import SymbolTable, sample_increment
from sublevy.mc import estimate, random_strategy
from sublevy.nisio import Partition, apply_J

from workloads import ENVELOPE_FAMILY

# envelope-step sweep: (dim, n) per axis, each with m = 2 and m = 4 members
SWEEP_GRIDS = ((1, 128), (1, 1024), (2, 64), (2, 256))
SWEEP_MEMBERS = (2, 4)

# the 1D counterpart of ENVELOPE_FAMILY (sigma2 0.5 stands in for the anisotropic member)
LINE_FAMILY = [
    {"b": [0.0], "sigma": [[0.25]], "label": "sigma2=0.25"},
    {"b": [0.0], "sigma": [[1.0]], "label": "sigma2=1"},
    {"b": [0.0], "sigma": [[0.5]], "label": "sigma2=0.5"},
    {"b": [0.0], "sigma": [[0.1]],
     "mu": [{"y": [math.pi / 4], "w": 3.0}, {"y": [-math.pi / 4], "w": 3.0}],
     "label": "sigma2=0.1 + jumps"},
]

MC_2D_N = 64
MC_2D_PATHS = 200
MC_STEPS_LEVEL = 4  # 16 steps, the extraction level of the shipped MC config


def per_call_seconds(fn, min_seconds: float, min_calls: int = 5) -> float:
    """Median wall time of one call, repeating until both minimums are met."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def step_model(points: int, members: int) -> tuple[float, float]:
    """(flops, bytes) of one envelope step, computed from array sizes.

    Model of the complex-FFT step: one forward FFT, per member a spectral
    multiply and an inverse FFT, then a pointwise max.  An FFT of N points is
    counted as 5 N log2 N flops; each pass reads and writes its arrays once
    (complex 16 B, real 8 B).  Cache misses are ignored.
    """
    n = float(points)
    fft = 5.0 * n * math.log2(n)
    flops = (1 + members) * fft + members * 6.0 * n + (members - 1) * n
    forward = 8.0 * n + 16.0 * n
    per_member = 3 * 16.0 * n + 2 * 16.0 * n  # multiply (2 reads, 1 write), inverse FFT
    reduce = members * 8.0 * n + 8.0 * n
    return flops, forward + members * per_member + reduce


def _family(dim: int, members: int, grid):
    spec = (ENVELOPE_FAMILY if dim == 2 else LINE_FAMILY)[:members]
    return build_family(spec, grid)


def step_sweep(min_seconds: float) -> dict[str, float]:
    """Microseconds per apply_J at each sweep size, keyed 'nisio.step_us.<d>d<n>.m<m>'."""
    out = {}
    for dim, n in SWEEP_GRIDS:
        grid = make_grid(dim, n)
        f = sample(grid, "bump", center=[0.0] * dim, width=math.pi)
        for m in SWEEP_MEMBERS:
            table = SymbolTable.build(_family(dim, m, grid), grid)
            gap = 0.2 / 512
            sec = per_call_seconds(lambda: apply_J(table, gap, f), min_seconds)
            out[f"nisio.step_us.{dim}d{n}.m{m}"] = sec * 1e6
    return out


def step_us(table, f, gap: float, min_seconds: float) -> float:
    return per_call_seconds(lambda: apply_J(table, gap, f), min_seconds) * 1e6


def fft_us(f, min_seconds: float) -> float:
    """forward_transform + inverse_transform round trip, in microseconds."""
    return per_call_seconds(lambda: inverse_transform(forward_transform(f)), min_seconds) * 1e6


def increment_us(family, dt: float, seed: int, min_seconds: float) -> float:
    """One sample_increment call, cycling over the family members."""
    rng = np.random.default_rng(seed)
    members = family.members
    calls = 200

    def batch():
        for i in range(calls):
            sample_increment(members[i % len(members)], dt, rng)

    return per_call_seconds(batch, min_seconds) / calls * 1e6


def mc_us_per_path_2d(seed: int, min_seconds: float) -> float:
    """One controlled 2D path (n=64, the envelope family, a random strategy)."""
    grid = make_grid(2, MC_2D_N)
    family = _family(2, len(ENVELOPE_FAMILY), grid)
    f = sample(grid, "bump", center=[0.0, 0.0], width=math.pi)
    partition = Partition.dyadic(0.2, MC_STEPS_LEVEL)
    strat = random_strategy(grid, partition, len(family), np.random.default_rng(seed))
    sec = per_call_seconds(
        lambda: estimate(family, strat, f, [0.0, 0.0], 0.2, MC_2D_PATHS, seed),
        min_seconds, min_calls=3)
    return sec / MC_2D_PATHS * 1e6
