"""Workload definitions: CLI configs generated from a seed, and their references.

Every workload is one ``sublevy`` CLI command on a config written by the
benchmark.  The seed translates the initial data (and the Monte Carlo start
point) by a whole number of grid points and sets the Monte Carlo seed, so
every seed does identical work on different inputs.  The configs are copied
into this file rather than read from ``configs/`` so that editing a shipped
config cannot change what the benchmark measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sublevy.grid import GridFunction, wrap_point
from sublevy.levy import SymbolTable
from sublevy.oracles import picard_solve

# the RK4 reference step; at 1D n=128 it agrees with dt=1e-3 to 8e-11, far
# below the dyadic error being measured
RK4_REFERENCE_DT = 2.5e-4

TWO_SIGMA = {"builtin": "two_sigma", "sigmas": [0.5, 1.0]}

# iso 0.25, iso 1, anisotropic, and a weak diffusion with two jump atoms at
# pi/4 along each axis (grid-exact whenever n is divisible by 8)
ENVELOPE_FAMILY = [
    {"b": [0.0, 0.0], "sigma": [[0.25, 0.0], [0.0, 0.25]], "label": "iso sigma2=0.25"},
    {"b": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]], "label": "iso sigma2=1"},
    {"b": [0.0, 0.0], "sigma": [[1.0, 0.4], [0.4, 0.5]], "label": "anisotropic"},
    {"b": [0.0, 0.0], "sigma": [[0.1, 0.0], [0.0, 0.1]],
     "mu": [{"y": [math.pi / 4, 0.0], "w": 3.0}, {"y": [0.0, -math.pi / 4], "w": 3.0}],
     "label": "sigma2=0.1 + jumps"},
]


@dataclass(frozen=True)
class Workload:
    """One CLI command on a seed-translated config.

    ``value_tol`` is the stated accuracy of the output value: sup distance to
    the reference.  The dyadic error after stopping at an increment below
    ``nisio.tol`` is about one increment, so each tolerance is twice that tol.
    """

    command: str
    dim: int
    n: int
    base: dict
    value_tol: float
    reference_level: int | None = None  # dyadic level of the 2D reference

    def shift(self, seed: int) -> np.ndarray:
        """Whole-grid-point translation chosen by the seed, one entry per axis."""
        return np.random.default_rng(seed).integers(0, self.n, size=self.dim)

    def config(self, seed: int, output_dir: str) -> dict:
        spacing = 2.0 * math.pi / self.n
        offset = self.shift(seed) * spacing
        cfg = {**self.base, "grid": {"dim": self.dim, "n": self.n},
               "output_dir": output_dir}
        initial = dict(cfg["initial"])
        center = np.atleast_1d(np.asarray(initial["center"], dtype=float))
        initial["center"] = wrap_point(center + offset).tolist()
        cfg["initial"] = initial
        if "mc" in cfg:
            x0 = np.asarray(cfg["mc"]["x0"], dtype=float)
            cfg["mc"] = {**cfg["mc"], "seed": int(seed),
                         "x0": wrap_point(x0 + offset).tolist()}
        return cfg

    def reference(self, table: SymbolTable, f: GridFunction, t: float) -> tuple[np.ndarray, str]:
        """Reference solution at time t from f, and a label saying which."""
        if self.reference_level is None:
            traj = picard_solve(table, f, t, RK4_REFERENCE_DT)
            return traj.final.values, f"RK4 picard_solve dt={RK4_REFERENCE_DT:g}"
        level = self.reference_level
        fine = dyadic_value(table.psi, f.values, t, level)
        coarse = dyadic_value(table.psi, f.values, t, level - 1)
        return (2.0 * fine - coarse,
                f"extrapolated dyadic 2*V_{level} - V_{level - 1} (benchmark rfft kernel)")


def dyadic_value(psi: np.ndarray, values: np.ndarray, t: float, level: int) -> np.ndarray:
    """Level-``level`` dyadic envelope iterate, computed independently of sublevy.nisio.

    A diagonal multiplier commutes with the FFT phase and normalisation
    conventions, so one real FFT, a broadcast multiply on the half spectrum
    and a batched inverse real FFT give the member evolutions.
    """
    shape = values.shape
    axes = tuple(range(1, psi.ndim))
    steps = 2**level
    mults = np.exp((t / steps) * psi[..., : shape[-1] // 2 + 1])
    for _ in range(steps):
        coeffs = np.fft.rfftn(values)
        values = np.fft.irfftn(mults * coeffs, s=shape, axes=axes).max(axis=0)
    return values


_ORACLE_BASE = {
    "family": TWO_SIGMA,
    "initial": {"kind": "bump", "center": [0.0], "width": math.pi},
    "time": 0.2,
    "nisio": {"max_level": 12, "tol": 5e-6},
    "oracle": {"dt": 1e-3, "tail_tol": 1e-10, "gap_tol": 5e-4},
}

_MC_BASE = {
    "family": TWO_SIGMA,
    "initial": {"kind": "bump", "center": [0.0], "width": math.pi},
    "time": 0.2,
    "nisio": {"max_level": 12, "tol": 5e-6},
    "mc": {"n_paths": 200, "seed": 0, "extract_level": 4, "random_strategies": 16,
           "scheme_tol": 1e-2, "x0": [-math.pi / 2]},
}

_ENVELOPE_BASE = {
    "family": ENVELOPE_FAMILY,
    "initial": {"kind": "bump", "center": [0.0, 0.0], "width": math.pi},
    "time": 0.2,
    "nisio": {"max_level": 12, "tol": 1e-4},
}


def _workloads(tiny: bool) -> dict[str, Workload]:
    """The three workloads; ``tiny`` keeps each grid but cuts the work, for the smoke test."""
    envelope = dict(_ENVELOPE_BASE)
    mc = dict(_MC_BASE)
    env_tol, ref_level = 1e-4, 10
    if tiny:
        env_tol, ref_level = 1e-2, 6
        envelope["nisio"] = {"max_level": 12, "tol": env_tol}
        mc["mc"] = {**mc["mc"], "n_paths": 100}
    return {
        "envelope-2d": Workload("evolve", 2, 256, envelope,
                                value_tol=2 * env_tol, reference_level=ref_level),
        "mc-dual-1d": Workload("mc", 1, 128, mc, value_tol=1e-5),
        "oracle-1d": Workload("oracle", 1, 128, _ORACLE_BASE, value_tol=1e-5),
    }


WORKLOADS = _workloads(tiny=False)
TINY_WORKLOADS = _workloads(tiny=True)
