"""Levy quadruples on the torus, their spectral symbols, and increment sampling.

A quadruple (b, Sigma, mu, nu) holds drift, diffusion, a finite atomic
large-jump measure (no compensation) and a finite atomic small-jump measure
with linear compensation.  Its generator acts on Fourier mode k as
multiplication by

    psi(k) = i<b,k> - <k, Sigma k>/2
             + sum_j w_j (exp(i<k,y_j>) - 1)
             + sum_j v_j (exp(i<k,z_j>) - 1 - i<k,z_j>)

and the linear evolution over time t as multiplication by exp(t psi(k)).
Symbols are symmetrized across the aliased mode negation; on the Nyquist
shell this is the collocation of the symmetric trigonometric interpolant (the
dropped odd part vanishes at every grid point).  Exponentiating the
collocated generator keeps the composition law exact at every mode; the price
is that the Nyquist mode does not rotate under drift, which only matters for
data with energy there.

Evolution runs on the half spectrum (last-axis modes 0..n/2) with real FFTs.
The multipliers exp(t psi) are not re-symmetrized: the inverse real FFT reads
only the Hermitian part of its input, so real functions map to real
functions by construction.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConsistencyError
from .grid import TorusGrid, negation_permutation, read_json, wrap_point

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-12
REAL_PART_TOL = 1e-12


def _atoms_array(atoms, dim: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    pts, wts = [], []
    for entry in atoms:
        p, w = entry
        pts.append(np.atleast_1d(np.asarray(p, dtype=float)))
        wts.append(float(w))
    if not pts:
        return np.zeros((0, dim)), np.zeros(0)
    points = wrap_point(np.stack(pts))
    weights = np.asarray(wts)
    if points.shape[1] != dim:
        raise ConfigurationError(f"{name} atoms must have {dim} coordinates")
    if np.any(weights <= 0):
        raise ConfigurationError(f"{name} atom weights must be strictly positive")
    return points, weights


@dataclass(frozen=True)
class LevyQuadruple:
    """Drift, diffusion, large-jump atoms, compensated small-jump atoms."""

    b: np.ndarray
    sigma: np.ndarray = field(repr=False)
    mu_points: np.ndarray = field(default=(), repr=False)
    mu_weights: np.ndarray = field(default=(), repr=False)
    nu_points: np.ndarray = field(default=(), repr=False)
    nu_weights: np.ndarray = field(default=(), repr=False)

    def __post_init__(self) -> None:
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        d = b.shape[0]
        if d not in (1, 2):
            raise ConfigurationError(f"drift must have 1 or 2 coordinates, got {d}")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape == ():
            sigma = sigma.reshape(1, 1)
        if sigma.shape != (d, d):
            raise ConfigurationError(f"sigma must be {d}x{d}, got shape {sigma.shape}")
        mu_p = np.asarray(self.mu_points, dtype=float).reshape(-1, d)
        mu_w = np.asarray(self.mu_weights, dtype=float).reshape(-1)
        nu_p = np.asarray(self.nu_points, dtype=float).reshape(-1, d)
        nu_w = np.asarray(self.nu_weights, dtype=float).reshape(-1)
        for name, arr in (("b", b), ("sigma", sigma), ("large-jump atoms", mu_p),
                          ("large-jump weights", mu_w), ("small-jump atoms", nu_p),
                          ("small-jump weights", nu_w)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"quadruple {name} must be finite")
        if np.max(np.abs(sigma - sigma.T), initial=0.0) > SYMMETRY_TOL:
            raise ConfigurationError("sigma must be symmetric to 1e-12")
        if np.min(np.linalg.eigvalsh(sigma)) < -PSD_TOL:
            raise ConfigurationError("sigma must be positive semidefinite to 1e-12")
        if mu_p.shape[0] != mu_w.shape[0] or nu_p.shape[0] != nu_w.shape[0]:
            raise ConfigurationError("atom point and weight counts disagree")
        if np.any(mu_w <= 0) or np.any(nu_w <= 0):
            raise ConfigurationError("atom weights must be strictly positive")
        mu_p = wrap_point(mu_p) if mu_p.size else mu_p
        nu_p = wrap_point(nu_p) if nu_p.size else nu_p
        if nu_p.size and np.any(np.all(nu_p == 0.0, axis=1)):
            raise ConfigurationError("small-jump atoms must be nonzero")

        for name, arr in (
            ("b", b), ("sigma", sigma),
            ("mu_points", mu_p), ("mu_weights", mu_w),
            ("nu_points", nu_p), ("nu_weights", nu_w),
        ):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def create(cls, b=0.0, sigma=0.0, mu=(), nu=(), dim: int | None = None) -> "LevyQuadruple":
        """Build from scalars and (point, weight) atom lists."""
        b_arr = np.atleast_1d(np.asarray(b, dtype=float))
        if dim is None:
            dim = b_arr.shape[0]
        if b_arr.shape == (1,) and dim == 2:
            b_arr = np.full(2, b_arr[0])
        sig = np.asarray(sigma, dtype=float)
        if sig.shape == ():
            sig = np.diag(np.full(dim, float(sig)))
        mu_p, mu_w = _atoms_array(mu, dim, "large-jump")
        nu_p, nu_w = _atoms_array(nu, dim, "small-jump")
        return cls(b_arr, sig, mu_p, mu_w, nu_p, nu_w)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @functools.cached_property
    def _sigma_decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues clipped to the PSD cone, and eigenvectors as columns."""
        lam, vec = np.linalg.eigh(self.sigma)
        return np.clip(lam, 0.0, None), vec

    @functools.cached_property
    def _sigma_factor(self) -> np.ndarray:
        lam, vec = self._sigma_decomposition
        return vec * np.sqrt(lam)

    @functools.cached_property
    def _has_gaussian_part(self) -> bool:
        return bool(np.any(self._sigma_factor != 0.0))

    @functools.cached_property
    def nu_compensation(self) -> np.ndarray:
        """Drift correction sum_j v_j z_j of the compensated small jumps."""
        if self.nu_points.size == 0:
            comp = np.zeros(self.dim)
        else:
            comp = self.nu_weights @ self.nu_points
        comp.flags.writeable = False
        return comp


def diffusion(variance: float, dim: int = 1) -> LevyQuadruple:
    """Pure diffusion with covariance variance * identity."""
    return LevyQuadruple.create(b=np.zeros(dim), sigma=float(variance), dim=dim)


def drift(velocity, dim: int = 1) -> LevyQuadruple:
    return LevyQuadruple.create(b=velocity, sigma=np.zeros((dim, dim)), dim=dim)


def compound_poisson(atoms, rate: float = 1.0, dim: int = 1) -> LevyQuadruple:
    """Large-jump quadruple; atom weights are rescaled to total intensity rate."""
    pts, wts = _atoms_array(atoms, dim, "large-jump")
    if rate < 0:
        raise ConfigurationError("compound Poisson rate must be nonnegative")
    if wts.size == 0 or rate == 0:
        return LevyQuadruple.create(b=np.zeros(dim), sigma=np.zeros((dim, dim)), dim=dim)
    wts = wts * (rate / wts.sum())
    return LevyQuadruple(np.zeros(dim), np.zeros((dim, dim)), pts, wts,
                         np.zeros((0, dim)), np.zeros(0))


def wrapped_cauchy_quadruple(grid: TorusGrid, gamma: float, rate: float = 1.0,
                             scale: float = 1.0) -> LevyQuadruple:
    """Compound-Poisson quadruple whose jump law is a wrapped Cauchy density.

    The density with concentration gamma/scale is sampled at the grid points
    and normalized to total intensity rate, so the atoms are grid-exact.  A
    scale > 1 embeds a line-valued jump law on a proportionally larger torus:
    torus coordinate x stands for the physical point scale * x.
    """
    if grid.dim != 1:
        raise ConfigurationError("wrapped Cauchy jump families are one-dimensional")
    if not (0 < gamma < np.inf and 0 < scale < np.inf):
        raise ConfigurationError("wrapped Cauchy needs finite gamma > 0 and scale > 0")
    if rate < 0:
        raise ConfigurationError("wrapped Cauchy rate must be nonnegative")
    g = gamma / scale
    rho = np.exp(-g)
    gap = -np.expm1(-g)  # 1 - rho, without cancellation for small g
    if gap * gap == 0.0:
        raise ConfigurationError(f"wrapped Cauchy gamma/scale = {g:g} is too small to sample")
    x = grid.axis_points()
    # 1 - 2 rho cos x + rho^2, written so that it stays positive at x = 0
    denom = gap * gap + 4.0 * rho * np.sin(x / 2) ** 2
    dens = gap * (1.0 + rho) / denom / (2.0 * np.pi)
    w = dens * grid.spacing
    w = w * (rate / w.sum())
    return compound_poisson(list(zip(x, w)), rate=rate, dim=1)


@dataclass(frozen=True)
class GeneratorFamily:
    """Finite, nonempty family of quadruples indexed 0..m-1."""

    members: tuple[LevyQuadruple, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ConfigurationError("generator family must be nonempty")
        dims = {q.dim for q in members}
        if len(dims) != 1:
            raise ConfigurationError("all family members must share a dimension")
        labels = tuple(self.labels) or tuple(f"member-{i}" for i in range(len(members)))
        if len(labels) != len(members):
            raise ConfigurationError("label count must match member count")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


def family_constant(fam: GeneratorFamily) -> float:
    """sup over members of |b| + trace-norm(Sigma) + mu mass + second nu moment."""
    best = 0.0
    for q in fam.members:
        tr_norm = float(np.sum(np.abs(np.linalg.eigvalsh(q.sigma))))
        mu_mass = float(q.mu_weights.sum())
        nu_moment = float(np.sum(q.nu_weights * np.sum(q.nu_points**2, axis=1)))
        best = max(best, float(np.linalg.norm(q.b)) + tr_norm + mu_mass + nu_moment)
    return best


# -- grid snapping -------------------------------------------------------------

def _snap_points(points: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, float]:
    if points.size == 0:
        return points, 0.0
    snapped = wrap_point(np.round(points / grid.spacing) * grid.spacing)
    delta = wrap_point(points - snapped)
    return snapped, float(np.max(np.linalg.norm(delta, axis=1)))


def snap_to_grid(q: LevyQuadruple, grid: TorusGrid) -> tuple[LevyQuadruple, float]:
    """Move jump atoms to their nearest grid points; convolution becomes exact.

    Returns the snapped quadruple and the largest displacement.  A small-jump
    atom landing on the origin cannot be represented and is rejected.
    """
    if q.dim != grid.dim:
        raise ConfigurationError(f"quadruple dim {q.dim} does not match grid dim {grid.dim}")
    mu_p, d1 = _snap_points(q.mu_points, grid)
    nu_p, d2 = _snap_points(q.nu_points, grid)
    if nu_p.size and np.any(np.all(nu_p == 0.0, axis=1)):
        raise ConfigurationError(
            "a small-jump atom snapped onto the origin; refine the grid or move the atom"
        )
    snapped = LevyQuadruple(q.b, q.sigma, mu_p, q.mu_weights, nu_p, q.nu_weights)
    return snapped, max(d1, d2)


# -- symbols -------------------------------------------------------------------

def _symmetrize(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    perm = negation_permutation(grid)
    return 0.5 * (arr + np.conj(arr[perm]))


@np.errstate(over="ignore", invalid="ignore")  # SymbolTable rejects an overflowing symbol
def _snapped_symbol(q: LevyQuadruple, grid: TorusGrid) -> np.ndarray:
    """Per-mode characteristic exponent of a quadruple whose atoms lie on the grid."""
    modes = grid.mode_grids()

    lam, vec = q._sigma_decomposition
    quad = np.zeros(grid.shape)
    for i in range(q.dim):
        if lam[i] == 0.0:
            continue
        proj = sum(vec[a, i] * modes[a] for a in range(q.dim))
        quad = quad + lam[i] * proj.astype(float) ** 2

    drift_phase = sum(float(q.b[a]) * modes[a] for a in range(q.dim))
    psi = 1j * drift_phase.astype(float) - 0.5 * quad

    for pts, wts, compensated in ((q.mu_points, q.mu_weights, False),
                                  (q.nu_points, q.nu_weights, True)):
        for j in range(pts.shape[0]):
            theta = sum(float(pts[j, a]) * modes[a] for a in range(q.dim)).astype(float)
            term = np.exp(1j * theta) - 1.0
            if compensated:
                term = term - 1j * theta
            psi = psi + wts[j] * term

    return _symmetrize(grid, psi)


def _validate_symbol(grid: TorusGrid, psi: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(psi)):
        raise ConfigurationError(f"symbol of {label} is not finite on this grid")
    origin = (0,) * grid.dim
    if psi[origin] != 0.0:
        raise ConsistencyError(f"symbol of {label}: psi(0) = {psi[origin]} is not exactly 0")
    re = psi.real
    worst = np.unravel_index(np.argmax(re), re.shape)
    if re[worst] > REAL_PART_TOL:
        mode = tuple(int(m[worst]) for m in grid.mode_grids())
        raise ConsistencyError(
            f"symbol of {label}: Re psi{mode} = {re[worst]:.3e} exceeds {REAL_PART_TOL}"
        )
    perm = negation_permutation(grid)
    if not np.array_equal(psi[perm], np.conj(psi)):
        bad = np.argwhere(psi[perm] != np.conj(psi))[0]
        mode = tuple(int(m[tuple(bad)]) for m in grid.mode_grids())
        raise ConsistencyError(f"symbol of {label}: conjugate symmetry fails at mode {mode}")


@dataclass(frozen=True)
class SymbolTable:
    """Per-member symbols of a family on a common grid: row i of psi is the
    generator of member i, the one route from a quadruple to its evolution.

    build snaps every jump atom to the grid (the largest displacement is kept
    as a diagnostic); family holds the snapped quadruples the table evolves.
    Construction validates every row: finite, psi(0) = 0, Re psi <= 0, and the
    exact conjugate symmetry on which the inverse real FFT relies.
    """

    grid: TorusGrid
    family: GeneratorFamily
    psi: np.ndarray = field(repr=False)
    snap_distance: float = 0.0

    def __post_init__(self) -> None:
        if self.psi.shape != (len(self.family),) + self.grid.shape:
            raise ConfigurationError(
                f"symbol table shape {self.psi.shape} must be (members,) + {self.grid.shape}")
        for row, label in zip(self.psi, self.family.labels):
            _validate_symbol(self.grid, row, label)

    @classmethod
    def build(cls, family: GeneratorFamily, grid: TorusGrid) -> "SymbolTable":
        snapped = [snap_to_grid(q, grid) for q in family.members]
        psi = np.stack([_snapped_symbol(s, grid) for s, _ in snapped])
        psi.flags.writeable = False
        fam = GeneratorFamily(tuple(s for s, _ in snapped), family.labels)
        return cls(grid=grid, family=fam, psi=psi, snap_distance=max(d for _, d in snapped))

    def __len__(self) -> int:
        return len(self.family)

    def max_abs_symbol(self) -> float:
        return float(np.max(np.abs(self.psi)))

    @property
    def psi_half(self) -> np.ndarray:
        """psi on the half spectrum, shape (m, ..., n/2+1), as the real FFTs store it."""
        return self.psi[..., : self.grid.n // 2 + 1]

    def multipliers(self, t: float) -> np.ndarray:
        """exp(t * psi) per member on the half spectrum, shape (m, ..., n/2+1).

        The symbol is conjugate symmetric, but the multipliers are not
        re-symmetrized: apply_multipliers uses only their Hermitian part.
        """
        if t < 0:
            raise ConfigurationError(f"evolution time must be nonnegative, got {t}")
        mults = t * self.psi_half
        return np.exp(mults, out=mults)  # in place: no second table-sized array


# -- multiplier application ----------------------------------------------------

class SpectralWorkspace:
    """Buffers of the spectral kernel for m members on one grid.

    A caller that applies multipliers in a loop keeps one workspace for the
    whole loop, so no step allocates a spectrum or a stack: the half-spectrum
    coefficients, the member spectra and the float64 member stack are written
    in place.  The stack returned by apply stays valid until the next call on
    the same workspace.
    """

    def __init__(self, grid: TorusGrid, members: int):
        half = grid.shape[:-1] + (grid.n // 2 + 1,)
        self.grid = grid
        self.coeffs = np.empty(half, dtype=complex)
        self.spec = np.empty((members,) + half, dtype=complex)
        self.stack = np.empty((members,) + grid.shape)

    def apply(self, mults: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Multiply the spectrum of values by each multiplier; one row per member.

        mults holds half-spectrum multipliers, shape (m, ..., n/2+1); the
        result is the workspace's (m, *grid.shape) float64 stack of evolved
        values.  One forward transform serves every member: a real FFT of the
        last axis, then in-place complex FFTs of the leading axes from the
        last to the first, the steps of rfftn without its argument handling.
        The inverse runs over the member axis as the complex inverse FFTs of
        the leading grid axes, in place, and one inverse real FFT of the last
        axis, the steps of irfftn.  The (-1)^k phase and 1/N normalization of
        the centred coefficient convention cancel for a diagonal multiplier,
        so neither is applied.
        """
        coeffs = np.fft.rfft(values, out=self.coeffs)
        for axis in range(self.grid.dim - 2, -1, -1):
            np.fft.fft(coeffs, axis=axis, out=coeffs)
        spec = np.multiply(mults, coeffs, out=self.spec)
        for axis in range(1, self.grid.dim):
            np.fft.ifft(spec, axis=axis, out=spec)
        np.fft.irfft(spec, self.grid.n, axis=-1, out=self.stack)
        # on the whole stack: a member that is -inf where another is finite
        # leaves the member maximum finite (an infinite mode-0 coefficient
        # reaches every point with the same sign)
        if not np.isfinite(self.stack).all():
            raise ConsistencyError("member evolution produced non-finite values")
        return self.stack

    def envelope(self, mults: np.ndarray, values: np.ndarray, out: np.ndarray | None = None,
                 argmax: np.ndarray | None = None) -> np.ndarray:
        """The sup-envelope step: the member maximum of apply(mults, values) into
        out (new when None; values itself is allowed) and, when argmax is given,
        the lowest maximizing member index into it.  The only member reduction;
        np.maximum.reduce is what np.max runs, without its dispatch."""
        stack = self.apply(mults, values)
        if argmax is not None:
            np.argmax(stack, axis=0, out=argmax)
        return np.maximum.reduce(stack, axis=0, out=out)


def apply_multipliers(grid: TorusGrid, mults: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The spectral kernel (SpectralWorkspace.apply) on a fresh workspace.

    The returned (m, *grid.shape) stack belongs to the caller; a loop should
    keep one SpectralWorkspace instead, whose stack stays valid only until
    its next call.
    """
    return SpectralWorkspace(grid, mults.shape[0]).apply(mults, values)


# -- path increments -----------------------------------------------------------

def sample_increments(q: LevyQuadruple, dt: float, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """Draw size independent increments over a step dt, shape (size, d), each
    wrapped to (-pi, pi]^d.

    Draw order is fixed (Gaussian part for all rows, then per jump block the
    Poisson counts for all rows and the atoms of all jumps in row order);
    blocks that cannot contribute are skipped without consuming randomness.
    """
    if dt <= 0:
        raise ConfigurationError(f"increment step must be positive, got {dt}")
    if q._has_gaussian_part:
        x = rng.standard_normal((size, q.dim)) @ (q._sigma_factor.T * math.sqrt(dt))
    else:
        x = np.zeros((size, q.dim))
    for pts, wts in ((q.mu_points, q.mu_weights), (q.nu_points, q.nu_weights)):
        if pts.shape[0] == 0:
            continue
        total = wts.sum()
        counts = rng.poisson(total * dt, size)
        jumps = int(counts.sum())
        if jumps:
            idx = rng.choice(pts.shape[0], size=jumps, p=wts / total)
            np.add.at(x, np.repeat(np.arange(size), counts), pts[idx])
    x += dt * (q.b - q.nu_compensation)
    return wrap_point(x)


def sample_increment(q: LevyQuadruple, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one increment of the process over a step dt, wrapped to (-pi, pi]^d."""
    return sample_increments(q, dt, rng, 1)[0]


# -- JSON interchange ----------------------------------------------------------

def quadruple_to_dict(q: LevyQuadruple) -> dict:
    return {
        "b": q.b.tolist(),
        "sigma": q.sigma.tolist(),
        "mu": [{"y": q.mu_points[j].tolist(), "w": float(q.mu_weights[j])}
               for j in range(q.mu_points.shape[0])],
        "nu": [{"z": q.nu_points[j].tolist(), "v": float(q.nu_weights[j])}
               for j in range(q.nu_points.shape[0])],
    }


def quadruple_from_dict(obj: dict) -> LevyQuadruple:
    try:
        mu = [(entry["y"], entry["w"]) for entry in obj.get("mu", [])]
        nu = [(entry["z"], entry["v"]) for entry in obj.get("nu", [])]
        return LevyQuadruple.create(
            b=obj.get("b", 0.0), sigma=np.asarray(obj.get("sigma", 0.0), dtype=float),
            mu=mu, nu=nu,
            dim=len(np.atleast_1d(obj.get("b", [0.0]))),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed quadruple object: {exc}") from exc


def family_to_json(fam: GeneratorFamily) -> list[dict]:
    out = []
    for q, label in zip(fam.members, fam.labels):
        obj = quadruple_to_dict(q)
        obj["label"] = label
        out.append(obj)
    return out


def family_from_json(data) -> GeneratorFamily:
    if not isinstance(data, list) or not data:
        raise ConfigurationError("family JSON must be a nonempty array of quadruples")
    members, labels = [], []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ConfigurationError(f"family entry {i} is not an object")
        members.append(quadruple_from_dict(obj))
        labels.append(str(obj.get("label", f"member-{i}")))
    return GeneratorFamily(tuple(members), tuple(labels))


def save_family(path, fam: GeneratorFamily) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_json(fam), fh, indent=2)


def load_family(path) -> GeneratorFamily:
    return family_from_json(read_json(path, "family file"))
