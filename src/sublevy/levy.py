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

Evolution runs on the half spectrum (last-axis modes 0..n/2) with real FFTs,
and a symbol table keeps only that half: psi(-k) = conj psi(k) gives the
rest.  The multipliers exp(t psi) are not re-symmetrized: the inverse real
FFT reads only the Hermitian part of its input, so real functions map to
real functions by construction.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConsistencyError
from .grid import (GridFunction, TorusGrid, checked, keys_only, numbers_only, read_json,
                   wrap_point)


def _on_axis(fn, inverse=False):
    def call(a, factor, axes, out):  # 1/n inverse for the n points of the output axis
        if factor != (1.0 / out.shape[axes[-1][0]] if inverse else 1.0):
            raise ConsistencyError(f"np.fft.{fn.__name__} cannot apply the factor {factor}")
        return fn(a, axis=axes[0][0], out=out)
    return call


class _PublicFFT:
    """The pocketfft gufuncs SpectralWorkspace._stages calls, on numpy's public
    one-axis functions, for a numpy that moves its private FFT module.  Their
    default norm is the factors _stages passes, 1 forward and 1/n inverse, so
    each call gives the gufunc's bits; any other factor is refused."""
    rfft_n_even, fft = _on_axis(np.fft.rfft), _on_axis(np.fft.fft)
    ifft, irfft = _on_axis(np.fft.ifft, inverse=True), _on_axis(np.fft.irfft, inverse=True)


try:
    from numpy.fft import _pocketfft_umath as pocketfft
except ImportError:
    pocketfft = _PublicFFT

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-12
REAL_PART_TOL = 1e-12


def _atoms_array(atoms) -> tuple[np.ndarray, np.ndarray]:
    """(point, weight) pairs as a point and a weight array; LevyQuadruple checks them."""
    pairs = [(np.atleast_1d(np.asarray(p, dtype=float)), float(w)) for p, w in atoms]
    return np.array([p for p, _ in pairs]), np.array([w for _, w in pairs])


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
        """The one validation of a quadruple: shapes, finiteness, a symmetric PSD
        sigma, and per atom kind positive weights; atoms are wrapped to the torus."""
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.shape not in ((1,), (2,)):
            raise ConfigurationError(f"drift must be a vector of length 1 or 2, got {b.shape}")
        d = b.shape[0]
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape == ():
            sigma = sigma.reshape(1, 1)
        if sigma.shape != (d, d):
            raise ConfigurationError(f"sigma must be {d}x{d}, got shape {sigma.shape}")
        for name, arr in (("b", b), ("sigma", sigma)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"quadruple {name} must be finite")
        if np.max(np.abs(sigma - sigma.T), initial=0.0) > SYMMETRY_TOL:
            raise ConfigurationError("sigma must be symmetric to 1e-12")
        if np.min(np.linalg.eigvalsh(sigma)) < -PSD_TOL:
            raise ConfigurationError("sigma must be positive semidefinite to 1e-12")
        frozen = {"b": b, "sigma": sigma}
        for key, name in (("mu", "large-jump"), ("nu", "small-jump")):
            p = np.asarray(getattr(self, key + "_points"), dtype=float)
            w = np.asarray(getattr(self, key + "_weights"), dtype=float)
            p = p.reshape(0, d) if p.size == 0 else p  # the empty default
            if p.ndim != 2 or p.shape[1] != d or w.shape != (p.shape[0],):
                raise ConfigurationError(f"{name} atoms must be (k, {d}) points with (k,) "
                                         f"weights, got shapes {p.shape} and {w.shape}")
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
                raise ConfigurationError(f"quadruple {name} atoms and weights must be finite")
            if np.any(w <= 0):
                raise ConfigurationError(f"{name} atom weights must be strictly positive")
            frozen[key + "_points"], frozen[key + "_weights"] = wrap_point(p), w
        if np.any(np.all(frozen["nu_points"] == 0.0, axis=1)):
            raise ConfigurationError("small-jump atoms must be nonzero")
        for name, arr in frozen.items():
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
        return cls(b_arr, sig, *_atoms_array(mu), *_atoms_array(nu))

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
    zero = (np.zeros(dim), np.zeros((dim, dim)))
    q = LevyQuadruple(*zero, *_atoms_array(atoms))  # checked before rate / sum flips a sign
    checked(rate, "compound Poisson rate")
    if q.mu_weights.size == 0 or rate == 0:
        return LevyQuadruple(*zero)
    return LevyQuadruple(*zero, q.mu_points, q.mu_weights * (rate / q.mu_weights.sum()))


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
    checked(gamma, "wrapped Cauchy gamma", above=True)
    checked(scale, "wrapped Cauchy scale", above=True)
    checked(rate, "wrapped Cauchy rate")
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
        best = max(best, math.hypot(*q.b) + tr_norm + mu_mass + nu_moment)
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

def _phase(point, modes) -> np.ndarray:
    """<point, k> per mode, from the grid's broadcast mode axes."""
    return sum(point[a] * modes[a] for a in range(len(modes)))


def _quadratic_form(q: LevyQuadruple, modes, shape) -> np.ndarray:
    """<k, Sigma k> per mode, an array of shape, summed over the eigenpairs of Sigma."""
    lam, vec = q._sigma_decomposition
    quad = np.zeros(shape)
    for i in range(q.dim):
        if lam[i] != 0.0:
            quad += lam[i] * _phase(vec[:, i], modes) ** 2
    return quad


@np.errstate(over="ignore", invalid="ignore")  # SymbolTable rejects an overflowing symbol
def _snapped_symbol(q: LevyQuadruple, grid: TorusGrid, out: np.ndarray) -> None:
    """Write into out, a complex array of the grid's half_shape, the mean of
    psi(k) and conj psi(-k) for a quadruple whose atoms lie on the grid.  The
    modes and their negations (the Nyquist mode n/2 is its own) stack on a
    leading axis, so one pass of each term evaluates both."""
    modes = [np.stack([k, np.where(k == grid.n // 2, k, -k)]) for k in grid.mode_axes()]
    both = np.multiply(1j, _phase(q.b, modes))
    both -= 0.5 * _quadratic_form(q, modes, both.shape)

    term = np.empty_like(both)  # after the quadratic form's temporaries are freed
    for pts, wts, compensated in ((q.mu_points, q.mu_weights, False),
                                  (q.nu_points, q.nu_weights, True)):
        for point, weight in zip(pts, wts):
            theta = _phase(point, modes)
            np.exp(np.multiply(1j, theta, out=term), out=term)
            term -= 1.0
            if compensated:
                term -= 1j * theta
            both += np.multiply(weight, term, out=term)

    np.conjugate(both[1], out=both[1])
    np.multiply(0.5, np.add(both[0], both[1], out=both[1]), out=out)


def _mode(grid: TorusGrid, index) -> tuple[int, ...]:
    """The integer mode at an index of the half spectrum."""
    return tuple(int(k.flat[i]) for k, i in zip(grid.mode_axes(), index))


def _validate_symbol(grid: TorusGrid, psi: np.ndarray, label: str) -> None:
    """Refuse a half-spectrum row that is not finite, has psi(0) != 0 or
    Re psi > REAL_PART_TOL, or breaks conjugate symmetry.  A half row holds
    both k and -k only on the last-axis modes 0 and n/2, so those two slices
    are the only place it can break symmetry."""
    if not np.all(np.isfinite(psi)):
        raise ConfigurationError(f"symbol of {label} is not finite on this grid")
    origin = (0,) * grid.dim
    if psi[origin] != 0.0:
        raise ConsistencyError(f"symbol of {label}: psi(0) = {psi[origin]} is not exactly 0")
    re = psi.real
    worst = np.unravel_index(np.argmax(re), re.shape)
    if re[worst] > REAL_PART_TOL:
        raise ConsistencyError(f"symbol of {label}: Re psi{_mode(grid, worst)} = "
                               f"{re[worst]:.3e} exceeds {REAL_PART_TOL}")
    for last in (0, grid.n // 2):
        shell = psi[..., last]
        # conj psi(-k) at each mode k of the slice
        mirror = np.conjugate(shell[np.ix_(*[-np.arange(grid.n) % grid.n] * shell.ndim)])
        if not np.array_equal(mirror, shell):
            bad = tuple(np.argwhere(mirror != shell)[0]) + (last,)
            raise ConsistencyError(
                f"symbol of {label}: conjugate symmetry fails at mode {_mode(grid, bad)}")


@dataclass(frozen=True)
class SymbolTable:
    """Per-member symbols of a family on a common grid: row i of psi is the
    generator of member i, the one route from a quadruple to its evolution.

    psi holds each row on the half spectrum the real FFTs read, shape
    (m, ..., n/2+1); the other modes are conj psi(-k).  build snaps every jump
    atom to the grid (the largest displacement is kept as a diagnostic);
    family holds the snapped quadruples the table evolves.  Construction
    validates every row: finite, psi(0) = 0, Re psi <= 0, and exact conjugate
    symmetry on the last-axis modes 0 and n/2, which is all a half row needs
    for the inverse real FFT to see the symbol the full row would be.
    """

    grid: TorusGrid
    family: GeneratorFamily
    psi: np.ndarray = field(repr=False)
    snap_distance: float = 0.0

    def __post_init__(self) -> None:
        if self.psi.shape != (len(self.family),) + self.grid.half_shape:
            raise ConfigurationError(f"symbol table shape {self.psi.shape} must be "
                                     f"(members,) + {self.grid.half_shape}")
        for row, label in zip(self.psi, self.family.labels):
            _validate_symbol(self.grid, row, label)

    @classmethod
    def build(cls, family: GeneratorFamily, grid: TorusGrid) -> "SymbolTable":
        """The table of family on grid: each member's symbol is written
        straight into its half-spectrum row."""
        snapped = [snap_to_grid(q, grid) for q in family.members]
        psi = np.empty((len(snapped),) + grid.half_shape, dtype=complex)
        for (s, _), row in zip(snapped, psi):
            _snapped_symbol(s, grid, row)
        psi.flags.writeable = False
        fam = GeneratorFamily(tuple(s for s, _ in snapped), family.labels)
        return cls(grid=grid, family=fam, psi=psi, snap_distance=max(d for _, d in snapped))

    def __len__(self) -> int:
        return len(self.family)

    @functools.cached_property
    def max_abs_symbol(self) -> float:
        """max |psi| over every mode: the half's, since |conj z| = |z|."""
        return max(float(np.max(np.abs(row))) for row in self.psi)  # one row's |psi| at a time

    def values_of(self, f: GridFunction) -> np.ndarray:
        """f's values, the one door by which a grid function enters this table's
        kernel: refused when f lives on another grid, or is so large that the
        spectral sums of one step overflow."""
        if f.grid != self.grid:
            raise ConfigurationError("grid function does not live on the table's grid")
        # the forward DFT's sums reach sup|f| * size, a generator row multiplies
        # them by at most max|psi| (an evolution multiplier by at most 1), and
        # each inverse axis adds n terms before its 1/n scaling
        if not math.isfinite(f.sup_norm * self.grid.size * self.grid.n
                             * max(1.0, self.max_abs_symbol)):
            raise ConfigurationError(f"grid function of sup norm {f.sup_norm:g} is too large "
                                     "for this table: its spectral sums overflow")
        return f.values

    def multipliers(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """exp(t * psi) per member on the half spectrum, shape (m, ..., n/2+1),
        written into out when given (a complex array of that shape) and returned.
        The one door by which time meets the table: t is refused where t * |psi|
        overflows.  The symbol is conjugate symmetric, but the multipliers are not
        re-symmetrized: SpectralWorkspace.apply uses only their Hermitian part."""
        if not math.isfinite(checked(t, "evolution time t") * self.max_abs_symbol):
            raise ConfigurationError(f"time {t:g} is too long for this grid: t * |psi| overflows")
        out = np.multiply(t, self.psi, out=out)
        return np.exp(out, out=out)


# -- multiplier application ----------------------------------------------------

# Points (rows x members x grid points) one batched kernel call takes at most:
# near the crossover where the per-point cost of a call equals its fixed cost,
# so a full call costs about twice a one-row call (1D n=128, m=2 on a 2-core
# Xeon VM: 24 us at 13 rows, 10 us at one); below it the fixed cost of each
# numpy call outweighs the arithmetic (measured sweep in README, "Lockstep
# levels").
BATCH_POINTS = 4096
# Points of one member's evolution (rows x grid points) from which the envelope
# step runs member at a time: there the member stack no longer fits in a
# core's cache, and evolving one member and folding it into the maximum at
# once beats streaming the whole stack through each stage (measured sweep in
# README, "Large grids").
MEMBER_POINTS = 2**16


def batch_rows(grid: TorusGrid, members: int) -> int:
    """Rows one kernel call takes at once: as many as BATCH_POINTS holds, at least one."""
    return max(1, BATCH_POINTS // (members * grid.size))


class SpectralWorkspace:
    """Buffers and stages of the spectral kernel for m members on one grid.

    A caller that applies multipliers in a loop keeps one workspace for the
    whole loop, so no step allocates a spectrum or a stack: the half-spectrum
    coefficients, the member spectra and the float64 member stack are written
    in place.  The stack returned by apply stays valid until the next call on
    the same workspace.  A workspace made with rows has a leading batch axis
    of that length, and each call takes values of shape (b, *grid.shape) for
    any b <= rows: b independent rows in one call, each row bitwise what a
    call on that row alone gives.  One method runs every stage of the kernel,
    and envelope folds its result in one of two ways: the whole member stack
    at once or, when one member's evolution of every row holds MEMBER_POINTS
    points or more (by_member), one member at a time.  A by_member workspace
    keeps the spectra and stack of one member, all that schedule writes;
    apply with more members, and the non-finite replay, evolve into new ones.
    """

    def __init__(self, grid: TorusGrid, members: int, rows: int | None = None):
        self.grid = grid
        self.by_member = (rows or 1) * grid.size >= MEMBER_POINTS
        # the (input, factor, output) core axes of each transform in _stages,
        # counted from the end, so that they name the same grid axis with or
        # without the batch and member axes: the last axis, and the leading
        # grid axes from the last to the first
        self._last = [(-1,), (), (-1,)]
        self._leading = [[(-a,), (), (-a,)] for a in range(2, grid.dim + 1)]
        self._inverse_factor = 1.0 / grid.n
        batch = () if rows is None else (rows,)
        self.coeffs = np.empty(batch + grid.half_shape, dtype=complex)
        self.spec, self.stack = self._buffers(1 if self.by_member else members)

    def _buffers(self, members: int) -> tuple[np.ndarray, np.ndarray]:
        """New member spectra and float64 member stack of every row."""
        batch = self.coeffs.shape[:self.coeffs.ndim - self.grid.dim]
        return (np.empty(batch + (members,) + self.coeffs.shape[len(batch):], dtype=complex),
                np.empty(batch + (members,) + self.grid.shape))

    def _whole(self, mults: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spectra and stack for every member of mults: the workspace's own when
        they hold that many, else new ones."""
        members = mults.shape[mults.ndim - 1 - self.grid.dim]
        if self.stack.shape[self.stack.ndim - 1 - self.grid.dim] == members:
            return self.spec, self.stack
        return self._buffers(members)

    def apply(self, mults: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Multiply the spectrum of values by each multiplier; one row per member.

        mults holds half-spectrum multipliers, shape (m, ..., n/2+1), shared
        by every row, or (b, m, ..., n/2+1), one set per row of batched
        values; the result is the workspace's ([b,] m, *grid.shape) float64
        stack of evolved values, or a new one when the workspace keeps fewer
        members."""
        return self._stages(mults, values, *self._whole(mults))

    def _stages(self, mults, values, spec, stack, forward=True):
        """Every stage of the kernel, on the leading rows that batched values
        take.  The forward transform of values into the coefficients (skipped
        when not forward, which keeps the last one's) is a real FFT of the
        last axis, then in-place complex FFTs of the leading grid axes from the
        last to the first, the steps of rfftn.  With mults given, the multiply
        into spec, the inverse into stack (in-place inverse FFTs of the leading
        grid axes, then an inverse real FFT of the last axis, the steps of
        irfftn) and the finiteness check follow; spec and stack have the
        member count of mults.  The (-1)^k phase and 1/N normalization of the
        centred coefficient convention cancel for a diagonal multiplier, so
        neither is applied.

        Each transform is the pocketfft gufunc that np.fft's wrapper runs
        (rfft_n_even, as every grid is even), called without the wrapper's
        argument handling and with the factor it passes: 1 forward, 1/n
        inverse.  The same gufuncs on the same buffers give the bits of
        np.fft.rfftn and irfftn."""
        lead = values.ndim - self.grid.dim  # 1 for batched values, else 0
        coeffs = self.coeffs
        if lead:
            rows = len(values)
            coeffs, spec, stack = coeffs[:rows], spec[:rows], stack[:rows]
        if forward:
            pocketfft.rfft_n_even(values, 1.0, axes=self._last, out=coeffs)
            for axes in self._leading:
                pocketfft.fft(coeffs, 1.0, axes=axes, out=coeffs)
        if mults is None:
            return None
        np.multiply(mults, coeffs[:, None] if lead else coeffs, out=spec)
        for axes in reversed(self._leading):
            pocketfft.ifft(spec, self._inverse_factor, axes=axes, out=spec)
        pocketfft.irfft(spec, self._inverse_factor, axes=self._last, out=stack)
        # on every member: a member that is -inf where another is finite
        # leaves the member maximum finite (an infinite mode-0 coefficient
        # reaches every point with the same sign)
        if not np.isfinite(stack).all():
            raise ConsistencyError("member evolution produced non-finite values")
        return stack

    def envelope(self, mults: np.ndarray, values: np.ndarray, out: np.ndarray | None = None,
                 argmax: np.ndarray | None = None) -> np.ndarray:
        """The sup-envelope step: the member maximum of apply(mults, values) into
        out (new when None; values itself is allowed) and, when argmax is given
        (unbatched values only), the lowest maximizing member index into it.
        The only member reduction; np.maximum.reduce is what np.max runs,
        without its dispatch.  Member at a time, np.maximum folds the members
        in the same order, so both schedules give the same bits, and out and
        argmax are unspecified after a ConsistencyError."""
        lead = values.ndim - self.grid.dim
        if not self.by_member:
            stack = self._stages(mults, values, self.spec, self.stack)
            if argmax is not None:
                np.argmax(stack, axis=0, out=argmax)
            return np.maximum.reduce(stack, axis=lead, out=out)
        # the forward transform once, outside the errstate below: its warnings
        # are apply's; then each member from the kept coefficients into out
        # (member 0) or the one-member stack, folded in at once
        self._stages(None, values, self.spec, self.stack)
        if out is None:
            out = np.empty(values.shape)
        if argmax is not None:
            argmax.fill(0)
        top = np.expand_dims(out, lead)
        axis = mults.ndim - 1 - self.grid.dim  # the member axis
        try:
            with np.errstate(all="ignore"):
                for i in range(mults.shape[axis]):
                    mult = mults[(slice(None),) * axis + (slice(i, i + 1),)]
                    member = self._stages(mult, values, self.spec, self.stack if i else top,
                                          False)
                    if i:
                        if argmax is not None:
                            # strict: a tie keeps the lower index, as np.argmax does
                            np.copyto(argmax, i, where=member[0] > out)
                        np.maximum(top, member, out=top)
            return out
        except ConsistencyError:
            # a member is not finite: the whole stack, evolved again from the
            # kept coefficients, raises with the floating-point warnings apply gives
            self._stages(mults, values, *self._whole(mults), False)
            raise


# -- path increments -----------------------------------------------------------

def sample_increments(q: LevyQuadruple, dt: float, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """Draw size independent increments over a step dt, shape (size, d), each
    wrapped to (-pi, pi]^d.

    Draw order is fixed (Gaussian part for all rows, then per jump block the
    Poisson counts for all rows and the atoms of all jumps in row order);
    blocks that cannot contribute are skipped without consuming randomness.
    """
    checked(dt, "increment step dt", above=True)
    size = checked(size, "increment count size", integer=True)
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

def quadruple_from_dict(obj: dict) -> LevyQuadruple:
    def atom(j, entry, name, *keys):
        keys_only(entry, keys, name + ".", "quadruple")
        point, weight = (numbers_only(entry[k], f"quadruple field '{name}.{k}'") for k in keys)
        if np.atleast_1d(np.asarray(point, dtype=float)).shape != (dim,):
            raise ConfigurationError(f"quadruple field '{name}[{j}].{keys[0]}' must have {dim} "
                                     f"coordinates, as 'b' has, got {json.dumps(point)}")
        return point, weight

    keys_only(obj, ("b", "sigma", "mu", "nu", "label"), what="quadruple")
    try:
        b = numbers_only(obj.get("b", 0.0), "quadruple field 'b'")
        dim = len(np.atleast_1d(b))
        sigma = numbers_only(obj.get("sigma", 0.0), "quadruple field 'sigma'")
        mu = [atom(j, e, "mu", "y", "w") for j, e in enumerate(obj.get("mu", []))]
        nu = [atom(j, e, "nu", "z", "v") for j, e in enumerate(obj.get("nu", []))]
        return LevyQuadruple.create(b=b, sigma=np.asarray(sigma, dtype=float), mu=mu, nu=nu,
                                    dim=dim)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed quadruple object: {exc}") from exc


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


def load_family(path) -> GeneratorFamily:
    return family_from_json(read_json(path, "family file"))
