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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConsistencyError
from .grid import TorusGrid, keys_only, negation_permutation, numbers_only, read_json, wrap_point

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
        re-symmetrized: SpectralWorkspace.apply uses only their Hermitian part.
        """
        if t < 0:
            raise ConfigurationError(f"evolution time must be nonnegative, got {t}")
        mults = t * self.psi_half
        return np.exp(mults, out=mults)  # in place: no second table-sized array


# -- multiplier application ----------------------------------------------------

# Points (rows x members x grid points) up to which one batched kernel call
# costs about what a one-row call does: below it the fixed cost of each numpy
# call outweighs the arithmetic (measured sweep in README, "Lockstep levels").
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


def _head(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """A view of the first elements of a C-contiguous buffer, in the given shape."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


class SpectralWorkspace:
    """Buffers of the spectral kernel for m members on one grid.

    A caller that applies multipliers in a loop keeps one workspace for the
    whole loop, so no step allocates a spectrum or a stack: the half-spectrum
    coefficients, the member spectra and the float64 member stack are written
    in place.  The stack returned by apply stays valid until the next call on
    the same workspace.  A workspace made with rows has a leading batch axis
    of that length, and each call takes values of shape (b, *grid.shape) for
    any b <= rows: b independent rows in one call, each row bitwise what a
    call on that row alone gives.  When one member's evolution of every row
    holds MEMBER_POINTS points or more, envelope runs member at a time through
    one member's spectrum and values.
    """

    def __init__(self, grid: TorusGrid, members: int, rows: int | None = None):
        batch = () if rows is None else (rows,)
        half = grid.shape[:-1] + (grid.n // 2 + 1,)
        self.grid = grid
        self.coeffs = np.empty(batch + half, dtype=complex)
        self.spec = np.empty(batch + (members,) + half, dtype=complex)
        self.stack = np.empty(batch + (members,) + grid.shape)
        self.member = None
        if (rows or 1) * grid.size >= MEMBER_POINTS:
            # one member's spectrum and values at the start of the stack
            # buffers, whose rest envelope then leaves alone: no new memory
            self.member = (_head(self.spec, batch + half), _head(self.stack, batch + grid.shape))

    def apply(self, mults: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Multiply the spectrum of values by each multiplier; one row per member.

        mults holds half-spectrum multipliers, shape (m, ..., n/2+1), shared
        by every row, or (b, m, ..., n/2+1), one set per row of batched
        values; the result is the workspace's ([b,] m, *grid.shape) float64
        stack of evolved values.  One forward
        transform serves every member: a real FFT of the last axis, then
        in-place complex FFTs of the leading grid axes from the last to the
        first, the steps of rfftn without its argument handling.  The inverse
        runs over the member axis as the complex inverse FFTs of the leading
        grid axes, in place, and one inverse real FFT of the last axis, the
        steps of irfftn.  The (-1)^k phase and 1/N normalization of the
        centred coefficient convention cancel for a diagonal multiplier, so
        neither is applied.
        """
        lead = values.ndim - self.grid.dim  # 1 for batched values, else 0
        coeffs, spec, stack = self.coeffs, self.spec, self.stack
        if lead:
            rows = len(values)
            coeffs, spec, stack = coeffs[:rows], spec[:rows], stack[:rows]
        np.fft.rfft(values, out=coeffs)
        for axis in range(lead + self.grid.dim - 2, lead - 1, -1):
            np.fft.fft(coeffs, axis=axis, out=coeffs)
        np.multiply(mults, coeffs[:, None] if lead else coeffs, out=spec)
        for axis in range(lead + 1, lead + self.grid.dim):
            np.fft.ifft(spec, axis=axis, out=spec)
        np.fft.irfft(spec, self.grid.n, axis=-1, out=stack)
        # on the whole stack: a member that is -inf where another is finite
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
        if self.member is not None:
            return self._envelope_by_member(mults, values, out, argmax)
        stack = self.apply(mults, values)
        lead = stack.ndim - 1 - self.grid.dim
        if argmax is not None:
            np.argmax(stack, axis=0, out=argmax)
        return np.maximum.reduce(stack, axis=lead, out=out)

    def _envelope_by_member(self, mults, values, out, argmax):
        """The envelope step one member at a time: apply's forward transform
        once, then per member its multiply, its inverse into out (member 0) or
        the member buffer, its finiteness check and the fold into the
        maximum."""
        lead = values.ndim - self.grid.dim
        coeffs, (spec, buf) = self.coeffs, self.member
        if lead:
            rows = len(values)
            coeffs, spec, buf = coeffs[:rows], spec[:rows], buf[:rows]
        np.fft.rfft(values, out=coeffs)
        for axis in range(lead + self.grid.dim - 2, lead - 1, -1):
            np.fft.fft(coeffs, axis=axis, out=coeffs)
        if out is None:
            out = np.empty(values.shape)
        if argmax is not None:
            argmax.fill(0)
        # the member axis first: one set of multipliers per row has it second
        members = np.moveaxis(mults, mults.ndim - 1 - self.grid.dim, 0)
        with np.errstate(all="ignore"):
            for i, mult in enumerate(members):
                member = buf if i else out
                np.multiply(mult, coeffs, out=spec)
                self._inverse(spec, member)
                if not np.isfinite(member).all():
                    break
                if i:
                    if argmax is not None:
                        # strict: a tie keeps the lower index, as np.argmax does
                        np.copyto(argmax, i, where=buf > out)
                    np.maximum(out, buf, out=out)
            else:
                return out
        # a member is not finite: the whole stack, evolved again from the kept
        # coefficients, gives the floating-point warnings apply gives
        spec, stack = (self.spec[:rows], self.stack[:rows]) if lead else (self.spec, self.stack)
        np.multiply(mults, coeffs[:, None] if lead else coeffs, out=spec)
        self._inverse(spec, stack)
        raise ConsistencyError("member evolution produced non-finite values")

    def _inverse(self, spec: np.ndarray, out: np.ndarray) -> None:
        """apply's inverse transform of spec, whose last grid.dim axes are grid
        axes, into out.  apply keeps its own copy of these steps and of the
        forward transform: no helper calls on small grids, where the fixed
        cost of each call is most of a step."""
        for axis in range(spec.ndim - self.grid.dim, spec.ndim - 1):
            np.fft.ifft(spec, axis=axis, out=spec)
        np.fft.irfft(spec, self.grid.n, axis=-1, out=out)


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

def quadruple_from_dict(obj: dict) -> LevyQuadruple:
    def atom(entry, name, *keys):
        keys_only(entry, keys, name + ".", "quadruple")
        return tuple(numbers_only(entry[k], f"quadruple field '{name}.{k}'") for k in keys)

    keys_only(obj, ("b", "sigma", "mu", "nu", "label"), what="quadruple")
    try:
        b = numbers_only(obj.get("b", 0.0), "quadruple field 'b'")
        sigma = numbers_only(obj.get("sigma", 0.0), "quadruple field 'sigma'")
        mu = [atom(e, "mu", "y", "w") for e in obj.get("mu", [])]
        nu = [atom(e, "nu", "z", "v") for e in obj.get("nu", [])]
        return LevyQuadruple.create(b=b, sigma=np.asarray(sigma, dtype=float), mu=mu, nu=nu,
                                    dim=len(np.atleast_1d(b)))
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
