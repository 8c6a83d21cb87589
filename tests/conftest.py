import math

import numpy as np
import pytest

from sublevy import levy
from sublevy import (
    GeneratorFamily,
    GridFunction,
    Spectrum,
    SpectralWorkspace,
    SymbolTable,
    diffusion,
    inverse_transform,
    make_grid,
    sample,
)


def random_trig(grid, rng, kmax=8, amplitude=1.0):
    """Random real trigonometric polynomial with modes up to kmax per axis."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
    k[k == -grid.n // 2] = grid.n // 2
    if grid.dim == 1:
        mask = np.abs(k) <= kmax
    else:
        kk = np.meshgrid(k, k, indexing="ij")
        mask = (np.abs(kk[0]) <= kmax) & (np.abs(kk[1]) <= kmax)
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs[mask] = z[mask]
    # conjugate-symmetrize so the function is real
    idx = (-np.arange(grid.n)) % grid.n
    perm = idx if grid.dim == 1 else np.ix_(idx, idx)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[perm]))
    f = inverse_transform(Spectrum(grid, coeffs))
    scale = amplitude / max(f.sup_norm, 1e-12)
    return GridFunction(grid, f.values * scale)


def one_member_table(q, grid):
    """The symbol table of the one-member family (q,) on grid."""
    return SymbolTable.build(GeneratorFamily((q,)), grid)


def member_evolution(table, t, f, member=0):
    """One member's linear evolution of f for time t: its row of the table's kernel."""
    stack = SpectralWorkspace(f.grid, len(table)).apply(table.multipliers(t), f.values)
    return GridFunction(f.grid, stack[member])


def member_generator(table, f, member=0):
    """One member's generator applied to f: its row of the kernel on psi itself."""
    stack = SpectralWorkspace(f.grid, len(table)).apply(table.psi, f.values)
    return GridFunction(f.grid, stack[member])


@np.errstate(over="ignore", invalid="ignore")
def reference_symbol(q, grid):
    """A quadruple's symmetrized symbol on every mode of the grid, evaluated
    apart from SymbolTable.build: psi(k) at the full FFT-order modes (Nyquist
    taken as +n/2), then the mean with its conjugate at the negated slot of
    each axis (slot 0 and the Nyquist slot are their own negations).  The
    operations are those of the table's, so a grid-snapped quadruple's table
    row is its half spectrum, bitwise."""
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64)
    k[k == -grid.n // 2] = grid.n // 2
    modes = np.ix_(*[k] * grid.dim)

    def phase(point):
        return sum(point[a] * modes[a] for a in range(grid.dim))

    out = np.multiply(1j, phase(q.b))
    lam, vec = q._sigma_decomposition
    quad = np.zeros(grid.shape)
    for i in range(q.dim):
        if lam[i] != 0.0:
            quad += lam[i] * phase(vec[:, i]) ** 2
    out -= 0.5 * quad
    for pts, wts, compensated in ((q.mu_points, q.mu_weights, False),
                                  (q.nu_points, q.nu_weights, True)):
        for point, weight in zip(pts, wts):
            theta = phase(point)
            term = np.exp(1j * theta) - 1.0
            if compensated:
                term -= 1j * theta
            out += weight * term
    mirror = np.conjugate(out[np.ix_(*[-np.arange(grid.n) % grid.n] * grid.dim)])
    return 0.5 * (out + mirror)


def full_row(table, member=0):
    """One member's symbol on every mode of the grid, by reference_symbol; the
    table's row must be its half spectrum, bitwise."""
    grid = table.grid
    full = reference_symbol(table.family.members[member], grid)
    assert table.psi[member].tobytes() == full[..., : grid.n // 2 + 1].tobytes()
    return full


def count_envelopes(monkeypatch, fn):
    """fn's result, with the SpectralWorkspace.envelope calls it makes and the
    rows they take."""
    rows = []
    envelope = SpectralWorkspace.envelope

    def counting(ws, mults, values, out=None, argmax=None):
        rows.append(values.shape[0] if values.ndim > ws.grid.dim else 1)
        return envelope(ws, mults, values, out=out, argmax=argmax)

    with monkeypatch.context() as patch:
        patch.setattr(SpectralWorkspace, "envelope", counting)
        return fn(), len(rows), sum(rows)


def schedule_workspace(grid, members, by_member, rows=None):
    """A SpectralWorkspace whose envelope runs member at a time (by_member) or
    on the whole member stack, whatever levy.MEMBER_POINTS picks for the grid."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(levy, "MEMBER_POINTS", 1 if by_member else math.inf)
        ws = SpectralWorkspace(grid, members, rows=rows)
    assert ws.by_member == by_member
    return ws


@pytest.fixture(scope="session")
def grid8():
    return make_grid(1, 8)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(1, 64)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(1, 128)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(1, 256)


@pytest.fixture(scope="session")
def two_sigma_family():
    return GeneratorFamily(
        (diffusion(0.25), diffusion(1.0)), ("sigma=0.5", "sigma=1")
    )


@pytest.fixture(scope="session")
def two_sigma_table(two_sigma_family, grid128):
    return SymbolTable.build(two_sigma_family, grid128)


@pytest.fixture(scope="session")
def bump128(grid128):
    return sample(grid128, "bump", center=0.0, width=np.pi)


@pytest.fixture(scope="session")
def cos128(grid128):
    return sample(grid128, "cosine", k=1)
