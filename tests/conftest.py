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


def full_row(table, member=0):
    """One member's symbol on every mode of the grid, written by the function
    SymbolTable.build writes each row with; the table's row must be its half
    spectrum, bitwise."""
    grid = table.grid
    full = np.empty(grid.shape, dtype=complex)
    levy._snapped_symbol(table.family.members[member], grid, full)
    assert table.psi[member].tobytes() == full[..., : grid.n // 2 + 1].tobytes()
    return full


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
