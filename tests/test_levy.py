import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sublevy import (
    ConfigurationError,
    ConsistencyError,
    GeneratorFamily,
    GridFunction,
    LevyQuadruple,
    SpectralWorkspace,
    Spectrum,
    SymbolTable,
    apply_J,
    compound_poisson,
    diffusion,
    drift,
    family_constant,
    family_from_json,
    forward_transform,
    inverse_transform,
    lipschitz_bound,
    load_family,
    make_grid,
    nisio_evolve,
    picard_solve,
    poisson_series_apply,
    sample,
    sample_increment,
    sample_increments,
    snap_to_grid,
    sup_distance,
    wrapped_cauchy_quadruple,
)
from sublevy import levy
from sublevy.cli import RunConfig, build_family
from sublevy.levy import MEMBER_POINTS, batch_rows
from conftest import (full_row, member_evolution, member_generator, one_member_table,
                      random_trig, schedule_workspace)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def grid_point_near(grid, x):
    """Nearest strictly positive grid coordinate to x."""
    j = max(1, round(x / grid.spacing))
    return j * grid.spacing


class TestQuadrupleValidation:
    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            LevyQuadruple(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_indefinite_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            LevyQuadruple(np.zeros(1), np.array([[-1e-6]]))

    def test_nu_atom_at_origin_rejected(self):
        with pytest.raises(ConfigurationError):
            LevyQuadruple.create(nu=[(0.0, 1.0)], dim=1)

    def test_nonpositive_weight_rejected(self):
        # compound_poisson's atoms are checked before rate / sum would flip a sign,
        # and at rate 0, where no atom is kept
        for make in (lambda: LevyQuadruple.create(mu=[(1.0, 0.0)], dim=1),
                     lambda: compound_poisson([(0.5, -1.0)]),
                     lambda: compound_poisson([(0.5, -1.0)], rate=0.0)):
            with pytest.raises(ConfigurationError, match="strictly positive"):
                make()

    @pytest.mark.parametrize("dim,params", [
        (1, {"b": np.nan}), (1, {"sigma": np.inf}), (1, {"mu": [(np.nan, 1.0)]}),
        (1, {"nu": [(0.3, np.inf)]}),
        (2, {"sigma": np.inf}),  # inf * identity has nan off-diagonal entries
    ])
    def test_nonfinite_parameters_rejected(self, dim, params):
        with pytest.raises(ConfigurationError, match="finite"):
            LevyQuadruple.create(dim=dim, **params)

    def test_overflowing_symbol_rejected(self, grid64):
        with pytest.raises(ConfigurationError, match="not finite"):
            SymbolTable.build(GeneratorFamily((diffusion(1e306),)), grid64)

    @pytest.mark.parametrize("args, match", [
        # one row of four coordinates is not two 2D atoms
        ((np.zeros(2), np.zeros((2, 2)), [[1.0, 2.0, 3.0, 4.0]], [1.0, 1.0]), "points"),
        ((np.zeros(2), np.zeros((2, 2)), [[1.0, 2.0, 3.0]], [1.0]), "points"),
        ((np.zeros((2, 2)), np.zeros((2, 2))), "drift"),
    ])
    def test_misshapen_arrays_rejected(self, args, match):
        with pytest.raises(ConfigurationError, match=match):
            LevyQuadruple(*args)
        # the empty atom defaults still take the drift's dimension
        q = LevyQuadruple(np.zeros(2), np.zeros((2, 2)))
        assert q.mu_points.shape == q.nu_points.shape == (0, 2)
        assert q.mu_weights.shape == q.nu_weights.shape == (0,)

    def test_atoms_wrapped_to_half_open_interval(self):
        q = LevyQuadruple.create(mu=[(3 * np.pi, 1.0), (-np.pi, 1.0)], dim=1)
        assert np.all(q.mu_points > -np.pi)
        assert np.all(q.mu_points <= np.pi)


class TestSnap:
    def test_snap_reports_distance(self, grid64):
        q = LevyQuadruple.create(mu=[(0.11, 1.0)], dim=1)
        snapped, dist = snap_to_grid(q, grid64)
        assert dist <= grid64.spacing / 2
        assert snapped.mu_points[0, 0] == pytest.approx(0.11, abs=grid64.spacing / 2)

    def test_snap_is_idempotent(self, grid64):
        q = LevyQuadruple.create(mu=[(0.11, 1.0)], nu=[(1.3, 2.0)], dim=1)
        once, _ = snap_to_grid(q, grid64)
        twice, dist = snap_to_grid(once, grid64)
        assert dist <= 1e-12
        assert np.allclose(once.mu_points, twice.mu_points, atol=1e-15)

    def test_nu_atom_snapping_to_origin_rejected(self, grid64):
        q = LevyQuadruple.create(nu=[(grid64.spacing / 4, 1.0)], dim=1)
        with pytest.raises(ConfigurationError):
            snap_to_grid(q, grid64)


class TestLevySymbol:
    def test_pure_diffusion(self, grid8):
        psi = full_row(one_member_table(diffusion(1.0), grid8))
        k = np.fft.fftfreq(8, 1 / 8).astype(int)
        k[k == -4] = 4
        assert np.max(np.abs(psi - (-0.5 * k.astype(float) ** 2))) == 0.0

    def test_small_jump_pair_formula(self, grid256):
        # second-difference atom: weight h^-2 at the grid point nearest 0.1
        h = grid_point_near(grid256, 0.1)
        v = 1.0 / h**2
        q = LevyQuadruple.create(nu=[(h, v)], dim=1)
        psi = full_row(one_member_table(q, grid256))
        expected = v * (math.cos(h) - 1.0) + 1j * v * (math.sin(h) - h)
        assert abs(psi[1] - expected) < 1e-12
        # close to the nominal h = 0.1 value -0.4995835 - 0.0166583i
        assert abs(psi[1] - (-0.4995835 - 0.0166583j)) < 1e-3

    def test_wrapped_cauchy_modes(self, grid256):
        q = wrapped_cauchy_quadruple(grid256, gamma=0.5, rate=1.0)
        psi = full_row(one_member_table(q, grid256))
        assert abs(psi[2] - (math.exp(-1.0) - 1.0)) < 1e-9
        assert psi[2].real == pytest.approx(-0.6321206, abs=1e-6)

    @pytest.mark.parametrize("gamma", [1e-10, 1e-150])
    def test_wrapped_cauchy_concentrated_law(self, grid64, gamma):
        # nearly all mass on the zero jump; the density must not divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = wrapped_cauchy_quadruple(grid64, gamma=gamma, rate=1.0)
        assert q.mu_weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.mu_weights.max() == pytest.approx(1.0, abs=1e-8)

    def test_wrapped_cauchy_unresolvable_law_rejected(self, grid64):
        with pytest.raises(ConfigurationError):
            wrapped_cauchy_quadruple(grid64, gamma=1e-300, rate=1.0)

    def test_invariants_random_quadruples(self, grid64):
        rng = np.random.default_rng(17)
        idx = (-np.arange(grid64.n)) % grid64.n
        for _ in range(10):
            mu = [(grid64.spacing * rng.integers(1, 64), rng.uniform(0.1, 2.0))
                  for _ in range(rng.integers(0, 4))]
            nu = [(grid64.spacing * rng.integers(1, 64), rng.uniform(0.1, 2.0))
                  for _ in range(rng.integers(0, 4))]
            q = LevyQuadruple.create(
                b=rng.normal(), sigma=rng.uniform(0.0, 2.0), mu=mu, nu=nu, dim=1
            )
            psi = full_row(one_member_table(q, grid64))
            assert psi[0] == 0.0
            assert np.max(psi.real) <= 1e-12
            assert np.array_equal(psi[idx], np.conj(psi))

    def test_2d_symbol_invariants(self):
        g = make_grid(2, 16)
        q = LevyQuadruple.create(
            b=[0.3, -0.2],
            sigma=np.array([[1.0, 0.4], [0.4, 0.5]]),
            mu=[([g.spacing * 3, g.spacing * 5], 0.7)],
            dim=2,
        )
        psi = full_row(one_member_table(q, g))
        idx = (-np.arange(16)) % 16
        assert psi[0, 0] == 0.0
        assert np.max(psi.real) <= 1e-12
        assert np.array_equal(psi[np.ix_(idx, idx)], np.conj(psi))


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (1, 256), (2, 8), (2, 32), (2, 256)])
def test_table_rows_are_the_reference_half_spectra(dim, n):
    """Each table row is, bitwise, the half spectrum of the symbol evaluated on
    the full grid (full_row asserts it): drift with off-diagonal Sigma, large-
    and small-jump atoms with a heavy atom one grid step from pi, a compound
    Poisson jump at pi and, in 1D, wrapped Cauchy at scale 60."""
    g = make_grid(dim, n)
    h = g.spacing
    sigma = np.array([[1.0, 0.4], [0.4, 0.5]])[:dim, :dim]
    members = [
        LevyQuadruple.create(b=[0.3, -0.2][:dim], sigma=sigma, dim=dim),
        LevyQuadruple.create(b=0.0, sigma=0.25, dim=dim,
                             mu=[([np.pi - h] * dim, 1e4), ([3 * h, -5 * h][:dim], 0.7)],
                             nu=[([h] * dim, 2.0), ([-2 * h] * dim, 0.5)]),
        compound_poisson([([np.pi] * dim, 1.0)], rate=3.0, dim=dim),
    ]
    if dim == 1:
        members.append(wrapped_cauchy_quadruple(g, gamma=0.2, rate=1.0, scale=60.0))
    table = SymbolTable.build(GeneratorFamily(tuple(members)), g)
    for i in range(len(table)):
        assert full_row(table, i).shape == g.shape


def asymmetric_table(table):
    """The table with i added to every mode but 0 of each full row: psi(0) and
    Re psi stay valid, conjugate symmetry does not (on the half spectrum the
    table keeps, at the Nyquist mode)."""
    psi = np.stack([full_row(table, i) for i in range(len(table))])
    psi[:, 1:] += 1j
    return SymbolTable(table.grid, table.family, psi[..., : table.grid.n // 2 + 1])


class TestApplyLinear:
    """One member's linear evolution: its row of the table's kernel."""

    def test_time_zero_identity(self, two_sigma_table, cos128):
        assert np.all(two_sigma_table.multipliers(0.0) == 1.0)
        out = member_evolution(two_sigma_table, 0.0, cos128, member=1)
        assert sup_distance(out, cos128) <= 1e-15

    def test_negative_time_rejected(self, two_sigma_table, cos128):
        with pytest.raises(ConfigurationError):
            member_evolution(two_sigma_table, -0.1, cos128)

    @pytest.mark.parametrize("t", [0.5, 0.0])
    def test_asymmetric_symbol_rejected(self, two_sigma_table, cos128, t):
        # the inverse real FFT would read only the Hermitian part and return
        # a wrong real function; the table refuses the symbol before any step
        with pytest.raises(ConsistencyError, match="conjugate symmetry fails at mode"):
            member_evolution(asymmetric_table(two_sigma_table), t, cos128)

    def test_compound_poisson_half_turn(self, grid128):
        q = compound_poisson([(np.pi, 1.0)], rate=1.0)
        table = one_member_table(q, grid128)
        assert table.psi[0, 1] == pytest.approx(-2.0, abs=1e-14)  # exp(i pi) - 1
        f = sample(grid128, "cosine", k=1)
        out = member_evolution(table, 0.5, f)
        assert sup_distance(out, GridFunction(grid128, math.exp(-1.0) * f.values)) < 1e-12
        assert math.exp(-1.0) == pytest.approx(0.3678794, abs=1e-7)

    def test_heat_multiplier(self, grid128):
        table = one_member_table(diffusion(1.0), grid128)
        f = sample(grid128, "cosine", k=1)
        out = member_evolution(table, 1.0, f)
        assert sup_distance(out, GridFunction(grid128, math.exp(-0.5) * f.values)) < 1e-12
        assert math.exp(-0.5) == pytest.approx(0.6065307, abs=1e-7)

    def test_semigroup_law(self, grid64):
        rng = np.random.default_rng(23)
        q = LevyQuadruple.create(
            b=0.7, sigma=0.8,
            mu=[(grid64.spacing * 9, 0.5)], nu=[(grid64.spacing * 2, 1.5)], dim=1,
        )
        table = one_member_table(q, grid64)
        for _ in range(5):
            f = random_trig(grid64, rng, kmax=16)
            s, t = rng.uniform(0.05, 0.8, size=2)
            one = member_evolution(table, s + t, f)
            two = member_evolution(table, s, member_evolution(table, t, f))
            assert sup_distance(one, two) <= 1e-10

    def test_contraction(self, grid128):
        rng = np.random.default_rng(29)
        table = one_member_table(diffusion(1.0), grid128)
        for _ in range(5):
            f = random_trig(grid128, rng, kmax=32, amplitude=rng.uniform(0.5, 4.0))
            out = member_evolution(table, rng.uniform(0.0, 1.0), f)
            assert out.sup_norm <= f.sup_norm + 1e-9

    def test_positivity(self, grid256):
        table = one_member_table(diffusion(1.0), grid256)
        f = sample(grid256, "bump", center=0.5, width=1.0)
        out = member_evolution(table, 0.3, f)
        assert float(np.min(out.values)) >= -1e-6

    def test_translation_equivariance(self, grid128):
        rng = np.random.default_rng(31)
        q = LevyQuadruple.create(b=0.3, sigma=0.5, mu=[(np.pi, 1.0)], dim=1)
        table = one_member_table(q, grid128)
        f = random_trig(grid128, rng, kmax=20)
        a = GridFunction(grid128, np.roll(member_evolution(table, 0.4, f).values, -17))
        b = member_evolution(table, 0.4, GridFunction(grid128, np.roll(f.values, -17)))
        assert sup_distance(a, b) <= 1e-12

    def test_constant_preserved_exactly(self, two_sigma_table, grid128):
        f = sample(grid128, "constant", value=2.75)
        out = member_evolution(two_sigma_table, 0.37, f, member=1)
        assert np.all(out.values == 2.75)

    def test_matches_series_oracle_on_jump_quadruples(self, grid64):
        rng = np.random.default_rng(37)
        for _ in range(5):
            atoms = [
                (grid64.spacing * rng.integers(0, 64), rng.uniform(0.2, 1.5))
                for _ in range(rng.integers(1, 5))
            ]
            q = compound_poisson(atoms, rate=float(rng.uniform(0.2, 2.0)))
            table = one_member_table(q, grid64)
            f = random_trig(grid64, rng, kmax=16)
            t = float(rng.uniform(0.1, 1.0))
            spectral = member_evolution(table, t, f)
            series = poisson_series_apply(q, t, f, tail_tol=1e-10)
            assert sup_distance(spectral, series) <= 1e-10 + 1e-9


class TestGeneratorApply:
    """One member's generator: its row of the kernel on the table's psi."""

    def test_diffusion_on_cos(self, grid128, cos128):
        # rounding noise on empty modes is amplified by psi(k) ~ k^2/2
        out = member_generator(one_member_table(diffusion(1.0), grid128), cos128)
        assert sup_distance(out, GridFunction(grid128, -0.5 * cos128.values)) < 1e-12

    def test_second_difference_limit(self):
        g = make_grid(1, 1024)
        f = sample(g, "cosine", k=1)
        h = grid_point_near(g, 0.01)
        table = one_member_table(LevyQuadruple.create(nu=[(h, 1.0 / h**2)], dim=1), g)
        out = member_generator(table, f)
        assert sup_distance(out, GridFunction(g, -0.5 * f.values)) <= 5e-3

    def test_asymmetric_symbol_rejected(self, two_sigma_table, cos128):
        with pytest.raises(ConsistencyError, match="conjugate symmetry fails at mode"):
            member_generator(asymmetric_table(two_sigma_table), cos128)

    def test_constant_maps_to_zero(self, two_sigma_table, grid128):
        f = sample(grid128, "constant", value=4.0)
        out = member_generator(two_sigma_table, f)
        assert out.sup_norm == 0.0

    def test_symbol_consistent_with_time_derivative(self, grid64):
        # independent finite-difference validation of the multiplier bridge
        q = LevyQuadruple.create(
            b=0.4, sigma=0.6, mu=[(np.pi / 2, 0.8)], nu=[(grid64.spacing * 3, 1.2)], dim=1
        )
        table = one_member_table(q, grid64)
        rng = np.random.default_rng(41)
        f = random_trig(grid64, rng, kmax=8)
        gen = member_generator(table, f)
        eps = 1e-6
        quotient = (member_evolution(table, eps, f).values - f.values) / eps
        assert np.max(np.abs(quotient - gen.values)) < 1e-3


class TestFamilyConstant:
    def test_unit_diffusion(self):
        fam = GeneratorFamily((diffusion(1.0),))
        assert family_constant(fam) == pytest.approx(1.0, abs=1e-14)

    def test_jump_mass(self):
        fam = GeneratorFamily((compound_poisson([(np.pi, 1.0)], rate=2.0),))
        assert family_constant(fam) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.01, 1.5])
    def test_second_difference_family_is_one(self, h):
        fam = GeneratorFamily((LevyQuadruple.create(nu=[(h, 1.0 / h**2)], dim=1),))
        assert family_constant(fam) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b, norm", [([1e300], 1e300), ([-3e200, 4e200], 5e200)])
    def test_huge_drift_norm_is_finite_and_silent(self, b, norm):
        # b.b overflows where |b| does not
        fam = GeneratorFamily((drift(b, dim=len(b)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert family_constant(fam) == pytest.approx(norm, rel=1e-15)


class TestSampleIncrement:
    def test_zero_quadruple(self):
        q = LevyQuadruple.create(dim=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_increment(q, 0.5, rng)[0] == 0.0

    def test_pure_drift(self):
        q = drift(1.0)
        rng = np.random.default_rng(0)
        assert sample_increment(q, 0.25, rng)[0] == pytest.approx(0.25, abs=0)

    def test_gaussian_variance(self):
        q = diffusion(1.0)
        rng = np.random.default_rng(123)
        draws = np.array([sample_increment(q, 0.01, rng)[0] for _ in range(10**5)])
        assert 0.0094 <= float(np.var(draws)) <= 0.0106

    def test_compensation_shifts_mean(self):
        z, v = 0.5, 2.0
        q = LevyQuadruple.create(nu=[(z, v)], dim=1)
        rng = np.random.default_rng(7)
        draws = np.array([sample_increment(q, 0.01, rng)[0] for _ in range(2 * 10**4)])
        # compensated small jumps have mean zero
        assert abs(float(np.mean(draws))) < 3 * float(np.std(draws)) / math.sqrt(draws.size)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_increment(diffusion(1.0), 0.0, np.random.default_rng(0))


def assert_moments(draws, mean, cov, k=4.0):
    """Sample mean and covariance within k standard errors of the law's."""
    n, d = draws.shape
    got = draws.mean(axis=0)
    assert np.all(np.abs(got - mean) <= k * draws.std(axis=0, ddof=1) / math.sqrt(n))
    centred = draws - got
    for a in range(d):
        for b in range(d):
            prod = centred[:, a] * centred[:, b]
            se = float(np.std(prod, ddof=1)) / math.sqrt(n)
            assert abs(float(prod.mean()) - cov[a][b]) <= k * se, (a, b)


class TestSampleIncrements:
    N = 200_000

    def test_diffusion_with_drift(self):
        q = LevyQuadruple.create(b=0.3, sigma=0.8)
        dt = 0.05
        draws = sample_increments(q, dt, np.random.default_rng(11), self.N)
        assert draws.shape == (self.N, 1)
        assert_moments(draws, [0.3 * dt], [[0.8 * dt]])

    def test_compound_poisson_two_atoms(self):
        q = compound_poisson([(0.4, 1.0), (-0.7, 2.0)], rate=3.0)
        dt = 0.1
        draws = sample_increments(q, dt, np.random.default_rng(12), self.N)
        assert_moments(draws, [dt * (0.4 - 1.4)], [[dt * (0.16 + 0.98)]])

    def test_2d_anisotropic_sigma_with_jumps(self):
        sigma = np.array([[1.0, 0.4], [0.4, 0.5]])
        mu = [([0.3, 0.0], 2.0), ([0.0, -0.3], 1.0)]
        nu = [([0.2, 0.2], 3.0)]
        q = LevyQuadruple.create(b=[0.2, -0.1], sigma=sigma, mu=mu, nu=nu, dim=2)
        dt = 0.05
        draws = sample_increments(q, dt, np.random.default_rng(13), self.N)
        assert draws.shape == (self.N, 2)
        # compensated small jumps add no mean; every atom adds w * y y^T to the covariance
        mean = dt * (np.array([0.2, -0.1]) + sum(w * np.array(y) for y, w in mu))
        cov = dt * (sigma + sum(w * np.outer(y, y) for y, w in mu + nu))
        assert_moments(draws, mean, cov)

    def test_pure_drift_is_exact_and_draws_nothing(self):
        q = drift([0.3, -0.2], dim=2)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        draws = sample_increments(q, 0.5, rng, 7)
        assert np.array_equal(draws, np.tile([0.15, -0.1], (7, 1)))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ConfigurationError):
            sample_increments(diffusion(1.0), dt, np.random.default_rng(0), 10)


class TestSymbolTable:
    def test_build_validates_and_snaps(self, grid64):
        fam = GeneratorFamily(
            (diffusion(1.0), compound_poisson([(0.11, 1.0)], rate=1.0))
        )
        table = SymbolTable.build(fam, grid64)
        assert len(table) == 2
        assert 0.0 < table.snap_distance <= grid64.spacing / 2
        assert table.max_abs_symbol >= 0.5 * 32**2

    def test_multiplier_time_validation(self, two_sigma_table):
        with pytest.raises(ConfigurationError):
            two_sigma_table.multipliers(-1.0)

    def test_shape_must_fit_family_and_grid(self, two_sigma_table):
        grid, family = two_sigma_table.grid, two_sigma_table.family
        with pytest.raises(ConfigurationError, match="symbol table shape"):
            SymbolTable(grid, family, two_sigma_table.psi[:1])
        with pytest.raises(ConfigurationError, match="symbol table shape"):  # a full spectrum
            SymbolTable(grid, family, np.zeros((2,) + grid.shape, dtype=complex))

    @pytest.mark.parametrize("dim,index,message", [
        (1, (0,), "psi(0) = 1j is not exactly 0"),  # the 1D mode-0 slice is the origin
        (1, (4,), "conjugate symmetry fails at mode (4,)"),
        (2, (5, 0), "conjugate symmetry fails at mode (3, 0)"),  # (-3, 0) pairs with (3, 0)
        (2, (0, 4), "conjugate symmetry fails at mode (0, 4)"),
        (2, (6, 4), "conjugate symmetry fails at mode (2, 4)"),
    ])
    def test_half_row_breaking_symmetry_names_the_mode(self, dim, index, message):
        # a half row holds a mode and its negation only on the last-axis modes
        # 0 and n/2; i added at one slot there breaks conjugate symmetry
        grid = make_grid(dim, 8)
        table = SymbolTable.build(_kernel_family(grid), grid)
        psi = table.psi.copy()
        psi[(1,) + index] += 1j
        with pytest.raises(ConsistencyError, match=re.escape(f"member-1: {message}")):
            SymbolTable(grid, table.family, psi)


def _kernel_family(grid):
    """Drift (complex psi), compensated small jumps, large jumps, anisotropic Sigma."""
    h, d = grid.spacing, grid.dim
    if d == 1:
        return GeneratorFamily((
            drift(0.7),
            LevyQuadruple.create(b=0.2, sigma=0.3, nu=[(3 * h, 2.0), (-5 * h, 1.0)]),
            compound_poisson([(7 * h, 1.0), (-2 * h, 0.5)], rate=2.0),
        ))
    return GeneratorFamily((
        LevyQuadruple.create(b=[0.3, -0.2], sigma=np.array([[1.0, 0.4], [0.4, 0.5]]),
                             dim=2),
        LevyQuadruple.create(b=[-0.5, 0.1], sigma=0.2, nu=[([2 * h, -h], 1.5)],
                             mu=[([3 * h, 5 * h], 0.7)], dim=2),
        drift([1.0, 0.25], dim=2),
    ))


class TestSpectralKernel:
    """SpectralWorkspace against the complex full-spectrum route."""

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (2, 64)])
    @pytest.mark.parametrize("t", [0.0, 0.05, 0.3])
    def test_matches_complex_route(self, dim, n, t):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        # kmax = n/2 puts energy on the Nyquist shell
        f = random_trig(grid, np.random.default_rng(n + dim), kmax=n // 2)
        out = SpectralWorkspace(grid, len(table)).apply(table.multipliers(t), f.values)
        assert out.dtype == np.float64
        assert out.shape == (len(table),) + grid.shape
        coeffs = forward_transform(f).coeffs
        for i in range(len(table)):
            ref = inverse_transform(Spectrum(grid, np.exp(t * full_row(table, i)) * coeffs))
            assert float(np.max(np.abs(out[i] - ref.values))) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_generator_matches_complex_route(self, dim, n):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        f = random_trig(grid, np.random.default_rng(3), kmax=6)
        out = SpectralWorkspace(grid, len(table)).apply(table.psi, f.values)
        coeffs = forward_transform(f).coeffs
        for i in range(len(table)):
            ref = inverse_transform(Spectrum(grid, full_row(table, i) * coeffs))
            assert float(np.max(np.abs(out[i] - ref.values))) <= 1e-12 * table.max_abs_symbol

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (2, 64)])
    def test_multipliers_live_on_the_half_spectrum(self, dim, n):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        mults = table.multipliers(0.1)
        assert mults.shape == (len(table),) + (n,) * (dim - 1) + (n // 2 + 1,)
        assert table.psi.shape == mults.shape
        for i in range(len(table)):
            assert full_row(table, i).shape == grid.shape

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (2, 64)])
    def test_max_abs_symbol_is_the_full_rows(self, dim, n):
        # |conj z| = |z| bitwise, so the half spectrum holds the full maximum
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        full = max(float(np.max(np.abs(full_row(table, i)))) for i in range(len(table)))
        assert table.max_abs_symbol.hex() == full.hex()

    def test_nonfinite_output_raises(self, grid64):
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid64)
        mults = table.multipliers(0.1).copy()
        mults[0, 3] = np.inf
        # numpy warns on the inf before the kernel's own check raises
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(ConsistencyError, match="non-finite"):
                SpectralWorkspace(grid64, 1).apply(mults, sample(grid64, "cosine", k=3).values)

    def test_member_at_minus_infinity_raises(self, grid64):
        # an infinite mode-0 multiplier on data of positive mean makes member 1
        # -inf at every point; member 0 keeps the member maximum finite
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0), diffusion(0.5))), grid64)
        mults = table.multipliers(0.1).copy()
        mults[1, 0] = -np.inf
        values = sample(grid64, "cosine", k=3).values + 2.0
        for by_member in (False, True):
            ws = schedule_workspace(grid64, 2, by_member)
            with pytest.warns(RuntimeWarning, match="invalid value"):
                with np.errstate(invalid="ignore"):
                    assert np.isneginf(np.fft.irfft(mults[1] * np.fft.rfft(values), 64)).all()
                with pytest.raises(ConsistencyError, match="non-finite"):
                    ws.envelope(mults, values)

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 64)])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_workspace_bitwise_equals_irfftn(self, dim, n, m):
        grid = make_grid(dim, n)
        members = (_kernel_family(grid).members * 2)[:m]
        table = SymbolTable.build(GeneratorFamily(members), grid)
        rng = np.random.default_rng(10 * n + m)
        ws = SpectralWorkspace(grid, m)
        axes = tuple(range(1, dim + 1))
        am = np.empty(grid.shape, dtype=np.int64)
        # repeated calls on one workspace keep no state from the previous call
        for t in (0.05, 0.3):
            mults = table.multipliers(t)
            v = rng.standard_normal(grid.shape)
            ref = np.fft.irfftn(mults * np.fft.rfftn(v), s=grid.shape, axes=axes)
            out = ws.apply(mults, v)
            assert out is ws.stack
            assert np.array_equal(out, ref)
            assert np.array_equal(ws.coeffs, np.fft.rfftn(v))
            # the envelope step into a new array, a separate one, and values itself
            for out in (None, np.empty(grid.shape), v):
                top = ws.envelope(mults, v, out=out, argmax=am)
                assert out is None or top is out
                assert np.array_equal(top, np.max(ref, axis=0))
                assert np.array_equal(am, np.argmax(ref, axis=0))

    @pytest.mark.parametrize("dim,n", [(1, 128), (1, 96), (2, 32), (2, 256)])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("generators", [False, True], ids=["multipliers", "symbols"])
    def test_kernel_bitwise_equals_public_numpy(self, dim, n, rows, generators):
        # the kernel calls numpy's pocketfft gufuncs without np.fft's wrappers,
        # so this pins their contract: the bits of the public rfftn and irfftn,
        # on the whole stack and (2D n=256) member at a time
        self._matches_public_numpy(dim, n, rows, generators)

    @pytest.mark.parametrize("dim,n", [(1, 128), (1, 96), (2, 32), (2, 256)])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("generators", [False, True], ids=["multipliers", "symbols"])
    def test_public_fft_fallback_bitwise_equals_public_numpy(self, dim, n, rows, generators,
                                                             monkeypatch):
        # the fallback for a numpy without the private FFT module gives those bits too
        monkeypatch.setattr(levy, "pocketfft", levy._PublicFFT)
        self._matches_public_numpy(dim, n, rows, generators)

    @staticmethod
    def _matches_public_numpy(dim, n, rows, generators):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        # one set per row: the symbols, or the multipliers, at row-own scales
        scales = (1.0,) if rows is None else (1.0, 2.0, 6.0)
        mults = np.stack([c * table.psi if generators else table.multipliers(0.05 * c)
                          for c in scales])
        if rows is None:
            mults = mults[0]
        v = np.random.default_rng(n + dim).standard_normal(mults.shape[:-dim - 1] + grid.shape)
        axes = tuple(range(-dim, 0))
        coeffs = np.expand_dims(np.fft.rfftn(v, axes=axes), -dim - 1)  # a member axis
        ref = np.fft.irfftn(mults * coeffs, s=grid.shape, axes=axes)
        ws = SpectralWorkspace(grid, len(table), rows=rows)
        assert ws.by_member == (grid.size >= MEMBER_POINTS)
        assert np.array_equal(ws.apply(mults, v), ref)
        assert np.array_equal(ws.envelope(mults, v), np.max(ref, axis=-dim - 1))

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 64)])
    def test_envelope_bitwise_equals_member_max(self, dim, n):
        grid = make_grid(dim, n)
        # the repeated members tie exactly everywhere
        members = _kernel_family(grid).members * 2
        table = SymbolTable.build(GeneratorFamily(members), grid)
        ws = SpectralWorkspace(grid, len(table))
        mults = table.multipliers(0.05)
        am = np.empty(grid.shape, dtype=np.int64)
        for v in (random_trig(grid, np.random.default_rng(n + dim), kmax=n // 2).values,
                  np.full(grid.shape, 0.75)):
            stack = SpectralWorkspace(grid, len(table)).apply(mults, v)
            out = ws.envelope(mults, v, argmax=am)
            assert np.array_equal(out, np.max(stack, axis=0))
            assert np.array_equal(am, np.argmax(stack, axis=0))
            assert np.all(am < len(members) // 2)
            # in place, as the composition loop calls it
            w = v.copy()
            assert ws.envelope(mults, w, out=w) is w
            assert np.array_equal(w, out)
        # constant data is kept by every member, and the tie goes to member 0
        assert np.array_equal(out, v)
        assert not am.any()


def _bits(a: np.ndarray) -> bytes:
    """The bytes of a: np.array_equal takes -0.0 for +0.0."""
    return np.ascontiguousarray(a).tobytes()


def _kernel_routes(dim, n):
    """A function that runs every route to the kernel on a small two-member
    table and returns the bits of each output."""
    grid = make_grid(dim, n)
    table = SymbolTable.build(GeneratorFamily((diffusion(0.25, dim), diffusion(1.0, dim))), grid)
    f = sample(grid, "bump", center=[0.0] * dim, width=1.5)

    def run():
        # a wide guard: on a coarse 2D grid level 1 drops below level 0 by
        # 5.5e-4 (see nisio_evolve); only the bits are under test here
        res = nisio_evolve(table, 0.1, f, max_level=4, tol=0.0, record_argmax_level=2,
                           monotonicity_tol=1e-3)
        traj = picard_solve(table, f, 0.01, 1e-3)
        return [_bits(a) for a in (res.value.values, res.increments, res.argmax.feedback,
                                   [u.values for u in traj.snapshots], traj.residuals,
                                   apply_J(table, 0.1, f).values, lipschitz_bound(table, f))]

    return run


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_kernel_calls_no_np_fft_wrapper(dim, n, monkeypatch):
    """Every route to the kernel gives the same bits with np.fft's one-axis
    wrappers made to raise: the kernel calls the gufuncs beneath them."""
    run = _kernel_routes(dim, n)
    before = run()

    def wrapper(*args, **kwargs):
        raise AssertionError("the kernel called an np.fft wrapper")

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, wrapper)
    assert run() == before


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_public_fft_fallback_gives_the_private_bits(dim, n, monkeypatch):
    """Without numpy's private FFT module the kernel runs on the public np.fft
    functions, and every route to it gives the same bits."""
    run = _kernel_routes(dim, n)
    before = run()
    monkeypatch.setattr(levy, "pocketfft", levy._PublicFFT)
    assert run() == before


def test_public_fft_fallback_refuses_other_factors():
    """The public functions apply only their default norm, 1 forward and 1/n
    inverse for the n points of the output axis; the fallback refuses the rest."""
    last = [(-1,), (), (-1,)]
    spec, half, real = np.zeros(8, dtype=complex), np.zeros(5, dtype=complex), np.zeros(8)
    levy._PublicFFT.ifft(spec, 1 / 8, axes=last, out=spec)
    levy._PublicFFT.irfft(half, 1 / 8, axes=last, out=real)
    for call, a, factor, out in ((levy._PublicFFT.rfft_n_even, real, 1 / 8, half),
                                 (levy._PublicFFT.fft, spec, 0.5, spec),
                                 (levy._PublicFFT.ifft, spec, 1.0, spec),
                                 (levy._PublicFFT.irfft, half, 1 / 5, real)):
        with pytest.raises(ConsistencyError, match="factor"):
            call(a, factor, axes=last, out=out)


def test_a_numpy_without_the_private_fft_module_runs_the_kernel():
    """With numpy.fft._pocketfft_umath gone, as in a numpy that moves it,
    sublevy imports, binds the public fallback, and evolves to the same bits."""
    hide = ("import sys, numpy.fft\n"
            "del numpy.fft._pocketfft_umath\n"
            "sys.modules['numpy.fft._pocketfft_umath'] = None\n")
    evolve = ("from sublevy import levy, GeneratorFamily, SymbolTable, diffusion, make_grid, "
              "nisio_evolve, sample\n"
              "grid = make_grid(1, 128)\n"
              "family = GeneratorFamily((diffusion(0.25), diffusion(1.0)))\n"
              "table = SymbolTable.build(family, grid)\n"
              "f = sample(grid, 'cosine', k=1)\n"
              "res = nisio_evolve(table, 0.1, f, max_level=4, tol=0.0)\n"
              "print(levy.pocketfft is levy._PublicFFT, res.value.values.tobytes().hex())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(levy.__file__).resolve().parents[1])}
    default, fallback = (subprocess.run([sys.executable, "-c", prefix + evolve], env=env,
                                        capture_output=True, text=True, check=True, timeout=60)
                         for prefix in ("", hide))
    assert default.stdout.split()[0] == "False" and fallback.stdout.split()[0] == "True"
    assert fallback.stdout.split()[1] == default.stdout.split()[1]


class TestMemberSchedule:
    """On large grids envelope evolves one member at a time and folds it into
    the maximum at once; it must give the bits of the whole-stack schedule."""

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("rows,per_row", [(None, False), (3, False), (3, True)])
    def test_bitwise_equals_whole_stack(self, dim, n, rows, per_row):
        grid = make_grid(dim, n)
        members = _kernel_family(grid).members
        # member 3 repeats member 1, so the two tie exactly everywhere
        table = SymbolTable.build(GeneratorFamily(members + members[1:2]), grid)
        m = len(table)
        whole = schedule_workspace(grid, m, False, rows=rows)
        split = schedule_workspace(grid, m, True, rows=rows)
        shape = grid.shape if rows is None else (rows,) + grid.shape
        values = np.random.default_rng(10 * dim + n).standard_normal(shape)
        if per_row:
            mults = np.stack([table.multipliers(t) for t in (0.05, 0.2, 0.6)])
        else:
            mults = table.multipliers(0.05)
        for target in ("new", "separate", "values"):
            results = []
            for ws in (whole, split):
                v = values.copy()
                out = {"new": None, "separate": np.empty(shape), "values": v}[target]
                # maximizers are recorded of unbatched values only
                am = None if rows else np.full(grid.shape, -1, dtype=np.int64)
                top = ws.envelope(mults, v, out=out, argmax=am)
                assert out is None or top is out
                results.append((_bits(top), am))
            assert results[0][0] == results[1][0]
            if rows is None:
                assert np.array_equal(results[0][1], results[1][1])
        if rows is None:
            stack = whole.apply(mults, values)
            assert np.array_equal(results[1][1], np.argmax(stack, axis=0))
            assert np.all(results[1][1] != 3)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_signed_zeros_fold_in_member_order(self, dim, n):
        # zero data under multipliers of +1 and -1: every member is exactly
        # +0.0 or -0.0 at each point, with both signs at some points.
        # np.maximum returns its second argument on a tie of zeros, so only
        # the member order of np.maximum.reduce gives these bits
        grid = make_grid(dim, n)
        half = grid.shape[:-1] + (n // 2 + 1,)
        signs = np.array([1.0, -1.0, 1.0, -1.0]).reshape((4,) + (1,) * dim)
        mults = signs * np.ones((4,) + half, dtype=complex)
        values = np.zeros(grid.shape)
        whole = schedule_workspace(grid, 4, False)
        stack = whole.apply(mults, values).copy()
        assert np.all(stack == 0.0)
        assert np.any(np.signbit(stack).any(axis=0) & ~np.signbit(stack).all(axis=0))
        reduced = np.maximum.reduce(stack, axis=0)
        assert _bits(reduced) != _bits(np.maximum.reduce(stack[::-1], axis=0))
        for ws in (whole, schedule_workspace(grid, 4, True)):
            am = np.full(grid.shape, -1, dtype=np.int64)
            assert _bits(ws.envelope(mults, values.copy(), argmax=am)) == _bits(reduced)
            assert not am.any()

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_take_the_single_call(self, config):
        # the 1D workloads: one apply and one np.maximum.reduce per tick
        cfg = RunConfig.from_file(str(config))
        grid = make_grid(cfg.grid_dim, cfg.grid_n)
        m = len(build_family(cfg.family, grid))
        for rows in (None, batch_rows(grid, m)):
            assert not SpectralWorkspace(grid, m, rows=rows).by_member

    def test_large_2d_grid_goes_member_at_a_time(self):
        # the 2D n=256, m=4 envelope workload: one level in flight, member at a time
        grid = make_grid(2, 256)
        assert batch_rows(grid, 4) == 1
        assert SpectralWorkspace(grid, 4, rows=1).by_member
        assert SpectralWorkspace(grid, 4).by_member


class TestFamilyJson:
    def test_round_trip(self, tmp_path):
        fam = GeneratorFamily(
            (
                LevyQuadruple.create(
                    b=0.3, sigma=1.2, mu=[(np.pi / 2, 0.7)], nu=[(0.4, 2.0)], dim=1
                ),
                diffusion(0.25),
            ),
            ("jumpy", "smooth"),
        )
        # the documented wire format, written by hand: the package only reads it
        wire = [{"b": [0.3], "sigma": [[1.2]], "mu": [{"y": [np.pi / 2], "w": 0.7}],
                 "nu": [{"z": [0.4], "v": 2.0}], "label": "jumpy"},
                {"b": [0.0], "sigma": [[0.25]], "mu": [], "nu": [], "label": "smooth"}]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(wire))
        back = load_family(path)
        assert back.labels == ("jumpy", "smooth")
        for q, p in zip(back.members, fam.members):
            assert np.allclose(q.b, p.b, atol=0)
            assert np.allclose(q.sigma, p.sigma, atol=0)
            assert np.allclose(q.mu_points, p.mu_points, atol=0)
            assert np.allclose(q.nu_weights, p.nu_weights, atol=0)

    def test_malformed_family_rejected(self):
        with pytest.raises(ConfigurationError):
            family_from_json([{"b": [0.0], "mu": [{"y": [0.1]}]}])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_family(tmp_path / "absent.json")


class TestSymbolValidation:
    def test_positive_real_part_names_the_mode(self, grid8):
        from sublevy.levy import _validate_symbol

        psi = np.zeros(5, dtype=complex)  # modes 0..4 of n=8
        psi[3] = 0.5
        with pytest.raises(ConsistencyError, match=r"Re psi\(3,\)"):
            _validate_symbol(grid8, psi, "corrupted")

    def test_origin_must_vanish(self, grid8):
        from sublevy.levy import _validate_symbol

        psi = np.full(5, -1e-3 + 0j)
        with pytest.raises(ConsistencyError, match="psi\\(0\\)"):
            _validate_symbol(grid8, psi, "corrupted")
