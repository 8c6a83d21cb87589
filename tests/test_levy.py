import json
import math
import warnings

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
    apply_multipliers,
    compound_poisson,
    cyclic_shift,
    diffusion,
    drift,
    family_constant,
    family_from_json,
    family_to_json,
    forward_transform,
    inverse_transform,
    load_family,
    make_grid,
    poisson_series_apply,
    sample,
    sample_increment,
    sample_increments,
    save_family,
    snap_to_grid,
    sup_distance,
    wrapped_cauchy_quadruple,
)
from conftest import member_evolution, member_generator, one_member_table, random_trig


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
        with pytest.raises(ConfigurationError):
            LevyQuadruple.create(mu=[(1.0, 0.0)], dim=1)

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
        psi = one_member_table(diffusion(1.0), grid8).psi[0]
        k = np.fft.fftfreq(8, 1 / 8).astype(int)
        k[k == -4] = 4
        assert np.max(np.abs(psi - (-0.5 * k.astype(float) ** 2))) == 0.0

    def test_small_jump_pair_formula(self, grid256):
        # second-difference atom: weight h^-2 at the grid point nearest 0.1
        h = grid_point_near(grid256, 0.1)
        v = 1.0 / h**2
        q = LevyQuadruple.create(nu=[(h, v)], dim=1)
        psi = one_member_table(q, grid256).psi[0]
        expected = v * (math.cos(h) - 1.0) + 1j * v * (math.sin(h) - h)
        assert abs(psi[1] - expected) < 1e-12
        # close to the nominal h = 0.1 value -0.4995835 - 0.0166583i
        assert abs(psi[1] - (-0.4995835 - 0.0166583j)) < 1e-3

    def test_wrapped_cauchy_modes(self, grid256):
        q = wrapped_cauchy_quadruple(grid256, gamma=0.5, rate=1.0)
        psi = one_member_table(q, grid256).psi[0]
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
            psi = one_member_table(q, grid64).psi[0]
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
        psi = one_member_table(q, g).psi[0]
        idx = (-np.arange(16)) % 16
        assert psi[0, 0] == 0.0
        assert np.max(psi.real) <= 1e-12
        assert np.array_equal(psi[np.ix_(idx, idx)], np.conj(psi))


def asymmetric_table(table):
    """The table with i added to every mode but 0: psi(0) and Re psi stay valid,
    conjugate symmetry does not."""
    psi = table.psi.copy()
    psi[:, 1:] += 1j
    return SymbolTable(table.grid, table.family, psi)


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
        a = cyclic_shift(member_evolution(table, 0.4, f), 17)
        b = member_evolution(table, 0.4, cyclic_shift(f, 17))
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
        assert table.max_abs_symbol() >= 0.5 * 32**2

    def test_multiplier_time_validation(self, two_sigma_table):
        with pytest.raises(ConfigurationError):
            two_sigma_table.multipliers(-1.0)

    def test_shape_must_fit_family_and_grid(self, two_sigma_table):
        with pytest.raises(ConfigurationError, match="symbol table shape"):
            SymbolTable(two_sigma_table.grid, two_sigma_table.family, two_sigma_table.psi[:1])


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
    """apply_multipliers against the complex full-spectrum route."""

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (2, 64)])
    @pytest.mark.parametrize("t", [0.0, 0.05, 0.3])
    def test_matches_complex_route(self, dim, n, t):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        # kmax = n/2 puts energy on the Nyquist shell
        f = random_trig(grid, np.random.default_rng(n + dim), kmax=n // 2)
        out = apply_multipliers(grid, table.multipliers(t), f.values)
        assert out.dtype == np.float64
        assert out.shape == (len(table),) + grid.shape
        coeffs = forward_transform(f).coeffs
        for i in range(len(table)):
            ref = inverse_transform(Spectrum(grid, np.exp(t * table.psi[i]) * coeffs))
            assert float(np.max(np.abs(out[i] - ref.values))) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_generator_matches_complex_route(self, dim, n):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        f = random_trig(grid, np.random.default_rng(3), kmax=6)
        out = apply_multipliers(grid, table.psi_half, f.values)
        coeffs = forward_transform(f).coeffs
        for i in range(len(table)):
            ref = inverse_transform(Spectrum(grid, table.psi[i] * coeffs))
            assert float(np.max(np.abs(out[i] - ref.values))) <= 1e-12 * table.max_abs_symbol()

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (2, 64)])
    def test_multipliers_live_on_the_half_spectrum(self, dim, n):
        grid = make_grid(dim, n)
        table = SymbolTable.build(_kernel_family(grid), grid)
        mults = table.multipliers(0.1)
        assert mults.shape == (len(table),) + (n,) * (dim - 1) + (n // 2 + 1,)
        assert table.psi.shape == (len(table),) + grid.shape

    def test_nonfinite_output_raises(self, grid64):
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid64)
        mults = table.multipliers(0.1).copy()
        mults[0, 3] = np.inf
        # numpy warns on the inf before the kernel's own check raises
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(ConsistencyError, match="non-finite"):
                apply_multipliers(grid64, mults, sample(grid64, "cosine", k=3).values)

    def test_member_at_minus_infinity_raises(self, grid64):
        # an infinite mode-0 multiplier on data of positive mean makes member 1
        # -inf at every point; member 0 keeps the member maximum finite
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0), diffusion(0.5))), grid64)
        mults = table.multipliers(0.1).copy()
        mults[1, 0] = -np.inf
        values = sample(grid64, "cosine", k=3).values + 2.0
        ws = SpectralWorkspace(grid64, 2)
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
            assert np.array_equal(apply_multipliers(grid, mults, v), ref)
            # the envelope step into a new array, a separate one, and values itself
            for out in (None, np.empty(grid.shape), v):
                top = ws.envelope(mults, v, out=out, argmax=am)
                assert out is None or top is out
                assert np.array_equal(top, np.max(ref, axis=0))
                assert np.array_equal(am, np.argmax(ref, axis=0))

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
            stack = apply_multipliers(grid, mults, v)
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

    def test_fresh_workspace_result_is_the_callers(self, two_sigma_table, bump128):
        mults = two_sigma_table.multipliers(0.1)
        a = apply_multipliers(two_sigma_table.grid, mults, bump128.values)
        b = apply_multipliers(two_sigma_table.grid, mults, bump128.values)
        assert not np.shares_memory(a, b)


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
        path = tmp_path / "family.json"
        save_family(path, fam)
        back = load_family(path)
        assert back.labels == ("jumpy", "smooth")
        for q, p in zip(back.members, fam.members):
            assert np.allclose(q.b, p.b, atol=0)
            assert np.allclose(q.sigma, p.sigma, atol=0)
            assert np.allclose(q.mu_points, p.mu_points, atol=0)
            assert np.allclose(q.nu_weights, p.nu_weights, atol=0)

    def test_wire_format_shape(self):
        fam = GeneratorFamily((LevyQuadruple.create(b=1.0, sigma=0.5,
                                                    mu=[(1.0, 2.0)], dim=1),))
        obj = family_to_json(fam)[0]
        assert set(obj) == {"b", "sigma", "mu", "nu", "label"}
        assert obj["mu"][0].keys() == {"y", "w"}
        json.dumps(obj)  # serializable

    def test_malformed_family_rejected(self):
        with pytest.raises(ConfigurationError):
            family_from_json([{"b": [0.0], "mu": [{"y": [0.1]}]}])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_family(tmp_path / "absent.json")


class TestSymbolValidation:
    def test_positive_real_part_names_the_mode(self, grid8):
        from sublevy.levy import _validate_symbol

        psi = np.zeros(8, dtype=complex)
        psi[3] = 0.5
        psi[-3] = 0.5
        with pytest.raises(ConsistencyError, match=r"Re psi\(3,\)"):
            _validate_symbol(grid8, psi, "corrupted")

    def test_origin_must_vanish(self, grid8):
        from sublevy.levy import _validate_symbol

        psi = np.full(8, -1e-3 + 0j)
        with pytest.raises(ConsistencyError, match="psi\\(0\\)"):
            _validate_symbol(grid8, psi, "corrupted")
