import math

import numpy as np
import pytest

from sublevy import (
    BudgetError,
    LevyQuadruple,
    ConfigurationError,
    GeneratorFamily,
    GridFunction,
    SymbolTable,
    Trajectory,
    compound_poisson,
    diffusion,
    drift,
    make_grid,
    mass_diagnostic,
    nisio_evolve,
    picard_solve,
    poisson_series_apply,
    residual_check,
    sample,
    stability_limit,
    sup_distance,
    wrapped_cauchy_quadruple,
)
from sublevy.oracles import PICARD_WORK_BUDGET
from conftest import member_evolution, one_member_table, random_trig


@pytest.fixture(scope="module")
def single_table64():
    g = make_grid(1, 64)
    return SymbolTable.build(GeneratorFamily((diffusion(1.0),)), g)


class TestPoissonSeries:
    def test_zero_rate_is_identity(self, grid64):
        f = sample(grid64, "cosine", k=3)
        out = poisson_series_apply(compound_poisson([(np.pi, 1.0)], rate=0.0), 0.7, f)
        assert out is f

    def test_zero_time_is_identity(self, grid64):
        f = sample(grid64, "cosine", k=3)
        assert poisson_series_apply(compound_poisson([(np.pi, 1.0)]), 0.0, f) is f

    def test_half_turn_closed_form(self, grid128):
        # jumps of pi flip cos, so the series telescopes to exp(-2t) cos
        f = sample(grid128, "cosine", k=1)
        out = poisson_series_apply(compound_poisson([(np.pi, 1.0)]), 0.5, f, tail_tol=1e-12)
        expected = GridFunction(grid128, math.exp(-1.0) * f.values)
        assert sup_distance(out, expected) <= 1e-11

    def test_matches_spectral_route(self, grid64):
        rng = np.random.default_rng(55)
        for _ in range(5):
            atoms = [(grid64.spacing * int(rng.integers(0, 64)), float(rng.uniform(0.2, 1.2)))
                     for _ in range(int(rng.integers(1, 4)))]
            q = compound_poisson(atoms, rate=1.0)
            f = random_trig(grid64, rng, kmax=20)
            t = float(rng.uniform(0.2, 1.0))
            series = poisson_series_apply(q, t, f)
            table = one_member_table(q, grid64)
            assert sup_distance(series, member_evolution(table, t, f)) <= 1e-9 + 1e-10

    def test_off_grid_atom_rejected(self, grid64):
        f = sample(grid64, "cosine", k=1)
        with pytest.raises(ConfigurationError, match="requires atoms on grid points"):
            poisson_series_apply(compound_poisson([(0.11, 1.0)]), 0.5, f)

    @pytest.mark.parametrize("q", [
        LevyQuadruple.create(b=0.5, mu=[(np.pi, 1.0)], dim=1),
        LevyQuadruple.create(sigma=0.25, mu=[(np.pi, 1.0)], dim=1),
        LevyQuadruple.create(mu=[(np.pi, 1.0)], nu=[(np.pi / 2, 1.0)], dim=1),
    ], ids=["drift", "diffusion", "small-jump"])
    def test_only_pure_large_jumps(self, grid64, q):
        f = sample(grid64, "cosine", k=1)
        with pytest.raises(ConfigurationError, match="pure large-jump quadruple"):
            poisson_series_apply(q, 0.5, f)

    def test_budget_error_on_huge_mass(self, grid64):
        f = sample(grid64, "cosine", k=1)
        with pytest.raises(BudgetError):
            poisson_series_apply(compound_poisson([(np.pi, 1.0)], rate=1e6), 1.0, f)


class TestPicard:
    def test_singleton_matches_multiplier(self, single_table64):
        g = single_table64.grid
        f = sample(g, "cosine", k=1)
        traj = picard_solve(single_table64, f, 0.2, 1e-3)
        lin = member_evolution(single_table64, 0.2, f)
        assert sup_distance(traj.final, lin) <= 1e-8

    def test_constant_is_fixed(self, two_sigma_table, grid128):
        f = sample(grid128, "constant", value=2.0)
        traj = picard_solve(two_sigma_table, f, 0.05, 1e-3)
        assert np.all(traj.final.values == 2.0)

    def test_two_sigma_agrees_with_dyadic_envelope(self, two_sigma_table, bump128):
        traj = picard_solve(two_sigma_table, bump128, 0.2, 1e-3)
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=12, tol=0.0)
        assert sup_distance(traj.final, res.value) <= 5e-4

    def test_stability_guard(self, single_table64):
        g = single_table64.grid
        f = sample(g, "cosine", k=1)
        limit = stability_limit(single_table64)
        with pytest.raises(ConfigurationError):
            picard_solve(single_table64, f, 0.2, 2.0 * limit)

    def test_horizon_must_be_step_multiple(self, single_table64):
        f = sample(single_table64.grid, "cosine", k=1)
        with pytest.raises(ConfigurationError):
            picard_solve(single_table64, f, 0.2, 0.0003)

    def test_input_values_unchanged(self, two_sigma_table, bump128):
        before = bump128.values.copy()
        traj = picard_solve(two_sigma_table, bump128, 0.01, 1e-3)
        residual_check(traj, two_sigma_table)
        assert np.array_equal(bump128.values, before)

    def test_work_budget(self, two_sigma_table, bump128):
        size = two_sigma_table.grid.size
        # the benchmark's RK4 reference: 800 steps at 1D n=128
        assert 800 * size <= PICARD_WORK_BUDGET
        steps = PICARD_WORK_BUDGET // size + 1
        with pytest.raises(BudgetError, match="budget"):
            picard_solve(two_sigma_table, bump128, steps * 1e-3, 1e-3)
        with pytest.raises(BudgetError, match="budget"):
            picard_solve(two_sigma_table, bump128, 1e300, 1e-3)

    def test_rk4_order(self):
        # halving dt cuts the distance to a dt/4 reference by roughly 2^4;
        # measured on a smooth (single-member) flow, where maximizer switches
        # cannot pollute the order
        g = make_grid(1, 64)
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), g)
        bump = sample(g, "bump", center=0.0, width=np.pi / 2)
        ref = picard_solve(table, bump, 0.1, 2.5e-4).final
        coarse = sup_distance(picard_solve(table, bump, 0.1, 2e-3).final, ref)
        fine = sup_distance(picard_solve(table, bump, 0.1, 1e-3).final, ref)
        assert 12.0 <= coarse / fine <= 20.0

    def test_dominates_members(self, two_sigma_table, bump128):
        traj = picard_solve(two_sigma_table, bump128, 0.2, 1e-3)
        for i in range(len(two_sigma_table)):
            lin = member_evolution(two_sigma_table, 0.2, bump128, member=i)
            assert float(np.max(lin.values - traj.final.values)) <= 1e-6


class TestResiduals:
    def test_singleton_small_residual(self, single_table64):
        f = sample(single_table64.grid, "cosine", k=1)
        traj = picard_solve(single_table64, f, 0.2, 1e-3)
        samples = residual_check(traj, single_table64)
        mid = min(samples, key=lambda s: abs(s.time - 0.1))
        assert mid.sup_residual <= 1e-5

    def test_constant_residual_tiny(self, two_sigma_table, grid128):
        f = sample(grid128, "constant", value=1.5)
        traj = picard_solve(two_sigma_table, f, 0.01, 1e-3)
        assert all(s.sup_residual <= 1e-12 for s in residual_check(traj, two_sigma_table))

    def test_second_order_in_delta(self, two_sigma_table, bump128):
        # compare residuals from snapshot spacings delta and delta/2
        fine = picard_solve(two_sigma_table, bump128, 0.2, 1e-3)
        coarse = Trajectory(fine.times[::2], fine.snapshots[::2])
        r_fine = {round(s.time, 9): s.sup_residual for s in residual_check(fine, two_sigma_table)}
        r_coarse = residual_check(coarse, two_sigma_table)
        ratios = [s.sup_residual / r_fine[round(s.time, 9)]
                  for s in r_coarse if round(s.time, 9) in r_fine]
        # kink times of the pointwise max pollute individual ratios; the
        # median reflects the smooth second-order behavior
        assert 3.5 <= float(np.median(ratios)) <= 4.5

    def test_needs_three_snapshots(self, single_table64):
        f = sample(single_table64.grid, "cosine", k=1)
        traj = picard_solve(single_table64, f, 1e-3, 1e-3)
        with pytest.raises(ConfigurationError):
            residual_check(traj, single_table64)


class TestMassDiagnostic:
    def test_zero_family(self, grid256):
        fam = GeneratorFamily((compound_poisson([], rate=0.0),))
        table = SymbolTable.build(fam, grid256)
        assert mass_diagnostic(table, 0.5, np.pi / 2) <= 1e-9

    def test_diffusion_keeps_mass(self, grid256):
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid256)
        assert mass_diagnostic(table, 0.01, np.pi / 2) <= 1e-6

    def test_drift_escapes(self, grid256):
        table = SymbolTable.build(GeneratorFamily((drift(1.0),)), grid256)
        value = mass_diagnostic(table, np.pi / 2, np.pi / 2)
        assert value >= 0.3
        assert value <= 1.0 + 1e-9

    def test_embedded_cauchy_wraparound(self, grid256):
        members = tuple(
            wrapped_cauchy_quadruple(grid256, g, rate=1.0, scale=60.0)
            for g in (0.25, 0.5)
        )
        table = SymbolTable.build(GeneratorFamily(members), grid256)
        assert mass_diagnostic(table, 0.2, np.pi / 2) <= 1e-3

    def test_window_validation(self, grid256):
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid256)
        with pytest.raises(ConfigurationError):
            mass_diagnostic(table, 0.1, np.pi)


class TestTrajectoryValidation:
    def test_nonuniform_spacing_rejected(self, two_sigma_table, grid128, bump128):
        fine = picard_solve(two_sigma_table, bump128, 0.01, 1e-3)
        skewed = Trajectory(
            np.array([0.0, 1e-3, 3e-3]),
            (fine.snapshots[0], fine.snapshots[1], fine.snapshots[3]),
        )
        with pytest.raises(ConfigurationError):
            residual_check(skewed, two_sigma_table)

    @pytest.mark.parametrize("times,cause", [
        ([0.0, math.nan], "finite"),
        ([0.0, math.inf], "finite"),
        ([1e-3, 2e-3], "start at time 0"),
        ([0.0, 0.0], "strictly increasing"),
    ])
    def test_times_validated_as_a_partition(self, bump128, times, cause):
        with pytest.raises(ConfigurationError, match=cause):
            Trajectory(np.array(times), (bump128, bump128))

    def test_2d_trajectory_csv(self, tmp_path):
        g = make_grid(2, 8)
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0, dim=2),)), g)
        f = sample(g, "cosine", k=[1, 0])
        traj = picard_solve(table, f, 0.01, 5e-3)
        from sublevy.oracles import write_trajectory_csv

        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,index,x,y,value"
        assert len(lines) == 1 + 3 * g.size


class TestTwoDimensionalOracles:
    def test_series_matches_spectral_2d(self):
        g = make_grid(2, 16)
        atoms = [([g.spacing * 3, g.spacing * 12], 0.8), ([g.spacing * 7, 0.0], 0.4)]
        q = compound_poisson(atoms, rate=1.0, dim=2)
        f = GridFunction(g, np.cos(g.meshgrid()[0] + 2 * g.meshgrid()[1]))
        series = poisson_series_apply(q, 0.4, f)
        assert sup_distance(series, member_evolution(one_member_table(q, g), 0.4, f)) <= 1e-9

    def test_mass_diagnostic_2d_zero_family(self):
        g = make_grid(2, 32)
        table = SymbolTable.build(GeneratorFamily((compound_poisson([], 0.0, dim=2),)), g)
        assert mass_diagnostic(table, 0.3, np.pi / 2) <= 1e-9

    def test_mass_diagnostic_2d_drift_escapes(self):
        g = make_grid(2, 32)
        table = SymbolTable.build(GeneratorFamily((drift([1.0, 0.0], dim=2),)), g)
        assert mass_diagnostic(table, np.pi / 2, np.pi / 2) >= 0.3


class TestMixedFamilyCrossValidation:
    def test_drift_translates_the_right_way(self, grid64):
        # whole-grid-step drift is an exact cyclic shift below the Nyquist
        # mode (whose rotation is grid-invisible and collocated away)
        from sublevy import cyclic_shift

        m = 5
        t = m * grid64.spacing  # unit drift covers m cells in time t
        table = one_member_table(drift(1.0), grid64)
        f = random_trig(grid64, np.random.default_rng(8), kmax=20)
        moved = member_evolution(table, t, f)
        assert sup_distance(moved, cyclic_shift(f, m)) <= 1e-12

    def test_all_quadruple_parts_agree_across_routes(self, grid128):
        # drift + diffusion, uncompensated jumps, and compensated jumps in one
        # family: the dyadic envelope and the integrated equation must land on
        # the same function (signs of every symbol term are pinned here)
        mixed = GeneratorFamily((
            LevyQuadruple.create(b=0.3, sigma=0.36, dim=1),
            compound_poisson([(np.pi / 2, 1.0)], rate=0.8),
            LevyQuadruple.create(nu=[(grid128.spacing * 8, 3.0)], dim=1),
        ), ("drift+diffusion", "quarter-turn jumps", "compensated jumps"))
        table = SymbolTable.build(mixed, grid128)
        f = sample(grid128, "bump", center=0.5, width=2.0)
        # off-grid translation parts ring at the maximizer kinks, so the 1-d
        # default monotonicity guard must be widened for this family
        res = nisio_evolve(table, 0.2, f, max_level=10, tol=0.0,
                           monotonicity_tol=1e-3)
        traj = picard_solve(table, f, 0.2, 1e-3)
        assert sup_distance(res.value, traj.final) <= 5e-5
