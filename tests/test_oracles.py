import math
import re

import numpy as np
import pytest

from sublevy import (
    BudgetError,
    LevyQuadruple,
    ConfigurationError,
    ConsistencyError,
    GeneratorFamily,
    GridFunction,
    SymbolTable,
    Trajectory,
    compound_poisson,
    diffusion,
    drift,
    generator_sup,
    make_grid,
    mass_diagnostic,
    nisio_evolve,
    picard_solve,
    picard_stages,
    poisson_series_apply,
    sample,
    stability_limit,
    sup_distance,
    wrapped_cauchy_quadruple,
)
from sublevy.levy import batch_rows
from sublevy.oracles import PICARD_WORK_BUDGET
from conftest import count_envelopes, member_evolution, one_member_table, random_trig


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
        picard_solve(two_sigma_table, bump128, 0.01, 1e-3)
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


class TestPassenger:
    """picard_stages, a rider (once a passenger), rides in nisio_evolve's kernel
    calls where a call takes two rows or more; the trajectory and the envelope
    are bitwise those of picard_solve and nisio_evolve run apart, on the
    levels' own schedule."""

    @pytest.mark.parametrize("case", ["oracle data", "levels stop first", "max_level 0",
                                      "2D n=16", "2D n=64, one row a call"])
    def test_bitwise_what_each_gives_alone(self, monkeypatch, two_sigma_table, bump128, case):
        table, f, t, dt = two_sigma_table, bump128, 0.2, 1e-3
        kwargs = {"max_level": 12, "tol": 5e-6}
        if case == "levels stop first":
            kwargs["tol"] = 1e-2
        elif case == "max_level 0":
            kwargs["max_level"] = 0
        elif case.startswith("2D"):
            grid = make_grid(2, 16 if case == "2D n=16" else 64)
            table = SymbolTable.build(GeneratorFamily((diffusion(0.25, dim=2),
                                                       diffusion(1.0, dim=2))), grid)
            f = sample(grid, "bump", center=[0.0, 0.0], width=np.pi)
            t, dt = 0.02, 1e-3
            kwargs = {"max_level": 8, "tol": 0.0, "monotonicity_tol": 1e-4}
        rides = batch_rows(table.grid, len(table)) >= 2
        assert rides == (case != "2D n=64, one row a call")
        alone, calls, row_steps = count_envelopes(
            monkeypatch, lambda: nisio_evolve(table, t, f, **kwargs))
        traj_alone = picard_solve(table, f, t, dt)
        stages = picard_stages(table, f, t, dt)
        shared, shared_calls, shared_rows = count_envelopes(
            monkeypatch, lambda: nisio_evolve(table, t, f, riders=[stages], **kwargs))
        traj, rest, _ = count_envelopes(
            monkeypatch, lambda: picard_solve(table, f, t, dt, stages=stages))

        assert ([(r.level, r.steps, repr(r.sup_increment), repr(r.sup_norm))
                 for r in shared.records]
                == [(r.level, r.steps, repr(r.sup_increment), repr(r.sup_norm))
                    for r in alone.records])
        assert shared.value.values.tobytes() == alone.value.values.tobytes()
        assert (shared.converged, shared.levels_used) == (alone.converged, alone.levels_used)
        assert traj.times.tobytes() == traj_alone.times.tobytes()
        assert [s.values.tobytes() for s in traj.snapshots] == [
            s.values.tobytes() for s in traj_alone.snapshots]
        assert traj.residuals.tobytes() == traj_alone.residuals.tobytes()
        # the levels step on their own ticks; the rider takes one stage a call
        stage_count = 4 * round(t / dt)
        assert shared_calls == calls
        ridden = min(stage_count, calls) if rides else 0
        assert shared_rows == row_steps + ridden and rest == stage_count - ridden
        if case == "oracle data":  # the rider ends first
            assert (calls, stage_count, rest) == (1024, 800, 0)
        if case in ("levels stop first", "max_level 0"):
            assert 0 < calls < stage_count

    def test_guard_trip_raises_nisio_error(self, two_sigma_table, bump128):
        # at so short a horizon the default guard trips at level 1, after two
        # of the one step's four stages have ridden
        t, dt = 1e-3, 1e-3
        with pytest.raises(ConsistencyError) as alone:
            nisio_evolve(two_sigma_table, t, bump128)
        stages = picard_stages(two_sigma_table, bump128, t, dt)
        with pytest.raises(ConsistencyError) as shared:
            nisio_evolve(two_sigma_table, t, bump128, riders=[stages])
        assert str(shared.value) == str(alone.value)
        assert str(alone.value).startswith("dyadic level 1 drops below level 0")

    @pytest.mark.parametrize("other", ["another family", "another grid"])
    def test_stages_of_another_table_are_refused(self, other):
        # before riders named their table, stages of {0.25, 4} rode a {0.25, 1}
        # run on 1D n=16 and came back 0.118 off their own trajectory, and
        # stages on another grid ended in a numpy broadcast error
        grid = make_grid(1, 16)
        driver = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))), grid)
        grid_b = grid if other == "another family" else make_grid(1, 32)
        table_b = SymbolTable.build(
            GeneratorFamily((diffusion(0.25), diffusion(4.0 if grid_b is grid else 1.0))), grid_b)
        f, f_b = (sample(g, "bump", center=0.0, width=np.pi) for g in (grid, grid_b))
        stages = picard_stages(table_b, f_b, 0.2, 1e-2)
        message = f"^a rider of another table on {re.escape(repr(grid_b))} cannot ride on "
        with pytest.raises(ConfigurationError, match=message) as refused:
            nisio_evolve(driver, 0.2, f, monotonicity_tol=1.0, riders=[stages])
        assert "\n" not in str(refused.value)
        with pytest.raises(ConfigurationError, match=message):
            picard_solve(driver, f, 0.2, 1e-2, stages=stages)
        traj, alone = (picard_solve(table_b, f_b, 0.2, 1e-2, stages=s)
                       for s in (stages, None))
        assert [s.values.tobytes() for s in traj.snapshots] == [
            s.values.tobytes() for s in alone.snapshots]

    @pytest.mark.parametrize("dt, message", [(3e-4, "integer multiple"),
                                             (0.05, "stability limit")])
    def test_step_checked_before_any_stage(self, two_sigma_table, bump128, dt, message):
        with pytest.raises(ConfigurationError, match=message):
            picard_stages(two_sigma_table, bump128, 0.2, dt)


class TestResiduals:
    def test_singleton_small_residual(self, single_table64):
        f = sample(single_table64.grid, "cosine", k=1)
        traj = picard_solve(single_table64, f, 0.2, 1e-3)
        mid = int(np.argmin(np.abs(traj.times[1:-1] - 0.1)))
        assert traj.residuals[mid] <= 1e-5

    def test_constant_residual_tiny(self, two_sigma_table, grid128):
        f = sample(grid128, "constant", value=1.5)
        traj = picard_solve(two_sigma_table, f, 0.01, 1e-3)
        assert traj.residuals.shape == (9,) and not traj.residuals.flags.writeable
        assert np.all(traj.residuals <= 1e-12)

    @pytest.mark.parametrize("dim,n,t", [(1, 128, 0.2), (2, 16, 0.02)])
    def test_batches_match_one_snapshot_at_a_time(self, dim, n, t):
        # the residuals picard_solve measures in its loop, bitwise, against the
        # central difference of its snapshots and the sup-generator at each one:
        # 199 interior snapshots (1D), 19 (2D)
        grid = make_grid(dim, n)
        table = SymbolTable.build(
            GeneratorFamily((diffusion(0.25, dim=dim), diffusion(1.0, dim=dim))), grid)
        traj = picard_solve(table, sample(grid, "bump", center=[0.0] * dim, width=np.pi),
                            t, 1e-3)
        snaps, delta = traj.snapshots, float(traj.times[1])
        expected = [(float(traj.times[i]), float(np.max(np.abs(
            (snaps[i + 1].values - snaps[i - 1].values) / (2.0 * delta)
            - generator_sup(table, snaps[i]).values))))
            for i in range(1, len(snaps) - 1)]
        assert list(zip(traj.times[1:-1].tolist(), traj.residuals.tolist())) == expected

    def test_second_order_in_delta(self, two_sigma_table, bump128):
        # compare residuals from snapshot spacings delta and delta/2
        fine = picard_solve(two_sigma_table, bump128, 0.2, 5e-4)
        coarse = picard_solve(two_sigma_table, bump128, 0.2, 1e-3)
        r_fine = {round(t, 9): r for t, r in zip(fine.times[1:-1].tolist(), fine.residuals)}
        ratios = [r / r_fine[round(t, 9)]
                  for t, r in zip(coarse.times[1:-1].tolist(), coarse.residuals)
                  if round(t, 9) in r_fine]
        # kink times of the pointwise max pollute individual ratios; the
        # median reflects the smooth second-order behavior
        assert 3.5 <= float(np.median(ratios)) <= 4.5


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
    @pytest.mark.parametrize("times,cause", [
        ([0.0, math.nan], "finite"),
        ([0.0, math.inf], "finite"),
        ([1e-3, 2e-3], "start at time 0"),
        ([0.0, 0.0], "strictly increasing"),
    ])
    def test_times_validated_as_a_partition(self, bump128, times, cause):
        with pytest.raises(ConfigurationError, match=cause):
            Trajectory(np.array(times), (bump128, bump128), np.empty(0))

    @pytest.mark.parametrize("residuals", [[], [0.0, 0.0]])
    def test_one_residual_per_interior_time(self, bump128, residuals):
        with pytest.raises(ConfigurationError, match="residual count"):
            Trajectory(np.array([0.0, 1e-3, 2e-3]), (bump128,) * 3, np.array(residuals))

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
        m = 5
        t = m * grid64.spacing  # unit drift covers m cells in time t
        table = one_member_table(drift(1.0), grid64)
        f = random_trig(grid64, np.random.default_rng(8), kmax=20)
        moved = member_evolution(table, t, f)
        assert sup_distance(moved, GridFunction(grid64, np.roll(f.values, -m))) <= 1e-12

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
