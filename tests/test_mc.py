import json
import math

import numpy as np
import pytest

from sublevy import (
    BudgetError,
    ConfigurationError,
    GeneratorFamily,
    Partition,
    SimpleStrategy,
    SymbolTable,
    diffusion,
    drift,
    dual_bound_suite,
    estimate,
    extract_strategy,
    interpolate_linear,
    load_strategy,
    make_grid,
    nisio_evolve,
    path_payoffs,
    random_strategy,
    sample,
    save_strategy,
    simulate_paths,
)
from sublevy import LevyQuadruple, compound_poisson
from sublevy import mc
from sublevy.mc import BLOCK_PATHS, strategy_from_dict
from conftest import member_evolution


@pytest.fixture(scope="module")
def zero_family():
    return GeneratorFamily((compound_poisson([], rate=0.0),))


@pytest.fixture(scope="module")
def mc_setup(grid128, two_sigma_family, two_sigma_table, bump128):
    result = nisio_evolve(
        two_sigma_table, 0.2, bump128, max_level=12, tol=0.0, record_argmax_level=4
    )
    return two_sigma_family, result, bump128


class TestExtractStrategy:
    def test_singleton_all_zero(self, grid128, cos128):
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid128)
        res = nisio_evolve(table, 0.3, cos128, max_level=2, tol=0.0, record_argmax_level=2)
        strat = extract_strategy(res)
        assert np.all(strat.feedback == 0)
        assert strat.partition.step_count == 4

    def test_level_zero_single_interval(self, two_sigma_table, bump128):
        res = nisio_evolve(
            two_sigma_table, 0.2, bump128, max_level=1, tol=0.0, record_argmax_level=0
        )
        strat = extract_strategy(res)
        assert strat.partition.step_count == 1
        assert strat.feedback.shape == (1, 128)

    def test_nothing_recorded_rejected(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=1, tol=0.0)
        assert res.argmax is None
        with pytest.raises(ConfigurationError, match="^no maximizers recorded"):
            extract_strategy(res)

    def test_feedback_matches_direct_member_comparison(self, two_sigma_table, bump128):
        # one interval: feedback is the argmax of the two linear evolutions
        res = nisio_evolve(
            two_sigma_table, 0.2, bump128, max_level=1, tol=0.0, record_argmax_level=0
        )
        strat = extract_strategy(res)
        a = member_evolution(two_sigma_table, 0.2, bump128).values
        b = member_evolution(two_sigma_table, 0.2, bump128, member=1).values
        clear = np.abs(a - b) > 1e-12
        assert np.all(strat.feedback[0][clear] == (b > a)[clear].astype(int))


class TestSimulatePath:
    def test_zero_family_stays_put(self, grid128, zero_family):
        strat = SimpleStrategy(grid128, Partition.dyadic(1.0, 2), np.zeros((4, 128)))
        rng = np.random.default_rng(0)
        out = simulate_paths(zero_family, [strat], np.array([0.3]), 1.0, rng, 1)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_pure_drift_translates(self, grid128):
        fam = GeneratorFamily((drift(1.0),))
        strat = SimpleStrategy(grid128, Partition.dyadic(1.0, 3), np.zeros((8, 128)))
        rng = np.random.default_rng(0)
        out = simulate_paths(fam, [strat], np.array([0.5]), 1.0, rng, 1)
        assert out[0, 0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_gaussian_characteristic_function(self, grid128):
        fam = GeneratorFamily((diffusion(1.0),))
        t, x0 = 0.5, 0.25
        strat = SimpleStrategy(grid128, Partition.dyadic(t, 2), np.zeros((4, 128)))
        n = 4000
        vals = np.empty(n, dtype=complex)
        for i in range(n):
            rng = np.random.default_rng(i)
            vals[i] = np.exp(1j * simulate_paths(fam, [strat], np.array([x0]), t, rng, 1)[0, 0, 0])
        want = math.exp(-t / 2) * np.exp(1j * x0)
        stderr = float(np.std(np.real(vals), ddof=1)) / math.sqrt(n)
        assert abs(np.mean(vals) - want) <= 4 * stderr + 1e-3

    def test_partition_must_end_at_horizon(self, grid128, zero_family):
        strat = SimpleStrategy(grid128, Partition.dyadic(0.5, 1), np.zeros((2, 128)))
        with pytest.raises(ConfigurationError):
            simulate_paths(zero_family, [strat], np.array([0.0]), 1.0,
                           np.random.default_rng(0), 1)

    def test_out_of_range_feedback_rejected(self, grid128, zero_family):
        strat = SimpleStrategy(grid128, Partition.dyadic(1.0, 1), np.full((2, 128), 3))
        with pytest.raises(ConfigurationError):
            simulate_paths(zero_family, [strat], np.array([0.0]), 1.0,
                           np.random.default_rng(0), 1)

    def test_strategies_must_share_grid_and_partition(self, grid64, grid128, zero_family):
        a = SimpleStrategy(grid128, Partition.dyadic(1.0, 1), np.zeros((2, 128)))
        finer = SimpleStrategy(grid128, Partition.dyadic(1.0, 2), np.zeros((4, 128)))
        other_grid = SimpleStrategy(grid64, Partition.dyadic(1.0, 1), np.zeros((2, 64)))
        for others in ([], [a, finer], [a, other_grid]):
            with pytest.raises(ConfigurationError):
                simulate_paths(zero_family, others, np.array([0.0]), 1.0,
                               np.random.default_rng(0), 1)

    def test_each_strategy_advances_on_the_same_draws(self, grid128, two_sigma_family):
        part = Partition.dyadic(0.2, 3)
        strats = [SimpleStrategy(grid128, part, np.full((8, 128), i)) for i in (0, 1, 0)]
        x0 = np.array([0.4])
        out = simulate_paths(two_sigma_family, strats, x0, 0.2, np.random.default_rng(2), 50)
        assert out.shape == (3, 50, 1)
        assert np.array_equal(out[0], out[2])
        for i, s in enumerate(strats):
            alone = simulate_paths(two_sigma_family, [s], x0, 0.2, np.random.default_rng(2), 50)
            assert np.array_equal(alone[0], out[i])


class TestEstimate:
    def test_constant_payoff_zero_stderr(self, grid128, zero_family):
        f = sample(grid128, "constant", value=4.25)
        strat = SimpleStrategy(grid128, Partition.dyadic(0.5, 1), np.zeros((2, 128)))
        est = estimate(zero_family, strat, f, np.array([0.0]), 0.5, 200, seed=1)
        assert est.mean == 4.25
        assert est.stderr == 0.0

    def test_heat_multiplier_mean(self, grid128, cos128):
        fam = GeneratorFamily((diffusion(1.0),))
        strat = SimpleStrategy(grid128, Partition.dyadic(0.5, 2), np.zeros((4, 128)))
        est = estimate(fam, strat, cos128, np.array([0.0]), 0.5, 10_000, seed=37)
        want = math.exp(-0.25)
        assert want == pytest.approx(0.7788008, abs=1e-7)
        assert abs(est.mean - want) <= 3 * est.stderr + 1e-3

    def test_reproducible_bitwise(self, mc_setup):
        family, result, bump = mc_setup
        strat = extract_strategy(result)
        a = estimate(family, strat, bump, np.array([0.0]), 0.2, 500, seed=11)
        b = estimate(family, strat, bump, np.array([0.0]), 0.2, 500, seed=11)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_path_floor(self, grid128, zero_family, cos128):
        strat = SimpleStrategy(grid128, Partition.dyadic(0.5, 1), np.zeros((2, 128)))
        with pytest.raises(ConfigurationError):
            estimate(zero_family, strat, cos128, np.array([0.0]), 0.5, 99, seed=0)

    def test_extracted_strategy_attains_envelope(self, mc_setup, grid128):
        family, result, bump = mc_setup
        strat = extract_strategy(result)
        x0 = np.array([-np.pi / 2])
        ref = result.value.value_at(grid128.nearest_index(x0))
        est = estimate(family, strat, bump, x0, 0.2, 10_000, seed=5)
        assert abs(est.mean - ref) <= 3 * est.stderr + 1e-2


class TestBlocks:
    def test_reproducible_past_one_block(self, mc_setup):
        family, result, bump = mc_setup
        strat = extract_strategy(result)
        n = BLOCK_PATHS + 37
        a = estimate(family, strat, bump, np.array([0.0]), 0.2, n, seed=11)
        b = estimate(family, strat, bump, np.array([0.0]), 0.2, n, seed=11)
        assert (a.mean, a.stderr, a.n_paths) == (b.mean, b.stderr, n)

    def test_first_block_unchanged_by_later_blocks(self, mc_setup):
        family, result, bump = mc_setup
        strat = extract_strategy(result)
        x0 = np.array([0.0])
        (one,) = path_payoffs(family, [strat], bump, x0, 0.2, BLOCK_PATHS, seed=4)
        (more,) = path_payoffs(family, [strat], bump, x0, 0.2, BLOCK_PATHS + 37, seed=4)
        assert np.array_equal(more[:BLOCK_PATHS], one)
        # the second block has its own stream
        assert not np.array_equal(more[BLOCK_PATHS:], one[:37])

    def test_strategies_share_draws(self, mc_setup, grid128):
        family, _, bump = mc_setup
        part = Partition.dyadic(0.2, 2)
        base = SimpleStrategy(grid128, part, np.zeros((4, 128)))
        feedback = base.feedback.copy()
        feedback[-1, grid128.n // 2:] = 1  # differs on the right half, last interval
        other = SimpleStrategy(grid128, part, feedback)
        x0 = np.array([0.0])
        a, b = path_payoffs(family, [base, other], bump, x0, 0.2, 500, seed=8)
        # a path that never meets the difference sees the same draws under both
        same = int(np.sum(a == b))
        assert 100 < same < 400

    def test_2d_estimate_matches_heat_multiplier(self):
        grid = make_grid(2, 64)
        sigma = np.array([[1.0, 0.4], [0.4, 0.5]])
        q = LevyQuadruple.create(b=[0.0, 0.0], sigma=sigma, dim=2)
        fam = GeneratorFamily((q, q))  # one law, so every feedback has the same mean
        t = 0.5
        strat = random_strategy(grid, Partition.dyadic(t, 2), 2, np.random.default_rng(1))
        f = sample(grid, "cosine", k=[1, 1])
        est = estimate(fam, strat, f, np.array([0.0, 0.0]), t, 10_000, seed=3)
        want = math.exp(-t * 2.3 / 2)  # k^T Sigma k = 2.3 for k = (1, 1)
        assert abs(est.mean - want) <= 3 * est.stderr + 2e-3


class TestDualBoundSuite:
    def test_draws_once_per_block_partition_step_and_member(self, grid128, bump128,
                                                           two_sigma_family, monkeypatch):
        calls = []
        sample_increments = mc.sample_increments

        def counting(q, dt, rng, size):
            calls.append(size)
            return sample_increments(q, dt, rng, size)

        monkeypatch.setattr(mc, "sample_increments", counting)
        rng = np.random.default_rng(4)
        fine, coarse = Partition.dyadic(0.2, 3), Partition.dyadic(0.2, 1)
        n = BLOCK_PATHS + 10  # two blocks
        for count in (1, 5):
            strategies = [(f"r{i}", random_strategy(grid128, fine, 2, rng))
                          for i in range(count)]
            calls.clear()
            dual_bound_suite(two_sigma_family, bump128, [0.0], 0.2, strategies, n, 1,
                             1.0, 1e-2)
            assert len(calls) == 2 * 8 * 2  # blocks x steps x members
            strategies.append(("coarse", random_strategy(grid128, coarse, 2, rng)))
            calls.clear()
            dual_bound_suite(two_sigma_family, bump128, [0.0], 0.2, strategies, n, 1,
                             1.0, 1e-2)
            assert len(calls) == 2 * (8 + 2) * 2  # blocks x (steps per group) x members
            assert sorted(set(calls)) == [10, BLOCK_PATHS]

    def test_rows_equal_estimates_alone_2d(self):
        grid = make_grid(2, 16)
        fam = GeneratorFamily((diffusion(0.5, dim=2), drift([0.7, -0.3], dim=2),
                               compound_poisson([([0.5, -0.25], 1.0)], rate=3.0, dim=2)))
        f = sample(grid, "bump", center=[0.0, 0.0], width=np.pi)
        rng = np.random.default_rng(6)
        strategies = [(f"s{i}", random_strategy(grid, Partition.dyadic(0.3, 2 + i % 2), 3, rng))
                      for i in range(5)]
        const = SimpleStrategy(grid, Partition.dyadic(0.3, 3), np.ones((8, 16, 16)))
        strategies.insert(2, ("const", const))
        x0, n = np.array([0.2, -0.1]), BLOCK_PATHS + 76
        report = dual_bound_suite(fam, f, x0, 0.3, strategies, n, 13, 1.0, 1e-2)
        assert [r.name for r in report.rows] == [name for name, _ in strategies]
        for row, (_, strat) in zip(report.rows, strategies):
            alone = estimate(fam, strat, f, x0, 0.3, n, 13)
            assert (row.mean, row.stderr, row.n_paths, row.seed) == (
                alone.mean, alone.stderr, alone.n_paths, alone.seed)

    def test_singleton_family_all_strategies_equal(self, grid128, cos128):
        fam = GeneratorFamily((diffusion(1.0),))
        table = SymbolTable.build(fam, grid128)
        lin = linear_value_at_zero(table, cos128)
        part = Partition.dyadic(0.5, 3)
        rng = np.random.default_rng(3)
        strategies = [(f"s{i}", random_strategy(grid128, part, 1, rng)) for i in range(4)]
        report = dual_bound_suite(fam, cos128, np.array([0.0]), 0.5, strategies,
                                  2000, 17, lin, scheme_tol=1e-2)
        assert all(row.bound_ok for row in report.rows)
        for row in report.rows:
            assert abs(row.mean - lin) <= 3 * row.stderr + 2e-3

    def test_random_strategies_bounded_extracted_best(self, mc_setup, grid128):
        family, result, bump = mc_setup
        x0 = np.array([0.0])
        ref = result.value.value_at(grid128.nearest_index(x0))
        strategies = [("extracted", extract_strategy(result))]
        rng = np.random.default_rng(9)
        for i in range(8):
            strategies.append(
                (f"random-{i}", random_strategy(grid128, strategies[0][1].partition,
                                                len(family), rng)))
        report = dual_bound_suite(family, bump, x0, 0.2, strategies, 2000, 23,
                                  ref, scheme_tol=1e-2)
        assert all(row.bound_ok for row in report.rows)
        assert report.best_name == "extracted"
        # running max over strategies is nondecreasing as strategies are added
        running = -np.inf
        for row in report.rows:
            running = max(running, row.mean)
        assert running == report.best_mean

    def test_violation_is_named(self, grid128, zero_family):
        f = sample(grid128, "constant", value=1.0)
        strat = SimpleStrategy(grid128, Partition.dyadic(0.5, 1), np.zeros((2, 128)))
        report = dual_bound_suite(zero_family, f, np.array([0.0]), 0.5,
                                  [("onlyone", strat)], 200, 3,
                                  reference_value=0.5, scheme_tol=1e-3)
        (row,) = report.rows
        assert (row.name, row.bound_ok) == ("onlyone", False)
        assert row.limit == 0.5 + 3.0 * row.stderr + 1e-3


class TestBudgets:
    """The library door refuses a suite over a budget with the mc command's
    message before it draws anything."""

    ATOMS = ("mc would draw about 1e+09 jump atoms, more than the budget of 1e+07 "
             "(n_paths x partitions x time x the members' jump mass)")

    @pytest.mark.parametrize("call", ["estimate", "path_payoffs", "dual_bound_suite"])
    def test_jump_atoms_refused_before_drawing(self, grid128, monkeypatch, call):
        # 100 paths x 1 partition x t = 1 x rate 1e7, 100 times the budget
        monkeypatch.setattr(mc, "sample_increments", lambda *a: pytest.fail("drew increments"))
        family = GeneratorFamily((compound_poisson([(np.pi, 1.0)], rate=1e7),))
        f = sample(grid128, "constant", value=1.0)
        strat = SimpleStrategy(grid128, Partition.dyadic(1.0, 2), np.zeros((4, 128)))
        run = {"estimate": lambda: estimate(family, strat, f, [0.0], 1.0, 100, seed=0),
               "path_payoffs": lambda: path_payoffs(family, [strat, strat], f, [0.0], 1.0,
                                                    100, seed=0),
               "dual_bound_suite": lambda: dual_bound_suite(family, f, [0.0], 1.0,
                                                            [("a", strat)], 100, 0, 1.0, 1e-2)}
        with pytest.raises(BudgetError) as info:
            run[call]()
        assert str(info.value) == self.ATOMS

    @pytest.mark.parametrize("count, message", [
        # 100 paths x 1 member x 1000 x 2^10 steps: 1.02e8 increments
        (1000, "mc would use more than the budget of 1e+08 increments (n_paths x members x "
               "the steps of every strategy)"),
        # 100 x 2^10 steps x 128 points: 1.31e7 entries, 1.02e7 increments
        (100, "mc would hold 1.31e+07 feedback entries, more than the budget of 1e+07 "
              "(the steps of every strategy x grid points)"),
    ], ids=["draws", "feedback"])
    def test_draws_and_feedback_refused_before_drawing(self, grid128, zero_family, monkeypatch,
                                                       count, message):
        monkeypatch.setattr(mc, "sample_increments", lambda *a: pytest.fail("drew increments"))
        f = sample(grid128, "constant", value=1.0)
        strat = SimpleStrategy(grid128, Partition.dyadic(1.0, 10), np.zeros((2**10, 128)))
        with pytest.raises(BudgetError) as info:
            path_payoffs(zero_family, [strat] * count, f, [0.0], 1.0, 100, seed=0)
        assert str(info.value) == message

    def test_strategy_count_is_read_not_walked(self, grid128, zero_family):
        # a suite names how many strategies share a partition, so 10^400 of
        # them cost one multiplication
        with pytest.raises(BudgetError) as info:
            mc.check_budgets(zero_family, grid128, 1.0, [(Partition.dyadic(1.0, 0), 10**400)],
                             100)
        assert str(info.value) == ("mc would use more than the budget of 1e+08 increments "
                                   "(n_paths x members x the steps of every strategy)")


class TestStrategyJson:
    def test_round_trip(self, tmp_path, grid128):
        rng = np.random.default_rng(21)
        strat = random_strategy(grid128, Partition.dyadic(0.4, 3), 2, rng)
        path = tmp_path / "strategy.json"
        save_strategy(path, strat)
        back = load_strategy(path, grid128)
        assert np.array_equal(back.feedback, strat.feedback)
        assert np.array_equal(back.partition.times, strat.partition.times)

    def test_wire_shape(self, tmp_path, grid128):
        strat = SimpleStrategy(grid128, Partition.dyadic(0.4, 0), np.zeros((1, 128)))
        save_strategy(tmp_path / "strategy.json", strat)
        obj = json.loads((tmp_path / "strategy.json").read_text())
        assert set(obj) == {"partition", "feedback"}
        assert len(obj["feedback"]) == 1
        assert len(obj["feedback"][0]) == grid128.size

    def test_malformed_rejected(self, grid128):
        with pytest.raises(ConfigurationError):
            strategy_from_dict({"partition": [0.0, 0.1]}, grid128)

    @pytest.mark.parametrize("entry", [2.5, "1", None, math.nan, math.inf, 1e300,
                                       10**400, [0], True, False])
    def test_non_integer_feedback_rejected(self, grid8, entry):
        row = [0] * 7 + [entry]
        with pytest.raises(ConfigurationError):
            strategy_from_dict({"partition": [0.0, 0.1], "feedback": [row]}, grid8)

    def test_integral_float_feedback_accepted(self, grid8):
        strat = strategy_from_dict({"partition": [0.0, 0.1], "feedback": [[1.0] + [0] * 7]},
                                   grid8)
        assert strat.feedback[0].tolist() == [1] + [0] * 7


class TestInterpolation:
    def test_exact_at_grid_points(self, grid128, cos128):
        x = grid128.axis_points()
        for j in (0, 5, 64, 127):
            assert interpolate_linear(cos128, np.array([x[j]])) == cos128.values[j]

    def test_wraps_across_seam(self, grid64):
        f = sample(grid64, "cosine", k=1)
        near_seam = np.pi - grid64.spacing / 2
        got = interpolate_linear(f, np.array([near_seam]))
        want = 0.5 * (f.values[-1] + f.values[0])
        assert got == pytest.approx(want, abs=1e-15)

    def test_2d_bilinear(self):
        g = make_grid(2, 16)
        f = sample(g, "cosine", k=[1, 0])
        pt = np.array([g.spacing * 0.5, 0.3])  # halfway between x = 0 and x = spacing
        want = 0.5 * (np.cos(0.0) + np.cos(g.spacing))
        assert interpolate_linear(f, pt) == pytest.approx(want, abs=1e-12)

    def test_batch_matches_single_points(self):
        rng = np.random.default_rng(5)
        for grid, k in ((make_grid(1, 32), 2), (make_grid(2, 16), [1, 2])):
            f = sample(grid, "cosine", k=k, phase=0.4)
            pts = rng.uniform(-4.0, 4.0, size=(9, grid.dim))
            batch = interpolate_linear(f, pts)
            assert batch.shape == (9,)
            assert np.array_equal(batch, [interpolate_linear(f, p) for p in pts])

    def test_bad_point_shape_rejected(self, grid64):
        f = sample(grid64, "cosine", k=1)
        with pytest.raises(ConfigurationError):
            interpolate_linear(f, np.zeros((3, 2)))
        # a non-finite coordinate is refused, not read as a NaN value with warnings
        for bad in (np.nan, np.inf, -np.inf):
            for point in (bad, np.array([[0.0], [bad]])):
                with pytest.raises(ConfigurationError, match="^point coordinates must be finite$"):
                    interpolate_linear(f, point)


def linear_value_at_zero(table, f):
    out = member_evolution(table, 0.5, f)
    return out.value_at(table.grid.nearest_index(np.array([0.0])))


class TestGridMismatch:
    def test_estimate_rejects_foreign_payoff(self, grid128, zero_family):
        other = make_grid(1, 64)
        f = sample(other, "constant", value=1.0)
        strat = SimpleStrategy(grid128, Partition.dyadic(0.5, 1), np.zeros((2, 128)))
        with pytest.raises(ConfigurationError):
            estimate(zero_family, strat, f, np.array([0.0]), 0.5, 200, seed=0)
