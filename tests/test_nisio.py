import functools
import math
import re
import time

import numpy as np
import pytest

from sublevy import (
    BudgetError,
    ConfigurationError,
    ConsistencyError,
    GeneratorFamily,
    GridFunction,
    Partition,
    SimpleStrategy,
    SymbolTable,
    apply_J,
    diffusion,
    compound_poisson,
    drift,
    generator_limit_table,
    generator_sup,
    lipschitz_bound,
    make_grid,
    nisio_evolve,
    picard_solve,
    picard_stages,
    sample,
    sup_distance,
)
from sublevy import levy, nisio
from sublevy.levy import SpectralWorkspace, batch_rows
from sublevy.nisio import Rider, _drive, _ride
from conftest import count_envelopes, member_evolution, random_trig
from paper_checks import apply_partition, dpp_check, partition_continuity_probe


def alone(table, gap, steps, x):
    """steps envelope steps of gap from x, through the driver as a lane of its own."""
    return Rider.run(table, gap, steps, x).finish()


@pytest.fixture(scope="module")
def single_table(grid128):
    return SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid128)


@pytest.fixture(scope="module")
def cp_pair_table(grid128):
    zero = compound_poisson([(np.pi, 1.0)], rate=0.0)
    one = compound_poisson([(np.pi, 1.0)], rate=1.0)
    return SymbolTable.build(GeneratorFamily((zero, one)), grid128)


class TestPartition:
    def test_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            Partition(np.array([0.1, 0.2]))

    def test_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            Partition(np.array([0.0, 0.2, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_times_must_be_finite(self, bad):
        # np.diff(t) <= 0 is False for NaN, so the order check alone passes it
        with pytest.raises(ConfigurationError, match="finite"):
            Partition(np.array([0.0, bad]))
        with pytest.raises(ConfigurationError, match="finite"):
            Partition(np.array([0.0, bad, 0.2]))
        # checked before the start, which a non-finite first time also fails
        with pytest.raises(ConfigurationError, match="^partition times must be finite$"):
            Partition(np.array([bad, 1.0]))

    @pytest.mark.parametrize("times, message", [
        (["0", "0.5"], 'partition time must be a number, got "0.5"'),
        ([0, True], "partition time must be a number, got true"),
        ("abc", 'partition time must be a number, got "abc"'),
        (np.array(["0", "0.5"]), "partition time must be a number, got an array of <U3"),
        (np.array([False, True]), "partition time must be a number, got an array of bool"),
        ([[0, 1], [2, 3]], r"partition times must be a flat list, got shape \(2, 2\)"),
    ])
    def test_non_numbers_refused(self, times, message):
        # numpy would parse the strings, read True as 1 and flatten the nesting
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            Partition(times)
        assert Partition([0, 1]).times.tolist() == [0.0, 1.0]

    def test_dyadic_matches_equidistant(self):
        a = Partition.dyadic(0.8, 3)
        b = Partition.equidistant(0.8, 8)
        assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("make, bad, message", [
        (Partition.dyadic, 21, r"dyadic level must be an integer in \[0, 20\], got 21"),
        (Partition.dyadic, 64, r"dyadic level must be an integer in \[0, 20\], got 64"),
        (Partition.equidistant, 2**20 + 1,
         r"partition step count n must be an integer in \[1, 1048576\], got 1048577"),
        (Partition.equidistant, 2**63,
         rf"partition step count n must be an integer in \[1, 1048576\], got {2**63}"),
    ], ids=["dyadic 21", "dyadic 64", "equidistant 2^20+1", "equidistant 2^63"])
    def test_step_count_capped_at_max_level(self, make, bad, message):
        # uncapped, level 64 was numpy's "Maximum allowed size exceeded", and
        # level 40 or n = 10^12 a MemoryError after asking for terabytes
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            make(0.1, bad)

    def test_max_level_steps_are_allowed(self):
        assert np.array_equal(Partition.dyadic(0.1, nisio.MAX_LEVEL).times,
                              Partition.equidistant(0.1, 2**20).times)


class TestSimpleStrategy:
    @pytest.mark.parametrize("feedback", [
        np.full((4, 8), 0.7),       # would select member 0
        np.full((4, 8), np.nan),    # would warn in the cast first
        np.full((4, 8), np.inf),
        np.full((4, 8), 2.0**63),   # past int64
        np.full((4, 8), "1"),       # would raise numpy's ValueError
        np.full((4, 8), True),
        [["a"] * 8] * 4,
    ])
    def test_feedback_must_be_integers(self, grid8, feedback):
        with pytest.raises(ConfigurationError,
                           match="^strategy feedback entries must be integers$"):
            SimpleStrategy(grid8, Partition.dyadic(1.0, 2), feedback)

    def test_whole_valued_floats_are_feedback(self, grid8):
        fb = np.zeros((4, 8))
        fb[1] = 1.0
        strategy = SimpleStrategy(grid8, Partition.dyadic(1.0, 2), fb)
        assert strategy.feedback.dtype == np.int64 and strategy.feedback.tolist() == fb.tolist()
        assert not strategy.feedback.flags.writeable and not np.shares_memory(strategy.feedback, fb)


class TestApplyJ:
    def test_singleton_is_linear(self, single_table, cos128):
        out = apply_J(single_table, 0.7, cos128)
        lin = member_evolution(single_table, 0.7, cos128)
        assert sup_distance(out, lin) == 0.0

    def test_zero_time_identity(self, two_sigma_table, cos128):
        out = apply_J(two_sigma_table, 0.0, cos128)
        assert out is cos128

    def test_cp_pair_takes_pointwise_best(self, cp_pair_table, grid128, cos128):
        out = apply_J(cp_pair_table, 0.5, cos128)
        # the kernel step that apply_J takes, with its maximizers
        am = np.empty(grid128.shape, dtype=np.int64)
        top = SpectralWorkspace(grid128, 2).envelope(cp_pair_table.multipliers(0.5)[None],
                                                     cos128.values[None], argmax=am[None])
        assert np.array_equal(top[0], out.values)
        decayed = math.exp(-1.0) * cos128.values
        expected = np.maximum(cos128.values, decayed)
        assert np.max(np.abs(out.values - expected)) < 1e-12
        # rate 0 wins where cos >= 0, rate 1 where cos < 0
        inside = np.abs(cos128.values) > 1e-12
        assert np.all(am[inside & (cos128.values > 0)] == 0)
        assert np.all(am[inside & (cos128.values < 0)] == 1)

    def test_constants_preserved(self, two_sigma_table, grid128):
        c = sample(grid128, "constant", value=-1.25)
        out = apply_J(two_sigma_table, 0.3, c)
        assert np.all(out.values == -1.25)


class TestApplyPartition:
    def test_two_point_partition_is_single_step(self, two_sigma_table, bump128):
        via_partition = apply_partition(
            two_sigma_table, Partition(np.array([0.0, 0.4])), bump128
        )
        direct = apply_J(two_sigma_table, 0.4, bump128)
        assert sup_distance(via_partition, direct) == 0.0

    def test_refinement_is_monotone(self, two_sigma_table, bump128):
        coarse = apply_partition(two_sigma_table, Partition(np.array([0.0, 0.4])), bump128)
        fine = apply_partition(
            two_sigma_table, Partition(np.array([0.0, 0.2, 0.4])), bump128
        )
        assert float(np.min(fine.values - coarse.values)) >= -1e-10

    def test_singleton_family_partition_free(self, single_table, bump128):
        rng = np.random.default_rng(3)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.59, 3)), [0.6]])
        out = apply_partition(single_table, Partition(times), bump128)
        lin = member_evolution(single_table, 0.6, bump128)
        assert sup_distance(out, lin) <= 1e-10

    def test_trivial_partition_is_identity(self, two_sigma_table, bump128):
        out = apply_partition(two_sigma_table, Partition(np.array([0.0])), bump128)
        assert sup_distance(out, bump128) == 0.0


class TestNisioEvolve:
    def test_singleton_converges_immediately(self, single_table, cos128):
        res = nisio_evolve(single_table, 0.5, cos128, max_level=8, tol=1e-6)
        assert res.converged
        assert res.levels_used == 1
        lin = member_evolution(single_table, 0.5, cos128)
        assert sup_distance(res.value, lin) <= 1e-10

    def test_increment_ratios_first_order(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=8, tol=0.0)
        ratios = [b / a for a, b in zip(res.increments, res.increments[1:])]
        for r in ratios[2:]:
            assert 0.3 <= r <= 0.7

    def test_constant_fixed_point(self, two_sigma_table, grid128):
        c = sample(grid128, "constant", value=3.0)
        res = nisio_evolve(two_sigma_table, 0.4, c, max_level=4, tol=1e-12)
        assert np.all(res.value.values == 3.0)
        assert res.converged

    def test_records_and_diagnostics(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=5, tol=0.0)
        assert not res.converged
        assert res.levels_used == 5
        assert len(res.records) == 6
        assert res.records[3].steps == 8
        assert res.lipschitz_bound > 0
        assert all(i >= -1e-10 for i in res.increments)

    def test_budget_zero_levels(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=0, tol=0.0)
        assert not res.converged
        assert res.levels_used == 0
        out = apply_J(two_sigma_table, 0.2, bump128)
        assert sup_distance(res.value, out) == 0.0

    def test_invalid_inputs(self, two_sigma_table, bump128):
        with pytest.raises(ConfigurationError):
            nisio_evolve(two_sigma_table, 0.0, bump128)
        with pytest.raises(ConfigurationError):
            nisio_evolve(two_sigma_table, 0.1, bump128, max_level=21)
        with pytest.raises(ConfigurationError):
            nisio_evolve(two_sigma_table, 0.1, bump128, tol=-1.0)
        with pytest.raises(ConfigurationError):
            nisio_evolve(two_sigma_table, 0.1, bump128, record_argmax_level=21)

    def test_argmax_budget_refused_before_iterating(self, two_sigma_table, bump128):
        # 2^17 steps x 128 points = 1.7e7 entries (134 MB), over ARGMAX_BUDGET
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            nisio_evolve(two_sigma_table, 0.1, bump128, record_argmax_level=17)
        assert time.perf_counter() - start < 1.0


class TestChernoff:
    def test_n1_is_single_step(self, two_sigma_table, bump128):
        a = apply_partition(two_sigma_table, Partition.equidistant(0.3, 1), bump128)
        b = apply_J(two_sigma_table, 0.3, bump128)
        assert sup_distance(a, b) == 0.0

    def test_power_of_two_matches_dyadic_bitwise(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=3, tol=0.0)
        eq = apply_partition(two_sigma_table, Partition.equidistant(0.2, 8), bump128)
        assert np.array_equal(res.value.values, eq.values)

    def test_power_of_two_matches_dyadic_bitwise_2d(self):
        g = make_grid(2, 32)
        fam = GeneratorFamily((diffusion(0.25, dim=2), diffusion(1.0, dim=2)))
        table = SymbolTable.build(fam, g)
        f = sample(g, "bump", center=[0.0, 0.0], width=np.pi)
        res = nisio_evolve(table, 0.2, f, max_level=3, tol=0.0, monotonicity_tol=1e-3)
        eq = apply_partition(table, Partition.equidistant(0.2, 8), f)
        assert np.array_equal(res.value.values, eq.values)

    def test_all_iterates_below_envelope(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=10, tol=0.0)
        for n in (3, 5, 32):
            eq = apply_partition(two_sigma_table, Partition.equidistant(0.2, n), bump128)
            assert float(np.max(eq.values - res.value.values)) <= 1e-8


class TestGeneratorSup:
    def test_singleton(self, single_table, cos128, grid128):
        out = generator_sup(single_table, cos128)
        assert sup_distance(out, GridFunction(grid128, -0.5 * cos128.values)) < 1e-12

    def test_max_with_zero_member(self, grid128, cos128):
        zero = compound_poisson([], rate=0.0)
        table = SymbolTable.build(GeneratorFamily((zero, diffusion(1.0))), grid128)
        out = generator_sup(table, cos128)
        expected = np.maximum(0.0, -0.5 * cos128.values)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_constant_maps_to_zero(self, two_sigma_table, grid128):
        out = generator_sup(two_sigma_table, sample(grid128, "constant", value=9.0))
        assert out.sup_norm == 0.0


class TestLipschitzBound:
    def test_unit_diffusion_on_cos(self, single_table, cos128):
        assert lipschitz_bound(single_table, cos128) == pytest.approx(0.5, abs=1e-12)

    def test_zero_family(self, grid128, cos128):
        table = SymbolTable.build(GeneratorFamily((compound_poisson([], 0.0),)), grid128)
        assert lipschitz_bound(table, cos128) == 0.0

    def test_two_sigma_on_cos2x(self, grid128):
        fam = GeneratorFamily((diffusion(1.0), diffusion(4.0)))
        table = SymbolTable.build(fam, grid128)
        f = sample(grid128, "cosine", k=2)
        assert lipschitz_bound(table, f) == pytest.approx(8.0, abs=1e-10)


class TestDppCheck:
    def test_singleton_any_level(self, single_table, cos128):
        for level in (0, 3, 6):
            assert dpp_check(single_table, 0.13, 0.07, cos128, level) <= 1e-10

    def test_distance_shrinks_with_level(self, two_sigma_table, bump128):
        d4 = dpp_check(two_sigma_table, 0.1, 0.1, bump128, 4)
        d5 = dpp_check(two_sigma_table, 0.1, 0.1, bump128, 5)
        d6 = dpp_check(two_sigma_table, 0.1, 0.1, bump128, 6)
        assert d5 < 0.8 * d4
        assert d6 < 0.8 * d5

    def test_degenerate_time_rejected(self, two_sigma_table, bump128):
        with pytest.raises(ConfigurationError):
            dpp_check(two_sigma_table, 0.0, 0.1, bump128, 4)


class TestGeneratorLimit:
    def test_singleton_first_order(self, single_table, cos128):
        rows = generator_limit_table(single_table, cos128, [0.1, 0.05, 0.025])
        errs = [e for _, e in rows]
        for a, b in zip(errs, errs[1:]):
            assert 0.4 <= b / a <= 0.6

    def test_constant_is_exact(self, two_sigma_table, grid128):
        c = sample(grid128, "constant", value=1.0)
        rows = generator_limit_table(two_sigma_table, c, [0.1, 0.05])
        assert all(e <= 1e-10 for _, e in rows)

    def test_two_sigma_monotone(self, two_sigma_table, cos128):
        rows = generator_limit_table(two_sigma_table, cos128, [0.1, 0.05, 0.025])
        errs = [e for _, e in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_h_list_validation(self, two_sigma_table, cos128):
        with pytest.raises(ConfigurationError):
            generator_limit_table(two_sigma_table, cos128, [0.05, 0.1])
        # a single step or None is no list of steps (iterating it would raise
        # TypeError), and an empty list holds none
        for bad in ([], 0.1, None, np.float64(0.1), np.array(0.1)):
            message = f"^h_list must be a nonempty list of steps h, got {re.escape(repr(bad))}$"
            with pytest.raises(ConfigurationError, match=message):
                generator_limit_table(two_sigma_table, cos128, bad)

    @pytest.mark.parametrize("h", [1e-5, 5e-324])
    def test_h_needing_more_than_max_level_rejected(self, two_sigma_table, cos128, h):
        # 1e-5 needs dyadic level 21 (2^21 steps); 5e-324 overflowed log2(1/h)
        with pytest.raises(ConfigurationError, match="2\\^-16"):
            generator_limit_table(two_sigma_table, cos128, [0.1, h])


class TestRiders:
    """Chains of kernel calls ride in the levels' calls as Riders, and whatever
    the stop leaves runs through the driver alone.  A run is stepped whole: a
    rider in flight at the stop is left at the start of its run.  Each rider's
    result is bitwise what it gives alone, and so is every level."""

    @staticmethod
    def _rows_alone(table, f, hs):
        """Each generator-limit row through the driver as a lane of its own."""
        target = generator_sup(table, f).values
        out = []
        for h in hs:
            n = 2 ** max(8, math.ceil(math.log2(1.0 / h)) + 4)
            values = alone(table, h / n, n, f.values)
            out.append((h, float(np.max(np.abs((values - f.values) / h - target)))))
        return out

    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 16), (2, 64)])
    def test_quotient_rows_ride_with_the_levels(self, monkeypatch, dim, n):
        grid = make_grid(dim, n)
        table = SymbolTable.build(GeneratorFamily((diffusion(0.25, dim=dim),
                                                   diffusion(1.0, dim=dim))), grid)
        f = sample(grid, "bump", center=[0.0] * dim, width=np.pi)
        hs = [0.1, 0.05, 0.025]
        runs = [(h / count, count) for h, count in zip(hs, (256, 512, 1024))]  # S(h)f each
        kwargs = {"max_level": 8, "tol": 1e-4, "monotonicity_tol": 1.0}  # the guard wide open
        solo, calls, row_steps = count_envelopes(
            monkeypatch, lambda: nisio_evolve(table, 0.2, f, **kwargs))
        riders = [Rider.run(table, gap, count, f.values) for gap, count in runs]
        shared, shared_calls, shared_rows = count_envelopes(
            monkeypatch, lambda: nisio_evolve(table, 0.2, f, riders=riders, **kwargs))
        assert [(r.pending[0] is f.values, r.pending[1]) for r in riders] == [
            (True, count) for _, count in runs]  # each left at the start of its run
        values, rest, _ = count_envelopes(monkeypatch, lambda: _ride(riders))
        rows, table_calls, _ = count_envelopes(
            monkeypatch, lambda: generator_limit_table(table, f, hs))

        assert ([(r.level, repr(r.sup_increment), repr(r.sup_norm)) for r in shared.records]
                == [(r.level, repr(r.sup_increment), repr(r.sup_norm)) for r in solo.records])
        assert shared.value.values.tobytes() == solo.value.values.tobytes()
        assert [v.tobytes() for v in values] == [
            alone(table, gap, count, f.values).tobytes() for gap, count in runs]
        assert [(h, repr(e)) for h, e in rows] == [
            (h, repr(e)) for h, e in self._rows_alone(table, f, hs)]
        # each row rides from the tick a slot frees for it: the 9 levels and 3
        # rows all fit in the 16 slots of 1D n=128; in the 8 of 2D n=16 a row
        # takes the slot of level 1, 2 and 3 as each completes (ticks 2, 4, 8);
        # with one slot nothing rides.  The stop comes before any row's end, so
        # each starts over, and the rows run together, one call a step of the
        # longest, as generator_limit_table runs them after its generator target
        entries = {128: [0, 0, 0], 16: [2, 4, 8], 64: []}[n]
        assert batch_rows(grid, 2) == {128: 16, 16: 8, 64: 1}[n]
        assert shared_calls == calls < 256
        assert shared_rows == row_steps + sum(calls - tick for tick in entries)
        assert rest == table_calls - 1 == (1024 if entries else 256 + 512 + 1024)

    def test_picard_and_quotients_ride_together(self, two_sigma_table, cos128):
        stages = picard_stages(two_sigma_table, cos128, 0.2, 1e-3)
        quotients = [Rider.run(two_sigma_table, h / count, count, cos128.values)
                     for h, count in ((0.1, 256), (0.05, 512))]
        shared = nisio_evolve(two_sigma_table, 0.2, cos128, max_level=8, tol=1e-4,
                              riders=[stages, *quotients])
        solo = nisio_evolve(two_sigma_table, 0.2, cos128, max_level=8, tol=1e-4)
        assert shared.value.values.tobytes() == solo.value.values.tobytes()
        assert stages.pending is not None and quotients[0].pending is not None
        traj = stages.finish()
        assert [s.values.tobytes() for s in traj.snapshots] == [
            s.values.tobytes() for s in picard_solve(two_sigma_table, cos128, 0.2, 1e-3).snapshots]
        assert [v.tobytes() for v in _ride(quotients)] == [
            alone(two_sigma_table, h / count, count, cos128.values).tobytes()
            for h, count in ((0.1, 256), (0.05, 512))]

    def test_no_call_takes_more_rows_than_batch_rows(self, two_sigma_table, bump128,
                                                     monkeypatch):
        # levels 0..15 fill the 16 slots of 1D n=128 at m=2, so the Picard
        # rider and four quotient-row runs take slots as levels complete (with
        # slots of their own beyond the cap, a call took 21 rows); each result
        # is bitwise its own
        runs, t = [(h / count, count) for h, count in ((0.1, 256), (0.05, 512),
                                                       (0.025, 1024), (0.0125, 2048))], 0.2
        stages = picard_stages(two_sigma_table, bump128, t, 1e-3)
        quotients = [Rider.run(two_sigma_table, gap, count, bump128.values)
                     for gap, count in runs]
        rows = []
        envelope = SpectralWorkspace.envelope

        def counting(ws, mults, values, out=None, argmax=None):
            rows.append(len(values) if values.ndim > ws.grid.dim else 1)
            return envelope(ws, mults, values, out=out, argmax=argmax)

        with monkeypatch.context() as patch:
            patch.setattr(SpectralWorkspace, "envelope", counting)
            shared = nisio_evolve(two_sigma_table, t, bump128, max_level=15, tol=5e-6,
                                  riders=[stages, *quotients])
            traj = stages.finish()
            values = _ride(quotients)
        assert batch_rows(two_sigma_table.grid, len(two_sigma_table)) == max(rows) == 16
        solo = nisio_evolve(two_sigma_table, t, bump128, max_level=15, tol=5e-6)
        assert shared.levels_used == 10
        assert shared.value.values.tobytes() == solo.value.values.tobytes()
        assert [s.values.tobytes() for s in traj.snapshots] == [
            s.values.tobytes() for s in picard_solve(two_sigma_table, bump128, t, 1e-3).snapshots]
        assert [v.tobytes() for v in values] == [
            alone(two_sigma_table, gap, count, bump128.values).tobytes() for gap, count in runs]

    def test_the_stop_leaves_a_rider_at_the_start_of_its_run(self, two_sigma_table, bump128,
                                                             monkeypatch):
        # a rider of a 1-step run and then a 500-step one is in its second run
        # when the levels stop: it is left at that run's start, the array its
        # chain yielded, and its finish() gives its result alone bitwise
        yielded = []

        def chain():
            a = yield bump128.values, 1
            yielded.append(a)
            return (yield a, 500)

        rider = Rider(two_sigma_table, functools.partial(two_sigma_table.multipliers, 1e-3),
                      chain())
        _, calls, _ = count_envelopes(monkeypatch, lambda: nisio_evolve(
            two_sigma_table, 0.2, bump128, max_level=8, tol=1e-4, riders=[rider]))
        assert 1 < calls < 501
        assert rider.pending[0] is yielded[0] and rider.pending[1] == 500
        assert (rider.finish().tobytes()
                == alone(two_sigma_table, 1e-3, 501, bump128.values).tobytes())

    def test_finish_steps_a_paused_lane(self, two_sigma_table, bump128):
        # a lane left paused came back from a ride of its own unstepped, as None
        lane = Rider.run(two_sigma_table, 0.01, 4, bump128.values)
        lane.paused = True
        assert np.array_equal(lane.finish(), alone(two_sigma_table, 0.01, 4, bump128.values))
        assert not lane.paused and lane.pending is None

    def test_runs_of_any_length_and_a_return_mid_call(self, two_sigma_table, bump128):
        # a chain of runs 1, 3 and 0 steps long ends while the levels still step;
        # each run's result is that many one-row steps from its input
        gap = 0.01

        def chain():
            a = yield bump128.values, 1
            b = yield a, 3
            c = yield b, 0
            return a, b, c

        rider = Rider(two_sigma_table, functools.partial(two_sigma_table.multipliers, gap),
                      chain())
        levels = _ride([Rider.run(two_sigma_table, gap, 2, bump128.values),
                         Rider.run(two_sigma_table, gap, 8, bump128.values), rider])[:2]
        steps = [alone(two_sigma_table, gap, k, bump128.values) for k in (1, 4, 2, 8)]
        a, b, c = rider.result
        assert rider.pending is None
        assert a.tobytes() == steps[0].tobytes() and b.tobytes() == steps[1].tobytes()
        assert c.tobytes() == b.tobytes()
        assert [v.tobytes() for v in levels] == [steps[2].tobytes(), steps[3].tobytes()]

    def test_an_error_mid_run_leaves_the_other_lanes_whole(self, two_sigma_table, bump128):
        # a chain that raises ends the driver while another lane is mid-run:
        # that lane keeps the start of its run, as a stop leaves it, and a later
        # driver gives its result bitwise
        def failing():
            yield bump128.values, 3
            raise RuntimeError("chain failed")

        bad = Rider(two_sigma_table, functools.partial(two_sigma_table.multipliers, 0.01),
                    failing())
        lane = Rider.run(two_sigma_table, 0.01, 8, bump128.values)
        with pytest.raises(RuntimeError, match="^chain failed$"):
            _ride([bad, lane])
        assert lane.pending[0] is bump128.values and lane.pending[1] == 8
        assert np.array_equal(lane.finish(),
                              alone(two_sigma_table, 0.01, 8, bump128.values))

    def test_a_rider_of_another_table_is_refused(self, grid64):
        # a rider must name the table of the lanes it rides with (the levels', or
        # the first lane's): another table, even of an equal family on the same
        # grid, is refused rather than stepped on the driver's symbols
        f = sample(grid64, "bump", center=0.0, width=np.pi)
        driver = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))), grid64)
        same = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))), grid64)
        coarse = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))),
                                   make_grid(1, 32))
        fc = sample(coarse.grid, "bump", center=0.0, width=np.pi)
        for other, g in ((same, f), (coarse, fc)):
            rows = [Rider.run(other, 0.1 / 256, 256, g.values)]
            message = re.escape(f"a rider of another table on {other.grid!r} "
                                f"cannot ride on {grid64!r}")
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                nisio_evolve(driver, 0.2, f, riders=rows)
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                _ride([Rider.run(driver, 0.1 / 256, 256, f.values), *rows])
            assert rows[0].pending[0] is g.values  # untouched

    def test_a_rider_given_twice_is_refused(self, two_sigma_table, bump128, monkeypatch):
        # given twice, the Picard stages rode as two lanes of one chain, and
        # picard_solve then returned None; now nothing is stepped, and the
        # stages give their trajectory bitwise afterwards
        stages = picard_stages(two_sigma_table, bump128, 0.2, 1e-3)
        lane = Rider.run(two_sigma_table, 0.01, 8, bump128.values)
        message = "^a rider given twice cannot ride twice in one lockstep$"
        with monkeypatch.context() as patch:
            patch.setattr(SpectralWorkspace, "envelope",
                          lambda *args, **kwargs: pytest.fail("a kernel call"))
            with pytest.raises(ConfigurationError, match=message):
                nisio_evolve(two_sigma_table, 0.2, bump128, riders=[stages, stages])
            with pytest.raises(ConfigurationError, match=message):
                _ride([lane, stages, lane])
        assert stages.pending[0] is bump128.values and lane.pending[0] is bump128.values
        traj = stages.finish()
        assert [s.values.tobytes() for s in traj.snapshots] == [
            s.values.tobytes() for s in picard_solve(two_sigma_table, bump128, 0.2, 1e-3).snapshots]

    def test_a_rider_whose_chain_raised_is_refused(self, monkeypatch):
        # a chain that raised leaves its last run in pending: stepped, it ended
        # in StopIteration(None), and picard_solve returned None.  Now it is
        # refused before any kernel call, alone and as a rider of the levels
        grid = make_grid(1, 32)
        table = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))), grid)
        f = sample(grid, "bump", center=0.0, width=np.pi)
        stages = picard_stages(table, f, 0.2, 1e-3)
        for _ in range(3):
            stages.take(np.zeros(grid.shape))
        with pytest.raises(ConsistencyError, match="^integration blew up at step 1$"):
            stages.take(np.full(grid.shape, np.inf))
        assert stages.pending is not None and stages.result is None
        message = "^a rider whose chain raised cannot ride again$"
        with monkeypatch.context() as patch:
            patch.setattr(SpectralWorkspace, "envelope",
                          lambda *args, **kwargs: pytest.fail("a kernel call"))
            with pytest.raises(ConfigurationError, match=message):
                stages.finish()
            with pytest.raises(ConfigurationError, match=message):
                nisio_evolve(table, 0.2, f, riders=[stages])


class TestPartitionContinuity:
    def test_zero_perturbation(self, two_sigma_table, bump128):
        pi = Partition(np.array([0.0, 0.1, 0.2]))
        assert partition_continuity_probe(two_sigma_table, pi, bump128, 0.0) == 0.0

    def test_singleton_bound(self, single_table, cos128):
        pi = Partition(np.array([0.0, 0.1, 0.2, 0.3]))
        l_f = lipschitz_bound(single_table, cos128)
        eps = 0.02
        probe = partition_continuity_probe(single_table, pi, cos128, eps)
        assert probe <= l_f * eps * pi.step_count + 1e-10

    def test_decay_in_eps(self, two_sigma_table, bump128):
        pi = Partition(np.array([0.0, 0.1, 0.2]))
        big = partition_continuity_probe(two_sigma_table, pi, bump128, 0.04)
        small = partition_continuity_probe(two_sigma_table, pi, bump128, 0.02)
        assert small <= big * (1 + 1e-6)

    def test_eps_too_large(self, two_sigma_table, bump128):
        pi = Partition(np.array([0.0, 0.1, 0.2]))
        with pytest.raises(ConfigurationError):
            partition_continuity_probe(two_sigma_table, pi, bump128, 0.06)


class TestKernelProperties:
    """Sublinear Markovian convolution behavior of the partition operators."""

    def test_random_draw_suite(self, two_sigma_table, grid128):
        # gaps on a 0.05-lattice keep the discrete kernels positive, so this
        # exercises the kernel algebra rather than spectral truncation
        rng = np.random.default_rng(1234)
        for _ in range(25):
            f = random_trig(grid128, rng, kmax=10)
            g = random_trig(grid128, rng, kmax=10)
            c = float(rng.uniform(0.1, 5.0))
            k = int(rng.integers(1, 5))
            marks = np.sort(rng.choice(np.arange(1, 11), size=k, replace=False)) * 0.05
            pi = Partition(np.concatenate([[0.0], marks]))

            jf = apply_partition(two_sigma_table, pi, f)
            jg = apply_partition(two_sigma_table, pi, g)

            # subadditive
            fg = GridFunction(grid128, f.values + g.values)
            assert float(np.max(apply_partition(two_sigma_table, pi, fg).values
                                - jf.values - jg.values)) <= 1e-10
            # positively homogeneous
            cf = GridFunction(grid128, c * f.values)
            assert sup_distance(apply_partition(two_sigma_table, pi, cf),
                                GridFunction(grid128, c * jf.values)) <= 1e-10 * (1 + c)
            # monotone
            above = GridFunction(grid128, f.values + 0.5)
            jabove = apply_partition(two_sigma_table, pi, above)
            assert float(np.min(jabove.values - jf.values)) >= -1e-10
            # 1-Lipschitz
            assert sup_distance(jf, jg) <= sup_distance(f, g) + 1e-10

    def test_constants_exact(self, two_sigma_table, grid128):
        pi = Partition(np.array([0.0, 0.07, 0.21, 0.3]))
        c = sample(grid128, "constant", value=-0.75)
        out = apply_partition(two_sigma_table, pi, c)
        assert np.all(out.values == -0.75)

    def test_step_lipschitz_in_time(self, two_sigma_table, cos128):
        l_f = lipschitz_bound(two_sigma_table, cos128)
        rng = np.random.default_rng(77)
        for _ in range(20):
            t1, t2 = rng.uniform(0.0, 1.0, size=2)
            a = apply_J(two_sigma_table, t1, cos128)
            b = apply_J(two_sigma_table, t2, cos128)
            assert sup_distance(a, b) <= l_f * abs(t1 - t2) + 1e-9

    def test_distance_to_identity(self, two_sigma_table, cos128):
        l_f = lipschitz_bound(two_sigma_table, cos128)
        rng = np.random.default_rng(78)
        for _ in range(10):
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.5, size=3))])
            pi = Partition(times)
            out = apply_partition(two_sigma_table, pi, cos128)
            assert sup_distance(out, cos128) <= l_f * pi.end + 1e-9

    def test_envelope_distance_bound(self, two_sigma_table, cos128):
        l_f = lipschitz_bound(two_sigma_table, cos128)
        for t in (0.1, 0.4, 1.0):
            res = nisio_evolve(two_sigma_table, t, cos128, max_level=8, tol=0.0)
            assert sup_distance(res.value, cos128) <= l_f * t + 1e-8

    def test_translation_equivariance(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=4, tol=0.0)
        shifted = GridFunction(bump128.grid, np.roll(bump128.values, -21))
        shifted_input = nisio_evolve(two_sigma_table, 0.2, shifted, max_level=4, tol=0.0)
        moved = GridFunction(bump128.grid, np.roll(res.value.values, -21))
        assert sup_distance(moved, shifted_input.value) <= 1e-12

    def test_dominates_every_member(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=4, tol=0.0)
        deep = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=10, tol=0.0)
        for i in range(len(two_sigma_table)):
            lin = member_evolution(two_sigma_table, 0.2, bump128, member=i)
            assert float(np.max(lin.values - res.value.values)) <= 1e-10
            # deeper levels accumulate one rounding quantum per step
            assert float(np.max(lin.values - deep.value.values)) <= 1e-9


class TestTwoDimensional:
    def test_envelope_on_the_2_torus(self):
        # maximizer interfaces are curves in 2-d, so spectral truncation at
        # n = 32 exceeds the 1-d-calibrated default guard; widen it explicitly
        g = make_grid(2, 32)
        fam = GeneratorFamily((diffusion(0.25, dim=2), diffusion(1.0, dim=2)))
        table = SymbolTable.build(fam, g)
        f = sample(g, "bump", center=[0.0, 0.0], width=np.pi)
        res = nisio_evolve(table, 0.2, f, max_level=5, tol=0.0, monotonicity_tol=1e-4)
        assert all(i >= -1e-5 for i in res.increments)
        for i in range(2):
            lin = member_evolution(table, 0.2, f, member=i)
            assert float(np.max(lin.values - res.value.values)) <= 1e-5
        c = sample(g, "constant", value=1.5)
        res_c = nisio_evolve(table, 0.2, c, max_level=2, tol=1e-12)
        assert np.all(res_c.value.values == 1.5)

    def test_default_guard_trips_on_coarse_2d(self):
        g = make_grid(2, 16)
        fam = GeneratorFamily((diffusion(0.25, dim=2), diffusion(1.0, dim=2)))
        table = SymbolTable.build(fam, g)
        f = sample(g, "bump", center=[0.0, 0.0], width=np.pi)
        with pytest.raises(Exception, match="monotone"):
            nisio_evolve(table, 0.2, f, max_level=3, tol=0.0)

    def test_singleton_2d_matches_linear(self):
        g = make_grid(2, 16)
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0, dim=2),)), g)
        f = sample(g, "cosine", k=[1, 2])
        res = nisio_evolve(table, 0.3, f, max_level=3, tol=0.0)
        lin = member_evolution(table, 0.3, f)
        assert sup_distance(res.value, lin) <= 1e-10


class TestFamilyRefinement:
    def test_larger_family_dominates(self, grid128, bump128, two_sigma_table):
        # enlarging the generator family can only raise the envelope; deep
        # levels carry one rounding quantum per composition step
        small = SymbolTable.build(GeneratorFamily((diffusion(0.25),)), grid128)
        for level, tol in ((4, 1e-10), (6, 5e-9)):
            lo = nisio_evolve(small, 0.2, bump128, max_level=level, tol=0.0)
            hi = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=level, tol=0.0)
            assert float(np.min(hi.value.values - lo.value.values)) >= -tol

    def test_final_value_dominates_every_level(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=4, tol=0.0)
        for level in range(4):
            iterate = apply_partition(two_sigma_table, Partition.equidistant(0.2, 2**level),
                                      bump128)
            assert float(np.min(res.value.values - iterate.values)) >= -1e-10
        deep = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=6, tol=0.0)
        assert float(np.min(deep.value.values - res.value.values)) >= -5e-9


class TestWorkspaceReuse:
    """Envelope steps share one kernel workspace; neither the caller's input
    nor a returned value may alias it."""

    def test_input_values_unchanged(self, two_sigma_table, bump128):
        before = bump128.values.copy()
        nisio_evolve(two_sigma_table, 0.2, bump128, max_level=4, tol=0.0,
                     record_argmax_level=2)
        apply_partition(two_sigma_table, Partition(np.array([0.0, 0.05, 0.2])), bump128)
        assert np.array_equal(bump128.values, before)
        v = bump128.values.copy()  # writeable, unlike GridFunction.values
        _ride([Rider.run(two_sigma_table, 0.1, 2, v), Rider.run(two_sigma_table, 0.05, 4, v)])
        assert np.array_equal(v, before)

    def test_levels_do_not_share_memory(self, two_sigma_table, bump128, monkeypatch):
        levels = _ride([Rider.run(two_sigma_table, 0.2 / 2**k, 2**k, bump128.values)
                        for k in range(4)])
        for coarse, fine in zip(levels, levels[1:]):
            assert not np.shares_memory(coarse, fine)
        # each level still holds its own iterate after the later levels ran
        for k, values in enumerate(levels):
            again = apply_partition(two_sigma_table, Partition.equidistant(0.2, 2**k),
                                    bump128)
            assert np.array_equal(values, again.values)
        # lanes of equal count complete on one tick (all five lanes in flight),
        # and with fewer slots than lanes a waiting lane enters as a slot frees:
        # the tick each lane returns on, and every lane bitwise what it gives alone
        runs = [(0.01, 1), (0.03, 2), (0.02, 2), (0.05, 2), (0.04, 3)]
        envelope = SpectralWorkspace.envelope
        each = [alone(two_sigma_table, gap, count, bump128.values) for gap, count in runs]
        for points, slots, returns in ((levy.BATCH_POINTS, 16, [1, 2, 2, 2, 3]),
                                       (2 * 2 * 128, 2, [1, 2, 3, 4, 6]),
                                       (1, 1, [1, 3, 5, 7, 10])):
            monkeypatch.setattr(levy, "BATCH_POINTS", points)
            assert batch_rows(two_sigma_table.grid, len(two_sigma_table)) == slots
            lanes = [Rider.run(two_sigma_table, gap, count, bump128.values)
                     for gap, count in runs]
            rows, ticks = [], {}  # rows per kernel call; the call each lane returns on

            def counting(ws, mults, values, out=None, argmax=None):
                rows.append(len(values))
                return envelope(ws, mults, values, out=out, argmax=argmax)

            with monkeypatch.context() as patch:
                patch.setattr(SpectralWorkspace, "envelope", counting)
                for _ in _drive(lanes):
                    for j, lane in enumerate(lanes):
                        if lane.pending is None:
                            ticks.setdefault(j, len(rows))
            assert [ticks[j] for j in range(len(runs))] == returns
            assert max(rows) <= slots and sum(rows) == 10
            for lane, single in zip(lanes, each):
                assert np.array_equal(lane.result, single)
        # any order of counts works (the lanes need not complete in the order
        # given), and a run of no steps returns its input, as a new array
        monkeypatch.undo()
        for runs in ([(0.05, 4), (0.1, 2)], [(0.1, 0)]):
            lanes = [Rider.run(two_sigma_table, gap, count, bump128.values)
                     for gap, count in runs]
            together, calls, _ = count_envelopes(monkeypatch,
                                                 lambda: _ride(lanes))
            assert calls == max(count for _, count in runs)
            for values, (gap, count) in zip(together, runs):
                assert np.array_equal(values, alone(two_sigma_table, gap, count,
                                                    bump128.values))
                assert not np.shares_memory(values, bump128.values)

    def test_recorded_maximizers_match_single_steps(self, two_sigma_table, bump128):
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=2, tol=0.0,
                           record_argmax_level=2)
        mults = two_sigma_table.multipliers(0.05)[None]
        f = bump128
        for step in range(3, -1, -1):
            sel = np.empty(bump128.grid.shape, dtype=np.int64)
            values = SpectralWorkspace(bump128.grid, 2).envelope(mults, f.values[None],
                                                                 argmax=sel[None])
            f = apply_J(two_sigma_table, 0.05, f)
            assert np.array_equal(values[0], f.values)
            assert np.array_equal(res.argmax.feedback[step], sel)
        assert np.array_equal(res.value.values, f.values)

    @pytest.mark.parametrize("level,max_level,tol,above_levels_used", [
        (0, 3, 0.0, False),
        (2, 4, 0.0, False),
        (4, 4, 0.0, False),   # the last level run
        (6, 3, 0.0, True),    # above the level budget
        (9, 12, 1e-3, True),  # above the level where the increment stops
    ])
    def test_maximizers_from_one_pass(self, two_sigma_table, bump128, monkeypatch, level,
                                      max_level, tol, above_levels_used):
        calls = []  # (records maximizers, rows) per kernel call
        envelope = SpectralWorkspace.envelope

        def counting(ws, mults, values, out=None, argmax=None):
            calls.append((argmax is not None, len(values)))
            return envelope(ws, mults, values, out=out, argmax=argmax)

        monkeypatch.setattr(SpectralWorkspace, "envelope", counting)
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=max_level, tol=tol,
                           record_argmax_level=level)
        monkeypatch.undo()
        assert (level > res.levels_used) == above_levels_used
        # tol 0 predicts no stop and the stop at level 2 comes before the first
        # prediction, so every level is in flight from the first tick: level L
        # completes at tick 2^L and the loop makes 2^levels_used kernel calls, none of
        # which records; then the pass makes 2^level, each on one row
        loop_ticks = 2**res.levels_used
        assert len(calls) == loop_ticks + 2**level
        assert not any(records for records, _ in calls[:loop_ticks])
        assert calls[loop_ticks:] == [(True, 1)] * 2**level
        # the pass, by hand: forward-time step j is applied 2^level - 1 - j steps in
        steps = 2**level
        ws = SpectralWorkspace(two_sigma_table.grid, len(two_sigma_table))
        mults = two_sigma_table.multipliers(0.2 / steps)[None]
        selections = np.empty((steps,) + two_sigma_table.grid.shape, dtype=np.int64)
        v = bump128.values[None].copy()
        for step in range(steps - 1, -1, -1):
            v = ws.envelope(mults, v, argmax=selections[step, None])
        assert res.argmax.step_count == steps
        assert np.array_equal(res.argmax.feedback, selections)

    def test_partition_matches_single_steps(self, two_sigma_table, bump128):
        pi = Partition(np.array([0.0, 0.05, 0.12, 0.2]))
        f = bump128
        for gap in pi.gaps()[::-1]:
            f = apply_J(two_sigma_table, float(gap), f)
        assert np.array_equal(apply_partition(two_sigma_table, pi, bump128).values, f.values)

    def test_mixed_runs_record_maximizers_in_forward_time(self, two_sigma_table, bump128):
        runs = [(0.03, 2), (0.07, 1), (0.05, 2)]
        values = bump128.values
        for gap, count in reversed(runs):
            values = alone(two_sigma_table, gap, count, values)
        f = bump128
        gaps = [gap for gap, count in runs for _ in range(count)]
        for step in range(len(gaps) - 1, -1, -1):
            f = apply_J(two_sigma_table, gaps[step], f)
        assert np.array_equal(values, f.values)

    @pytest.mark.parametrize("times,calls", [
        ([0.0, 0.05, 0.12, 0.2], 3),               # three distinct gaps
        ([0.0, 0.125, 0.25, 0.375, 0.5], 1),       # one run of equal gaps
        ([0.0, 0.25, 0.5, 0.625, 0.75], 2),        # two runs
        # gaps equal up to the rounding of the partition times: 5 distinct gap
        # values in 10 runs of equal gaps, and 12 in 573 runs
        (Partition.dyadic(0.2, 4).times, 1),
        (Partition.equidistant(0.2, 1000).times, 1),
    ])
    def test_multipliers_built_once_per_run(self, two_sigma_table, bump128, monkeypatch,
                                            times, calls):
        built = []
        multipliers = SymbolTable.multipliers

        def counting(table, t, out=None):
            built.append(t)
            return multipliers(table, t, out)

        monkeypatch.setattr(SymbolTable, "multipliers", counting)
        pi = Partition(np.array(times))
        out = apply_partition(two_sigma_table, pi, bump128)
        assert len(built) == calls
        if calls == 1:
            same = alone(two_sigma_table, pi.end / pi.step_count, pi.step_count, bump128.values)
            assert np.array_equal(out.values, same)
        built.clear()
        apply_partition(two_sigma_table, Partition.equidistant(0.2, 8), bump128)
        assert built == [0.2 / 8]


class TestLockstepLevels:
    """The dyadic levels advance in lockstep, several rows per kernel call; one
    level at a time (a point budget of one row) must give bitwise the same run."""

    @staticmethod
    def _run(monkeypatch, one_row, table, f, **kwargs):
        with monkeypatch.context() as patch:
            if one_row:
                patch.setattr(levy, "BATCH_POINTS", 1)
            assert (batch_rows(table.grid, len(table)) == 1) == one_row
            try:
                return nisio_evolve(table, 0.5, f, max_level=8, **kwargs)
            except ConsistencyError as exc:
                return str(exc)

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 16)])
    @pytest.mark.parametrize("case", ["stop before record", "stop after record", "tol 0",
                                      "guard trip"])
    def test_matches_one_level_at_a_time(self, monkeypatch, dim, n, case):
        grid = make_grid(dim, n)
        f = sample(grid, "bump", center=[0.0] * dim, width=np.pi)
        trip = case == "guard trip"
        second = drift([1.0] * dim, dim=dim) if trip else diffusion(1.0, dim=dim)
        table = SymbolTable.build(GeneratorFamily((diffusion(0.25, dim=dim), second)), grid)
        # the 2D n=16 maximizer interfaces need a wider guard than the default;
        # the guard trips at level 5 with the 1D width and level 1 with the default
        kwargs = {"stop before record": {"tol": 5e-4, "record_argmax_level": 7},
                  "stop after record": {"tol": 5e-4, "record_argmax_level": 2},
                  "tol 0": {"tol": 0.0, "record_argmax_level": 3},
                  "guard trip": {"tol": 0.0, "record_argmax_level": 4,
                                 "monotonicity_tol": {1: 2e-4, 2: 1e-8}[dim]}}[case]
        kwargs.setdefault("monotonicity_tol", 1e-4)
        lockstep = self._run(monkeypatch, False, table, f, **kwargs)
        single = self._run(monkeypatch, True, table, f, **kwargs)
        if trip:
            level = {1: 5, 2: 1}[dim]
            assert isinstance(lockstep, str)
            assert lockstep.startswith(f"dyadic level {level} drops below level {level - 1}")
            assert lockstep == single
            return
        if case.startswith("stop"):
            assert lockstep.levels_used == 5 and lockstep.converged
        assert np.array_equal(lockstep.value.values, single.value.values)
        assert lockstep.increments == single.increments
        assert ([(r.level, r.steps, repr(r.sup_increment), repr(r.sup_norm))
                 for r in lockstep.records]
                == [(r.level, r.steps, repr(r.sup_increment), repr(r.sup_norm))
                    for r in single.records])
        assert (lockstep.argmax.step_count == single.argmax.step_count
                == 2**kwargs["record_argmax_level"])
        assert np.array_equal(lockstep.argmax.feedback, single.argmax.feedback)
        assert (lockstep.levels_used, lockstep.converged) == (single.levels_used,
                                                              single.converged)


class TestPredictedStop:
    """After each level that does not stop, the ratio of the last two increments
    predicts the stop, and the levels past it pause: the run gives the records,
    value and maximizers of every level alone, in fewer row-steps."""

    @pytest.mark.parametrize("tol,levels_used", [(5e-6, 10), (1e-5, 9), (4e-5, 7)])
    def test_levels_past_the_predicted_stop_pause(self, two_sigma_table, bump128, monkeypatch,
                                                  tol, levels_used):
        rows = []  # rows per kernel call
        envelope = SpectralWorkspace.envelope

        def counting(ws, mults, values, out=None, argmax=None):
            rows.append(values.shape[0] if values.ndim > ws.grid.dim else 1)
            return envelope(ws, mults, values, out=out, argmax=argmax)

        monkeypatch.setattr(SpectralWorkspace, "envelope", counting)
        t, max_level = 0.2, 12
        res = nisio_evolve(two_sigma_table, t, bump128, max_level=max_level, tol=tol,
                           record_argmax_level=4)
        monkeypatch.undo()
        assert (res.levels_used, res.converged) == (levels_used, True)
        # each level alone through the driver gives every record and the value bitwise
        each = [alone(two_sigma_table, t / 2**level, 2**level, bump128.values)
                for level in range(levels_used + 1)]
        want = [(0, 1, "nan", repr(float(np.max(np.abs(each[0])))))]
        for level in range(1, levels_used + 1):
            inc = float(np.max(each[level] - each[level - 1]))
            want.append((level, 2**level, repr(inc), repr(float(np.max(np.abs(each[level]))))))
        assert [(r.level, r.steps, repr(r.sup_increment), repr(r.sup_norm))
                for r in res.records] == want
        assert np.array_equal(res.value.values, each[-1])
        # the maximizers come from their own pass of 2^4 one-row calls, the
        # pass of a run with no level to pause
        loop, tail = rows[:-16], rows[-16:]
        assert tail == [1] * 16
        unpaused = nisio_evolve(two_sigma_table, t, bump128, max_level=0, record_argmax_level=4)
        assert np.array_equal(res.argmax.feedback, unpaused.argmax.feedback)
        # with every level in flight from tick 0, the levels past the stop take
        # 2^levels_used steps each: 4 095 row-steps at tol 5e-6
        every_level = 2**(levels_used + 1) - 1 + (max_level - levels_used) * 2**levels_used
        assert sum(loop) < every_level
        if tol == 5e-6:
            assert every_level == 4095 and len(loop) == 1024 and sum(loop) <= 2567
        if tol == 4e-5:
            # level 7 is paused on a prediction of a stop at level 6 and then
            # resumed: it completes late, at no more than 25% more ticks
            assert 2**7 < len(loop) <= 1.25 * 2**7
        else:
            assert len(loop) == 2**levels_used

    @staticmethod
    def _completion_ticks(monkeypatch, table, increments, tol):
        """Kernel calls made by the time each level completes, in nisio_evolve
        with the real lockstep but the given sup increments in its records."""
        calls, ticks = [], []
        envelope, drive = SpectralWorkspace.envelope, nisio._drive

        def counting(ws, mults, values, out=None, argmax=None):
            calls.append(1)
            return envelope(ws, mults, values, out=out, argmax=argmax)

        def constructed(lanes):
            levels, total = lanes[:len(increments)], 0.0
            for _ in drive(lanes):
                # level 0's entry only sets the start
                while len(ticks) < len(levels) and levels[len(ticks)].pending is None:
                    ticks.append(len(calls))
                    total += increments[len(ticks) - 1]
                    level = levels[len(ticks) - 1]
                    level.result = np.full_like(level.result, total)
                yield

        monkeypatch.setattr(SpectralWorkspace, "envelope", counting)
        monkeypatch.setattr(nisio, "_drive", constructed)
        f = sample(table.grid, "bump", center=0.0, width=np.pi)
        res = nisio_evolve(table, 0.2, f, max_level=len(increments) - 1, tol=tol)
        monkeypatch.undo()
        assert [r.sup_increment for r in res.records[1:]] == pytest.approx(
            increments[1:len(res.records)], rel=1e-9)
        return ticks

    def test_increments_levelling_off_above_tol(self, two_sigma_family, grid8, monkeypatch):
        # every ratio predicts the stop at the next level, and none comes.
        # Pausing the level after it each time would leave every level waiting
        # for its predecessor, near 2^(L+1) calls; once a level has paused, the
        # one after it is stepped whenever it is the next but one to complete
        table = SymbolTable.build(two_sigma_family, grid8)
        tol, max_level = 2.0**-20, 10
        increments = [tol * (1 + 3.0**-level) for level in range(max_level + 1)]
        ticks = self._completion_ticks(monkeypatch, table, increments, tol)
        assert len(ticks) == max_level + 1  # the run never stops
        assert ticks[:4] == [1, 2, 4, 8] and ticks[-1] > 2**max_level
        assert all(8 * tick < 11 * 2**level for level, tick in enumerate(ticks))

    def test_missed_predictions_cost_at_most_three_eighths_more(self, two_sigma_family, grid8,
                                                                 monkeypatch):
        # increments anywhere from just below tol to 20 times it, in any order:
        # every level j completes before tick 2^j * 11/8, and some runs miss
        table = SymbolTable.build(two_sigma_family, grid8)
        tol, max_level = 2.0**-20, 10
        rng = np.random.default_rng(7)
        late = []
        for _ in range(40):
            increments = tol * np.exp(rng.uniform(-0.2, 3.0, max_level + 1))
            ticks = self._completion_ticks(monkeypatch, table, increments.tolist(), tol)
            assert all(8 * tick < 11 * 2**level for level, tick in enumerate(ticks))
            late.append(ticks[-1] > 2**(len(ticks) - 1))
        assert any(late)
