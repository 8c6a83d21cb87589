import math
import time

import numpy as np
import pytest

from sublevy import (
    BudgetError,
    ConfigurationError,
    GeneratorFamily,
    GridFunction,
    Partition,
    SymbolTable,
    apply_J,
    apply_partition,
    cyclic_shift,
    diffusion,
    dpp_check,
    compound_poisson,
    generator_limit_table,
    generator_sup,
    lipschitz_bound,
    make_grid,
    nisio_evolve,
    partition_continuity_probe,
    sample,
    sup_distance,
)
from sublevy.levy import SpectralWorkspace
from sublevy.nisio import _compose
from conftest import member_evolution, random_trig


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

    def test_mesh(self):
        pi = Partition(np.array([0.0, 0.1, 0.4]))
        assert pi.mesh == pytest.approx(0.3)
        assert Partition(np.array([0.0])).mesh == 0.0

    def test_dyadic_matches_equidistant(self):
        a = Partition.dyadic(0.8, 3)
        b = Partition.equidistant(0.8, 8)
        assert np.array_equal(a.times, b.times)


class TestApplyJ:
    def test_singleton_is_linear(self, single_table, cos128):
        out, _ = apply_J(single_table, 0.7, cos128)
        lin = member_evolution(single_table, 0.7, cos128)
        assert sup_distance(out, lin) == 0.0

    def test_zero_time_identity(self, two_sigma_table, cos128):
        out, am = apply_J(two_sigma_table, 0.0, cos128, record_argmax=True)
        assert out is cos128
        assert np.all(am == 0)

    def test_cp_pair_takes_pointwise_best(self, cp_pair_table, grid128, cos128):
        out, am = apply_J(cp_pair_table, 0.5, cos128, record_argmax=True)
        decayed = math.exp(-1.0) * cos128.values
        expected = np.maximum(cos128.values, decayed)
        assert np.max(np.abs(out.values - expected)) < 1e-12
        # rate 0 wins where cos >= 0, rate 1 where cos < 0
        inside = np.abs(cos128.values) > 1e-12
        assert np.all(am[inside & (cos128.values > 0)] == 0)
        assert np.all(am[inside & (cos128.values < 0)] == 1)

    def test_constants_preserved(self, two_sigma_table, grid128):
        c = sample(grid128, "constant", value=-1.25)
        out, _ = apply_J(two_sigma_table, 0.3, c)
        assert np.all(out.values == -1.25)


class TestApplyPartition:
    def test_two_point_partition_is_single_step(self, two_sigma_table, bump128):
        via_partition = apply_partition(
            two_sigma_table, Partition(np.array([0.0, 0.4])), bump128
        )
        direct, _ = apply_J(two_sigma_table, 0.4, bump128)
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
        out, _ = apply_J(two_sigma_table, 0.2, bump128)
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
        b, _ = apply_J(two_sigma_table, 0.3, bump128)
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
        with pytest.raises(ConfigurationError):
            generator_limit_table(two_sigma_table, cos128, [])

    @pytest.mark.parametrize("h", [1e-5, 5e-324])
    def test_h_needing_more_than_max_level_rejected(self, two_sigma_table, cos128, h):
        # 1e-5 needs dyadic level 21 (2^21 steps); 5e-324 overflowed log2(1/h)
        with pytest.raises(ConfigurationError, match="2\\^-16"):
            generator_limit_table(two_sigma_table, cos128, [0.1, h])


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
            a, _ = apply_J(two_sigma_table, t1, cos128)
            b, _ = apply_J(two_sigma_table, t2, cos128)
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
        shifted_input = nisio_evolve(
            two_sigma_table, 0.2, cyclic_shift(bump128, 21), max_level=4, tol=0.0
        )
        assert sup_distance(cyclic_shift(res.value, 21), shifted_input.value) <= 1e-12

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
        _compose(two_sigma_table, [(0.05, 4)], v, record=True)
        assert np.array_equal(v, before)

    def test_levels_do_not_share_memory(self, two_sigma_table, bump128):
        levels = [_compose(two_sigma_table, [(0.2 / 2**k, 2**k)], bump128.values)[0]
                  for k in range(4)]
        for coarse, fine in zip(levels, levels[1:]):
            assert not np.shares_memory(coarse, fine)
        # each level still holds its own iterate after the later levels ran
        for k, values in enumerate(levels):
            again = apply_partition(two_sigma_table, Partition.equidistant(0.2, 2**k),
                                    bump128)
            assert np.array_equal(values, again.values)

    def test_recorded_maximizers_match_single_steps(self, two_sigma_table, bump128):
        values, am = _compose(two_sigma_table, [(0.05, 4)], bump128.values, record=True)
        f = bump128
        for step in range(3, -1, -1):
            f, sel = apply_J(two_sigma_table, 0.05, f, record_argmax=True)
            assert np.array_equal(am[step], sel)
        assert np.array_equal(values, f.values)

    @pytest.mark.parametrize("level,max_level,tol,extra_pass", [
        (0, 3, 0.0, False),
        (2, 4, 0.0, False),
        (4, 4, 0.0, False),   # the last level run
        (6, 3, 0.0, True),    # above the level budget
        (9, 12, 1e-3, True),  # above the level where the increment stops
    ])
    def test_maximizers_recorded_inside_the_dyadic_loop(self, two_sigma_table, bump128,
                                                         monkeypatch, level, max_level, tol,
                                                         extra_pass):
        recorded = []
        envelope = SpectralWorkspace.envelope

        def counting(ws, mults, values, out=None, argmax=None):
            recorded.append(argmax is not None)
            return envelope(ws, mults, values, out=out, argmax=argmax)

        monkeypatch.setattr(SpectralWorkspace, "envelope", counting)
        res = nisio_evolve(two_sigma_table, 0.2, bump128, max_level=max_level, tol=tol,
                           record_argmax_level=level)
        monkeypatch.undo()
        assert (level > res.levels_used) == extra_pass
        loop_steps = sum(2**k for k in range(res.levels_used + 1))
        assert len(recorded) == loop_steps + (2**level if extra_pass else 0)
        assert sum(recorded) == 2**level
        _, selections = _compose(two_sigma_table, [(0.2 / 2**level, 2**level)],
                                 bump128.values, record=True)
        assert res.argmax.level == level
        assert np.array_equal(res.argmax.selections, selections)

    def test_partition_matches_single_steps(self, two_sigma_table, bump128):
        pi = Partition(np.array([0.0, 0.05, 0.12, 0.2]))
        f = bump128
        for gap in pi.gaps()[::-1]:
            f, _ = apply_J(two_sigma_table, float(gap), f)
        assert np.array_equal(apply_partition(two_sigma_table, pi, bump128).values, f.values)

    def test_mixed_runs_record_maximizers_in_forward_time(self, two_sigma_table, bump128):
        runs = [(0.03, 2), (0.07, 1), (0.05, 2)]
        values, am = _compose(two_sigma_table, runs, bump128.values, record=True)
        f = bump128
        gaps = [gap for gap, count in runs for _ in range(count)]
        for step in range(len(gaps) - 1, -1, -1):
            f, sel = apply_J(two_sigma_table, gaps[step], f, record_argmax=True)
            assert np.array_equal(am[step], sel)
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

        def counting(table, t):
            built.append(t)
            return multipliers(table, t)

        monkeypatch.setattr(SymbolTable, "multipliers", counting)
        pi = Partition(np.array(times))
        out = apply_partition(two_sigma_table, pi, bump128)
        assert len(built) == calls
        if calls == 1:
            same, _ = _compose(two_sigma_table, [(pi.end / pi.step_count, pi.step_count)],
                               bump128.values)
            assert np.array_equal(out.values, same)
        built.clear()
        apply_partition(two_sigma_table, Partition.equidistant(0.2, 8), bump128)
        assert built == [0.2 / 8]
