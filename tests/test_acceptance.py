"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shared heavy computations (the level-12 dyadic run on the two-sigma
family) live in module fixtures.
"""

import math
import time

import numpy as np
import pytest

from sublevy import (
    GeneratorFamily,
    GridFunction,
    Partition,
    SymbolTable,
    apply_J,
    apply_partition,
    compound_poisson,
    diffusion,
    dpp_check,
    drift,
    estimate,
    extract_strategy,
    generator_limit_table,
    lipschitz_bound,
    make_grid,
    mass_diagnostic,
    nisio_evolve,
    picard_solve,
    poisson_series_apply,
    random_strategy,
    sample,
    sup_distance,
    dual_bound_suite,
    wrapped_cauchy_quadruple,
)
from conftest import member_evolution, member_generator, one_member_table, random_trig

# baseline dyadic-vs-integrated gap measured when tolerances were frozen;
# exceeding twice this value is a regression even inside the hard budget
BASELINE_ORACLE_GAP = 3.0e-6

T_HORIZON = 0.2
N_GRID = 128


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def acc_grid():
    return make_grid(1, N_GRID)


@pytest.fixture(scope="module")
def acc_table(acc_grid):
    fam = GeneratorFamily((diffusion(0.25), diffusion(1.0)), ("sigma=0.5", "sigma=1"))
    return SymbolTable.build(fam, acc_grid)


@pytest.fixture(scope="module")
def acc_bump(acc_grid):
    return sample(acc_grid, "bump", center=0.0, width=math.pi)


@pytest.fixture(scope="module")
def acc_cos(acc_grid):
    return sample(acc_grid, "cosine", k=1)


@pytest.fixture(scope="module")
def acc_deep_run(acc_table, acc_bump):
    return nisio_evolve(acc_table, T_HORIZON, acc_bump, max_level=12, tol=0.0,
                        record_argmax_level=4)


def test_criterion_1_linear_consistency(acc_grid, acc_cos):
    start = time.perf_counter()
    singletons = {
        "sigma=1": diffusion(1.0),
        "half-turn jumps": compound_poisson([(np.pi, 1.0)], rate=1.0),
        "drift": drift(1.0),
        "wrapped Cauchy": wrapped_cauchy_quadruple(acc_grid, 0.5, rate=1.0),
    }
    worst_linear = 0.0
    worst_series = 0.0
    for name, q in singletons.items():
        table = SymbolTable.build(GeneratorFamily((q,), (name,)), acc_grid)
        res = nisio_evolve(table, 0.3, acc_cos, max_level=0, tol=0.0)
        lin = member_evolution(table, 0.3, acc_cos)
        worst_linear = max(worst_linear, sup_distance(res.value, lin))
        if q.mu_points.shape[0] and q.sigma[0, 0] == 0.0 and not q.nu_points.shape[0]:
            series = poisson_series_apply(q, 0.3, acc_cos)
            worst_series = max(worst_series, sup_distance(series, lin))
    elapsed = time.perf_counter() - start
    ok = worst_linear <= 1e-10 and worst_series <= 1e-9 and elapsed < 1.0
    report(1, ok,
           f"single-member envelope = linear route (gap {worst_linear:.2e} <= 1e-10), "
           f"series oracle gap {worst_series:.2e} <= 1e-9, {elapsed:.2f}s < 1s")


def test_criterion_2_monotone_dyadic_convergence(acc_table, acc_bump):
    start = time.perf_counter()
    res = nisio_evolve(acc_table, T_HORIZON, acc_bump, max_level=8, tol=0.0)
    elapsed = time.perf_counter() - start
    min_increment = min(res.increments)
    level8 = res.increments[7]
    ok = min_increment >= -1e-10 and level8 <= 1e-4 and elapsed < 10.0
    report(2, ok,
           f"increments nonnegative (min {min_increment:.2e} >= -1e-10), "
           f"level-8 increment {level8:.2e} <= 1e-4, {elapsed:.2f}s < 10s")


def test_criterion_3_integration_oracle_agreement(acc_table, acc_bump, acc_deep_run):
    start = time.perf_counter()
    traj = picard_solve(acc_table, acc_bump, T_HORIZON, 1e-3)
    gap = sup_distance(acc_deep_run.value, traj.final)
    elapsed = time.perf_counter() - start
    ok = gap <= 5e-4 and gap <= 2 * BASELINE_ORACLE_GAP and elapsed < 60.0
    report(3, ok,
           f"level-12 vs RK4(dt=1e-3) gap {gap:.2e} <= 5e-4 "
           f"(baseline {BASELINE_ORACLE_GAP:.1e}, regression guard 2x), "
           f"{elapsed:.1f}s < 60s")


def test_criterion_4_lipschitz_bounds(acc_table, acc_cos):
    l_f = lipschitz_bound(acc_table, acc_cos)
    rng = np.random.default_rng(2024)
    worst_step = -np.inf
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 1.0, size=2)
        a = apply_J(acc_table, t1, acc_cos)
        b = apply_J(acc_table, t2, acc_cos)
        worst_step = max(worst_step, sup_distance(a, b) - l_f * abs(t1 - t2))
    worst_env = -np.inf
    for t in rng.uniform(0.05, 1.0, size=5):
        res = nisio_evolve(acc_table, float(t), acc_cos, max_level=6, tol=0.0)
        worst_env = max(worst_env, sup_distance(res.value, acc_cos) - l_f * float(t))
    ok = worst_step <= 1e-9 and worst_env <= 1e-8
    report(4, ok,
           f"||J(t1)f - J(t2)f|| - L|t1-t2| <= {worst_step:.2e} (tol 1e-9), "
           f"||S(t)f - f|| - Lt <= {worst_env:.2e} (tol 1e-8)")


def test_criterion_5_sublinear_kernel_suite(acc_table, acc_grid):
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        f = random_trig(acc_grid, rng, kmax=10)
        g = random_trig(acc_grid, rng, kmax=10)
        c = float(rng.uniform(0.1, 5.0))
        k = int(rng.integers(1, 5))
        # gaps on a 0.05-lattice: the discrete kernels are positive there, so
        # the kernel algebra is tested rather than spectral truncation
        marks = np.sort(rng.choice(np.arange(1, 11), size=k, replace=False)) * 0.05
        pi = Partition(np.concatenate([[0.0], marks]))

        jf = apply_partition(acc_table, pi, f)
        jg = apply_partition(acc_table, pi, g)
        # monotone
        above = GridFunction(acc_grid, f.values + 0.2 + 0.1 * (1 + np.cos(acc_grid.axis_points())))
        worst = max(worst, -float(np.min(apply_partition(acc_table, pi, above).values - jf.values)))
        # subadditive
        fg = GridFunction(acc_grid, f.values + g.values)
        worst = max(worst, float(np.max(apply_partition(acc_table, pi, fg).values
                                        - jf.values - jg.values)))
        # positively homogeneous
        cf = GridFunction(acc_grid, c * f.values)
        worst = max(worst, sup_distance(apply_partition(acc_table, pi, cf),
                                        GridFunction(acc_grid, c * jf.values)))
        # constants
        const = sample(acc_grid, "constant", value=float(rng.normal()))
        worst = max(worst, sup_distance(apply_partition(acc_table, pi, const), const))
        # 1-Lipschitz
        worst = max(worst, sup_distance(jf, jg) - sup_distance(f, g))
        # partition refinement is monotone
        refined = Partition(np.union1d(pi.times, (pi.times[:-1] + pi.times[1:]) / 2))
        worst = max(worst, -float(np.min(apply_partition(acc_table, refined, f).values
                                         - jf.values)))
        # translation equivariance
        shift = int(rng.integers(1, acc_grid.n))
        moved = apply_partition(acc_table, pi, GridFunction(acc_grid, np.roll(f.values, -shift)))
        worst = max(worst, float(np.max(np.abs(moved.values - np.roll(jf.values, -shift)))))
    ok = worst <= 1e-9
    report(5, ok, f"100 random draws: worst kernel-property defect {worst:.2e} <= 1e-9")


def test_criterion_6_generator_limit(acc_table, acc_cos):
    rows = generator_limit_table(acc_table, acc_cos, [0.1, 0.05, 0.025, 0.0125])
    errs = [e for _, e in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] <= 0.5 * errs[0]
    report(6, ok,
           "difference-quotient errors "
           + " > ".join(f"{e:.3e}" for e in errs)
           + f" strictly decreasing, last/first = {errs[-1] / errs[0]:.2f} <= 0.5")


def test_criterion_7_dynamic_programming(acc_table, acc_bump):
    d4 = dpp_check(acc_table, 0.1, 0.1, acc_bump, 4)
    d8 = dpp_check(acc_table, 0.1, 0.1, acc_bump, 8)
    ok = d4 >= 2.0 * d8
    report(7, ok,
           f"split-vs-joint distance falls {d4:.2e} -> {d8:.2e} "
           f"(factor {d4 / d8:.1f} >= 2) from level 4 to 8")


def test_criterion_8_second_difference_limit():
    g = make_grid(1, 1024)
    f = sample(g, "cosine", k=1)
    target = GridFunction(g, -0.5 * f.values)
    details = []
    ok = True
    for h in (0.1, 0.05, 0.01):
        h_eff = max(1, round(h / g.spacing)) * g.spacing
        q = lambda_free_quadruple(h_eff)
        err = sup_distance(member_generator(one_member_table(q, g), f), target)
        details.append(f"h={h:g}: {err:.2e} <= {0.6 * h:.2e}")
        ok = ok and err <= 0.6 * h
    report(8, ok, "second-difference generators approach half the Laplacian: "
           + "; ".join(details))


def lambda_free_quadruple(h):
    from sublevy import LevyQuadruple

    return LevyQuadruple.create(nu=[(h, 1.0 / h**2)], dim=1)


def test_criterion_9_mc_dual_bounds(acc_table, acc_bump, acc_deep_run, acc_grid):
    start = time.perf_counter()
    x0 = np.array([-np.pi / 2])
    reference = acc_deep_run.value.value_at(acc_grid.nearest_index(x0))
    extracted = extract_strategy(acc_deep_run)
    strategies = [("extracted", extracted)]
    rng = np.random.default_rng(777)
    for i in range(16):
        strategies.append((f"random-{i}",
                           random_strategy(acc_grid, extracted.partition, 2, rng)))
    report_obj = dual_bound_suite(
        acc_table.family, acc_bump, x0, T_HORIZON, strategies,
        n_paths=10_000, seed=99, reference_value=reference, scheme_tol=1e-2,
    )
    extracted_row = report_obj.rows[0]
    attained = abs(extracted_row.mean - reference) <= 1e-2 + 3 * extracted_row.stderr
    again = estimate(acc_table.family, extracted, acc_bump, x0, T_HORIZON,
                     10_000, seed=99)
    reproducible = (again.mean, again.stderr) == (extracted_row.mean, extracted_row.stderr)
    elapsed = time.perf_counter() - start
    bounded = all(row.bound_ok for row in report_obj.rows)
    ok = bounded and attained and reproducible and elapsed < 120.0
    report(9, ok,
           f"all 17 strategy means below envelope + 3se + 1e-2 ({bounded}), "
           f"extracted attains within {abs(extracted_row.mean - reference):.2e} "
           f"(budget {1e-2 + 3 * extracted_row.stderr:.2e}), "
           f"bitwise reproducible ({reproducible}), {elapsed:.0f}s < 120s")


def test_criterion_10_symbol_and_mass_diagnostics(acc_table):
    g256 = make_grid(1, 256)
    shipped = {
        "two-sigma": acc_table,
        "half-turn": SymbolTable.build(
            GeneratorFamily((compound_poisson([(np.pi, 1.0)], rate=1.0),)), g256),
        "embedded Cauchy": SymbolTable.build(
            GeneratorFamily(tuple(
                wrapped_cauchy_quadruple(g256, gamma, rate=1.0, scale=60.0)
                for gamma in (0.25, 0.5))), g256),
    }
    worst_re = -np.inf
    origin_ok = True
    for table in shipped.values():
        worst_re = max(worst_re, float(np.max(table.psi.real)))
        origin_ok = origin_ok and all(
            table.psi[i][(0,) * table.grid.dim] == 0.0 for i in range(len(table))
        )
    escaped = mass_diagnostic(shipped["embedded Cauchy"], 0.2, np.pi / 2)
    ok = worst_re <= 1e-12 and origin_ok and escaped <= 1e-3
    report(10, ok,
           f"Re psi <= {worst_re:.2e} (tol 1e-12), psi(0) = 0 exactly ({origin_ok}), "
           f"embedded-Cauchy wrap-around mass {escaped:.2e} <= 1e-3 at t=0.2, n=256")
