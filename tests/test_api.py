import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import sublevy
from sublevy import (ConfigurationError, GeneratorFamily, Partition, SymbolTable, apply_J,
                     apply_partition, compound_poisson, diffusion, dpp_check, drift,
                     dual_bound_suite, generator_limit_table, make_grid, mass_diagnostic,
                     nisio_evolve, partition_continuity_probe, path_payoffs, picard_solve,
                     poisson_series_apply, random_strategy, sample, sample_increments,
                     simulate_paths, wrapped_cauchy_quadruple)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_list_matches_all():
    """The README's Public API section names exactly the package's public names."""
    text = README.read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", section))
    exported = set(sublevy.__all__)
    modules = {n for n in exported if isinstance(getattr(sublevy, n), types.ModuleType)}
    assert listed == exported, (sorted(listed - exported), sorted(exported - listed))
    assert modules == {"errors", "grid", "levy", "mc", "nisio", "oracles"}


SRC = Path(sublevy.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# public names whose caller is still to come, each with the ROADMAP item that gives it one
AWAITING_CALLER = {
    "apply_partition": "item 5 (structure block)",
    "dpp_check": "item 5 (structure block)",
    "partition_continuity_probe": "item 5 (structure block)",
    "poisson_series_apply": "item 1 (oracle's jump-count check)",
    "mass_diagnostic": "item 6 (cauchy_interval)",
}


# benchmark span targets the program no longer has, each with the ROADMAP item
# that retargets or drops it
UNTRACED = {
    "mc.increments": "item 9 (count sample_increments, which mc calls)",
    "oracles.residuals": "item 9 (the residual is measured inside picard_solve)",
}


def _library_uses():
    """Names read (as a name or an attribute) in src/sublevy/, each use outside
    the top-level definition of that name; the package's exports are not reads."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller():
    """No public name is library code that only tests call: each is used in
    src/sublevy/ outside its own definition, or by the benchmark in perfbench/."""
    bench = " ".join(path.read_text() for path in PERFBENCH.glob("*.py"))
    used = _library_uses()
    names = {n for n in sublevy.__all__
             if not isinstance(getattr(sublevy, n), types.ModuleType)}
    uncalled = {n for n in names if n not in used and not re.search(rf"\b{n}\b", bench)}
    assert uncalled <= set(AWAITING_CALLER), sorted(uncalled - set(AWAITING_CALLER))
    assert set(AWAITING_CALLER) <= names


# every public function of a symbol table and a grid function, found by its
# signature, and a valid value for each other parameter without a default
TABLE_AND_F = sorted(n for n in sublevy.__all__ if inspect.isfunction(getattr(sublevy, n))
                     and {"table", "f"} <= set(inspect.signature(getattr(sublevy, n)).parameters))
OTHER_ARGS = {"t": 0.1, "s": 0.1, "pi": Partition.dyadic(0.1, 2), "level": 2, "h_list": [0.1],
              "eps": 1e-3, "dt": 0.01}


@pytest.mark.parametrize("name", TABLE_AND_F)
@pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
def test_grid_function_enters_a_table_through_one_door(name, dim, n):
    """Each (table, f) function refuses f on another grid with the door's one message."""
    table = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))),
                              make_grid(1, 64))
    f = sample(make_grid(dim, n), "constant", value=1.0)
    fn = getattr(sublevy, name)
    args = {p: OTHER_ARGS[p] for p, v in inspect.signature(fn).parameters.items()
            if v.default is inspect.Parameter.empty and p not in ("table", "f")}
    with pytest.raises(ConfigurationError,
                       match="^grid function does not live on the table's grid$"):
        fn(table=table, f=f, **args)


def test_cli_holds_no_budget():
    """Each budget lives with the work it bounds: cli.py binds no *_BUDGET name,
    by assignment or import, and raises no BudgetError of its own."""
    tree = ast.parse((SRC / "cli.py").read_text())
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in bound if name.endswith("_BUDGET")) == []
    raised = [ast.unparse(node.exc) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None]
    assert [exc for exc in raised if "BudgetError" in exc] == []


def test_cli_import_leaves_numpy_random_unloaded():
    """Only a Monte Carlo run imports numpy.random, so a CLI start does not pay for it."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, sublevy.cli; print(sorted(m for m in sys.modules if 'numpy.random' in m))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert run.stdout == "[]\n"


def test_only_the_kernel_imports_private_pocketfft():
    """levy's kernel calls numpy's pocketfft gufuncs beneath np.fft; every
    other module, grid's transforms (the kernel's independent reference) among
    them, stays on public np.fft."""
    def imports(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from [getattr(node, "module", None) or ""] + [a.name for a in node.names]

    importers = sorted(path.name for path in SRC.glob("*.py")
                       if any("_pocketfft_umath" in name for name in imports(path)))
    assert importers == ["levy.py"]


def test_package_depends_on_numpy_alone():
    """pyproject.toml lists numpy as the one dependency: every module of the
    package imports from the standard library, numpy or the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "sublevy"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_benchmark_untraced_targets_are_the_known_ones(monkeypatch):
    """A rename that leaves a benchmark span without its target shows here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    with tracing.instrument(tracing.Tracer()) as missing:
        assert sorted(missing) == sorted(UNTRACED)


def test_benchmark_observers_read_real_results(tmp_path, monkeypatch):
    """The benchmark's observers count from what nisio_evolve, picard_solve and
    dual_bound_suite return: the recorded strategy's step_count, the level
    records, the trajectory and the report rows."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from sublevy import cli

    base = {"grid": {"dim": 1, "n": 128}, "family": {"builtin": "two_sigma"},
            "initial": {"kind": "bump", "center": 0.0, "width": math.pi}, "time": 0.2,
            "nisio": {"max_level": 8, "tol": 1e-4},
            "oracle": {"dt": 1e-3},
            "mc": {"n_paths": 100, "seed": 3, "extract_level": 3, "random_strategies": 2}}
    tracer = tracing.Tracer()
    manifests = {}
    with tracing.instrument(tracer):
        for run, command in enumerate(("mc", "oracle")):
            tracer.run = run
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(base))
            out = tmp_path / command
            assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 0
            manifests[command] = json.loads((out / "manifest.json").read_text())
    mc_counts, oracle_counts = tracer.counts[0], tracer.counts[1]
    levels = manifests["mc"]["diagnostics"]["levels_used"]
    assert mc_counts["nisio.steps"] == (2**(levels + 1) - 1) + 2**3
    assert mc_counts["nisio.levels_used"] == levels
    assert mc_counts["mc.paths"] == 100 * (1 + 2)
    assert oracle_counts["oracles.rk4_steps"] == round(0.2 / 1e-3)


def _hand_written_range_checks():
    """Each `if` in src/sublevy/ outside grid.checked whose test compares a
    parameter of its function, or a field `self.<name>` of a dataclass, with a
    number literal (<, <=, >, >=) and whose body raises ConfigurationError, as
    "file:line function: test"."""
    def parameter(x, params):
        if isinstance(x, ast.Attribute) and isinstance(x.value, ast.Name):
            return x.value.id == "self"
        return isinstance(x, ast.Name) and x.id in params

    def compares(node, params):
        if not isinstance(node, ast.Compare) or not all(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            return False
        terms = [node.left, *node.comparators]
        return (any(parameter(x, params) for x in terms)
                and any(isinstance(x, ast.Constant) and type(x.value) in (int, float)
                        for x in terms))

    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "checked":
                continue
            params = {p.arg for p in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            for node in ast.walk(fn):
                if (isinstance(node, ast.If)
                        and any(compares(c, params) for c in ast.walk(node.test))
                        and any(isinstance(r, ast.Raise) and "ConfigurationError" in ast.unparse(r)
                                for stmt in node.body for r in ast.walk(stmt))):
                    found.append(f"{path.name}:{node.lineno} {fn.name}: {ast.unparse(node.test)}")
    return found


def test_every_range_check_is_the_one_rule():
    """A parameter's range is refused by grid.checked alone: a hand-written
    comparison such as `if t < 0:` lets NaN through, as every comparison with
    NaN is false."""
    assert _hand_written_range_checks() == []


GRID = make_grid(1, 32)
TABLE = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))), GRID)
F = sample(GRID, "cosine", k=1)
JUMP = compound_poisson([(GRID.spacing, 1.0)])
STRATEGY = random_strategy(GRID, Partition.dyadic(0.1, 1), 2, np.random.default_rng(0))
FAMILY = TABLE.family

# each scalar parameter of a library door: a call with that parameter set to x,
# and the values it refuses besides NaN and inf (a fraction where it counts)
DOORS = {
    "bump width": (lambda x: sample(GRID, "bump", center=0.0, width=x), [0.0, [1.0]]),
    "bump center": (lambda x: sample(GRID, "bump", center=x, width=1.0), [-math.inf]),
    "compound_poisson rate": (lambda x: compound_poisson([(0.5, 1.0)], rate=x), [-1.0]),
    "make_grid dim": (lambda x: make_grid(x, 64), [0, 3, 1.5, "1", None, True]),
    "make_grid n": (lambda x: make_grid(1, x), [2, 64.5, 2**17]),
    "wrapped_cauchy gamma": (lambda x: wrapped_cauchy_quadruple(GRID, x), [0.0]),
    "wrapped_cauchy rate": (lambda x: wrapped_cauchy_quadruple(GRID, 0.5, rate=x), [-1.0]),
    "wrapped_cauchy scale": (lambda x: wrapped_cauchy_quadruple(GRID, 0.5, scale=x), [0.0]),
    "multipliers t": (lambda x: TABLE.multipliers(x), [-1.0]),
    "sample_increments dt": (lambda x: sample_increments(JUMP, x, np.random.default_rng(0), 4),
                             [0.0]),
    "sample_increments size": (
        lambda x: sample_increments(JUMP, 0.1, np.random.default_rng(0), x), [-1, 2.5]),
    "dyadic t": (lambda x: Partition.dyadic(x, 2), [0.0]),
    "dyadic level": (lambda x: Partition.dyadic(0.2, x), [-1, 2.5]),
    "equidistant t": (lambda x: Partition.equidistant(x, 4), [0.0]),
    "equidistant n": (lambda x: Partition.equidistant(0.2, x), [0, 2.5]),
    "apply_J t": (lambda x: apply_J(TABLE, x, F), [-1.0]),
    "nisio_evolve t": (lambda x: nisio_evolve(TABLE, x, F), [0.0]),
    "nisio_evolve max_level": (
        lambda x: nisio_evolve(TABLE, 0.1, F, max_level=x), [21, 2.5, "3"]),
    "nisio_evolve tol": (lambda x: nisio_evolve(TABLE, 0.1, F, tol=x), [-1.0, 1e-6j]),
    "nisio_evolve monotonicity_tol": (
        lambda x: nisio_evolve(TABLE, 0.1, F, monotonicity_tol=x), [0.0]),
    "nisio_evolve record_argmax_level": (
        lambda x: nisio_evolve(TABLE, 0.1, F, record_argmax_level=x), [-1, 2.5]),
    "dpp_check s": (lambda x: dpp_check(TABLE, x, 0.1, F, 2), [0.0]),
    "dpp_check t": (lambda x: dpp_check(TABLE, 0.1, x, F, 2), [0.0]),
    "dpp_check level": (lambda x: dpp_check(TABLE, 0.1, 0.1, F, x), [21, 2.5]),
    "generator_limit_table h_list": (lambda x: generator_limit_table(TABLE, F, [x]),
                                     [0.0, 10**400]),
    "partition_continuity_probe eps": (
        lambda x: partition_continuity_probe(TABLE, Partition.dyadic(0.1, 2), F, x), [-1.0]),
    "poisson_series_apply t": (lambda x: poisson_series_apply(JUMP, x, F), [-1.0]),
    "poisson_series_apply tail_tol": (
        lambda x: poisson_series_apply(JUMP, 0.1, F, tail_tol=x), [0.0]),
    "picard_solve t": (lambda x: picard_solve(TABLE, F, x, 0.01), [0.0]),
    "picard_solve dt": (lambda x: picard_solve(TABLE, F, 0.1, x), [0.0]),
    "mass_diagnostic t": (lambda x: mass_diagnostic(TABLE, x, 1.0), [-1.0]),
    "mass_diagnostic window": (lambda x: mass_diagnostic(TABLE, 0.1, x), [0.0, math.pi]),
    "path_payoffs n_paths": (
        lambda x: path_payoffs(FAMILY, [STRATEGY], F, [0.0], 0.1, x, 0), [99, 100.5]),
    "path_payoffs seed": (
        lambda x: path_payoffs(FAMILY, [STRATEGY], F, [0.0], 0.1, 100, x), [-1, 2**64, 1.5]),
    "random_strategy member_count": (lambda x: random_strategy(
        GRID, Partition.dyadic(0.1, 1), x, np.random.default_rng(0)), [0, 2.5]),
    "simulate_paths x0": (
        lambda x: simulate_paths(FAMILY, [STRATEGY], [x], 0.1, np.random.default_rng(0), 4),
        [-math.inf]),
    "simulate_paths size": (
        lambda x: simulate_paths(FAMILY, [STRATEGY], [0.0], 0.1, np.random.default_rng(0), x),
        [-1, 2.5]),
    "dual_bound_suite scheme_tol": (lambda x: dual_bound_suite(
        FAMILY, F, [0.0], 0.1, [("s", STRATEGY)], 100, 0, 1.0, x), [-1.0]),
    "dual_bound_suite reference_value": (lambda x: dual_bound_suite(
        FAMILY, F, [0.0], 0.1, [("s", STRATEGY)], 100, 0, x, 0.01), [-math.inf]),
}


@pytest.mark.parametrize("door, value", [(door, value) for door, (_, bad) in DOORS.items()
                                         for value in [math.nan, math.inf, *bad]])
def test_library_door_refuses_a_number_out_of_range(door, value):
    """NaN, inf, a value out of range or with a fraction where a count is due,
    and a value that is no number or is a bool: each is the one rule's
    ConfigurationError, never a ConsistencyError, a TypeError, a ValueError,
    an OverflowError or a floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError,
                           match=r" must be (a finite number|an integer) in [\[(].*, got "):
            DOORS[door][0](value)


def test_a_whole_valued_float_count_is_the_int():
    """A count given as a whole-valued float runs as the int: the same bits,
    not a TypeError from range() or 2**level further in."""
    grid = make_grid(1, 128)
    table = SymbolTable.build(GeneratorFamily((diffusion(0.25), diffusion(1.0))), grid)
    f = sample(grid, "bump", center=0.0, width=1.5)

    def evolve(max_level, level):
        result = nisio_evolve(table, 0.1, f, max_level=max_level, tol=0.0,
                              record_argmax_level=level)
        records = [(r.level, r.steps, r.sup_increment, r.sup_norm) for r in result.records]
        return (result.value.values.tobytes(), result.argmax.feedback.tobytes(),
                np.array(records).tobytes())  # bytes: level 0's increment is NaN

    assert evolve(3.0, 2.0) == evolve(3, 2)
    assert dpp_check(table, 0.1, 0.1, f, 2.0) == dpp_check(table, 0.1, 0.1, f, 2)
    strategy = nisio_evolve(table, 0.1, f, max_level=2, record_argmax_level=2).argmax
    payoffs = [path_payoffs(table.family, [strategy], f, [0.0], 0.1, n, seed).tobytes()
               for n, seed in ((100.0, 1.0), (100, 1))]
    assert payoffs[0] == payoffs[1]
    assert make_grid(1, 64.0) == make_grid(1, 64) and type(make_grid(1, 64.0).n) is int


def test_a_horizon_too_long_for_the_table_is_refused():
    """Time meets the generator in SymbolTable.multipliers alone, which refuses
    a t for which t * |psi| overflows: every door that evolves by t ends in that
    one refusal, with no floating-point warning from the kernel."""
    grid = make_grid(1, 32)
    table = SymbolTable.build(GeneratorFamily((drift(1.0), drift(-1.0))), grid)
    f = sample(grid, "cosine", k=1)
    t = 1e308
    doors = [lambda: apply_J(table, t, f),
             lambda: apply_partition(table, Partition(np.array([0.0, t])), f),
             lambda: dpp_check(table, 0.1, t, f, 0),
             lambda: mass_diagnostic(table, t, 1.0),
             lambda: nisio_evolve(table, t, f),
             lambda: table.multipliers(t)]
    for door in doors:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"^time 1e\+308 is too long for this "
                                                         r"grid: t \* \|psi\| overflows$"):
                door()
