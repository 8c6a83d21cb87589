"""Batch front end: JSON config in, CSV tables and a run manifest out.

Exit codes: 0 when every checked tolerance holds, 1 on configuration errors,
2 when a tolerance or convergence budget fails (outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import BudgetError, ConfigurationError, ConsistencyError
from .grid import make_grid, read_json, sample, sup_distance, write_function_csv, write_table
from .levy import (
    GeneratorFamily,
    SymbolTable,
    compound_poisson,
    diffusion,
    drift,
    family_constant,
    family_from_json,
    load_family,
    wrapped_cauchy_quadruple,
)
from .mc import (
    MIN_PATHS,
    check_strategies,
    dual_bound_suite,
    extract_strategy,
    load_strategy,
    random_strategy,
    save_strategy,
    write_estimates_csv,
)
from .nisio import (
    MAX_LEVEL,
    generator_limit_table,
    nisio_evolve,
    write_argmax_csv,
    write_convergence_csv,
    write_generator_limit_csv,
)
from .oracles import picard_solve, residual_check, write_residual_csv, write_trajectory_csv

DEFAULT_H_LIST = (0.1, 0.05, 0.025, 0.0125)
# increments one mc run may use, each counted once per strategy that advances on
# it: paths x members x the steps of every strategy (strategies on one partition
# share one draw per path, step and member)
MC_DRAW_BUDGET = 10**8


def _convert(value, kind, what: str):
    """value as kind; a number field (int or float) refuses a JSON boolean, and
    an int field refuses a number with a fractional part."""
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigurationError(
            f"config field {what!r} must be a number, got {json.dumps(value)}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"config field {what!r} is malformed: {exc}") from exc
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigurationError(f"config field {what!r} must be an integer, got {value!r}")
    return out


def _need(data: dict, key: str, kind, what: str):
    if key not in data:
        raise ConfigurationError(f"config is missing required field {what!r}")
    return _convert(data[key], kind, what)


def _get(data: dict, key: str, kind, default, section: str = ""):
    if key not in data:
        return default
    return _need(data, key, kind, f"{section}.{key}" if section else key)


def _floats(values, what: str) -> tuple:
    return tuple(_convert(v, float, what) for v in _convert(values, tuple, what))


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; round-trips through to_dict unchanged.

    Every field is required here: the defaults of optional config keys live
    in from_dict alone."""

    grid_dim: int
    grid_n: int
    family: object
    initial: dict
    time: float
    nisio_max_level: int
    nisio_tol: float
    nisio_monotonicity_tol: float
    oracle_dt: float
    oracle_gap_tol: float
    convergence_h: tuple
    mc_n_paths: int
    mc_seed: int
    mc_extract_level: int
    mc_random_strategies: int
    mc_scheme_tol: float
    mc_x0: tuple
    mc_strategy_files: tuple
    output_dir: str

    def __post_init__(self) -> None:
        for name, value in (
            ("time", self.time), ("nisio.tol", self.nisio_tol),
            ("nisio.monotonicity_tol", self.nisio_monotonicity_tol),
            ("oracle.dt", self.oracle_dt), ("oracle.gap_tol", self.oracle_gap_tol),
            ("mc.scheme_tol", self.mc_scheme_tol),
            *(("convergence.h_list", h) for h in self.convergence_h),
            *(("mc.x0", c) for c in self.mc_x0),
        ):
            if not math.isfinite(value):
                raise ConfigurationError(f"config field {name!r} must be finite, got {value}")
        if self.time <= 0:
            raise ConfigurationError(f"time horizon must be positive, got {self.time}")
        if not 0 <= self.nisio_max_level <= MAX_LEVEL:
            raise ConfigurationError(f"nisio.max_level must be in [0, {MAX_LEVEL}]")
        if self.nisio_tol < 0:
            raise ConfigurationError("nisio.tol must be nonnegative")
        if self.nisio_monotonicity_tol <= 0:
            raise ConfigurationError("nisio.monotonicity_tol must be positive")
        if self.oracle_dt <= 0 or self.oracle_gap_tol <= 0:
            raise ConfigurationError("oracle.dt and gap_tol must be positive")
        if self.mc_n_paths < MIN_PATHS:
            raise ConfigurationError(f"mc.n_paths must be at least {MIN_PATHS}")
        if not 0 <= self.mc_extract_level <= MAX_LEVEL:
            raise ConfigurationError(f"mc.extract_level must be in [0, {MAX_LEVEL}]")
        if not 0 <= self.mc_seed < 2**64:
            raise ConfigurationError("mc.seed must be in [0, 2^64)")
        if self.mc_random_strategies < 0 or self.mc_scheme_tol < 0:
            raise ConfigurationError("mc.random_strategies and scheme_tol must be >= 0")
        if len(self.mc_x0) != self.grid_dim:
            raise ConfigurationError("mc.x0 must have one coordinate per grid axis")

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | None = None) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")

        def resolve(path: str) -> str:
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            if not os.path.exists(path):
                raise ConfigurationError(f"referenced file does not exist: {path}")
            return path

        grid_spec = _need(data, "grid", dict, "grid")
        family = data.get("family")
        if family is None:
            raise ConfigurationError("config is missing required field 'family'")
        if isinstance(family, dict) and "path" in family:
            family = {**family, "path": resolve(str(family["path"]))}
        initial = dict(_need(data, "initial", dict, "initial"))
        if initial.get("kind") == "samples" and "path" in initial:
            initial["path"] = resolve(str(initial["path"]))

        nis = _get(data, "nisio", dict, {})
        ora = _get(data, "oracle", dict, {})
        conv = _get(data, "convergence", dict, {})
        mc = _get(data, "mc", dict, {})
        strategy_files = mc.get("strategies", [])
        if not isinstance(strategy_files, list):
            raise ConfigurationError("config field 'mc.strategies' must be an array of paths")
        strategy_files = tuple(resolve(str(p)) for p in strategy_files)
        return cls(
            grid_dim=_need(grid_spec, "dim", int, "grid.dim"),
            grid_n=_need(grid_spec, "n", int, "grid.n"),
            family=family,
            initial=initial,
            time=_need(data, "time", float, "time"),
            nisio_max_level=_get(nis, "max_level", int, 12, "nisio"),
            nisio_tol=_get(nis, "tol", float, 1e-6, "nisio"),
            nisio_monotonicity_tol=_get(nis, "monotonicity_tol", float, 1e-8, "nisio"),
            oracle_dt=_get(ora, "dt", float, 1e-3, "oracle"),
            oracle_gap_tol=_get(ora, "gap_tol", float, 5e-4, "oracle"),
            convergence_h=_floats(conv.get("h_list", DEFAULT_H_LIST), "convergence.h_list"),
            mc_n_paths=_get(mc, "n_paths", int, 10_000, "mc"),
            mc_seed=_get(mc, "seed", int, 0, "mc"),
            mc_extract_level=_get(mc, "extract_level", int, 4, "mc"),
            mc_random_strategies=_get(mc, "random_strategies", int, 16, "mc"),
            mc_scheme_tol=_get(mc, "scheme_tol", float, 1e-2, "mc"),
            mc_x0=_floats(mc.get("x0", [0.0] * _need(grid_spec, "dim", int, "grid.dim")), "mc.x0"),
            mc_strategy_files=strategy_files,
            output_dir=str(data.get("output_dir", "out")),
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_json(path, "config"),
                             base_dir=os.path.dirname(os.path.abspath(path)))

    def to_dict(self) -> dict:
        return {
            "grid": {"dim": self.grid_dim, "n": self.grid_n},
            "family": self.family,
            "initial": dict(self.initial),
            "time": self.time,
            "nisio": {"max_level": self.nisio_max_level, "tol": self.nisio_tol,
                      "monotonicity_tol": self.nisio_monotonicity_tol},
            "oracle": {"dt": self.oracle_dt, "gap_tol": self.oracle_gap_tol},
            "convergence": {"h_list": list(self.convergence_h)},
            "mc": {"n_paths": self.mc_n_paths, "seed": self.mc_seed,
                   "extract_level": self.mc_extract_level,
                   "random_strategies": self.mc_random_strategies,
                   "scheme_tol": self.mc_scheme_tol, "x0": list(self.mc_x0),
                   "strategies": list(self.mc_strategy_files)},
            "output_dir": self.output_dir,
        }


# -- family construction ---------------------------------------------------------

def build_family(spec, grid) -> GeneratorFamily:
    if isinstance(spec, list):
        return family_from_json(spec)
    if not isinstance(spec, dict):
        raise ConfigurationError("family must be an array, a {path}, or a {builtin}")
    if "path" in spec:
        return load_family(spec["path"])
    name = spec.get("builtin")
    if name == "single_sigma":
        s = _get(spec, "sigma", float, 1.0, "family")
        return GeneratorFamily((diffusion(s * s, dim=grid.dim),), (f"sigma={s:g}",))
    if name == "two_sigma":
        sigmas = _floats(spec.get("sigmas", (0.5, 1.0)), "family.sigmas")
        members = tuple(diffusion(s * s, dim=grid.dim) for s in sigmas)
        return GeneratorFamily(members, tuple(f"sigma={s:g}" for s in sigmas))
    if name == "half_turn_jump":
        rate = _get(spec, "rate", float, 1.0, "family")
        if grid.dim != 1:
            raise ConfigurationError("half_turn_jump is one-dimensional")
        return GeneratorFamily((compound_poisson([(np.pi, 1.0)], rate=rate),),
                               (f"half-turn rate={rate:g}",))
    if name == "wrapped_cauchy":
        gammas = _floats(spec.get("gammas", (0.5,)), "family.gammas")
        rate = _get(spec, "rate", float, 1.0, "family")
        scale = _get(spec, "scale", float, 1.0, "family")
        members = tuple(wrapped_cauchy_quadruple(grid, g, rate=rate, scale=scale)
                        for g in gammas)
        labels = tuple(f"cauchy gamma={g:g} scale={scale:g}" for g in gammas)
        return GeneratorFamily(members, labels)
    if name == "drift":
        b = spec.get("b", 1.0)
        velocity = _floats(b if isinstance(b, list) else [b], "family.b")
        return GeneratorFamily((drift(velocity, dim=grid.dim),), (f"drift b={b!r}",))
    raise ConfigurationError(f"unknown family builtin {name!r}")


# -- shared command plumbing -------------------------------------------------------

def _strict_json(obj):
    """obj with every non-finite float replaced by None: JSON has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    return obj


class _Run:
    def __init__(self, config: RunConfig, quiet: bool):
        self.config = config
        self.quiet = quiet
        self.timings: dict[str, float] = {}
        self.violations: list[dict] = []
        os.makedirs(config.output_dir, exist_ok=True)
        t0 = time.perf_counter()
        self.grid = make_grid(config.grid_dim, config.grid_n)
        # the snapped family: what the envelope evolves is what mc simulates
        self.table = SymbolTable.build(build_family(config.family, self.grid), self.grid)
        params = {k: v for k, v in config.initial.items() if k != "kind"}
        kind = config.initial.get("kind")
        if kind is None:
            raise ConfigurationError("initial function spec needs a 'kind'")
        self.initial = sample(self.grid, str(kind), **params)
        self.timings["setup"] = (time.perf_counter() - t0) * 1e3
        self.diagnostics: dict = {
            "family_constant": family_constant(self.table.family),
            "snap_distance": self.table.snap_distance,
            "member_labels": list(self.table.family.labels),
        }

    def out(self, name: str) -> str:
        return os.path.join(self.config.output_dir, name)

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def violate(self, name: str, measured: float | None, tolerance: float,
                why_unmeasured: str = "") -> None:
        """Record a failed tolerance; measured is None when nothing could be measured."""
        self.violations.append(
            {"name": name, "measured": measured, "tolerance": tolerance}
        )
        if measured is None:
            print(f"tolerance failure: {name}: nothing measured, {why_unmeasured}",
                  file=sys.stderr)
        else:
            print(f"tolerance failure: {name}: measured {measured:.6g} "
                  f"exceeds {tolerance:.6g}", file=sys.stderr)

    def write_manifest(self, command: str) -> None:
        payload = {
            "artifact_version": __version__,
            "command": command,
            "config": self.config.to_dict(),
            "diagnostics": self.diagnostics,
            "timings_ms": self.timings,
            "violations": self.violations,
        }
        path = self.out("manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(_strict_json(payload), fh, indent=2, allow_nan=False)
        os.replace(tmp, path)

    def finish(self, command: str) -> int:
        self.write_manifest(command)
        return 2 if self.violations else 0


def _timed(run: _Run, name: str, fn):
    t0 = time.perf_counter()
    result = fn()
    run.timings[name] = (time.perf_counter() - t0) * 1e3
    return result


def _run_nisio(run: _Run, record_argmax_level: int | None = None):
    """The envelope stage of every command, with its diagnostics and its
    nisio.tol violation."""
    cfg = run.config
    result = _timed(run, "nisio", lambda: nisio_evolve(
        run.table, cfg.time, run.initial,
        max_level=cfg.nisio_max_level, tol=cfg.nisio_tol,
        record_argmax_level=record_argmax_level,
        monotonicity_tol=cfg.nisio_monotonicity_tol,
    ))
    run.diagnostics["lipschitz_bound"] = result.lipschitz_bound
    run.diagnostics["levels_used"] = result.levels_used
    run.diagnostics["converged"] = result.converged
    run.diagnostics["increments"] = list(result.increments)
    if not result.converged:
        name = "nisio.tol (sup-norm increment)"
        if result.increments:
            run.violate(name, result.increments[-1], cfg.nisio_tol)
        else:
            run.violate(name, None, cfg.nisio_tol,
                        "nisio.max_level 0 runs no refinement, so there is no increment "
                        "to compare")
    return result


# -- subcommands -------------------------------------------------------------------

def cmd_evolve(config: RunConfig, quiet: bool = False) -> int:
    run = _Run(config, quiet)
    result = _run_nisio(run)
    write_function_csv(run.out("value.csv"), result.value)
    write_convergence_csv(run.out("convergence.csv"), result)
    run.say(f"levels used {result.levels_used}, converged {result.converged}")
    return run.finish("evolve")


def cmd_oracle(config: RunConfig, quiet: bool = False) -> int:
    run = _Run(config, quiet)
    result = _run_nisio(run)
    write_function_csv(run.out("value.csv"), result.value)
    write_convergence_csv(run.out("convergence.csv"), result)
    traj = _timed(run, "picard", lambda: picard_solve(
        run.table, run.initial, config.time, config.oracle_dt))
    write_function_csv(run.out("picard_value.csv"), traj.final)
    write_trajectory_csv(run.out("trajectory.csv"), traj)
    residuals = _timed(run, "residuals", lambda: residual_check(traj, run.table))
    write_residual_csv(run.out("residuals.csv"), residuals)
    gap = sup_distance(result.value, traj.final)
    run.diagnostics["oracle_gap"] = gap
    write_table(run.out("gap_table.csv"), ["time", "sup_distance"], [(config.time, gap)])
    run.say(f"oracle gap {gap:.3e} (tolerance {config.oracle_gap_tol:g})")
    if gap > config.oracle_gap_tol:
        run.violate("oracle.gap_tol (sup distance to integrated solution)",
                    gap, config.oracle_gap_tol)
    return run.finish("oracle")


def cmd_convergence(config: RunConfig, quiet: bool = False) -> int:
    run = _Run(config, quiet)
    result = _run_nisio(run)
    write_convergence_csv(run.out("convergence.csv"), result)
    rows = _timed(run, "generator_limit", lambda: generator_limit_table(
        run.table, run.initial, config.convergence_h))
    write_generator_limit_csv(run.out("generator_limit.csv"), rows)
    run.diagnostics["generator_limit"] = [[h, e] for h, e in rows]
    run.say("generator-limit errors: " + ", ".join(f"{e:.3e}" for _, e in rows))
    return run.finish("convergence")


def cmd_mc(config: RunConfig, quiet: bool = False) -> int:
    run = _Run(config, quiet)
    family = run.table.family
    files = [(os.path.basename(path), load_strategy(path, run.grid))
             for path in config.mc_strategy_files]
    check_strategies([strat for _, strat in files], len(family), config.time)
    steps = ((1 + config.mc_random_strategies) * 2**config.mc_extract_level
             + sum(strat.partition.step_count for _, strat in files))
    if config.mc_n_paths * len(family) * steps > MC_DRAW_BUDGET:
        raise BudgetError(
            f"mc would use more than the budget of {MC_DRAW_BUDGET:.0e} increments "
            "(n_paths x members x the steps of every strategy)"
        )
    result = _run_nisio(run, record_argmax_level=config.mc_extract_level)
    write_function_csv(run.out("value.csv"), result.value)
    x0 = np.asarray(config.mc_x0)
    reference = result.value.value_at(run.grid.nearest_index(x0))
    run.diagnostics["reference_value"] = reference

    extracted = extract_strategy(result, config.mc_extract_level)
    save_strategy(run.out("extracted_strategy.json"), extracted)
    write_argmax_csv(run.out("argmax.csv"), run.grid, result.argmax)
    strategies = [("extracted", extracted)]
    rng = np.random.default_rng(config.mc_seed)
    for i in range(config.mc_random_strategies):
        strategies.append(
            (f"random-{i}", random_strategy(run.grid, extracted.partition,
                                            len(family), rng)))
    strategies += files

    report = _timed(run, "mc", lambda: dual_bound_suite(
        family, run.initial, x0, config.time, strategies,
        config.mc_n_paths, config.mc_seed, reference, config.mc_scheme_tol))
    write_estimates_csv(run.out("estimates.csv"), report)
    run.diagnostics["best_strategy"] = report.best_name
    run.diagnostics["best_mean"] = report.best_mean
    run.diagnostics["dual_gap"] = report.gap
    run.say(f"best strategy {report.best_name}, gap {report.gap:.3e}")
    for row in report.rows:
        if not row.bound_ok:
            run.violate(f"mc dual bound ({row.name})", row.mean,
                        reference + 3.0 * row.stderr + config.mc_scheme_tol)
    return run.finish("mc")


COMMANDS = {
    "evolve": cmd_evolve,
    "oracle": cmd_oracle,
    "convergence": cmd_convergence,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sublevy",
        description="Worst-case Levy evolution on the torus: build, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "dyadic sup-envelope evolution with convergence diagnostics"),
        ("oracle", "cross-check the evolution against classical integration"),
        ("convergence", "per-level and generator-limit tables"),
        ("mc", "Monte Carlo dual bounds over feedback strategies"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the MC seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
        if args.seed is not None:
            config = dataclasses.replace(config, mc_seed=args.seed)
        return COMMANDS[args.command](config, quiet=args.quiet)
    except (ConfigurationError, BudgetError) as exc:
        message = str(exc)
    except ConsistencyError as exc:
        # an internal invariant broke; name it rather than dumping a traceback
        message = f"{type(exc).__name__}: {exc}"
    # one line, even when the message quotes a config string holding a newline
    print("error: " + message.replace("\n", "\\n"), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
