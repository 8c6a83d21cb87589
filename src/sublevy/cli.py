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
from dataclasses import MISSING, dataclass

import numpy as np

from . import __version__
from .errors import BudgetError, ConfigurationError, ConsistencyError
from .grid import (checked, keys_only, make_grid, numbers_only, read_json, sample,
                   sup_distance, wrap_point, write_function_csv, write_table)
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
    check_budgets,
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
    MONOTONICITY_ERROR_TOL,
    Partition,
    generator_limit_table,
    nisio_evolve,
    write_argmax_csv,
    write_convergence_csv,
    write_generator_limit_csv,
)
from .oracles import Trajectory, picard_stages, write_residual_csv, write_trajectory_csv

# accepted, never read; goes once ROADMAP item 9 drops it from perfbench's oracle-1d
RETIRED_KEYS = ("oracle.tail_tol",)


def _convert(value, kind, what: str):
    """value as kind: kept as written for None, read as kind(value, what) by a reader
    (not a type).  A string field (a path) refuses anything but a string, and an
    object field (a section) anything but an object.  A float field refuses a value
    that is not finite; then a number field refuses a JSON boolean or string, even
    one that kind parses, and an int field, a fraction."""
    if kind is None or not isinstance(kind, type):
        return value if kind is None else kind(value, what)
    if kind in (str, dict) and not isinstance(value, kind):
        noun = "a string" if kind is str else "an object"
        raise ConfigurationError(f"config field {what!r} must be {noun}, got {json.dumps(value)}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"config field {what!r} is malformed: {exc}") from exc
    if kind is float and not math.isfinite(out):
        raise ConfigurationError(f"config field {what!r} must be finite, got {out}")
    if kind in (int, float):
        numbers_only(value, f"config field {what!r}")
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigurationError(f"config field {what!r} must be an integer, got {value!r}")
    return out


def _floats(values, what: str) -> tuple:
    """A list of numbers; a JSON string is not one (tuple would split it)."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(
            f"config field {what!r} must be an array of numbers, got {json.dumps(values)}")
    return tuple(_convert(v, float, what) for v in values)


def _paths(values, what: str) -> tuple:
    if not isinstance(values, list):
        raise ConfigurationError(f"config field {what!r} must be an array of paths")
    return tuple(_convert(path, str, what) for path in values)


def _row(key: str, kind, default=MISSING, **bounds):
    """The RunConfig field of one dotted config key: its kind (see _convert), default
    (MISSING: required) and, when given, the bounds (low, high, above) that
    grid.checked holds its value to."""
    return dataclasses.field(metadata={"key": key, "kind": kind, "default": default,
                                       "bounds": bounds})


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; round-trips through to_dict unchanged.  Each field
    is one row of the config schema (_row); from_dict applies the defaults."""

    grid_dim: int = _row("grid.dim", int)
    grid_n: int = _row("grid.n", int)
    family: object = _row("family", None)  # read by build_family
    initial: dict = _row("initial", dict)
    time: float = _row("time", float, MISSING, low=0, above=True)
    nisio_max_level: int = _row("nisio.max_level", int, 12, low=0, high=MAX_LEVEL)
    nisio_tol: float = _row("nisio.tol", float, 1e-6, low=0)
    nisio_monotonicity_tol: float = _row("nisio.monotonicity_tol", float, MONOTONICITY_ERROR_TOL,
                                         low=0, above=True)
    oracle_dt: float = _row("oracle.dt", float, 1e-3, low=0, above=True)
    oracle_gap_tol: float = _row("oracle.gap_tol", float, 5e-4, low=0, above=True)
    convergence_h: tuple = _row("convergence.h_list", _floats, (0.1, 0.05, 0.025, 0.0125))
    mc_n_paths: int = _row("mc.n_paths", int, 10_000, low=MIN_PATHS)
    mc_seed: int = _row("mc.seed", int, 0, low=0, high=2**64 - 1)
    mc_extract_level: int = _row("mc.extract_level", int, 4, low=0, high=MAX_LEVEL)
    mc_random_strategies: int = _row("mc.random_strategies", int, 16, low=0)
    mc_scheme_tol: float = _row("mc.scheme_tol", float, 1e-2, low=0)
    mc_x0: tuple = _row("mc.x0", _floats, None)  # None: the origin, set in from_dict
    mc_strategy_files: tuple = _row("mc.strategies", _paths, ())
    output_dir: str = _row("output_dir", str, "out")

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.metadata["bounds"]:
                checked(getattr(self, f.name), f"config field {f.metadata['key']!r}",
                        **f.metadata["bounds"], integer=f.metadata["kind"] is int)
        if len(self.mc_x0) != self.grid_dim:
            raise ConfigurationError("mc.x0 must have one coordinate per grid axis")
        if not self.output_dir:
            raise ConfigurationError("config field 'output_dir' must not be empty")

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | None = None) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")

        def resolve(path: str) -> str:
            path = os.path.join(base_dir or "", path)  # an absolute path stays as it is
            if not os.path.exists(path):
                raise ConfigurationError(f"referenced file does not exist: {path}")
            return path

        rows = {f.metadata["key"]: f for f in dataclasses.fields(cls)}
        known = rows.keys() | set(RETIRED_KEYS)
        keys_only(data, {key.partition(".")[0] for key in known})  # a dotted "nisio.tol" too
        sections = {key.partition(".")[0] for key in rows if "." in key}
        # data with the keys of each section dotted: "nisio.tol"
        flat = {name: value for name, value in data.items() if name not in sections}
        flat.update((f"{name}.{key}", value) for name in data if name in sections
                    for key, value in _convert(data[name], dict, name).items())
        keys_only(flat, known)
        for key, f in rows.items():
            section = key.partition(".")[0]  # named alone when it is missing
            if key not in flat and f.metadata["default"] is MISSING:
                raise ConfigurationError("config is missing required field "
                                         f"{key if section in data else section!r}")
        values = {f.name: _convert(flat[key], f.metadata["kind"], key) if key in flat
                  else f.metadata["default"] for key, f in rows.items()}
        if values["mc_x0"] is None:
            values["mc_x0"] = (0.0,) * values["grid_dim"]
        fam, initial = values["family"], values["initial"]
        if isinstance(fam, dict) and "path" in fam:
            values["family"] = {**fam, "path": resolve(_convert(fam["path"], str, "family.path"))}
        if initial.get("kind") == "samples":
            keys_only(initial, ("kind", "path"), "initial.")
            if "path" in initial:
                initial["path"] = resolve(_convert(initial["path"], str, "initial.path"))
        values["mc_strategy_files"] = tuple(map(resolve, values["mc_strategy_files"]))
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_json(path, "config"), os.path.dirname(os.path.abspath(path)))

    def to_dict(self) -> dict:
        out: dict = {}
        for f in dataclasses.fields(self):
            section, _, key = f.metadata["key"].rpartition(".")
            value = list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            (out.setdefault(section, {}) if section else out)[key] = value
        return out


# -- family construction ---------------------------------------------------------

def _diffusions(grid, sigmas) -> GeneratorFamily:
    return GeneratorFamily(tuple(diffusion(s * s, dim=grid.dim) for s in sigmas),
                           tuple(f"sigma={s:g}" for s in sigmas))


def _half_turn_jump(grid, rate) -> GeneratorFamily:
    if grid.dim != 1:
        raise ConfigurationError("half_turn_jump is one-dimensional")
    return GeneratorFamily((compound_poisson([(np.pi, 1.0)], rate=rate),),
                           (f"half-turn rate={rate:g}",))


def _wrapped_cauchy(grid, gammas, rate, scale) -> GeneratorFamily:
    return GeneratorFamily(
        tuple(wrapped_cauchy_quadruple(grid, g, rate=rate, scale=scale) for g in gammas),
        tuple(f"cauchy gamma={g:g} scale={scale:g}" for g in gammas))


# builtin name -> ({parameter: (kind, default)}, builder taking them as keywords)
BUILTINS = {
    "single_sigma": ({"sigma": (float, 1.0)}, lambda grid, sigma: _diffusions(grid, [sigma])),
    "two_sigma": ({"sigmas": (_floats, (0.5, 1.0))}, _diffusions),
    "half_turn_jump": ({"rate": (float, 1.0)}, _half_turn_jump),
    "wrapped_cauchy": ({"gammas": (_floats, (0.5,)), "rate": (float, 1.0),
                        "scale": (float, 1.0)}, _wrapped_cauchy),
    "drift": ({"b": (None, 1.0)}, lambda grid, b: GeneratorFamily(  # b as written, in the label
        (drift(_floats(b if isinstance(b, list) else [b], "family.b"), dim=grid.dim),),
        (f"drift b={b!r}",))),
}


def build_family(spec, grid) -> GeneratorFamily:
    if isinstance(spec, list):
        return family_from_json(spec)
    if not isinstance(spec, dict):
        raise ConfigurationError("family must be an array, a {path}, or a {builtin}")
    if "path" in spec:
        return load_family(keys_only(spec, ("path",), "family.")["path"])
    name = spec.get("builtin")
    if not isinstance(name, str) or name not in BUILTINS:
        raise ConfigurationError(f"unknown family builtin {name!r}")
    params, builder = BUILTINS[name]
    keys_only(spec, ("builtin", *params), "family.")
    return builder(grid, **{key: _convert(spec[key], kind, f"family.{key}") if key in spec
                            else default for key, (kind, default) in params.items()})


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
        """The path of an output file; the output directory is made on the first
        call, so a run refused before it writes anything leaves none behind."""
        os.makedirs(self.config.output_dir, exist_ok=True)
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


def _run_nisio(run: _Run, record_argmax_level: int | None = None, riders=()):
    """The envelope stage of every command, with its diagnostics and its
    nisio.tol violation; riders, built before it so that a bad step is refused
    first, ride in its kernel calls (nisio_evolve) and end with finish()."""
    cfg = run.config
    result = _timed(run, "nisio", lambda: nisio_evolve(
        run.table, cfg.time, run.initial,
        max_level=cfg.nisio_max_level, tol=cfg.nisio_tol,
        record_argmax_level=record_argmax_level,
        monotonicity_tol=cfg.nisio_monotonicity_tol, riders=riders,
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


def picard_solve(ridden) -> Trajectory:
    """ridden.finish() of the Picard stages that rode with the levels, named as
    oracles.picard_solve, the call perfbench times as the Picard stage."""
    return ridden.finish()


def cmd_oracle(config: RunConfig, quiet: bool = False) -> int:
    run = _Run(config, quiet)
    stages = picard_stages(run.table, run.initial, config.time, config.oracle_dt)
    result = _run_nisio(run, riders=[stages])
    traj = _timed(run, "picard", lambda: picard_solve(stages))
    gap = sup_distance(result.value, traj.final)
    run.diagnostics["oracle_gap"] = gap
    write_function_csv(run.out("value.csv"), result.value)
    write_convergence_csv(run.out("convergence.csv"), result)
    write_function_csv(run.out("picard_value.csv"), traj.final)
    write_trajectory_csv(run.out("trajectory.csv"), traj)
    write_residual_csv(run.out("residuals.csv"), traj)
    write_table(run.out("gap_table.csv"), ["time", "sup_distance"], [(config.time, gap)])
    run.say(f"oracle gap {gap:.3e} (tolerance {config.oracle_gap_tol:g})")
    if gap > config.oracle_gap_tol:
        run.violate("oracle.gap_tol (sup distance to integrated solution)",
                    gap, config.oracle_gap_tol)
    return run.finish("oracle")


def cmd_convergence(config: RunConfig, quiet: bool = False) -> int:
    run = _Run(config, quiet)
    rows = _timed(run, "generator_limit", lambda: generator_limit_table(
        run.table, run.initial, config.convergence_h))
    result = _run_nisio(run)
    write_convergence_csv(run.out("convergence.csv"), result)
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
    dyadic = Partition.dyadic(config.time, config.mc_extract_level)
    check_budgets(family, run.grid, config.time,
                  [(dyadic, 1 + config.mc_random_strategies)]
                  + [(strat.partition, 1) for _, strat in files],
                  config.mc_n_paths)
    result = _run_nisio(run, record_argmax_level=config.mc_extract_level)
    write_function_csv(run.out("value.csv"), result.value)
    x0 = wrap_point(config.mc_x0)  # the point the paths start from
    reference = result.value.value_at(run.grid.nearest_index(x0))
    run.diagnostics["reference_value"] = reference

    extracted = extract_strategy(result)
    save_strategy(run.out("extracted_strategy.json"), extracted)
    write_argmax_csv(run.out("argmax.csv"), extracted)
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
            run.violate(f"mc dual bound ({row.name})", row.mean, row.limit)
    return run.finish("mc")


COMMANDS = {
    "evolve": (cmd_evolve, "dyadic sup-envelope evolution with convergence diagnostics"),
    "oracle": (cmd_oracle, "cross-check the evolution against classical integration"),
    "convergence": (cmd_convergence, "per-level and generator-limit tables"),
    "mc": (cmd_mc, "Monte Carlo dual bounds over feedback strategies"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sublevy",
        description="Worst-case Levy evolution on the torus: build, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
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
        return COMMANDS[args.command][0](config, quiet=args.quiet)
    except (ConfigurationError, BudgetError) as exc:
        message = str(exc)
    except ConsistencyError as exc:
        # an internal invariant broke; name it rather than dumping a traceback
        message = f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        # every input is read through a reader that refuses with a
        # ConfigurationError, so what is left is making or writing an output
        message = f"cannot write output: {exc}"
    # one line, even when the message quotes a config string holding a newline
    print("error: " + message.replace("\n", "\\n"), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
