#!/usr/bin/env python3
"""Benchmark of the sublevy CLI: time to a checked worst-case value.

Run from the repository root:

    python3 perfbench/run.py --workload envelope-2d --seed 1 --seconds 35 --trace 0

One client in this process runs one CLI command after another (a closed loop)
for --seconds, checks every run's outputs against a reference computed once
per seed, and prints each metric with its unit.  A fixed calibration probe
runs between CLI runs, and run_cost divides each run's wall time by it, so
that the host's changing speed cancels (see perfbench/README.md).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 it
alternates untraced and traced runs and reports per-layer metrics from spans
recorded around calls into each layer, plus per-layer micro-benchmarks.
Details (spans, per-run samples, machine record) go to perfbench/.out/results.
The exit code is 1 when any run fails the correctness gate, 2 when the
program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"

SETUP_REPEATS = 7
LAYER_SECONDS = 0.25  # minimum timing window of each per-layer micro-benchmark

# The calibration probe: a fixed pure-Python loop plus real-FFT round trips on
# a fixed array, the two kinds of work the workloads spend their time in.
PROBE_LOOPS = 200_000
PROBE_FFT_SHAPE = (4, 256, 256)
PROBE_FFT_ROUNDS = 2

# name -> unit; every run with --trace 0 reports all of these
END_TO_END = {
    "run_cost": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "value_err": "1",
    "ok_ratio": "ratio",
}

# name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.self_ms": ("ms", "run_cost; argument parsing and manifest plumbing, all workloads"),
    "grid.self_ms": ("ms", "run_cost; make_grid + sample, small on all workloads"),
    "levy.self_ms": ("ms", "run_cost/setup_s; table build and multipliers, largest on envelope-2d"),
    "nisio.self_ms": ("ms", "run_cost on envelope-2d (most) and oracle-1d (about half)"),
    "oracles.self_ms": ("ms", "run_cost on oracle-1d only"),
    "mc.self_ms": ("ms", "run_cost on mc-dual-1d only"),
    "cli.self_share": ("ratio", "run_cost; share of traced run time"),
    "grid.self_share": ("ratio", "run_cost; share of traced run time"),
    "levy.self_share": ("ratio", "run_cost; share of traced run time"),
    "nisio.self_share": ("ratio", "run_cost; dominant on envelope-2d, ~15% on mc-dual-1d"),
    "oracles.self_share": ("ratio", "run_cost; oracle-1d only"),
    "mc.self_share": ("ratio", "run_cost; dominant on mc-dual-1d"),
    "nisio.evolve_ms": ("ms", "run_cost on envelope-2d and oracle-1d; ~15% of mc-dual-1d"),
    "nisio.step_us": ("us", "run_cost on envelope-2d and oracle-1d"),
    "nisio.steps": ("count", "run_cost on envelope-2d and oracle-1d (exact count)"),
    "nisio.levels_used": ("count", "run_cost on envelope-2d and oracle-1d (exact count)"),
    "nisio.steps_per_s": ("1/s", "run_cost on envelope-2d and oracle-1d"),
    "nisio.step_flops_computed": ("flop", "run_cost on envelope-2d; computed from array sizes"),
    "nisio.step_bytes_computed": ("B", "run_cost on envelope-2d; computed from array sizes"),
    "nisio.ops_per_byte_computed": ("flop/B", "run_cost on envelope-2d; computed, no roofline"),
    **{f"nisio.step_us.{d}d{n}.m{m}": ("us", "run_cost on the workload of that grid size")
       for d, n in ((1, 128), (1, 1024), (2, 64), (2, 256)) for m in (2, 4)},
    "levy.table_build_ms": ("ms", "setup_s, largest on envelope-2d"),
    "levy.multipliers_ms": ("ms", "run_cost on envelope-2d (one call per level)"),
    "levy.increment_us": ("us", "run_cost on mc-dual-1d"),
    "grid.fft_us": ("us", "run_cost on envelope-2d"),
    "oracles.picard_ms": ("ms", "run_cost on oracle-1d only"),
    "oracles.rk4_steps": ("count", "run_cost on oracle-1d only (exact count)"),
    "oracles.rhs_us": ("us", "run_cost on oracle-1d only"),
    "oracles.residual_ms": ("ms", "run_cost on oracle-1d only"),
    "oracles.snapshot_mb_computed": ("MB", "peak_rss_mb on oracle-1d"),
    "mc.suite_ms": ("ms", "run_cost on mc-dual-1d only"),
    "mc.us_per_path": ("us", "run_cost on mc-dual-1d only"),
    "mc.us_per_path.2d": ("us", "none yet: the 2D path code, no workload runs it"),
    "mc.paths": ("count", "run_cost on mc-dual-1d only (exact count)"),
    "mc.increments": ("count", "run_cost on mc-dual-1d only (exact count)"),
    "mc.extract_ms": ("ms", "run_cost on mc-dual-1d only"),
    "mc.bound_ok_ratio": ("ratio", "ok_ratio on mc-dual-1d"),
    "cli.config_ms": ("ms", "setup_s, all workloads"),
    "cli.output_ms": ("ms", "run_cost, mainly oracle-1d"),
    "cli.output_bytes": ("B", "run_cost, mainly oracle-1d"),
    "trace.run_s": ("s", "none: median wall time of a traced run"),
    "trace.overhead_s": ("s", "none: traced minus untraced median wall time"),
    "trace.span_coverage": ("ratio", "none: layer self times over traced wall time"),
}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sublevy.cli; "
                "print(time.perf_counter() - t)")


class ProgramMissing(Exception):
    pass


class GateFailure(Exception):
    pass


def load_program() -> None:
    """Put the checkout's src/ first on the path and import sublevy from it."""
    if not (SRC / "sublevy" / "__init__.py").is_file():
        raise ProgramMissing(f"no sublevy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sublevy

    if Path(sublevy.__file__).resolve().parent != SRC / "sublevy":
        raise ProgramMissing(f"imported sublevy from {sublevy.__file__}, not {SRC}")


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile with at least ten samples beyond it, but never below p90.

    Runs of fewer than 100 samples therefore report p90 with fewer than ten
    samples beyond it (the maximum below 10 samples).  Without the p90 floor
    a run of 11 samples would report its minimum, and the figure would jump
    between maximum and minimum as host speed moves the sample count."""
    xs = sorted(values)
    rank = max(len(xs) - 10, (9 * len(xs) + 9) // 10)  # ceil(0.9 n), exact
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def probe_seconds(block) -> float:
    """Wall time of the calibration probe on ``block`` (shape PROBE_FFT_SHAPE).

    The probe is the benchmark's own code and never changes with the program,
    so its time measures only how fast the host runs at that moment."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    for _ in range(PROBE_FFT_ROUNDS):
        np.fft.irfftn(np.fft.rfftn(block, axes=(1, 2)), s=block.shape[1:], axes=(1, 2))
    return time.perf_counter() - t0


def machine_record() -> dict:
    import numpy as np

    rec = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": f"numpy.fft ({np.fft._pocketfft.__name__.rsplit('.', 1)[-1]})",
        "NISIO_THREADS": os.environ.get("NISIO_THREADS"),
        "cpu_model": None, "L2_cache": None, "L3_cache": None, "blas": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        rec["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in lscpu.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                rec[key.strip()[:2] + "_cache"] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return rec


@dataclass
class RunRecord:
    traced: bool
    wall_s: float
    probe_s: float = 0.0  # mean of the calibration probes just before and after the run
    failures: list[str] = field(default_factory=list)
    value_err: float | None = None
    output_bytes: int = 0


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, tiny: bool):
        import sublevy.cli as cli
        import tracing

        self.cli = cli
        self.tracing = tracing
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.layer_seconds = LAYER_SECONDS / 10 if tiny else LAYER_SECONDS
        self.work = OUT / f"work-{os.getpid()}"
        self.out_dir = self.work / "out"
        self.config_path = self.work / "config.json"
        self.tracer = tracing.Tracer()
        self.untraced_targets: list[str] = []
        self.import_samples: list[float] = []
        self.build_samples: list[float] = []

    # -- set-up -------------------------------------------------------------------

    def write_config(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        cfg = self.w.config(self.seed, str(self.out_dir))
        self.config_path.write_text(json.dumps(cfg, indent=1))

    def import_seconds(self) -> float:
        """Time to import sublevy.cli in a fresh interpreter."""
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def build_once(self):
        from sublevy.grid import make_grid, sample
        from sublevy.levy import SymbolTable

        config = self.cli.RunConfig.from_file(str(self.config_path))
        grid = make_grid(config.grid_dim, config.grid_n)
        family = self.cli.build_family(config.family, grid)
        table = SymbolTable.build(family, grid)
        params = {k: v for k, v in config.initial.items() if k != "kind"}
        f = sample(grid, config.initial["kind"], **params)
        return config, table, f

    def setup_round(self) -> None:
        """One timed set-up: import in a fresh interpreter, then config parsing,
        grid, family, table and sample in this process."""
        self.import_samples.append(self.import_seconds())
        t0 = time.perf_counter()
        self.build_once()
        self.build_samples.append(time.perf_counter() - t0)

    # -- the closed loop ------------------------------------------------------------

    def one_run(self, traced: bool, run_id: int) -> RunRecord:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [self.w.command, "--config", str(self.config_path), "--quiet"]
        record = RunRecord(traced, 0.0)
        rc = None
        entry = self.cli.main
        scope = self.tracing.instrument(self.tracer) if traced else contextlib.nullcontext([])
        with scope as missing:
            if traced:
                self.tracer.run = run_id
                self.untraced_targets = missing
                entry = self.tracer.span("cli.main", "cli", entry)
            t0 = time.perf_counter()
            try:
                rc = entry(argv)
            except Exception as exc:  # any escape is a failed operation, not a crash
                record.failures.append(f"uncaught {type(exc).__name__}: {exc}")
            record.wall_s = time.perf_counter() - t0
        if rc is not None and rc != 0:
            record.failures.append(f"exit code {rc}")
        self.check_outputs(record)
        for reason in record.failures:
            print(f"perfbench: run {run_id} FAILED: {reason}", file=sys.stderr)
        return record

    def check_outputs(self, record: RunRecord) -> None:
        import numpy as np

        manifest_path = self.out_dir / "manifest.json"
        if manifest_path.is_file():
            violations = json.loads(manifest_path.read_text()).get("violations")
            if violations:
                record.failures.append(f"manifest violations: {violations}")
        else:
            record.failures.append("no manifest.json")
        value_path = self.out_dir / "value.csv"
        if value_path.is_file():
            rows = np.loadtxt(value_path, delimiter=",", skiprows=1, ndmin=2)
            value = rows[:, -1].reshape(self.reference.shape)
            record.value_err = float(np.max(np.abs(value - self.reference)))
            if not record.value_err <= self.w.value_tol:
                record.failures.append(
                    f"value_err {record.value_err:.3e} exceeds {self.w.value_tol:g}")
        else:
            record.failures.append("no value.csv")
        if self.w.command == "mc":
            estimates = self.out_dir / "estimates.csv"
            if not estimates.is_file():
                record.failures.append("no estimates.csv")
            else:
                lines = estimates.read_text().splitlines()[1:]
                bad = [ln.split(",")[0] for ln in lines if ln.rsplit(",", 1)[-1] != "1"]
                if bad or not lines:
                    record.failures.append(f"MC bound_ok = 0 for {bad or 'no rows'}")
        if self.out_dir.is_dir():
            record.output_bytes = sum(p.stat().st_size for p in self.out_dir.iterdir())

    def loop(self) -> list[RunRecord]:
        """Closed loop for self.seconds; with tracing, runs alternate untraced/traced.

        The calibration probe runs before the first run and after every run.
        Without tracing, SETUP_REPEATS set-up rounds are spread evenly over
        the loop (any still due when it ends run after it), so that set-up
        time samples the host's changing speed rather than one moment."""
        import numpy as np

        block = np.random.default_rng(0).standard_normal(PROBE_FFT_SHAPE)
        runs: list[RunRecord] = []
        rounds = 0 if self.trace else SETUP_REPEATS
        start = time.perf_counter()
        deadline = start + self.seconds
        before = probe_seconds(block)
        while True:
            done = len(self.import_samples)
            if done < rounds and time.perf_counter() >= start + done * self.seconds / rounds:
                self.setup_round()
                before = probe_seconds(block)
            traced = self.trace and len(runs) % 2 == 1
            record = self.one_run(traced, len(runs))
            after = probe_seconds(block)
            record.probe_s = (before + after) / 2
            before = after
            runs.append(record)
            if time.perf_counter() >= deadline and len(runs) >= (2 if self.trace else 1):
                break
        while len(self.import_samples) < rounds:
            self.setup_round()
        return runs

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self, runs: list[RunRecord], setup_s: float, info: dict) -> dict:
        walls = [r.wall_s for r in runs]
        costs = [r.wall_s / r.probe_s for r in runs]
        # wall times swing with the host's speed, so they are recorded, not gated
        info["run_s"] = median(walls)
        info["probe_s"] = median(r.probe_s for r in runs)
        for name, values in (("run_s.tail", walls), ("run_cost.tail", costs)):
            value, percentile, beyond = tail(values)
            info[name] = {"value": value, "percentile": percentile,
                          "samples": len(values), "beyond": beyond}
        errs = [r.value_err for r in runs if r.value_err is not None]
        if not errs:
            raise GateFailure("no run wrote a value to check")
        return {
            "run_cost": median(costs),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "value_err": max(errs),
            "ok_ratio": sum(1 for r in runs if not r.failures) / len(runs),
        }

    def micro(self) -> dict:
        import layers

        cfg = self.config
        gap = cfg.time / 512
        dt = cfg.time / 2**cfg.mc_extract_level
        s = self.layer_seconds
        flops, nbytes = layers.step_model(self.table.grid.size, len(self.table))
        return {
            "nisio.step_us": layers.step_us(self.table, self.initial, gap, s),
            "nisio.step_flops_computed": flops,
            "nisio.step_bytes_computed": nbytes,
            "nisio.ops_per_byte_computed": flops / nbytes,
            **layers.step_sweep(s),
            "grid.fft_us": layers.fft_us(self.initial, s),
            "levy.increment_us": layers.increment_us(self.table.family, dt, self.seed, s),
            "mc.us_per_path.2d": layers.mc_us_per_path_2d(self.seed, s),
        }

    def per_layer(self, runs: list[RunRecord], micro: dict) -> dict:
        tracing = self.tracing
        traced_ids = [i for i, r in enumerate(runs) if r.traced]
        per_run = []
        for i in traced_ids:
            spans = self.tracer.run_spans(i)
            own = tracing.self_times(spans)
            counts = self.tracer.counts[i]
            calls = [s.seconds for s in spans if s.name == "levy.multipliers"]
            output = sum(v for k, v in own.items() if k.startswith("span:cli.output."))
            wall = runs[i].wall_s
            evolve = own["span:nisio.evolve"]
            picard = own["span:oracles.picard"]
            suite = own["span:mc.suite"]
            row = {
                **{f"{layer}.self_ms": own[layer] * 1e3 for layer in tracing.LAYERS},
                **{f"{layer}.self_share": own[layer] / wall for layer in tracing.LAYERS},
                "trace.span_coverage": sum(own[layer] for layer in tracing.LAYERS) / wall,
                "nisio.evolve_ms": evolve * 1e3,
                "nisio.steps": counts["nisio.steps"],
                "nisio.levels_used": counts["nisio.levels_used"],
                "nisio.steps_per_s": counts["nisio.steps"] / evolve if evolve else 0.0,
                "levy.table_build_ms": own["span:levy.table_build"] * 1e3,
                "levy.multipliers_ms": median(calls) * 1e3,
                "oracles.picard_ms": picard * 1e3,
                "oracles.rk4_steps": counts["oracles.rk4_steps"],
                "oracles.rhs_us": (picard * 1e6 / (4 * counts["oracles.rk4_steps"])
                                   if counts["oracles.rk4_steps"] else 0.0),
                "oracles.residual_ms": own["span:oracles.residuals"] * 1e3,
                "oracles.snapshot_mb_computed": counts["oracles.snapshot_values"] * 8 / 1e6,
                "mc.suite_ms": suite * 1e3,
                "mc.us_per_path": suite * 1e6 / counts["mc.paths"] if counts["mc.paths"] else 0.0,
                "mc.paths": counts["mc.paths"],
                "mc.increments": counts["mc.increments"],
                "mc.extract_ms": own["span:mc.extract"] * 1e3,
                "mc.bound_ok_ratio": (counts["mc.rows_ok"] / counts["mc.rows"]
                                      if counts["mc.rows"] else 0.0),
                "cli.config_ms": own["span:cli.config"] * 1e3,
                "cli.output_ms": output * 1e3,
                "cli.output_bytes": runs[i].output_bytes,
            }
            per_run.append(row)
        metrics = {name: median(row[name] for row in per_run) for name in per_run[0]}
        traced_s = median(r.wall_s for r in runs if r.traced)
        metrics["trace.run_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - median(r.wall_s for r in runs if not r.traced)
        metrics.update(micro)
        return metrics

    # -- one benchmark run -------------------------------------------------------

    def run(self) -> tuple[dict, list[RunRecord], dict]:
        import layers

        info: dict = {}
        self.write_config()
        self.config, self.table, self.initial = self.build_once()
        t0 = time.perf_counter()
        self.reference, info["reference"] = self.w.reference(self.table, self.initial,
                                                             self.config.time)
        info["reference_s"] = time.perf_counter() - t0
        # fill plan and lru caches at the workload size before timing
        layers.step_us(self.table, self.initial, self.config.time / 512, 0.0)
        micro = self.micro() if self.trace else {}
        runs = self.loop()
        import_s, build_s = median(self.import_samples), median(self.build_samples)
        if self.trace:
            metrics = self.per_layer(runs, micro)
        else:
            metrics = self.end_to_end(runs, import_s + build_s, info)
        info.update({"import_s": import_s, "build_s": build_s,
                     "untraced_targets": self.untraced_targets})
        return metrics, runs, info

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def write_results(args, bench: Bench, metrics: dict, units: dict, runs, info: dict) -> Path:
    """Write the full record of this run (and its spans) under perfbench/.out/results."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    payload = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "config": json.loads(bench.config_path.read_text()),
        "value_tol": bench.w.value_tol, **info,
        "metrics": {k: {"value": v, "unit": units[k],
                        **({"moves": PER_LAYER[k][1]} if args.trace else {})}
                    for k, v in metrics.items()},
        "runs": [vars(r) for r in runs],
    }
    path = results / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=1))
    if args.trace:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for s in bench.tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("envelope-2d", "mc-dual-1d", "oracle-1d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="cut each workload's work (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = (workloads.TINY_WORKLOADS if args.tiny else workloads.WORKLOADS)[args.workload]
    units = ({k: unit for k, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END)
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        metrics, runs, info = bench.run()
        info["machine"] = machine_record()
        path = write_results(args, bench, metrics, units, runs, info)
    except GateFailure as exc:
        print(f"perfbench: CORRECTNESS GATE FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    if info["untraced_targets"]:
        print(f"perfbench: not traced (absent from the program): "
              f"{', '.join(info['untraced_targets'])}", file=sys.stderr)

    failed = sum(1 for r in runs if r.failures)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(runs)} runs, {failed} failed; "
          f"reference {info['reference']}; details in {path.relative_to(ROOT)}")
    print(f"perfbench: machine {json.dumps(info['machine'])}")
    if "run_s" in info:
        print(f"perfbench: run_s (median wall time of one run) = {info['run_s']:.6g} s; "
              f"probe_s (median probe) = {info['probe_s']:.6g} s")
        for name, unit in (("run_s.tail", "s"), ("run_cost.tail", "probe")):
            t = info[name]
            print(f"perfbench: {name} = {t['value']:.6g} {unit}, p{t['percentile']:.1f} of "
                  f"{t['samples']} samples ({t['beyond']} beyond it)")
    for name, value in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if failed:
        print(f"perfbench: CORRECTNESS GATE FAILED on {failed} of {len(runs)} runs",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
