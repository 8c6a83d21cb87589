#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes under a minute.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size (--tiny: same grids, less work) through
perfbench/run.py in both modes and checks that:

- each run exits 0 with a final JSON line holding exactly correct, attempted,
  failed and metrics, and correct is true;
- every metric name matches [A-Za-z0-9_.-]+ and carries the unit that
  BENCHMARK.json declares; --trace 0 prints exactly the end-to-end metrics
  and --trace 1 exactly the per-layer ones;
- two seeds give different inputs but identical nisio.steps and mc.paths;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEEDS = (1, 2)


class SmokeFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def bench(workload: str, seed: int, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess, what: str) -> dict:
    check(done.returncode == 0, f"{what}: exit code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{what}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted {result['attempted']}")
    return result


def check_metrics(result: dict, declared: dict, what: str) -> None:
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          f"{what}: metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")
    for name, entry in metrics.items():
        check(bool(NAME.match(name)), f"{what}: bad metric name {name!r}")
        check(entry.get("unit") == declared[name], f"{what}: {name} unit {entry.get('unit')!r}")
        check(isinstance(entry.get("value"), (int, float)), f"{what}: {name} has no number")


def check_declaration(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end disagrees with run.END_TO_END")
    check(layer == {k: unit for k, (unit, _) in run.PER_LAYER.items()},
          "BENCHMARK.json per_layer disagrees with run.PER_LAYER")
    check({w["name"] for w in spec["workloads"]} == {"envelope-2d", "mc-dual-1d", "oracle-1d"},
          "BENCHMARK.json workloads")


def check_seeds_translate() -> None:
    run.load_program()
    import workloads

    for name, w in workloads.TINY_WORKLOADS.items():
        a, b = (w.config(seed, "out") for seed in SEEDS)
        check(a["initial"]["center"] != b["initial"]["center"], f"{name}: seeds share inputs")
        check(a["family"] == b["family"] and a["nisio"] == b["nisio"],
              f"{name}: seeds change more than the inputs")


def check_without_program() -> None:
    empty = run.OUT / "smoke-no-program"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, empty / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", empty)
    try:
        done = bench("oracle-1d", 1, 0, cwd=empty)
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    check(done.returncode != 0, "ran without the program")
    check('"metrics"' not in done.stdout, "printed a result without the program")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_declaration(spec)
    check_seeds_translate()
    declared = {0: run.END_TO_END, 1: {k: unit for k, (unit, _) in run.PER_LAYER.items()}}
    for workload in ("envelope-2d", "mc-dual-1d", "oracle-1d"):
        check_metrics(result_of(bench(workload, SEEDS[0], 0), f"{workload} trace 0"),
                      declared[0], f"{workload} trace 0")
        counts = []
        for seed in SEEDS:
            what = f"{workload} seed {seed} trace 1"
            result = result_of(bench(workload, seed, 1), what)
            check_metrics(result, declared[1], what)
            counts.append({k: result["metrics"][k]["value"] for k in ("nisio.steps", "mc.paths")})
        check(counts[0] == counts[1], f"{workload}: seeds do different work: {counts}")
        check(counts[0]["nisio.steps"] > 0, f"{workload}: no envelope steps counted")
        print(f"smoke: {workload} ok ({counts[0]})")
    check_without_program()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"smoke: FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
