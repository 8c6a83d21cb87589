"""Golden outputs: every output file of every shipped config under configs/,
and of each benchmark workload's config at seed 1, pinned by its SHA-256.

tests/golden/<name>.json holds the command, the config (a workload's; a
shipped config is read from configs/), the exit code, numpy's version and the
platform the digests were recorded on, and per output file its digest and a
fingerprint of the numbers of each CSV column (of a JSON file, all of them).
What varies from run to run is left out: the manifest's timings_ms and echoed
output_dir, and convergence.csv's elapsed_ms column.

The fingerprints must agree everywhere: each column's count and count of
non-finite entries exactly, and its sum, sum of magnitudes and
position-weighted sum to 1e-12 of its sum of magnitudes.  Where numpy's
version and the platform match, every digest must be equal as well;
elsewhere pocketfft's SIMD path may round differently.

A change that moves output bytes on purpose records them again, and says why
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from sublevy.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOAD_SEED = 1
REL = 1e-12


def platform_key() -> dict:
    return {"numpy": np.__version__, "platform": platform.platform()}


def _without_timings(name: str, data: bytes) -> bytes:
    """The bytes a digest is taken of: the manifest without timings_ms and the
    echoed output_dir, convergence.csv without its elapsed_ms column."""
    if name == "manifest.json":
        manifest = json.loads(data)
        del manifest["timings_ms"], manifest["config"]["output_dir"]
        return json.dumps(manifest, indent=2).encode()
    if name == "convergence.csv":
        lines = data.decode().split("\r\n")
        assert lines[0].endswith(",elapsed_ms"), lines[0]
        return "\r\n".join(line.rpartition(",")[0] for line in lines).encode()
    return data


def _columns(name: str, data: bytes) -> list[list[float]]:
    """The numbers of a file in file order: one list per CSV column, of the
    fields below the header that read as a float, or one list of the numbers
    (not booleans) of a JSON document."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        columns = [[] for _ in rows[0]]
        for row in rows[1:]:
            for column, field in zip(columns, row):
                try:
                    column.append(float(field))
                except ValueError:  # a strategy name
                    pass
        return columns
    out = []

    def walk(obj):
        if isinstance(obj, dict):
            for value in obj.values():
                walk(value)
        elif isinstance(obj, list):
            for value in obj:
                walk(value)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            out.append(float(obj))
    walk(json.loads(data))
    return [out]


def fingerprint(numbers: list[float]) -> list:
    """count, non-finite count, then the sum, the sum of magnitudes and a
    position-weighted sum (weights in [1, 2)) of the finite numbers."""
    x = np.array(numbers, dtype=float)
    bad = ~np.isfinite(x)
    x[bad] = 0.0
    weights = 1.0 + (np.arange(x.size) % 97) / 97.0
    return [int(x.size), int(bad.sum()), float(x.sum()), float(np.abs(x).sum()),
            float(weights @ x)]


def record_of(out: Path) -> dict:
    files = {}
    for path in sorted(out.iterdir()):
        data = _without_timings(path.name, path.read_bytes())
        files[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                            "columns": [fingerprint(c) for c in _columns(path.name, data)]}
    return files


def _workloads() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return WORKLOADS


def cases() -> dict:
    """name -> (command, config dict or None for a shipped config)."""
    shipped = {p.stem: (p.stem.rsplit("_", 1)[1], None) for p in sorted(CONFIGS.glob("*.json"))}
    workloads = {name: (w.command, w.config(WORKLOAD_SEED, "out")) for name, w in
                 _workloads().items()}
    return {**shipped, **workloads}


def run(name: str, command: str, config, out: Path) -> int:
    if config is None:
        path = CONFIGS / f"{name}.json"
    else:
        path = out.parent / f"{name}.json"
        path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--out", str(out), "--quiet"])


@pytest.mark.parametrize("name", sorted(cases()))
def test_outputs_are_the_recorded_ones(tmp_path, name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    command, config = cases()[name]
    assert (command, config) == (golden["command"], golden["config"])
    assert run(name, command, config, tmp_path / "out") == golden["exit_code"]
    files = record_of(tmp_path / "out")
    assert sorted(files) == sorted(golden["files"])
    for f, recorded in golden["files"].items():
        assert len(files[f]["columns"]) == len(recorded["columns"]), f
        for column, (got, want) in enumerate(zip(files[f]["columns"], recorded["columns"])):
            assert got[:2] == want[:2], (f, column)  # the counts
            scale = REL * max(got[3], want[3])
            assert got[2:] == pytest.approx(want[2:], rel=REL, abs=scale), (f, column)
    if golden["platform_key"] == platform_key():
        assert {f: r["sha256"] for f, r in files.items()} == {
            f: r["sha256"] for f, r in golden["files"].items()}


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(cases())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, (command, config) in sorted(cases().items()):
        with tempfile.TemporaryDirectory() as tmp:
            code = run(name, command, config, Path(tmp) / "out")
            record = {"command": command, "config": config, "exit_code": code,
                      "platform_key": platform_key(), "files": record_of(Path(tmp) / "out")}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: exit {code}, {len(record['files'])} files")
