import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sublevy import apply_linear, diffusion, GeneratorFamily, SymbolTable, make_grid, sample
from sublevy.cli import RunConfig, main
from sublevy.grid import read_function_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def strict_json(path):
    """Parse a manifest, refusing NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "grid": {"dim": 1, "n": 128},
        "family": {"builtin": "single_sigma", "sigma": 1.0},
        "initial": {"kind": "cosine", "k": 1},
        "time": 0.2,
        "nisio": {"max_level": 8, "tol": 1e-6},
        "oracle": {"dt": 1e-3, "tail_tol": 1e-10, "gap_tol": 5e-4},
        "mc": {"n_paths": 200, "seed": 7, "extract_level": 2,
               "random_strategies": 2, "scheme_tol": 1e-2},
        "output_dir": str(tmp_path / "out"),
    }
    mergeable = {"nisio", "oracle", "mc", "convergence"}
    for key, value in overrides.items():
        if key in mergeable and isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = RunConfig.from_file(str(path))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"dim": 1, "n": 8}}))
        with pytest.raises(Exception):
            RunConfig.from_file(str(path))

    def test_missing_family_file_is_config_error(self, tmp_path):
        path = write_config(tmp_path, family={"path": "absent.json"})
        assert main(["evolve", "--config", str(path)]) == 1

    def test_out_of_range_rejected(self, tmp_path):
        path = write_config(tmp_path, mc={"n_paths": 10})
        assert main(["mc", "--config", str(path)]) == 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, tmp_path, capsys, seed):
        path = write_config(tmp_path)
        assert main(["mc", "--config", str(path), "--quiet", "--seed", str(seed)]) == 1
        assert "mc.seed" in capsys.readouterr().err
        path = write_config(tmp_path, mc={"seed": seed})
        assert main(["mc", "--config", str(path), "--quiet"]) == 1

    @pytest.mark.parametrize("overrides", [
        {"time": "nan"},
        {"oracle": {"dt": "inf"}},
        {"nisio": {"tol": float("nan")}},
        {"convergence": {"h_list": [0.1, "-inf"]}},
        {"family": {"builtin": "two_sigma", "sigmas": [0.5, 1e200]}},
        {"grid": {"dim": 2, "n": 16}, "mc": {"x0": [0.0, 0.0]},
         "family": {"builtin": "two_sigma", "sigmas": [0.5, 1e200]}},
    ])
    def test_nonfinite_input_is_config_error(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        assert main(["oracle", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "finite" in err
        assert "ConsistencyError" not in err

    @pytest.mark.parametrize("overrides", [
        {"convergence": {"h_list": ["a", 0.1]}},
        {"mc": {"x0": ["east"]}},
        {"mc": {"x0": [10**400]}},
        {"convergence": {"h_list": [0.1, 10**400]}},
        {"grid": {"dim": 1, "n": float("inf")}},
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("family, field", [
        ({"builtin": "two_sigma", "sigmas": ["wide"]}, "family.sigmas"),
        ({"builtin": "single_sigma", "sigma": None}, "family.sigma"),
        ({"builtin": "wrapped_cauchy", "scale": "x"}, "family.scale"),
        ({"builtin": "drift", "b": "fast"}, "family.b"),
    ])
    def test_malformed_builtin_parameter_is_config_error(self, tmp_path, capsys, family,
                                                         field):
        path = write_config(tmp_path, family=family)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"'{field}' is malformed" in err


class TestEvolve:
    def test_singleton_matches_linear(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        value = read_function_csv(out / "value.csv")
        grid = make_grid(1, 128)
        table = SymbolTable.build(GeneratorFamily((diffusion(1.0),)), grid)
        lin = apply_linear(table.psi[0], 0.2, sample(grid, "cosine", k=1))
        assert float(np.max(np.abs(value.values - lin.values))) <= 1e-10
        assert (out / "convergence.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["violations"] == []
        diag = manifest["diagnostics"]
        assert diag["converged"] is True
        assert diag["family_constant"] == 1.0
        assert diag["lipschitz_bound"] == pytest.approx(0.5, abs=1e-9)
        assert diag["snap_distance"] == 0.0
        assert manifest["config"]["time"] == 0.2

    def test_budget_exhausted_exit_2_with_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, nisio={"max_level": 0, "tol": 0.0})
        assert main(["evolve", "--config", str(path), "--quiet"]) == 2
        out = tmp_path / "out"
        assert (out / "value.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["violations"]) == 1
        violation = manifest["violations"][0]
        assert "nisio.tol" in violation["name"]
        assert "measured" in violation and "tolerance" in violation
        assert capsys.readouterr().err.strip() != ""

    @pytest.mark.parametrize("command", ["evolve", "oracle", "convergence"])
    def test_level_zero_names_its_cause_in_strict_json(self, tmp_path, capsys, command):
        path = write_config(tmp_path, nisio={"max_level": 0, "tol": 1e-6},
                            convergence={"h_list": [0.1]})
        assert main([command, "--config", str(path), "--quiet"]) == 2
        manifest = strict_json(tmp_path / "out" / "manifest.json")
        violation = next(v for v in manifest["violations"] if "nisio.tol" in v["name"])
        assert violation["measured"] is None
        assert violation["tolerance"] == 1e-6
        err = [line for line in capsys.readouterr().err.splitlines() if "nisio.tol" in line]
        assert len(err) == 1
        assert "nan" not in err[0]
        assert "level 0 runs no refinement" in err[0]

    def test_nonfinite_config_echo_is_null(self, tmp_path):
        path = tmp_path / "config.json"
        # Python's json reads NaN; the family builtin ignores the extra key
        path.write_text(write_config(tmp_path).read_text().replace(
            '"sigma": 1.0', '"sigma": 1.0, "note": NaN'))
        assert main(["evolve", "--config", str(path), "--quiet"]) == 0
        manifest = strict_json(tmp_path / "out" / "manifest.json")
        assert manifest["config"]["family"]["note"] is None

    def test_value_csv_bytes_deterministic(self, tmp_path):
        p1 = write_config(tmp_path, name="a.json",
                          family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                          initial={"kind": "bump", "center": 0.0, "width": math.pi},
                          nisio={"tol": 1e-4},
                          output_dir=str(tmp_path / "o1"))
        p2 = write_config(tmp_path, name="b.json",
                          family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                          initial={"kind": "bump", "center": 0.0, "width": math.pi},
                          nisio={"tol": 1e-4},
                          output_dir=str(tmp_path / "o2"))
        assert main(["evolve", "--config", str(p1), "--quiet"]) == 0
        assert main(["evolve", "--config", str(p2), "--quiet"]) == 0
        a = (tmp_path / "o1" / "value.csv").read_bytes()
        b = (tmp_path / "o2" / "value.csv").read_bytes()
        assert a == b


class TestOracle:
    def test_singleton_within_tolerance(self, tmp_path):
        path = write_config(tmp_path, oracle={"gap_tol": 1e-6})
        assert main(["oracle", "--config", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        for name in ("picard_value.csv", "gap_table.csv", "residuals.csv",
                     "trajectory.csv"):
            assert (out / name).exists()

    def test_two_sigma_baseline(self, tmp_path):
        path = write_config(
            tmp_path,
            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
            initial={"kind": "bump", "center": 0.0, "width": math.pi},
            nisio={"max_level": 12, "tol": 0.0},
        )
        assert main(["oracle", "--config", str(path), "--quiet"]) == 2  # tol=0 never converges
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["oracle_gap"] <= 5e-4

    def test_coarse_level_fails_tight_tolerance(self, tmp_path):
        path = write_config(
            tmp_path,
            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
            initial={"kind": "bump", "center": 0.0, "width": math.pi},
            nisio={"max_level": 2, "tol": 1e-12},
            oracle={"gap_tol": 1e-8},
        )
        assert main(["oracle", "--config", str(path), "--quiet"]) == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert any("oracle.gap_tol" in v["name"] for v in manifest["violations"])

    def test_huge_horizon_exceeds_work_budget(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "two_sigma_oracle.json").read_text())
        cfg.update(time=1e300, output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        assert main(["oracle", "--config", str(path), "--quiet"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "budget" in err


class TestConvergence:
    def test_emits_tables(self, tmp_path):
        path = write_config(
            tmp_path,
            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
            nisio={"tol": 1e-4},
            convergence={"h_list": [0.1, 0.05]},
        )
        assert main(["convergence", "--config", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        rows = (out / "generator_limit.csv").read_text().strip().splitlines()
        assert rows[0] == "h,error"
        assert len(rows) == 3
        conv = (out / "convergence.csv").read_text().splitlines()
        assert conv[0] == "level,steps,sup_increment,sup_norm,elapsed_ms"


class TestMc:
    def test_runs_and_reproduces(self, tmp_path):
        p1 = write_config(tmp_path, name="a.json",
                          family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                          initial={"kind": "bump", "center": 0.0, "width": math.pi},
                          nisio={"max_level": 6, "tol": 0.0},
                          output_dir=str(tmp_path / "o1"))
        p2 = write_config(tmp_path, name="b.json",
                          family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                          initial={"kind": "bump", "center": 0.0, "width": math.pi},
                          nisio={"max_level": 6, "tol": 0.0},
                          output_dir=str(tmp_path / "o2"))
        assert main(["mc", "--config", str(p1), "--quiet"]) == 0
        assert main(["mc", "--config", str(p2), "--quiet"]) == 0
        a = (tmp_path / "o1" / "estimates.csv").read_bytes()
        assert a == (tmp_path / "o2" / "estimates.csv").read_bytes()
        rows = a.decode().strip().splitlines()
        assert rows[0] == "strategy,mean,stderr,n_paths,seed,bound_ok"
        assert len(rows) == 4  # extracted + 2 random
        assert (tmp_path / "o1" / "extracted_strategy.json").exists()
        argmax = (tmp_path / "o1" / "argmax.csv").read_text().splitlines()
        assert argmax[0] == "step,index,x,lambda_index"
        assert len(argmax) == 1 + 4 * 128  # extract_level 2 -> 4 steps

    def test_seed_override_changes_estimates(self, tmp_path):
        p = write_config(tmp_path,
                         family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                         initial={"kind": "bump", "center": 0.0, "width": math.pi},
                         nisio={"max_level": 6, "tol": 0.0})
        assert main(["mc", "--config", str(p), "--quiet", "--out",
                     str(tmp_path / "s1")]) == 0
        assert main(["mc", "--config", str(p), "--quiet", "--seed", "99", "--out",
                     str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "estimates.csv").read_bytes()
        b = (tmp_path / "s2" / "estimates.csv").read_bytes()
        assert a != b


class TestTwoDimensionalCli:
    def test_2d_evolve_with_widened_guard(self, tmp_path):
        path = write_config(
            tmp_path,
            grid={"dim": 2, "n": 32},
            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
            initial={"kind": "bump", "center": [0.0, 0.0], "width": math.pi},
            nisio={"max_level": 4, "tol": 1e-3, "monotonicity_tol": 1e-4},
            mc={"x0": [0.0, 0.0]},
        )
        assert main(["evolve", "--config", str(path), "--quiet"]) == 0
        value = (tmp_path / "out" / "value.csv").read_text().splitlines()
        assert value[0] == "index,x,y,value"
        assert len(value) == 1 + 32 * 32

    def test_2d_coarse_guard_reports_instead_of_crashing(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            grid={"dim": 2, "n": 16},
            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
            initial={"kind": "bump", "center": [0.0, 0.0], "width": math.pi},
            nisio={"max_level": 3, "tol": 0.0},
            mc={"x0": [0.0, 0.0]},
        )
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        assert "monotone" in capsys.readouterr().err
