import dataclasses
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sublevy import diffusion, GeneratorFamily, SymbolTable, make_grid, sample
from sublevy import Partition, estimate, random_strategy, save_strategy
from sublevy import dual_bound_suite, family_from_json, load_strategy
from sublevy import cli
from sublevy.cli import RunConfig, main
from sublevy.grid import read_function_csv, wrap_point
from sublevy.levy import SpectralWorkspace
from sublevy.mc import write_estimates_csv
from conftest import member_evolution

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
        "oracle": {"dt": 1e-3, "gap_tol": 5e-4},
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


# one unknown key in each place a config or a file it names can hold one, and the
# field that the refusal names
UNKNOWN_KEYS = [
    ({"tyme": 0.2}, "config field 'tyme'"),
    ({"output": "x"}, "config field 'output'"),  # retired, then removed
    ({"nisio.tol": 1e-3}, "config field 'nisio.tol'"),  # a section key at the top level
    ({"grid": {"dim": 1, "n": 128, "m": 8}}, "config field 'grid.m'"),
    ({"nisio": {"max_levls": 2}}, "config field 'nisio.max_levls'"),
    ({"oracle": {"gap_tl": 1.0}}, "config field 'oracle.gap_tl'"),
    ({"convergence": {"h": [0.1]}}, "config field 'convergence.h'"),
    ({"mc": {"n_path": 100}}, "config field 'mc.n_path'"),
    ({"family": {"builtin": "single_sigma", "sigmas": [2.0]}}, "config field 'family.sigmas'"),
    ({"family": {"builtin": "two_sigma", "sigma": [2, 3]}}, "config field 'family.sigma'"),
    ({"family": {"builtin": "half_turn_jump", "rates": 2.0}}, "config field 'family.rates'"),
    ({"family": {"builtin": "wrapped_cauchy", "gamma": 0.5}}, "config field 'family.gamma'"),
    ({"family": {"builtin": "drift", "velocity": 1.0}}, "config field 'family.velocity'"),
    ({"family": {"path": "family.json", "label": "x"}}, "config field 'family.label'"),
    ({"initial": {"kind": "samples", "path": "f.csv", "scale": 2}},
     "config field 'initial.scale'"),
    ({"family": [{"b": 0.0, "sgima": 1.0}]}, "quadruple field 'sgima'"),
    ({"family": [{"b": 0.0, "mu": [{"y": 1.0, "w": 1.0, "z": 0}]}]}, "quadruple field 'mu.z'"),
    ({"family": [{"b": 0.0, "nu": [{"z": 0.5, "v": 1.0, "w": 1}]}]}, "quadruple field 'nu.w'"),
    ({"family": {"path": "bad_family.json"}}, "quadruple field 'sigma2'"),
]


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = RunConfig.from_file(str(path))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_retired_keys_are_ignored(self, tmp_path):
        # not read: an out-of-range oracle.tail_tol passes
        path = write_config(tmp_path, oracle={"tail_tol": -1.0})
        cfg = RunConfig.from_file(str(path))
        assert cfg.output_dir == str(tmp_path / "out")
        assert cfg.to_dict()["oracle"] == {"dt": 1e-3, "gap_tol": 5e-4}
        assert main(["oracle", "--config", str(path), "--quiet"]) == 0

    @pytest.mark.parametrize("overrides, field", UNKNOWN_KEYS,
                             ids=[field.split("'")[1] for _, field in UNKNOWN_KEYS])
    def test_unknown_key_is_refused(self, tmp_path, capsys, overrides, field):
        (tmp_path / "family.json").write_text(json.dumps([{"sigma": 1.0}]))
        (tmp_path / "bad_family.json").write_text(json.dumps([{"sigma2": 1.0}]))
        (tmp_path / "f.csv").write_text("")
        path = write_config(tmp_path, **overrides)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {field} is not known\n"
        assert not (tmp_path / "out").exists()

    def test_readme_schema_lists_the_config_table(self):
        readme = (CONFIGS.parent / "README.md").read_text()
        block = readme.split("### Config schema", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
        schema = json.loads(re.sub(r"//.*", "", block))
        keys = {f.metadata["key"] for f in dataclasses.fields(RunConfig)}
        sections = {key.split(".")[0] for key in keys if "." in key}
        listed = {name for name in schema if name not in sections}
        listed |= {f"{name}.{key}" for name in sections & schema.keys() for key in schema[name]}
        assert listed == keys

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

    @pytest.mark.parametrize("n", [4096, 2**16])
    def test_grid_too_large_is_one_line(self, tmp_path, capsys, n):
        # refused before any array is allocated: 2D n=65536 would need 32 GiB of modes
        path = write_config(tmp_path, grid={"dim": 2, "n": n})
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: grid of {n}^2 points is above the limit of {2**22}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mc", [
        {"n_paths": 10**400},
        {"random_strategies": 10**400},
        {"n_paths": 10**6, "random_strategies": 99},
        {"extract_level": 20},
        # counted by the 2^14 steps of the strategy file, not by extract_level
        {"n_paths": 10_000, "extract_level": 0, "random_strategies": 0,
         "strategies": ["fine.json"]},
    ])
    def test_mc_draw_budget(self, tmp_path, capsys, mc):
        if "strategies" in mc:
            save_strategy(tmp_path / "fine.json", random_strategy(
                make_grid(1, 8), Partition.dyadic(0.2, 14), 1, np.random.default_rng(0)))
        path = write_config(tmp_path, grid={"dim": 1, "n": 8}, mc=mc)
        start = time.perf_counter()
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget of 1e+08 increments" in err

    @pytest.mark.parametrize("rate, partitions, atoms", [
        (1e12, 1, "1e+13"),
        (1e20, 1, "1e+21"),  # the Poisson counts' sum would overflow an int64
        (6e5, 2, "1.2e+07"),  # a strategy file on its own partition draws its own
    ])
    def test_mc_jump_atom_budget(self, tmp_path, capsys, monkeypatch, rate, partitions, atoms):
        # expected atoms: n_paths x partitions x time x the family's jump mass
        mc = {"n_paths": 100, "extract_level": 2, "random_strategies": 0}
        if partitions == 2:
            save_strategy(tmp_path / "other.json", random_strategy(
                make_grid(1, 32), Partition.dyadic(0.1, 3), 1, np.random.default_rng(0)))
            mc["strategies"] = ["other.json"]
        path = write_config(tmp_path, grid={"dim": 1, "n": 32}, time=0.1, mc=mc,
                            family={"builtin": "half_turn_jump", "rate": rate})
        monkeypatch.setattr(cli, "_run_nisio", lambda *a, **k: pytest.fail("envelope ran"))
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"error: mc would draw about {atoms} jump atoms, more than the budget of 1e+07 "
            "(n_paths x partitions x time x the members' jump mass)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim, n, level, random, entries", [
        (2, 256, 4, 16, "1.78e+07"),  # 16 steps alone would hold 1.0e6 entries
        (2, 256, 7, 16, "1.43e+08"),
        (1, 128, 17, 0, "1.68e+07"),  # nisio_evolve's own check would refuse it too
    ])
    def test_mc_feedback_budget(self, tmp_path, capsys, monkeypatch, dim, n, level, random,
                                entries):
        # every strategy's feedback: (1 + random) x 2^extract_level steps x grid points
        path = write_config(tmp_path, grid={"dim": dim, "n": n},
                            initial={"kind": "constant", "value": 1.0},
                            mc={"n_paths": 100, "extract_level": level,
                                "random_strategies": random, "x0": [0.0] * dim})
        monkeypatch.setattr(cli, "_run_nisio", lambda *a, **k: pytest.fail("envelope ran"))
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"error: mc would hold {entries} feedback entries, more than the budget of 1e+07 "
            "(the steps of every strategy x grid points)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, message", [
        ("config", "config {bad} is not valid JSON: {exc}"),
        ("family", "family file {bad} is not valid JSON: {exc}"),
        ("strategy", "strategy file {bad} is not valid JSON: {exc}"),
    ])
    def test_malformed_json_is_one_line(self, tmp_path, capsys, where, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": [1,')
        path = {"config": bad,
                "family": write_config(tmp_path, "f.json", family={"path": str(bad)}),
                "strategy": write_config(tmp_path, "s.json", mc={"strategies": [str(bad)]}),
                }[where]
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(bad.read_text())
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {message.format(bad=bad, exc=exc.value)}\n"

    def test_missing_config_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        with pytest.raises(OSError) as exc:
            open(path)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: cannot read config {path}: {exc.value}\n"

    def test_strategies_must_be_a_list(self, tmp_path, capsys):
        path = write_config(tmp_path, mc={"strategies": 5})
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        assert "'mc.strategies' must be an array" in capsys.readouterr().err

    def test_unknown_strategy_key_is_refused(self, tmp_path, capsys):
        save_strategy(tmp_path / "s.json", random_strategy(
            make_grid(1, 128), Partition.dyadic(0.2, 2), 1, np.random.default_rng(0)))
        data = json.loads((tmp_path / "s.json").read_text())
        (tmp_path / "s.json").write_text(json.dumps({**data, "feedbak": data["feedback"]}))
        path = write_config(tmp_path, mc={"strategies": ["s.json"]})
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: strategy field 'feedbak' is not known\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, tmp_path, capsys, seed):
        path = write_config(tmp_path)
        assert main(["mc", "--config", str(path), "--quiet", "--seed", str(seed)]) == 1
        assert "mc.seed" in capsys.readouterr().err
        path = write_config(tmp_path, mc={"seed": seed})
        assert main(["mc", "--config", str(path), "--quiet"]) == 1

    @pytest.mark.parametrize("value, code", [(1e308, 1), (1e304, 0)])
    def test_overflowing_initial_data_is_one_line(self, tmp_path, capsys, value, code):
        # on 1D n=16 two_sigma the spectral sums of 1e308 overflow and 1e304 stays
        # below the bound; the refusal comes before any output is written
        path = write_config(tmp_path, grid={"dim": 1, "n": 16},
                            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                            initial={"kind": "constant", "value": value})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve", "--config", str(path), "--quiet"]) == code
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        if code:
            assert err == ("error: grid function of sup norm 1e+308 is too large for this "
                           "table: its spectral sums overflow\n")
            assert not (tmp_path / "out").exists()
        else:
            assert err == ""

    @pytest.mark.parametrize("overrides, err", [
        # the bump is one grid point, on which the spectral guard trips
        ({"initial": {"kind": "bump", "center": 0.0, "width": 1e-320}},
         "error: ConsistencyError: dyadic level 3 drops below level 2 by 3.104e-04; "
         "refinement must be monotone\n"),
        ({"family": [{"b": 1e300}]}, ""),
    ])
    def test_floating_point_warnings_stay_off_stderr(self, tmp_path, capsys, overrides, err):
        config = {"grid": {"dim": 1, "n": 32}, "time": 0.1, "nisio": {"max_level": 4, "tol": 1e-4},
                  "family": {"builtin": "two_sigma", "sigmas": [0.5, 1.0]}}
        path = write_config(tmp_path, **{**config, **overrides})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve", "--config", str(path), "--quiet"]) == (1 if err else 0)
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == err
        if not err:
            diag = strict_json(tmp_path / "out" / "manifest.json")["diagnostics"]
            assert diag["family_constant"] == 1e300

    @pytest.mark.parametrize("overrides", [
        {"time": "nan"},
        {"oracle": {"dt": "inf"}},
        {"nisio": {"tol": float("nan")}},
        {"convergence": {"h_list": [0.1, "-inf"]}},
        {"family": {"builtin": "two_sigma", "sigmas": [0.5, 1e200]}},
        {"grid": {"dim": 2, "n": 16}, "mc": {"x0": [0.0, 0.0]},
         "family": {"builtin": "two_sigma", "sigmas": [0.5, 1e200]}},
        # Python's json reads the NaN literal json.dumps writes
        {"initial": {"kind": "bump", "center": 0.0, "width": float("nan")}},
        {"initial": {"kind": "bump", "center": float("nan"), "width": 1.0}},
    ])
    def test_nonfinite_input_is_config_error(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        assert main(["oracle", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "finite" in err
        assert "ConsistencyError" not in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("overrides, field, cause", [
        ({"grid": {"dim": 1, "n": 128.7}}, "grid.n", "must be an integer, got 128.7"),
        ({"nisio": {"max_level": 3.9}}, "nisio.max_level", "must be an integer, got 3.9"),
        ({"nisio": {"tol": False}}, "nisio.tol", "must be a number, got false"),
        ({"time": True}, "time", "must be a number, got true"),
        ({"grid": {"dim": True, "n": 128}}, "grid.dim", "must be a number, got true"),
        ({"mc": {"x0": [True]}}, "mc.x0", "must be a number, got true"),
        ({"family": {"builtin": "two_sigma", "sigmas": [0.5, True]}}, "family.sigmas",
         "must be a number, got true"),
        # inline and file quadruples, and initial-function parameters
        ({"family": [{"b": [True], "sigma": [[0.25]]}]}, "quadruple field 'b'",
         "must be a number, got true"),
        ({"family": [{"b": [0.0], "sigma": [[False]]}]}, "quadruple field 'sigma'",
         "must be a number, got false"),
        ({"family": [{"b": [0.0], "mu": [{"y": [0.5], "w": True}]}]}, "quadruple field 'mu.w'",
         "must be a number, got true"),
        ({"family": [{"b": [0.0], "mu": [{"y": [True], "w": 1.0}]}]}, "quadruple field 'mu.y'",
         "must be a number, got true"),
        ({"family": [{"b": [0.0], "nu": [{"z": [0.5], "v": True}]}]}, "quadruple field 'nu.v'",
         "must be a number, got true"),
        ({"family": {"path": "bool_family.json"}}, "quadruple field 'nu.z'",
         "must be a number, got true"),
        ({"initial": {"kind": "bump", "center": 0.0, "width": True}}, "bump parameter 'width'",
         "must be a number, got true"),
        ({"initial": {"kind": "bump", "center": [True], "width": 1.0}},
         "bump parameter 'center'", "must be a number, got true"),
        ({"initial": {"kind": "cosine", "k": 1, "phase": True}}, "cosine parameter 'phase'",
         "must be a number, got true"),
        ({"initial": {"kind": "cosine", "k": [True]}}, "cosine parameter 'k'",
         "must be a number, got true"),
        ({"initial": {"kind": "constant", "value": False}}, "constant parameter 'value'",
         "must be a number, got false"),
        # path fields take only strings
        ({"output_dir": True}, "output_dir", "must be a string, got true"),
        ({"family": {"path": 3}}, "family.path", "must be a string, got 3"),
        ({"initial": {"kind": "samples", "path": False}}, "initial.path",
         "must be a string, got false"),
        ({"mc": {"strategies": [7]}}, "mc.strategies", "must be a string, got 7"),
        # a JSON string is not a number, even one that parses as a number, and
        # a list field does not split a string into its characters
        ({"family": {"builtin": "two_sigma", "sigmas": "12"}}, "family.sigmas",
         'must be an array of numbers, got "12"'),
        ({"family": {"builtin": "two_sigma", "sigmas": [0.5, "1"]}}, "family.sigmas",
         'must be a number, got "1"'),
        ({"convergence": {"h_list": "1"}}, "convergence.h_list",
         'must be an array of numbers, got "1"'),
        ({"time": "0.2"}, "time", 'must be a number, got "0.2"'),
        ({"grid": {"dim": 1, "n": "128"}}, "grid.n", 'must be a number, got "128"'),
        ({"nisio": {"max_level": "4"}}, "nisio.max_level", 'must be a number, got "4"'),
        ({"mc": {"x0": ["0.5"]}}, "mc.x0", 'must be a number, got "0.5"'),
        ({"family": {"builtin": "drift", "b": "1"}}, "family.b", 'must be a number, got "1"'),
        ({"family": [{"b": ["0.5"], "sigma": [[0.25]]}]}, "quadruple field 'b'",
         'must be a number, got "0.5"'),
        ({"family": [{"b": [0.0], "mu": [{"y": [0.5], "w": "1"}]}]}, "quadruple field 'mu.w'",
         'must be a number, got "1"'),
        ({"family": {"path": "str_family.json"}}, "quadruple field 'nu.z'",
         'must be a number, got "0.5"'),
        ({"initial": {"kind": "bump", "center": 0.0, "width": "1.5"}},
         "bump parameter 'width'", 'must be a number, got "1.5"'),
        ({"initial": {"kind": "cosine", "k": "1"}}, "cosine parameter 'k'",
         'must be a number, got "1"'),
        # sections and initial data take only objects, not arrays of pairs
        ({"nisio": [["max_level", 2]]}, "nisio", 'must be an object, got [["max_level", 2]]'),
        ({"nisio": []}, "nisio", "must be an object, got []"),
        ({"nisio": 5}, "nisio", "must be an object, got 5"),
        ({"initial": [["kind", "constant"], ["value", 1.0]]}, "initial",
         'must be an object, got [["kind", "constant"], ["value", 1.0]]'),
        # an atom list whose points do not all have the coordinate count of b
        ({"family": [{"b": [0, 0], "mu": [{"y": [0.5, 1], "w": 1}, {"y": [0.5], "w": 1}]}]},
         "quadruple field 'mu[1].y'", "must have 2 coordinates, as 'b' has, got [0.5]"),
        ({"family": [{"b": [0], "nu": [{"z": 0.5, "v": 1}, {"z": [0.5, 1], "v": 1}]}]},
         "quadruple field 'nu[1].z'", "must have 1 coordinates, as 'b' has, got [0.5, 1]"),
    ])
    def test_number_fields_refuse_booleans_and_fractions(self, tmp_path, capsys, overrides,
                                                         field, cause):
        # read when a case names it as the family file
        (tmp_path / "bool_family.json").write_text(
            json.dumps([{"b": [0.0], "nu": [{"z": [True], "v": 1.0}]}]))
        (tmp_path / "str_family.json").write_text(
            json.dumps([{"b": [0.0], "nu": [{"z": ["0.5"], "v": 1.0}]}]))
        path = write_config(tmp_path, **overrides)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        # a bare name is a config field; the others name their reader's field
        what = field if "'" in field else f"config field '{field}'"
        assert f"{what} {cause}" in err
        assert not (tmp_path / "out").exists()

    def test_integral_number_is_an_integer(self, tmp_path):
        cfg = RunConfig.from_file(str(write_config(tmp_path, grid={"dim": 1.0, "n": 128.0})))
        assert (cfg.grid_dim, cfg.grid_n) == (1, 128)
        assert type(cfg.grid_n) is int

    def test_unknown_initial_kind_leaves_no_output_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, initial={"kind": "sawtooth", "k": 1})
        assert main(["evolve", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: unknown initial function 'sawtooth'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, overrides", [(["--out", ""], {}),
                                                 ([], {"output_dir": ""})])
    def test_empty_output_dir_refused(self, tmp_path, capsys, argv, overrides):
        path = write_config(tmp_path, **overrides)
        assert main(["evolve", "--config", str(path), "--quiet", *argv]) == 1
        assert capsys.readouterr().err == "error: config field 'output_dir' must not be empty\n"

    @pytest.mark.parametrize("command", ["evolve", "mc"])
    @pytest.mark.parametrize("blocked", ["directory", "file"])
    def test_unwritable_output_is_one_line(self, tmp_path, capsys, command, blocked):
        # a file where the output directory goes, or a directory where the
        # first output file goes
        out = tmp_path / "out"
        if blocked == "directory":
            out.write_text("")
        else:
            (out / "value.csv").mkdir(parents=True)
        path = write_config(tmp_path)
        assert main([command, "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: [Errno ") and err.count("\n") == 1
        assert str(out) in err

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
        lin = member_evolution(table, 0.2, sample(grid, "cosine", k=1))
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

    def test_family_constant_describes_the_evolved_family(self, tmp_path):
        # the small-jump atom at 0.3 snaps to the grid point 2 pi / 16; the
        # constant is that of the family the table evolves
        family = [{"b": [0.0], "sigma": [[0.0]], "nu": [{"z": [0.3], "v": 2.0}]}]
        path = write_config(tmp_path, grid={"dim": 1, "n": 16}, family=family)
        assert main(["evolve", "--config", str(path), "--quiet"]) == 0
        diag = json.loads((tmp_path / "out" / "manifest.json").read_text())["diagnostics"]
        h = 2.0 * math.pi / 16
        assert diag["snap_distance"] == pytest.approx(h - 0.3, abs=1e-15)
        assert diag["family_constant"] == pytest.approx(2.0 * h * h, abs=1e-15)

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

    @pytest.mark.parametrize("command", ["evolve", "oracle", "convergence", "mc"])
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
        # Python's json reads NaN; an inline member's label is echoed, not checked
        path.write_text(write_config(tmp_path, family=[{"sigma": 1.0, "label": "L"}])
                        .read_text().replace('"L"', "NaN"))
        assert main(["evolve", "--config", str(path), "--quiet"]) == 0
        manifest = strict_json(tmp_path / "out" / "manifest.json")
        assert manifest["config"]["family"][0]["label"] is None

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
        # the envelope stage reports its own tolerance as soon as it ends
        assert "nisio.tol" in manifest["violations"][0]["name"]

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

    def test_one_step_completes(self, tmp_path):
        # one RK4 step has no interior snapshot, so no residual; the guard's 1e-8
        # trips on this data at so short a horizon
        cfg = json.loads((CONFIGS / "two_sigma_oracle.json").read_text())
        cfg.update(time=1e-3, nisio={**cfg["nisio"], "monotonicity_tol": 1e-5},
                   output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["oracle", "--config", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        assert (out / "residuals.csv").read_bytes() == b"time,sup_residual\r\n"
        assert (out / "gap_table.csv").exists()
        assert strict_json(out / "manifest.json")["violations"] == []

    @pytest.mark.parametrize("config, field, message", [
        ("two_sigma_oracle", {"oracle": {"dt": 2e-3, "gap_tol": 5e-4}}, "stability limit"),
        ("two_sigma_oracle", {"oracle": {"dt": 3e-4, "gap_tol": 5e-4}}, "integer multiple"),
        ("two_sigma_convergence", {"convergence": {"h_list": [0.1, 0.2]}},
         "strictly decreasing"),
    ])
    def test_refused_before_the_envelope_writes_nothing(self, tmp_path, capsys, config, field,
                                                        message):
        cfg = json.loads((CONFIGS / f"{config}.json").read_text())
        cfg.update(field, output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([config.rsplit("_", 1)[1], "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert not (tmp_path / "out").exists()  # no value.csv, no manifest


    @pytest.mark.parametrize("dt, message", [(3e-4, "integer multiple"),
                                             (0.05, "stability limit")])
    def test_bad_step_refused_before_any_kernel_call(self, tmp_path, capsys, monkeypatch, dt,
                                                     message):
        calls = []
        for name in ("apply", "envelope"):
            def counting(ws, *args, kernel=getattr(SpectralWorkspace, name), **kwargs):
                calls.append(1)
                return kernel(ws, *args, **kwargs)
            monkeypatch.setattr(SpectralWorkspace, name, counting)
        cfg = json.loads((CONFIGS / "two_sigma_oracle.json").read_text())
        cfg.update(oracle={"dt": dt, "gap_tol": 5e-4}, output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["oracle", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_guard_trip_exits_with_the_envelope_message(self, tmp_path, capsys):
        # the default guard trips at level 1 at so short a horizon, with two of
        # the Runge-Kutta stages evaluated in the levels' kernel calls
        cfg = json.loads((CONFIGS / "two_sigma_oracle.json").read_text())
        cfg.update(time=1e-3, output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["oracle", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConsistencyError: dyadic level 1 drops below level 0 by ")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

class TestConvergence:
    def test_bad_h_list_refused_before_any_kernel_call(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("apply", "envelope"):
            def counting(ws, *args, kernel=getattr(SpectralWorkspace, name), **kwargs):
                calls.append(1)
                return kernel(ws, *args, **kwargs)
            monkeypatch.setattr(SpectralWorkspace, name, counting)
        cfg = json.loads((CONFIGS / "two_sigma_convergence.json").read_text())
        cfg.update(convergence={"h_list": [0.1, 0.2]}, output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["convergence", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: h_list must be strictly decreasing\n"
        assert calls == [] and not (tmp_path / "out").exists()

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
                          nisio={"max_level": 6, "tol": 1e-4},
                          output_dir=str(tmp_path / "o1"))
        p2 = write_config(tmp_path, name="b.json",
                          family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                          initial={"kind": "bump", "center": 0.0, "width": math.pi},
                          nisio={"max_level": 6, "tol": 1e-4},
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

    def test_far_start_point_reads_the_reference_where_the_paths_start(self, tmp_path):
        # x0 far outside (-pi, pi]: the paths start from its wrapped point, so
        # the reference must be read there too (the raw point lands elsewhere,
        # and from about 4.5e17 overflows the int64 cell index)
        runs = {}
        for name, x0 in (("far", 1e16), ("wrapped", float(wrap_point(1e16)))):
            path = write_config(tmp_path, name=f"{name}.json",
                                family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                                initial={"kind": "bump", "center": 0.0, "width": math.pi},
                                nisio={"max_level": 6, "tol": 1e-4}, mc={"x0": [x0]},
                                output_dir=str(tmp_path / name))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["mc", "--config", str(path), "--quiet"]) == 0
            assert not caught, [str(w.message) for w in caught]
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            runs[name] = (manifest["diagnostics"]["reference_value"],
                          (tmp_path / name / "estimates.csv").read_bytes())
        assert runs["far"] == runs["wrapped"]

    def test_unconverged_reference_is_a_violation(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                            initial={"kind": "bump", "center": 0.0, "width": math.pi},
                            nisio={"max_level": 2, "tol": 1e-6})
        assert main(["mc", "--config", str(path), "--quiet"]) == 2
        assert (tmp_path / "out" / "estimates.csv").exists()
        manifest = strict_json(tmp_path / "out" / "manifest.json")
        (violation,) = [v for v in manifest["violations"] if "nisio.tol" in v["name"]]
        assert violation["measured"] == manifest["diagnostics"]["increments"][-1] > 1e-6
        assert "nisio.tol" in capsys.readouterr().err

    def test_strategy_files_share_the_run_draws(self, tmp_path):
        mc_config = dict(family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                         initial={"kind": "bump", "center": 0.0, "width": math.pi},
                         nisio={"max_level": 6, "tol": 1e-4}, mc={"extract_level": 3})
        first = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "o1"),
                             **mc_config)
        assert main(["mc", "--config", str(first), "--quiet"]) == 0
        fed = tmp_path / "fed.json"
        fed.write_bytes((tmp_path / "o1" / "extracted_strategy.json").read_bytes())
        grid = make_grid(1, 128)
        coarse = random_strategy(grid, Partition.dyadic(0.2, 2), 2, np.random.default_rng(4))
        save_strategy(tmp_path / "level2.json", coarse)
        second = write_config(tmp_path, name="b.json", output_dir=str(tmp_path / "o2"),
                              **{**mc_config, "mc": {"extract_level": 3, "strategies": [
                                  str(fed), str(tmp_path / "level2.json")]}})
        assert main(["mc", "--config", str(second), "--quiet"]) == 0

        def rows(out):
            lines = (tmp_path / out / "estimates.csv").read_text().splitlines()[1:]
            return {line.split(",")[0]: line.split(",")[1:] for line in lines}

        before, after = rows("o1"), rows("o2")
        assert list(after) == ["extracted", "random-0", "random-1", "fed.json", "level2.json"]
        assert after["fed.json"] == after["extracted"] == before["extracted"]
        alone = estimate(cli.build_family(mc_config["family"], grid), coarse,
                         sample(grid, "bump", center=0.0, width=math.pi), [0.0], 0.2, 200, 7)
        assert after["level2.json"] == [f"{alone.mean:.17g}", f"{alone.stderr:.17g}",
                                        "200", "7", "1"]

    @pytest.mark.parametrize("strategy,cause", [
        ({"partition": [0.0, math.nan], "feedback": [[0] * 128]}, "finite"),
        ({"partition": [0.0, 0.2], "feedback": [[2.5] + [0] * 127]}, "integers"),
        ({"partition": [0.0, 0.2], "feedback": [["1"] + [0] * 127]}, "integers"),
        ({"partition": [0.0, 0.2], "feedback": [[True] + [0] * 127]},
         "strategy field 'feedback' must be a number, got true"),
        # [0, 1] would end past the horizon 0.2 instead
        ({"partition": [0, True], "feedback": [[0] * 128]},
         "strategy field 'partition' must be a number, got true"),
        ({"partition": [0.0, "0.2"], "feedback": [[0] * 128]},
         'strategy field \'partition\' must be a number, got "0.2"'),
    ])
    def test_bad_strategy_file_is_one_line(self, tmp_path, capsys, strategy, cause):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(strategy))
        path = write_config(tmp_path, mc={"strategies": [str(bad)]})
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and cause in err, err

    @pytest.mark.parametrize("strategy, message", [
        ({"partition": [0.0, 0.1], "feedback": [[0] * 128]},
         "strategy partition ends at 0.1, horizon is 0.2"),
        ({"partition": [0.0, 0.2], "feedback": [[5] + [0] * 127]},
         "feedback selects member 5, family has 2"),
    ])
    def test_strategy_file_checked_before_the_envelope(self, tmp_path, capsys, strategy,
                                                       message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(strategy))
        path = write_config(tmp_path, family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                            mc={"strategies": [str(bad)]})
        assert main(["mc", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert not (tmp_path / "out").exists()  # no value.csv, no manifest

    def test_simulates_the_family_the_envelope_evolves(self, tmp_path):
        # the large-jump atom at 0.3 snaps to 2 * (2 pi / 32) = 0.393 and the one
        # at -0.7 to -0.785; the paths must jump by what the envelope evolves
        family = [{"b": [0.0], "sigma": [[0.0]], "mu": [{"y": [0.3], "w": 3.0}]},
                  {"b": [0.0], "sigma": [[0.0]], "mu": [{"y": [-0.7], "w": 2.0}]}]
        initial = {"kind": "bump", "center": 0.0, "width": math.pi}
        path = write_config(tmp_path, grid={"dim": 1, "n": 32}, family=family,
                            initial=initial, nisio={"max_level": 8, "tol": 1e-4})
        assert main(["mc", "--config", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        grid = make_grid(1, 32)
        table = SymbolTable.build(family_from_json(family), grid)
        assert table.snap_distance == pytest.approx(4 * math.pi / 32 - 0.3, abs=1e-15)
        f = sample(grid, "bump", center=0.0, width=math.pi)
        extracted = load_strategy(out / "extracted_strategy.json", grid)
        rng = np.random.default_rng(7)
        strategies = [("extracted", extracted)] + [
            (f"random-{i}", random_strategy(grid, extracted.partition, 2, rng)) for i in range(2)]
        reference = read_function_csv(out / "value.csv").value_at((16,))  # x0 = 0

        def estimates(fam, name):
            report = dual_bound_suite(fam, f, [0.0], 0.2, strategies, 200, 7, reference, 1e-2)
            write_estimates_csv(tmp_path / name, report)
            return (tmp_path / name).read_bytes()

        written = (out / "estimates.csv").read_bytes()
        assert written == estimates(table.family, "snapped.csv")
        assert written != estimates(family_from_json(family), "raw.csv")

    def test_seed_override_changes_estimates(self, tmp_path):
        p = write_config(tmp_path,
                         family={"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
                         initial={"kind": "bump", "center": 0.0, "width": math.pi},
                         nisio={"max_level": 6, "tol": 1e-4})
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


def comparable(path):
    """An output file without what may differ between two runs of one config."""
    if path.name == "convergence.csv":  # elapsed_ms, the last column, is a timing
        return [row.rsplit(b",", 1)[0] for row in path.read_bytes().split(b"\r\n")]
    if path.name == "manifest.json":
        manifest = strict_json(path)
        del manifest["timings_ms"], manifest["config"]["output_dir"]
        return manifest
    return path.read_bytes()


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_passes(tmp_path, config):
    """Each shipped config passes, and a second run writes the same outputs."""
    command = config.stem.rsplit("_", 1)[1]
    assert command in cli.COMMANDS
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert strict_json(first / "manifest.json")["violations"] == []
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert comparable(first / name) == comparable(second / name), name



# (kernel calls, row-steps) of every envelope call of one run of each shipped
# config: the lockstep levels, the maximizer pass, the generator quotients in
# a lockstep of their own, and in oracle the Runge-Kutta stages, riding in the
# levels' calls
SHIPPED_KERNEL_CALLS = {
    "cauchy_evolve": (2, 16),
    "two_sigma_convergence": (2113, 4004),
    "two_sigma_evolve": (32, 95),
    "two_sigma_mc": (1040, 2583),
    "two_sigma_oracle": (1024, 3367),
}


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_kernel_calls_of_every_shipped_config(tmp_path, monkeypatch, config):
    rows = []
    envelope = SpectralWorkspace.envelope

    def counting(ws, mults, values, out=None, argmax=None):
        rows.append(values.shape[0] if values.ndim > ws.grid.dim else 1)
        return envelope(ws, mults, values, out=out, argmax=argmax)

    monkeypatch.setattr(SpectralWorkspace, "envelope", counting)
    command = config.stem.rsplit("_", 1)[1]
    assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert (len(rows), sum(rows)) == SHIPPED_KERNEL_CALLS[config.stem]

def test_benchmark_traced_writers_exist():
    """The benchmark wraps these writers by name on sublevy.cli to time CSV output."""
    for name in ("write_function_csv", "write_convergence_csv", "write_trajectory_csv",
                 "write_residual_csv", "write_estimates_csv", "save_strategy",
                 "write_argmax_csv"):
        assert callable(getattr(cli, name, None)), name
