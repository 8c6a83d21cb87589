"""Random configs through the CLI: every run ends in exit 0, 1 or 2, never a traceback.

Random JSON values (and near-valid structures, so that validation deeper than
the first type check is reached) are fed as the family, initial, time, nisio,
oracle, convergence and mc fields of an ``evolve``, ``oracle``, ``convergence``
or ``mc`` config on grids with n <= 32, and as the strategy file an ``mc``
config may name.  Every manifest written must be strict JSON (no NaN or
Infinity).
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sublevy.cli import BUILTINS, RunConfig, main  # noqa: E402
from sublevy.nisio import Partition  # noqa: E402

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([10**400, -(10**30)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-4.0, max_value=4.0),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def valid_fields(dim: int) -> dict:
    """Choices for each fuzzed field that the CLI accepts on a dim-d grid."""
    zero = [0.0] * dim
    families = [
        {"builtin": "single_sigma", "sigma": 1.0},
        {"builtin": "two_sigma", "sigmas": [0.5, 1.0]},
        {"builtin": "drift", "b": 0.5},
        [{"b": zero, "sigma": [[0.5 if i == j else 0.0 for j in range(dim)]
                               for i in range(dim)],
          "mu": [{"y": [0.5] * dim, "w": 1.0}], "nu": [{"z": [-0.8] * dim, "v": 2.0}],
          "label": "mixed"}],
    ]
    if dim == 1:
        families += [{"builtin": "half_turn_jump", "rate": 1.0},
                     {"builtin": "wrapped_cauchy", "gammas": [0.5], "rate": 1.0, "scale": 2.0}]
    return {
        "family": families,
        "initial": [
            {"kind": "cosine", "k": [1] * dim, "phase": 0.3},
            {"kind": "bump", "center": zero, "width": 1.5},
            {"kind": "constant", "value": 0.5},
            # spectral sums overflow on every grid: the table's door refuses it
            {"kind": "constant", "value": 1e308},
        ],
        "time": [0.2],
        "nisio": [{"max_level": 4, "tol": 1e-6, "monotonicity_tol": 1e-8}],
        "oracle": [{"dt": 1e-3, "gap_tol": 5e-4}],
        "convergence": [{"h_list": [0.1, 0.05]}],
        "mc": [{"n_paths": 100, "seed": 3, "extract_level": 2, "random_strategies": 2,
                "scheme_tol": 1e-2, "x0": zero, "strategies": []}],
    }


def mutate(draw, value):
    """Replace one entry somewhere inside value (or value itself) by random JSON."""
    if isinstance(value, dict) and draw(st.integers(0, 4)) == 0:
        value[draw(st.text(max_size=4))] = draw(json_values)  # an unexpected key
        return value
    keys = list(value) if isinstance(value, dict) else (
        list(range(len(value))) if isinstance(value, list) else [])
    if not keys or draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    key = draw(st.sampled_from(keys))
    value[key] = mutate(draw, value[key])
    return value


@st.composite
def configs(draw):
    dim = draw(st.sampled_from([1, 2]))
    fields = valid_fields(dim)
    cfg = {"grid": {"dim": dim, "n": draw(st.sampled_from([4, 8, 16, 32]))}}
    for name, choices in fields.items():
        cfg[name] = copy.deepcopy(draw(st.sampled_from(choices)))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(fields)))
        cfg[name] = mutate(draw, cfg[name])
    bad = [-1, 21, "x", "3", 2.5, None, [], 10**400, 1e300]
    if isinstance(cfg["nisio"], dict):
        # keep every example to at most 2^6 envelope steps per level
        cfg["nisio"]["max_level"] = draw(
            st.integers(0, 6) | st.integers(1, 6) | st.sampled_from(bad))
    if isinstance(cfg["mc"], dict):
        # at most 2^4 steps and four strategies, 100 paths unless mutated; the draw
        # budget must refuse 2^20 steps and 10**400 strategies
        cfg["mc"].setdefault("n_paths", 100)
        cfg["mc"]["extract_level"] = draw(
            st.integers(0, 4) | st.integers(1, 4) | st.sampled_from([20, *bad]))
        cfg["mc"]["random_strategies"] = draw(
            st.integers(0, 3) | st.integers(1, 3) | st.sampled_from(bad))
    conv = cfg["convergence"]
    if isinstance(conv, dict) and isinstance(conv.get("h_list"), list):
        # S(h) runs at dyadic level ceil(log2(1/h)) + 4: keep it at most 11, and
        # put an h below 2^-16 (refused) where a smaller h would run
        conv["h_list"] = [2.0**-17 if isinstance(h, float) and 2.0**-16 <= h < 2.0**-7
                          else h for h in conv["h_list"]]
    strategy = None
    if isinstance(cfg["mc"], dict) and draw(st.booleans()):
        # one strategy file, valid before mutation: the config's dyadic partition
        # with zero feedback
        level, t = cfg["mc"]["extract_level"], cfg["time"]
        level = level if isinstance(level, int) and 0 <= level <= 4 else 2
        t = t if isinstance(t, float) and math.isfinite(t) and t > 0 else 0.2
        strategy = {"partition": Partition.dyadic(t, level).times.tolist(),
                    "feedback": [[0] * cfg["grid"]["n"] ** dim for _ in range(2**level)]}
        for _ in range(draw(st.integers(0, 2))):
            strategy = mutate(draw, strategy)
        cfg["mc"]["strategies"] = ["strategy.json"]
    return cfg, strategy


def _refuse(name):
    raise ValueError(f"manifest holds the non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=configs(), command=st.sampled_from(["evolve", "oracle", "convergence", "mc"]))
def test_random_config_ends_in_a_known_exit(case, command):
    cfg, strategy = case
    with tempfile.TemporaryDirectory() as tmp:
        if strategy is not None:
            with open(os.path.join(tmp, "strategy.json"), "w") as fh:
                json.dump(strategy, fh)
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump({**cfg, "output_dir": os.path.join(tmp, "out")}, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--quiet"])
        if code in (0, 2):
            with open(os.path.join(tmp, "out", "manifest.json")) as fh:
                json.load(fh, parse_constant=_refuse)
    text = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    assert not caught, [str(w.message) for w in caught]
    if code == 1:
        assert text.count("\n") == 1 and text.endswith("\n"), text


@pytest.mark.parametrize("dim", [1, 2])
def test_valid_fields_set_every_table_key(dim):
    # a new config row or builtin parameter must be added to valid_fields too;
    # configs() sets grid itself, and the test body sets output_dir
    fields = valid_fields(dim)
    keys = {f.metadata["key"] for f in dataclasses.fields(RunConfig)}
    sections = {key.split(".")[0] for key in keys if "." in key}
    fuzzed = {name for name in fields if name not in sections}
    fuzzed |= {f"{name}.{key}" for name in sections & fields.keys()
               for choice in fields[name] for key in choice}
    assert keys - fuzzed == {"grid.dim", "grid.n", "output_dir"}
    assert fuzzed <= keys
    builtins = {}
    for family in valid_fields(1)["family"]:
        if isinstance(family, dict):
            builtins.setdefault(family["builtin"], set()).update(set(family) - {"builtin"})
    assert builtins == {name: set(params) for name, (params, _) in BUILTINS.items()}
