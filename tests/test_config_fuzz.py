"""Random configs through the CLI: every run ends in exit 0, 1 or 2, never a traceback.

Random JSON values (and near-valid structures, so that validation deeper than
the first type check is reached) are fed as the family, initial, time, nisio
and oracle fields of an ``evolve`` or ``oracle`` config on grids with n <= 32.
Every manifest written must be strict JSON (no NaN or Infinity).
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sublevy.cli import main  # noqa: E402

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
        ],
        "time": [0.2],
        "nisio": [{"max_level": 4, "tol": 1e-6, "monotonicity_tol": 1e-8}],
        "oracle": [{"dt": 1e-3, "tail_tol": 1e-10, "gap_tol": 5e-4}],
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
    cfg = {"grid": {"dim": dim, "n": draw(st.sampled_from([4, 8, 16, 32]))},
           "mc": {"x0": [0.0] * dim}}
    for name, choices in valid_fields(dim).items():
        cfg[name] = copy.deepcopy(draw(st.sampled_from(choices)))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(["family", "initial", "time", "nisio", "oracle"]))
        cfg[name] = mutate(draw, cfg[name])
    if isinstance(cfg["nisio"], dict):
        # keep every example to at most 2^6 envelope steps per level
        cfg["nisio"]["max_level"] = draw(
            st.integers(0, 6) | st.integers(1, 6)
            | st.sampled_from([-1, 21, "x", "3", 2.5, None, [], 10**400, 1e300]))
    return cfg


def _refuse(name):
    raise ValueError(f"manifest holds the non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), command=st.sampled_from(["evolve", "oracle"]))
def test_random_config_ends_in_a_known_exit(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
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
