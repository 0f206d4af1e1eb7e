"""Property tests of the documented exit-code contract of `fnls simulate`,
`fnls profile` and `fnls convergence`: every input, valid or not, ends in
0 (success), 2 (rejected configuration) or 3 (numerical failure), never in
a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fnls.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

# Values of the wrong JSON type for any key.
WRONG_TYPES = st.sampled_from([None, True, "1", [], {}])
small_floats = st.floats(-2.0, 2.0)
MISSING = object()      # a bad key may also be left out

VALID_INITIAL = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("soliton"), "lambda1": st.floats(0.05, 2.0)},
        optional={"lambda2": small_floats, "x0": small_floats, "theta0": small_floats},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("petviashvili"), "lambda1": st.floats(0.05, 2.0)},
        optional={"lambda2": small_floats, "tol": st.sampled_from([1e-10, 1e-6])},
    ),
)
BAD_INITIAL = st.one_of(
    WRONG_TYPES,
    st.fixed_dictionaries({"kind": st.sampled_from(["soliton", "petviashvili"]),
                           "lambda1": st.floats(-1.0, 0.0)},
                          optional={"tol": st.sampled_from([0.0, -1.0])}),
    st.fixed_dictionaries({"kind": st.sampled_from(["profile_file", "orbit"]),
                           "path": st.just("missing.bin")}),
    st.fixed_dictionaries({"kind": st.just("soliton")}),
)

# key: (valid values, invalid values); "steps" stands for T / dt
KEYS = {
    "L": (st.floats(0.5, 60.0), st.sampled_from([0.0, -1.0])),
    "N": (st.sampled_from([4, 8, 16, 32, 48, 64]), st.sampled_from([0, 2, 3, 63, -4, 8.0])),
    "s": (st.floats(0.3, 1.0), st.sampled_from([0.0, 1.5, -1.0])),
    "dt": (st.sampled_from([0.01, 0.02, 0.05, 0.1]), st.sampled_from([0.0, -0.1, 0.3])),
    "steps": (st.integers(1, 20), st.sampled_from([0, -1])),
    "scheme_p": (st.integers(1, 2), st.sampled_from([0, -1, 7, 1.0])),
    "initial": (VALID_INITIAL, BAD_INITIAL),
    "fp_tol": (st.sampled_from([1e-13, 1e-10, 1e-6]), st.sampled_from([0.0, -1.0])),
    "fp_max_iters": (st.integers(1, 60), st.sampled_from([0, -3])),
    "dealias": (st.booleans(), st.sampled_from([0, 1])),
    "invariant_stride": (st.integers(1, 5), st.sampled_from([0, -1])),
    "snapshot_stride": (st.integers(1, 10), st.sampled_from([0, -1])),
}
REQUIRED = ("L", "N", "s", "dt", "steps", "scheme_p", "initial")


@st.composite
def configs(draw):
    """Small configs (N <= 64, p <= 2, T/dt <= 20), each key valid unless
    drawn into the bad set; a bad key is out of range, of the wrong type
    or missing."""
    bad = draw(st.sets(st.sampled_from(sorted(KEYS)), max_size=2))
    values = {}
    for key, (valid, invalid) in KEYS.items():
        if key not in REQUIRED and key not in bad and not draw(st.booleans()):
            continue
        if key in bad:
            value = draw(st.one_of(invalid, WRONG_TYPES, st.just(MISSING)))
            if value is MISSING:
                continue
        else:
            value = draw(valid)
        values[key] = value
    steps = values.pop("steps", 1)
    dt = values.get("dt", 0.1)
    if isinstance(steps, int) and isinstance(dt, float):
        values["T"] = steps * dt
    return values


def check_contract(command: str, config: dict) -> None:
    """Run command on config; a rejected config leaves no output directory,
    since configs() never draws a bad output path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--output", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert code != EXIT_CONFIG or not out.exists()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
def test_simulate_exit_code_contract(config):
    check_contract("simulate", config)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
def test_profile_exit_code_contract(config):
    check_contract("profile", config)


# A small valid soliton run; the --dt lists below vary around its T.
CONVERGENCE_CONFIG = {
    "L": 8 * math.pi, "N": 32, "s": 1.0, "dt": 0.1, "T": 0.2, "scheme_p": 2,
    "initial": {"kind": "soliton", "lambda1": 1.0, "lambda2": 0.25},
}
DIVIDING_DTS = (0.2, 0.1, 0.05, 0.025)
BAD_DTS = (0.0, -0.0, -0.1, 0.3, 0.15, math.inf, -math.inf, math.nan, -1e-05)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dts=st.lists(st.sampled_from(DIVIDING_DTS + BAD_DTS), min_size=1, max_size=3))
@example(dts=[0.0])
@example(dts=[0.1, -math.inf])     # argparse by itself reads -inf and -1e-05
@example(dts=[-1e-05])             # as options
def test_convergence_exit_code_contract(dts):
    with mock.patch.dict(os.environ, {"FNLS_THREADS": "1"}), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(CONVERGENCE_CONFIG))
        argv = ["convergence", "--config", str(path), "--output", str(Path(tmp) / "out"),
                "--dt", *map(repr, dts)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        out_exists = (Path(tmp) / "out").exists()
    dividing = all(dt in DIVIDING_DTS for dt in dts)
    assert code == (EXIT_OK if dividing else EXIT_CONFIG)
    if not dividing:
        assert "error:" in err.getvalue()
        assert "dt" in err.getvalue()
        assert not out_exists       # a rejected table writes nothing
