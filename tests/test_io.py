import json
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fnls import (
    Field,
    ModelParams,
    ParameterError,
    PetviashviliInitial,
    ProfileFileInitial,
    RunConfig,
    SolitonInitial,
    SolitonParams,
    SpectralGrid,
    evolve,
    load_config,
    read_snapshot,
    write_snapshot,
    yoshida_coefficients,
    SolverParams,
)
from fnls.io import SnapshotWriter, format_float, write_csv
from fnls.harness import ConvergenceRow, ErrorPoint, TrackRecord
from fnls.model import InvariantRecord
from conftest import smooth_random_field

GOOD_CONFIG = {
    "L": 50.26548245743669,
    "N": 512,
    "s": 1.0,
    "dt": 0.025,
    "T": 10.0,
    "scheme_p": 2,
    "initial": {"kind": "soliton", "lambda1": 1.0, "lambda2": 0.25},
}


def write_config(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_load_config_round_trip(tmp_path):
    config = load_config(write_config(tmp_path, GOOD_CONFIG))
    assert config.L == GOOD_CONFIG["L"]
    assert config.N == 512
    assert config.dt == 0.025
    assert config.scheme_p == 2
    assert config.initial == SolitonInitial(lambda1=1.0, lambda2=0.25)
    assert config.fp_tol == 1e-13          # defaults
    assert config.snapshot_stride == 100
    # each default has one home, the dataclass: a minimal file's config is
    # the one built from the same required values
    minimal = {**GOOD_CONFIG, "initial": {"kind": "soliton", "lambda1": 1.0}}
    required = {key: value for key, value in minimal.items() if key != "initial"}
    assert load_config(write_config(tmp_path, minimal)) == RunConfig(
        **required, initial=SolitonInitial(lambda1=1.0))
    for kind, spec_type in (("soliton", SolitonInitial),
                            ("petviashvili", PetviashviliInitial)):
        data = {**GOOD_CONFIG, "initial": {"kind": kind, "lambda1": 1.0}}
        assert load_config(write_config(tmp_path, data)).initial == spec_type(lambda1=1.0)


def test_load_config_optional_fields(tmp_path):
    data = {**GOOD_CONFIG, "fp_tol": 1e-11, "invariant_stride": 10}
    config = load_config(write_config(tmp_path, data))
    assert config.fp_tol == 1e-11
    assert config.invariant_stride == 10


def test_load_config_initial_kinds(tmp_path):
    data = {**GOOD_CONFIG, "s": 0.75,
            "initial": {"kind": "petviashvili", "lambda1": 1.0, "tol": 1e-11}}
    config = load_config(write_config(tmp_path, data))
    assert config.initial == PetviashviliInitial(lambda1=1.0, lambda2=0.0, tol=1e-11)

    data = {**GOOD_CONFIG, "initial": {"kind": "profile_file", "path": "p.bin"}}
    config = load_config(write_config(tmp_path, data))
    assert config.initial == ProfileFileInitial(path=Path("p.bin"))

    # each spec's fields are its kind's keys: a file can set every one
    for initial, spec in (
            ({"kind": "soliton", "lambda1": 1.0, "lambda2": 0.25, "x0": -3.0, "theta0": 0.5},
             SolitonInitial(lambda1=1.0, lambda2=0.25, x0=-3.0, theta0=0.5)),
            ({"kind": "petviashvili", "lambda1": 2.0, "lambda2": 0.5, "tol": 1e-9},
             PetviashviliInitial(lambda1=2.0, lambda2=0.5, tol=1e-9)),
            ({"kind": "profile_file", "path": "data/profile.bin"},
             ProfileFileInitial(path=Path("data/profile.bin")))):
        data = {**GOOD_CONFIG, "s": 0.75, "initial": initial}
        assert load_config(write_config(tmp_path, data)).initial == spec


# Every message starts with the key it names: "<needle>:" for a bare key,
# else the prefix given here.
ERROR_PREFIXES = {
    "mystery": r"config: unknown key\(s\) \['mystery'\]",
    "dealias": r"config: unknown key\(s\) \['dealias'\]",
    "output_dir": r"config: unknown key\(s\) \['output_dir'\]",
    "hue": r"initial: unknown key\(s\) \['hue'\]",
    "kind": r"initial\.kind:",
    "lambda": r"initial\.lambda1: must exceed lambda2\^2/4 = 0\.25, got 0\.2$",
}


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("N"), "N"),
    (lambda d: d.pop("initial"), "initial"),
    pytest.param(lambda d: d.update(initial=3), "initial", id="initial-not-object"),
    (lambda d: d.update(N=513), "N"),
    (lambda d: d.update(N=True), "N"),
    (lambda d: d.update(N=8.0), "N"),
    (lambda d: d.update(L="wide"), "L"),
    pytest.param(lambda d: d.update(L=0), "L", id="L=0"),
    (lambda d: d.update(T=0), "T"),
    (lambda d: d.update(dt=0.0), "dt"),
    (lambda d: d.update(dt=0.3), "dt"),
    (lambda d: d.update(s=1.5), "s"),
    pytest.param(lambda d: d.update(s=0.5, initial={"kind": "petviashvili",
                                                    "lambda1": 1.0}),
                 "s", id="petviashvili-s=0.5"),
    (lambda d: d.update(scheme_p=0), "scheme_p"),
    (lambda d: d.update(fp_tol=-1e-13), "fp_tol"),
    (lambda d: d.update(fp_max_iters=0), "fp_max_iters"),
    (lambda d: d.update(invariant_stride=0), "invariant_stride"),
    (lambda d: d.update(snapshot_stride=0), "snapshot_stride"),
    # the 2/3-rule switch is gone; a file that still sets it, even to its
    # old default, is rejected rather than run as plain collocation
    (lambda d: d.update(dealias=False), "dealias"),
    pytest.param(lambda d: d.update(dealias=True), "dealias", id="dealias=true"),
    # the output directory is the CLI's --output alone; the key is gone
    (lambda d: d.update(output_dir="out"), "output_dir"),
    (lambda d: d.update(mystery=1), "mystery"),
    (lambda d: d.update(initial={"kind": "soliton", "lambda1": 1.0, "hue": 2}), "hue"),
    (lambda d: d.update(initial={"kind": "vortex"}), "kind"),
    (lambda d: d.update(initial={"kind": "soliton", "lambda1": 0.2, "lambda2": 1.0}),
     "lambda"),
    (lambda d: d.update(initial={"kind": "petviashvili", "lambda1": 1.0, "tol": 0}),
     "initial.tol"),
    pytest.param(lambda d: d.update(initial={"kind": "petviashvili", "lambda1": math.nan}),
                 "initial.lambda1", id="petviashvili-lambda1=nan"),
    # the iteration starts from the s = 1 soliton, so its width is checked here
    pytest.param(lambda d: d.update(initial={"kind": "petviashvili", "lambda1": 0.2,
                                             "lambda2": 1.0}),
                 "initial.lambda1", id="petviashvili-start-width"),
])
def test_load_config_errors_name_the_field(tmp_path, mutate, needle):
    data = json.loads(json.dumps(GOOD_CONFIG))
    mutate(data)
    prefix = ERROR_PREFIXES.get(needle, re.escape(needle) + ":")
    with pytest.raises(ParameterError, match="^" + prefix):
        load_config(write_config(tmp_path, data))


@pytest.mark.parametrize("field,value,needle", [
    ("N", 64.0, "N"),
    ("N", True, "N"),
    ("scheme_p", 2.0, "scheme_p"),
    ("fp_max_iters", 2.5, "fp_max_iters"),
    ("invariant_stride", 2.5, "invariant_stride"),
    ("snapshot_stride", "10", "snapshot_stride"),
])
def test_validate_rejects_mistyped_counts_and_flags(field, value, needle):
    # configs built in Python skip the JSON parser; construction checks
    # the types that the parser would have, before any later use of the value
    config = RunConfig(L=np.pi, N=64, s=0.75, dt=1e-2, T=0.1, scheme_p=2,
                       initial=SolitonInitial(lambda1=1.0))
    with pytest.raises(ParameterError, match="^" + needle + ": expected a"):
        replace(config, **{field: value})


def test_validate_accepts_numpy_integers_and_booleans():
    RunConfig(L=np.pi, N=np.int64(64), s=0.75, dt=1e-2, T=0.1,
              scheme_p=np.int32(2), initial=SolitonInitial(lambda1=1.0),
              fp_max_iters=np.int64(50))


def test_validate_rejects_unaddressable_numpy_N():
    # a numpy integer must not wrap around in the 16 N byte count
    with pytest.raises(ParameterError, match="^N: .* addressable memory"):
        RunConfig(L=np.pi, N=np.int64(2**62), s=0.75, dt=1e-2, T=0.1,
                  scheme_p=2, initial=SolitonInitial(lambda1=1.0))


@pytest.mark.parametrize("build,field,value", [
    (lambda v: SpectralGrid(v, np.pi), "N", 3),
    (lambda v: SpectralGrid(64, v), "L", math.inf),
    (lambda v: ModelParams(s=v), "s", 1.5),
    (lambda v: SolverParams(1e-2, fp_tol=v), "fp_tol", math.inf),
    (lambda v: SolverParams(1e-2, fp_max_iters=v), "fp_max_iters", 2.5),
], ids=["N", "L", "s", "fp_tol", "fp_max_iters"])
def test_component_and_config_give_one_message(build, field, value):
    # each fact has one check: the component that takes a value and the
    # RunConfig field that feeds it reject the same bad value in one wording
    config = RunConfig(L=np.pi, N=64, s=0.75, dt=1e-2, T=0.1, scheme_p=2,
                       initial=SolitonInitial(lambda1=1.0))
    with pytest.raises(ParameterError) as component:
        build(value)
    with pytest.raises(ParameterError) as from_config:
        replace(config, **{field: value})
    assert str(component.value) == str(from_config.value)
    assert str(component.value).startswith(f"{field}: ")


@pytest.mark.parametrize("value", [2.5, 50.0, True, "50"])
def test_solver_params_rejects_non_integer_iteration_cap(value):
    with pytest.raises(ParameterError, match="fp_max_iters"):
        SolverParams(k=1e-2, fp_max_iters=value)


def test_soliton_initial_is_validated_at_construction():
    assert SolitonInitial is SolitonParams
    with pytest.raises(ParameterError, match=r"^lambda1: must exceed lambda2\^2/4 = 0\.25, "
                                             r"got 0\.2$"):
        SolitonInitial(0.2, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: SolitonInitial(math.inf), "lambda1: must be finite, got inf"),
    (lambda: SolitonInitial(1.0, x0=math.inf), "x0: must be finite, got inf"),
    (lambda: SolitonInitial(1.0, x0=math.nan), "x0: must be finite, got nan"),
    (lambda: SolitonInitial(1.0, theta0=math.nan), "theta0: must be finite, got nan"),
    (lambda: PetviashviliInitial(math.inf), "lambda1: must be finite, got inf"),
    (lambda: PetviashviliInitial(1.0, math.nan), "lambda2: must be finite, got nan"),
    (lambda: PetviashviliInitial(1.0, tol=0.0), "tol: must be positive and finite, got 0.0"),
    (lambda: PetviashviliInitial(0.2, 1.0), "lambda1: must exceed lambda2^2/4 = 0.25, got 0.2"),
    (lambda: RunConfig(L=np.pi, N=64, s=0.75, dt=1e-2, T=0.1, scheme_p=2,
                       initial="bogus"), "initial: unsupported kind str"),
], ids=["soliton-lambda1", "soliton-x0-inf", "soliton-x0-nan", "soliton-theta0",
        "petviashvili-lambda1", "petviashvili-lambda2", "petviashvili-tol",
        "petviashvili-start-width",
        "initial-kind"])
def test_initial_data_is_validated_at_construction(build, message):
    # a config built in Python is a bad configuration, not a failed run
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == message


def test_run_config_problem():
    config = RunConfig(L=np.pi, N=64, s=0.75, dt=1e-2, T=0.1, scheme_p=2,
                       initial=SolitonInitial(lambda1=1.0), fp_tol=1e-11,
                       fp_max_iters=50)
    scheme, sp, mp = config.problem()
    assert scheme == yoshida_coefficients(2)
    assert sp == SolverParams(k=1e-2, fp_tol=1e-11, fp_max_iters=50)
    assert mp == ModelParams(s=0.75)
    assert config.problem(dt=5e-3)[1] == SolverParams(k=5e-3, fp_tol=1e-11,
                                                      fp_max_iters=50)


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ParameterError, match="JSON"):
        load_config(path)
    with pytest.raises(ParameterError):
        load_config(tmp_path / "missing.json")
    path.write_text("[1, 2]")
    with pytest.raises(ParameterError):
        load_config(path)
    path.write_bytes(b'\xff\xfe{"N": 64}')    # not UTF-8
    with pytest.raises(ParameterError, match="^config: cannot read"):
        load_config(path)
    with pytest.raises(ParameterError, match="^config: cannot read"):
        load_config(tmp_path / "a\0b")


def test_run_config_replace_rechecks_fields():
    # dataclasses.replace re-runs the construction checks on every field
    config = RunConfig(L=np.pi, N=64, s=1.0, dt=1e-2, T=0.1, scheme_p=1,
                       initial=SolitonInitial(lambda1=1.0))
    replaced = replace(config, snapshot_stride=5)
    assert replaced.snapshot_stride == 5
    assert replaced.dt == config.dt
    assert config.snapshot_stride == 100
    with pytest.raises(ParameterError, match="^dt:"):
        replace(config, dt=0.3)


def test_snapshot_round_trip_bit_exact(tmp_path, small_grid):
    u = smooth_random_field(small_grid, seed=91)
    path = tmp_path / "field.bin"
    write_snapshot(path, u, s=0.75, t=1.25)
    snap = read_snapshot(path)
    assert snap.s == 0.75 and snap.t == 1.25
    assert snap.field.grid == small_grid
    np.testing.assert_array_equal(snap.field.values, u.values)


def test_snapshot_rejects_corruption(tmp_path, small_grid):
    u = smooth_random_field(small_grid, seed=93)
    path = tmp_path / "field.bin"
    write_snapshot(path, u, s=1.0, t=0.0)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXX" + blob[5:])
    with pytest.raises(ParameterError, match="FNLS1"):
        read_snapshot(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[:20])
    with pytest.raises(ParameterError):
        read_snapshot(truncated)

    padded = tmp_path / "long.bin"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(ParameterError, match="bytes"):
        read_snapshot(padded)

    with pytest.raises(ParameterError, match="^snapshot: cannot read"):
        read_snapshot(tmp_path / "a\0b")

    # a header the grid rejects is the snapshot's fault, not the config's
    for N, L, name in ((3, small_grid.L, "N"), (small_grid.N, math.nan, "L")):
        bad_header = tmp_path / "header.bin"
        bad_header.write_bytes(blob[:5] + struct.pack("<Iddd", N, L, 1.0, 0.0)
                               + bytes(16 * N))
        with pytest.raises(ParameterError, match=f"^snapshot: .*header.bin: {name}: "):
            read_snapshot(bad_header)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, 1.0)], ids=["nan", "inf", "-inf"])
def test_snapshot_rejects_non_finite_values(tmp_path, small_grid, bad):
    # a field no run could have written is bad initial data, not a run to
    # fail at its first stage
    values = smooth_random_field(small_grid, seed=95).values.copy()
    values[7] = bad
    path = tmp_path / "field.bin"
    write_snapshot(path, Field(values, small_grid), s=1.0, t=0.0)
    with pytest.raises(ParameterError,
                       match=f"^snapshot: {re.escape(str(path))} holds non-finite values$"):
        read_snapshot(path)


def test_snapshot_writer_observer(tmp_path, small_grid):
    mp = ModelParams(s=1.0)
    u = smooth_random_field(small_grid, seed=97, amplitude=0.5)
    writer = SnapshotWriter(tmp_path, s=1.0, stride=5)
    evolve(u, 0.2, yoshida_coefficients(1), SolverParams(k=1e-2), mp,
           observers=(writer,))
    names = [p.name for p in writer.paths]
    assert names == [f"snapshot_{n:08d}.bin" for n in (0, 5, 10, 15, 20)]
    for n, path in zip((0, 5, 10, 15, 20), writer.paths):
        snap = read_snapshot(path)
        assert snap.t == pytest.approx(n * 1e-2, rel=1e-15)


def test_format_float_round_trips():
    values = [0.1, 1.1621e-4, math.pi, -2.0 ** -1074, 3.0, 1e308]
    for x in values:
        assert float(format_float(x)) == x


def test_invariants_csv(tmp_path):
    path = tmp_path / "invariants.csv"
    records = [InvariantRecord(t=0.0, I1=2.0, I2=-0.25, H=1.0 / 3.0),
               InvariantRecord(t=0.1, I1=2.0 + 1e-16, I2=-0.25, H=1.0 / 3.0)]
    write_csv(path, InvariantRecord, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,I1,I2,H"
    assert len(lines) == 3
    parsed = [float(v) for v in lines[2].split(",")]
    assert parsed == [0.1, 2.0 + 1e-16, -0.25, 1.0 / 3.0]


def test_tracking_csv_none_becomes_empty(tmp_path):
    path = tmp_path / "tracking.csv"
    records = [TrackRecord(t=0.0, amplitude=1.4, peak_x=0.0, speed=None),
               TrackRecord(t=0.5, amplitude=1.4, peak_x=0.125, speed=0.25)]
    write_csv(path, TrackRecord, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,amplitude,peak_x,speed"
    assert lines[1].endswith(",")
    assert lines[1].split(",")[3] == ""
    assert float(lines[2].split(",")[3]) == 0.25


def test_convergence_csv(tmp_path):
    path = tmp_path / "convergence.csv"
    rows = [ConvergenceRow(dt=2.5e-2, err_v=1.2e-5, rate_v=None, err_w=2.4e-5, rate_w=None),
            ConvergenceRow(dt=1.25e-2, err_v=7.5e-7, rate_v=4.0, err_w=1.5e-6, rate_w=4.0)]
    write_csv(path, ConvergenceRow, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "dt,err_v,rate_v,err_w,rate_w"
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == ""
    assert float(lines[2].split(",")[2]) == 4.0


def test_errorgrowth_csv(tmp_path):
    path = tmp_path / "errors.csv"
    write_csv(path, ErrorPoint, [ErrorPoint(t=5.0, err_v=1e-7, err_w=2e-7)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,err_v,err_w"
    assert [float(v) for v in lines[1].split(",")] == [5.0, 1e-7, 2e-7]
