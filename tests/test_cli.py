import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fnls
from fnls import Field, SpectralGrid, read_snapshot, residual_operator, write_snapshot
from fnls.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

# The `[project.scripts]` target that pip turns into the `fnls` command.
CONSOLE_SCRIPT = "fnls.cli:main"
CHILD_TIMEOUT_S = 120

SIM_CONFIG = {
    "L": 50.26548245743669,
    "N": 256,
    "s": 1.0,
    "dt": 0.0125,
    "T": 0.5,
    "scheme_p": 2,
    "initial": {"kind": "soliton", "lambda1": 1.0, "lambda2": 0.25},
    "snapshot_stride": 10,
}


def write_config(tmp_path: Path, data: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_simulate_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    code = main(["simulate", "--config", str(config), "--output", str(out)])
    assert code == EXIT_OK

    invariants = (out / "invariants.csv").read_text().splitlines()
    assert invariants[0] == "t,I1,I2,H"
    assert len(invariants) == 42           # 40 steps, stride 1, plus t = 0

    tracking = (out / "tracking.csv").read_text().splitlines()
    assert tracking[0] == "t,amplitude,peak_x,speed"
    assert len(tracking) == 6              # snapshots at steps 0,10,20,30,40

    snaps = sorted(out.glob("snapshot_*.bin"))
    assert [p.name for p in snaps] == [f"snapshot_{n:08d}.bin" for n in
                                       (0, 10, 20, 30, 40)]
    last = read_snapshot(snaps[-1])
    assert last.t == pytest.approx(0.5, rel=1e-15)

    captured = capsys.readouterr()
    # a healthy run (every stage converges, the tracker finds its peak)
    # has nothing to warn about
    assert captured.err == ""
    stdout = captured.out
    assert "steps" in stdout and "40" in stdout
    # the exact iteration total of the same run, made in process
    cfg = fnls.load_config(config)
    u0 = fnls.build_initial_field(cfg)
    _, stats = fnls.evolve(u0, cfg.T, fnls.yoshida_coefficients(cfg.scheme_p),
                           fnls.SolverParams(k=cfg.dt, fp_tol=cfg.fp_tol,
                                             fp_max_iters=cfg.fp_max_iters),
                           fnls.ModelParams(s=cfg.s))
    assert f"fp iterations:       {stats.fp_iterations} (" in stdout
    # and, on the next line, its largest measured contraction
    lines = stdout.splitlines()
    after = next(i for i, line in enumerate(lines) if line.startswith("fp iterations"))
    assert lines[after + 1] == f"max contraction:     {stats.max_contraction:.3g}"


def test_simulate_without_output_writes_to_working_directory(tmp_path, monkeypatch):
    config = write_config(tmp_path, {**SIM_CONFIG, "N": 64, "T": 0.05})
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["simulate", "--config", str(config)]) == EXIT_OK
    assert sorted(p.name for p in work.iterdir()) == [
        "invariants.csv", "snapshot_00000000.bin", "tracking.csv"]


def test_simulate_invariant_stride(tmp_path):
    config = write_config(tmp_path, {**SIM_CONFIG, "invariant_stride": 4})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "invariants.csv").read_text().splitlines()
    assert len(rows) == 12                 # header + steps 0,4,...,40


def test_simulate_flat_field_skips_tracking(tmp_path, capsys):
    g = SpectralGrid(64, np.pi)
    write_snapshot(tmp_path / "flat.bin", Field(np.full(64, 0.5 + 0j), g), s=1.0, t=0.0)
    config = write_config(tmp_path, {
        "L": np.pi, "N": 64, "s": 1.0, "dt": 0.01, "T": 0.1, "scheme_p": 1,
        "initial": {"kind": "profile_file", "path": str(tmp_path / "flat.bin")},
    })
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_OK
    assert "tracking skipped" in capsys.readouterr().err
    assert (tmp_path / "tracking.csv").read_text().splitlines() == [
        "t,amplitude,peak_x,speed"]


def test_simulate_rejects_nondividing_dt(tmp_path, capsys):
    config = write_config(tmp_path, {**SIM_CONFIG, "dt": 0.3})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "dt" in capsys.readouterr().err


def test_convergence_rejects_zero_dt(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    code = main(["convergence", "--config", str(config), "--output", str(tmp_path),
                 "--dt", "0"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dts, code", [(["0.1", "0.05"], EXIT_OK),
                                       (["0.1", "-inf"], EXIT_CONFIG)])
def test_convergence_dt_list_before_another_option(tmp_path, capsys, dts, code):
    # the --dt list ends at the next option, which is no dt value
    config = write_config(tmp_path, SIM_CONFIG)
    assert main(["convergence", "--dt", *dts, "--config", str(config),
                 "--output", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.1, 0.05]
    else:
        assert err.startswith("error: dt: T/k = 0.5/-inf = -0.0 is not a positive integer")


@pytest.mark.parametrize("key, updates", [
    ("dt", {"T": 1e308, "dt": 1e-10}),    # T/dt overflows to inf
    ("scheme_p", {"scheme_p": 7}),         # above the composition-level bound
])
def test_simulate_rejects_unbounded_work(tmp_path, capsys, key, updates):
    config = write_config(tmp_path, {**SIM_CONFIG, **updates})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert f"{key}:" in err
    assert "Traceback" not in err


def test_simulate_divergence_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, {**SIM_CONFIG, "dt": 2.5, "T": 5.0,
                                     "fp_max_iters": 40})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "stage" in capsys.readouterr().err


def test_simulate_iteration_cap_exit_code(tmp_path, capsys):
    # a finite stage that needs more sweeps than the cap is a numerical failure
    config = write_config(tmp_path, {**SIM_CONFIG, "fp_max_iters": 1})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    # one sweep measures no contraction; k*b_1 = 0.0125 * 1.3512...
    assert re.fullmatch(r"error: fixed-point stage solve at stage 1 hit the iteration "
                        r"cap: residual \d\.\d{3}e-\d\d after 1 iteration; largest "
                        r"contraction 0 at k\*b_j = 0\.0169 \(step 1, t = 0\)\n",
                        capsys.readouterr().err)


def test_simulate_slow_contraction_exit_message(tmp_path, capsys):
    # a stage that contracts too slowly for the cap, not one that blows
    # up: the message says which, with the measured contraction and k*b_j
    config = write_config(tmp_path, {
        "L": 5, "N": 8, "s": 0.6, "dt": 0.5, "T": 1, "scheme_p": 6,
        "initial": {"kind": "petviashvili", "lambda1": 1.0, "lambda2": 0.0}})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert re.fullmatch(r"error: fixed-point stage solve at stage 1 hit the iteration "
                        r"cap: residual \d\.\d{3}e-\d\d after 200 iterations; largest "
                        r"contraction \d\.\d+ at k\*b_j = 1\.03 \(step 1, t = 0\)\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [
    ("L", math.inf), ("s", math.nan), ("dt", -math.inf), ("T", math.inf),
    pytest.param("T", 10**400, id="T-int-beyond-float"), ("fp_tol", math.nan),
    ("initial.lambda1", math.nan), ("initial.lambda2", math.inf),
    ("initial.x0", math.nan), ("initial.theta0", -math.inf), ("initial.tol", math.inf),
])
def test_simulate_rejects_nonfinite_values(tmp_path, capsys, key, value):
    data = json.loads(json.dumps(SIM_CONFIG))
    if key == "initial.tol":
        data["initial"] = {"kind": "petviashvili", "lambda1": 1.0}
    target, name = (data["initial"], key[8:]) if key.startswith("initial.") else (data, key)
    target[name] = value
    config = write_config(tmp_path, data)
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert f"{key}: must be finite" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


# output files of each command, in the order it writes them
OUTPUT_FILES = {"simulate": ["snapshot_00000000.bin", "invariants.csv"],
                "convergence": ["convergence.csv"], "profile": ["profile.bin"]}


@pytest.mark.parametrize("command", ["simulate", "convergence", "profile"])
def test_output_dir_that_cannot_be_created(tmp_path, capsys, command):
    # a directory where an output file should go: the file cannot be written
    initial = ({"kind": "petviashvili", "lambda1": 1.0} if command == "profile"
               else SIM_CONFIG["initial"])
    config = write_config(tmp_path, {**SIM_CONFIG, "initial": initial})
    for name in OUTPUT_FILES[command]:
        output = tmp_path / f"out_{name}"
        (output / name).mkdir(parents=True)
        code = main([command, "--config", str(config), "--output", str(output)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err.startswith("error: --output: cannot write") and name in err, err
        assert "Traceback" not in err
    # a Petviashvili config, except for convergence: its study measures against
    # the closed-form soliton and rejects other data before any directory exists
    if command != "convergence":
        initial = {"kind": "petviashvili", "lambda1": 1.0}
    config = write_config(tmp_path, {**SIM_CONFIG, "initial": initial})
    blocker = tmp_path / "taken"
    blocker.write_text("")              # a file where the directory should go
    for output in (blocker, blocker / "sub"):
        code = main([command, "--config", str(config), "--output", str(output)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err.startswith("error: --output: cannot create"), err
        assert "Traceback" not in err
    # a shell's argv cannot carry a NUL byte, main's argument list can
    code = main([command, "--config", str(config), "--output", "a\u0000b"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("error: --output: cannot create")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command,name", [("simulate", "snapshot_00000000.bin"),
                                          ("profile", "profile.bin")])
def test_output_write_failure_without_filename(tmp_path, capsys, command, name):
    # a write to /dev/full fails when the file is flushed, with an OSError
    # that names no file: the message names the output directory instead
    initial = ({"kind": "petviashvili", "lambda1": 1.0} if command == "profile"
               else SIM_CONFIG["initial"])
    config = write_config(tmp_path, {**SIM_CONFIG, "N": 64, "initial": initial})
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    code = main([command, "--config", str(config), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith(f"error: --output: cannot write {str(out)!r}: "), err


@pytest.mark.parametrize("command,initial", [
    ("profile", SIM_CONFIG["initial"]),
    ("simulate", {"kind": "profile_file", "path": "missing.bin"}),
    ("convergence", {"kind": "petviashvili", "lambda1": 1.0}),
])
def test_output_dir_created_after_initial_data(tmp_path, capsys, command, initial):
    config = write_config(tmp_path, {**SIM_CONFIG, "initial": initial})
    code = main([command, "--config", str(config), "--output", str(tmp_path / "new" / "sub")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith(("error: initial", "error: snapshot:")), err
    assert not (tmp_path / "new").exists()


def test_simulate_rejects_non_finite_snapshot(tmp_path, capsys):
    # a snapshot holding NaN is bad initial data: exit 2 before any output
    g = SpectralGrid(64, np.pi)
    values = np.exp(-g.nodes ** 2) + 0j
    values[5] = math.nan
    snapshot = tmp_path / "nan.bin"
    write_snapshot(snapshot, Field(values, g), s=1.0, t=0.0)
    config = write_config(tmp_path, {
        "L": np.pi, "N": 64, "s": 1.0, "dt": 0.01, "T": 0.1, "scheme_p": 1,
        "initial": {"kind": "profile_file", "path": str(snapshot)}})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err == f"error: snapshot: {snapshot} holds non-finite values\n"
    assert not (tmp_path / "out").exists()


def test_convergence_rejects_fractional_soliton(tmp_path, capsys):
    # the closed-form soliton is no reference for s = 0.75: the table would
    # measure the distance between two different waves
    config = write_config(tmp_path, {**SIM_CONFIG, "s": 0.75})
    code = main(["convergence", "--config", str(config), "--output", str(tmp_path / "out"),
                 "--dt", "0.025", "0.0125"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err == "error: s: the closed-form soliton solves only s = 1, got 0.75\n"
    assert not (tmp_path / "out").exists()


def test_undecodable_config_and_nul_path_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xff\xfe{"N": 64}')     # not UTF-8
    for command in ("simulate", "convergence", "profile"):
        code = main([command, "--config", str(config), "--output", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err.startswith("error: config:")
    config = write_config(tmp_path, {
        **SIM_CONFIG, "initial": {"kind": "profile_file", "path": "a\u0000b"}})
    code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("error: snapshot:")


@pytest.mark.parametrize("command", ["simulate", "convergence", "profile"])
def test_rejects_N_beyond_address_space(tmp_path, capsys, command):
    # 2^62 points of 16 bytes each: no host can allocate them, and numpy
    # refuses the shape outright ("array is too big")
    config = write_config(tmp_path, {
        **SIM_CONFIG, "N": 2**62, "initial": {"kind": "petviashvili", "lambda1": 1.0}})
    code = main([command, "--config", str(config), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("error: N:")


@pytest.mark.parametrize("command", ["simulate", "convergence", "profile"])
def test_grid_allocation_failure_is_a_bad_N(tmp_path, capsys, monkeypatch, command):
    # an N that passes validation but exhausts memory while the grid and the
    # initial field are built
    def exhausted(grid):
        raise MemoryError
    monkeypatch.setattr(SpectralGrid, "nodes", property(exhausted))
    initial = ({"kind": "petviashvili", "lambda1": 1.0} if command == "profile"
               else SIM_CONFIG["initial"])
    config = write_config(tmp_path, {**SIM_CONFIG, "initial": initial})
    code = main([command, "--config", str(config), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err == f"error: N: cannot allocate the arrays of {SIM_CONFIG['N']} grid points\n"


@pytest.mark.parametrize("command", ["profile", "simulate"])
def test_wide_domain_run_leaves_stderr_empty(tmp_path, capsys, command):
    # the Petviashvili start is the s = 1 soliton, whose cosh overflows at
    # sqrt(a) |x| > 710: its tails are exactly 0, which is no warning
    config = write_config(tmp_path, {
        "L": 800.0, "N": 1024, "s": 0.75, "dt": 0.05, "T": 0.1, "scheme_p": 2,
        "initial": {"kind": "petviashvili", "lambda1": 1.0, "lambda2": 0.25}})
    code = main([command, "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


def test_convergence_table_and_csv(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    code = main(["convergence", "--config", str(config), "--output", str(tmp_path),
                 "--dt", "0.02", "0.01"])
    assert code == EXIT_OK
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "dt,err_v,rate_v,err_w,rate_w"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == ""
    second = [field for field in lines[2].split(",")]
    err_prev = float(lines[1].split(",")[1])
    err_curr = float(second[1])
    assert float(second[2]) == pytest.approx(math.log2(err_prev / err_curr), abs=1e-12)
    assert "dt,err_v,rate_v,err_w,rate_w" in capsys.readouterr().out


def test_convergence_single_dt_has_empty_rates(tmp_path):
    config = write_config(tmp_path, SIM_CONFIG)
    code = main(["convergence", "--config", str(config), "--output", str(tmp_path),
                 "--dt", "0.01"])
    assert code == EXIT_OK
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2] == ""


def test_convergence_uses_config_dt_by_default(tmp_path):
    config = write_config(tmp_path, SIM_CONFIG)
    code = main(["convergence", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == SIM_CONFIG["dt"]


def test_profile_outputs(tmp_path, capsys):
    config = write_config(tmp_path, {
        "L": 8 * np.pi, "N": 512, "s": 0.75, "dt": 0.01, "T": 0.1, "scheme_p": 2,
        "initial": {"kind": "petviashvili", "lambda1": 1.0, "lambda2": 0.25},
    })
    code = main(["profile", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_OK

    meta = json.loads((tmp_path / "profile.json").read_text())
    assert meta["lambda1"] == 1.0 and meta["lambda2"] == 0.25
    assert meta["s"] == 0.75
    assert meta["residual"] <= 1e-10
    assert meta["iterations"] >= 1

    snap = read_snapshot(tmp_path / "profile.bin")
    assert snap.t == 0.0 and snap.s == 0.75
    recomputed = residual_operator(snap.field, 0.75, 1.0, 0.25)
    l2 = math.sqrt(snap.field.grid.h) * float(np.linalg.norm(recomputed.values))
    assert l2 == pytest.approx(meta["residual"], rel=1e-9)
    assert "residual" in capsys.readouterr().out


def test_profile_requires_petviashvili_initial(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    code = main(["profile", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "petviashvili" in capsys.readouterr().err.lower()


def test_profile_rejects_small_s(tmp_path, capsys):
    config = write_config(tmp_path, {
        "L": 8 * np.pi, "N": 128, "s": 0.4, "dt": 0.01, "T": 0.1, "scheme_p": 2,
        "initial": {"kind": "petviashvili", "lambda1": 1.0},
    })
    code = main(["profile", "--config", str(config), "--output", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "s" in capsys.readouterr().err


def _check_console_script(cmd: list[str], cwd: Path, env: dict | None = None) -> None:
    out = subprocess.run([*cmd, "--help"], capture_output=True, text=True, cwd=cwd,
                         env=env, timeout=CHILD_TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    for sub in ("simulate", "convergence", "profile"):
        assert sub in out.stdout
    bad = subprocess.run([*cmd, "orbit"], capture_output=True, text=True, cwd=cwd,
                         env=env, timeout=CHILD_TIMEOUT_S)
    assert bad.returncode == 2, bad.stderr


def test_console_script_help(tmp_path):
    # Run the declared entry point the way pip's generated wrapper does, so the
    # check holds from a source checkout without an installed script.
    module, func = CONSOLE_SCRIPT.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'fnls'; sys.exit({func}())")
    src_dir = str(Path(fnls.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir,
                                                        os.environ.get("PYTHONPATH")]))}
    _check_console_script([sys.executable, "-c", wrapper], tmp_path, env)

    exe = shutil.which("fnls")
    if exe is not None:
        _check_console_script([exe], tmp_path)


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["fnls"] == CONSOLE_SCRIPT
