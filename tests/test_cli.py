import json
import math
import os
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

    stdout = capsys.readouterr().out
    assert "steps" in stdout and "40" in stdout
    # the exact iteration total of the same run, made in process
    cfg = fnls.load_config(config)
    _, u0 = fnls.build_initial_field(cfg)
    _, stats = fnls.evolve(u0, cfg.T, fnls.yoshida_coefficients(cfg.scheme_p),
                           fnls.SolverParams(k=cfg.dt, fp_tol=cfg.fp_tol,
                                             fp_max_iters=cfg.fp_max_iters),
                           fnls.ModelParams(s=cfg.s, dealias=cfg.dealias))
    assert f"fp iterations:       {stats.fp_iterations} (" in stdout


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


def test_convergence_thread_cap(tmp_path, monkeypatch):
    config = write_config(tmp_path, SIM_CONFIG)
    monkeypatch.setenv("FNLS_THREADS", "2")
    assert main(["convergence", "--config", str(config), "--output", str(tmp_path),
                 "--dt", "0.02", "0.01"]) == EXIT_OK
    monkeypatch.setenv("FNLS_THREADS", "0")
    assert main(["convergence", "--config", str(config), "--output", str(tmp_path),
                 "--dt", "0.02"]) == EXIT_CONFIG
    monkeypatch.setenv("FNLS_THREADS", "lots")
    assert main(["convergence", "--config", str(config), "--output", str(tmp_path),
                 "--dt", "0.02"]) == EXIT_CONFIG


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
