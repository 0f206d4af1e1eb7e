"""The four benchmark workloads: their inputs, one operation of each, and
the checks on every operation's output.

An operation ("op") is one unit of the closed loop: one CLI run, one
convergence table or one ensemble batch.  The checks use numpy only and
never fnls, so a defect in the program cannot hide in the reference it is
checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

LAMBDA1, LAMBDA2 = 1.0, 0.25
FP_TOL = 1e-13  # RunConfig/SolverParams default; every workload runs at it
SOLITON = {"kind": "soliton", "lambda1": LAMBDA1, "lambda2": LAMBDA2}

# README "Command line" example.
README_CONFIG = {"L": 16 * math.pi, "N": 512, "s": 1.0, "dt": 1.25e-2, "T": 10.0,
                 "scheme_p": 2, "initial": SOLITON,
                 "invariant_stride": 10, "snapshot_stride": 100}
# tests/test_acceptance.py::_desk_config(2) and DESK_DTS.
CRITERION_01_CONFIG = {"L": 16 * math.pi, "N": 512, "s": 1.0, "dt": 2.5e-2,
                       "T": 10.0, "scheme_p": 2, "initial": SOLITON}
CRITERION_01_DTS = [2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3]
CONVERGENCE_WORKERS = 2
FRACTIONAL_CONFIG = {"L": 32 * math.pi, "N": 4096, "s": 0.75, "dt": 2.5e-2,
                     "T": 5.0, "scheme_p": 2,
                     "initial": {"kind": "petviashvili", "lambda1": LAMBDA1,
                                 "lambda2": LAMBDA2},
                     "snapshot_stride": 4}

# Ensemble: B members on the criterion-10 style domain (-pi, pi), s swept
# over (0.5, 1], plus one closed-form soliton member on a domain wide
# enough for its tails, which gives the batch an exact reference.
ENSEMBLE_N = 128
ENSEMBLE_L = math.pi
ENSEMBLE_B = 16
ENSEMBLE_DT = 2.5e-2
ENSEMBLE_T = 1.0
ENSEMBLE_BANDWIDTH = 4.0
ANCHOR_L = 6 * math.pi

# Stated tolerances, each about 5-10x the error measured at the parent
# commit (1.4e-6, 5.6e-9, 2.0e-6, 1.7e-5).
ERR_TOL = {"simulate_readme": 1e-5, "convergence_c01": 1e-7,
           "ensemble_small_n": 1e-5, "fractional_large_n": 1e-4}
RATE_BAND = (3.7, 4.3)           # criterion 01
MASS_DRIFT_TOL = 100 * FP_TOL    # ensemble drift at the fp_tol scale
SPEED_TOL = 1e-3
PROFILE_RESIDUAL_TOL = 1e-10     # criterion 09

SNAPSHOT_HEADER = 33  # b"FNLS1" + <u32 N, f64 L, f64 s, f64 t>
POLL_S = 5e-4


@dataclass
class OpResult:
    """Measurements and check outcome of one operation."""

    wall: float
    setup: float | None = None
    rss_mb: float | None = None
    err: float | None = None
    attempted: int = 1
    failed: int = 0
    slowdown: float = 1.0  # host speed around the op, set by the run loop
    problems: list[str] = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.problems.append(problem)


def child_env() -> dict[str, str]:
    """Environment of every process that runs a workload.

    One BLAS thread per process: unpinned, OpenBLAS threads made the README
    run use more CPU time than wall time, and two pool workers times two
    threads would oversubscribe a 2-core machine.
    """
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


def write_config(directory: Path, name: str, config: dict) -> Path:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


# --- references, computed without fnls --------------------------------------

def nodes(N: int, L: float) -> np.ndarray:
    return -L + (2.0 * L / N) * np.arange(N)


def kappa(N: int, L: float) -> np.ndarray:
    return np.pi * np.fft.fftfreq(N, d=1.0 / N) / L


def l2_error(u: np.ndarray, ref: np.ndarray, L: float) -> float:
    """Discrete L2 norm sqrt(h sum |u - ref|^2)."""
    return math.sqrt(2.0 * L / u.size) * float(np.linalg.norm(u - ref))


def exact_soliton(N: int, L: float, t: float) -> np.ndarray:
    a = LAMBDA1 - 0.25 * LAMBDA2**2
    xi = nodes(N, L) - LAMBDA2 * t
    rho = math.sqrt(2.0 * a) / np.cosh(math.sqrt(a) * xi)
    return rho * np.exp(1j * (0.5 * LAMBDA2 * xi + LAMBDA1 * t))


def translated_profile(phi: np.ndarray, L: float, t: float) -> np.ndarray:
    """Traveling wave Phi(x - lambda2 t) e^{i lambda1 t}, shifted spectrally."""
    shift = np.exp(-1j * kappa(phi.size, L) * LAMBDA2 * t)
    return np.fft.ifft(np.fft.fft(phi) * shift) * np.exp(1j * LAMBDA1 * t)


def profile_residual(phi: np.ndarray, L: float, s: float) -> float:
    """L2 norm of (lambda1 + (-d_xx)^s) Phi + i lambda2 Phi' - |Phi|^2 Phi,
    with the unmatched Nyquist mode of the derivative dropped."""
    N = phi.size
    k = kappa(N, L)
    d_symbol = 1j * k
    d_symbol[N // 2] = 0.0
    phi_hat = np.fft.fft(phi)
    lap = np.fft.ifft(np.abs(k) ** (2.0 * s) * phi_hat)
    dphi = np.fft.ifft(d_symbol * phi_hat)
    res = LAMBDA1 * phi + lap + 1j * LAMBDA2 * dphi - np.abs(phi) ** 2 * phi
    return math.sqrt(2.0 * L / N) * float(np.linalg.norm(res))


def mass(u: np.ndarray, L: float) -> float:
    return 0.5 * (2.0 * L / u.size) * float(np.sum(np.abs(u) ** 2))


def read_snapshot(path: Path, N: int) -> np.ndarray:
    """Values of an FNLS1 snapshot, checking its magic, N and size."""
    blob = path.read_bytes()
    if blob[:5] != b"FNLS1" or len(blob) != SNAPSHOT_HEADER + 16 * N:
        raise ValueError(f"{path.name}: not an FNLS1 snapshot of N = {N}")
    if int.from_bytes(blob[5:9], "little") != N:
        raise ValueError(f"{path.name}: header N differs from {N}")
    return np.frombuffer(blob, dtype="<c16", offset=SNAPSHOT_HEADER).copy()


def smooth_fields(seed: int) -> list[np.ndarray]:
    """Seeded random smooth fields with peak modulus 1, generated like the
    acceptance tests' _smooth_field."""
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(ENSEMBLE_N, d=1.0 / ENSEMBLE_N)
    envelope = np.exp(-((k / ENSEMBLE_BANDWIDTH) ** 2))
    fields = []
    for _ in range(ENSEMBLE_B):
        coeffs = rng.standard_normal(ENSEMBLE_N) + 1j * rng.standard_normal(ENSEMBLE_N)
        vals = np.fft.ifft(coeffs * envelope)
        fields.append(vals / np.max(np.abs(vals)))
    return fields


# --- checks -----------------------------------------------------------------

def check_simulate(name: str, config: dict, out_dir: Path, returncode: int,
                   result: OpResult) -> None:
    """Exit code, expected CSV and snapshot files, err_l2 against the
    reference; for the Petviashvili run also the tracked speed and the
    profile residual."""
    if returncode != 0:
        result.fail(1, f"exit code {returncode}")
        return
    N, L, T, dt = config["N"], config["L"], config["T"], config["dt"]
    steps = round(T / dt)
    snap_stride = config["snapshot_stride"]
    inv_stride = config.get("invariant_stride", 1)
    expected = [f"snapshot_{n:08d}.bin" for n in range(0, steps + 1, snap_stride)]
    written = sorted(p.name for p in out_dir.glob("snapshot_*.bin"))
    if written != expected:
        result.fail(1, f"snapshots {len(written)} written, {len(expected)} expected")
        return
    for csv, rows in (("invariants.csv", steps // inv_stride + 1),
                      ("tracking.csv", len(expected))):
        path = out_dir / csv
        lines = path.read_text().splitlines() if path.exists() else []
        if len(lines) != rows + 1:
            result.fail(1, f"{csv}: {len(lines)} lines, {rows + 1} expected")
            return
    try:
        final = read_snapshot(out_dir / expected[-1], N)
        initial = read_snapshot(out_dir / expected[0], N)
    except ValueError as err:
        result.fail(1, str(err))
        return
    if config["initial"]["kind"] == "soliton":
        reference = exact_soliton(N, L, T)
    else:
        reference = translated_profile(initial, L, T)
        speed = float(lines[-1].split(",")[3])
        if not abs(speed - LAMBDA2) <= SPEED_TOL:
            result.fail(1, f"tracked speed {speed!r} not within {SPEED_TOL} of {LAMBDA2}")
        residual = profile_residual(initial, L, config["s"])
        if not residual <= PROFILE_RESIDUAL_TOL:
            result.fail(1, f"profile residual {residual:.3e} > {PROFILE_RESIDUAL_TOL}")
    result.err = l2_error(final, reference, L)
    if not result.err <= ERR_TOL[name]:
        result.fail(1, f"err_l2 {result.err:.3e} > {ERR_TOL[name]}")


def check_convergence(rows, result: OpResult) -> None:
    """One operation per row: finite errors, criterion-01 rates on rows
    after the first, err_l2 against the exact soliton on the finest row."""
    for i, row in enumerate(rows):
        errors = (row.err_v, row.err_w)
        if not all(math.isfinite(e) and e > 0 for e in errors):
            result.fail(1, f"row dt={row.dt}: errors {errors}")
            continue
        rates = (row.rate_v, row.rate_w)
        if i and not all(r is not None and RATE_BAND[0] <= r <= RATE_BAND[1] for r in rates):
            result.fail(1, f"row dt={row.dt}: rates {rates} outside {RATE_BAND}")
            continue
        if i == len(rows) - 1:
            result.err = math.hypot(row.err_v, row.err_w)
            if not result.err <= ERR_TOL["convergence_c01"]:
                result.fail(1, f"finest row err_l2 {result.err:.3e} > "
                               f"{ERR_TOL['convergence_c01']}")


# --- operations -------------------------------------------------------------

def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def simulate_subprocess(name: str, config: dict, config_path: Path,
                        out_dir: Path) -> OpResult:
    """`python -m fnls.cli simulate` in a fresh interpreter.

    Set-up ends when the step-0 snapshot appears: evolve writes it through
    its observers just before the first time step.  Peak RSS comes from
    wait4 on the child.
    """
    _fresh_dir(out_dir)
    first = out_dir / "snapshot_00000000.bin"
    log = out_dir.with_suffix(".log")
    cmd = [sys.executable, "-m", "fnls.cli", "simulate",
           "--config", str(config_path), "--output", str(out_dir)]
    setup = None
    with open(log, "wb") as err_log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err_log,
                                env=child_env(), cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if setup is None and first.exists():
                setup = time.perf_counter() - t0
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = OpResult(wall=wall, setup=setup if setup is not None else wall,
                      rss_mb=usage.ru_maxrss / 1024.0)
    check_simulate(name, config, out_dir, proc.returncode, result)
    if result.failed:
        result.problems.append(log.read_text()[-2000:])
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def simulate_inprocess(fnls, name: str, config: dict, config_path: Path,
                       out_dir: Path) -> OpResult:
    """The same run driven through fnls.cli.main in this interpreter."""
    _fresh_dir(out_dir)
    argv = ["simulate", "--config", str(config_path), "--output", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err_text:
        t0 = time.perf_counter()
        returncode = fnls.cli.main(argv)
        wall = time.perf_counter() - t0
    result = OpResult(wall=wall)
    check_simulate(name, config, out_dir, returncode, result)
    if result.failed:
        result.problems.append(err_text.getvalue()[-2000:])
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def convergence_op(fnls, config_path: Path) -> OpResult:
    """convergence_study on the criterion-01 config with two workers.

    Set-up is config parsing; the study builds its initial data and
    reference inside, where only the traced run can see them.
    """
    t0 = time.perf_counter()
    config = fnls.load_config(config_path)
    setup = time.perf_counter() - t0
    result = OpResult(wall=math.nan, setup=setup, attempted=len(CRITERION_01_DTS))
    try:
        rows = fnls.convergence_study(config, CRITERION_01_DTS,
                                      workers=CONVERGENCE_WORKERS)
    except fnls.FnlsError as err:
        result.fail(result.attempted, f"convergence_study: {err}")
        rows = []
    result.wall = time.perf_counter() - t0
    check_convergence(rows, result)
    return result


class FirstStep:
    """Observer that evolve calls only at step 0, just before its first step."""

    stride = 1 << 62

    def __call__(self, n, t, u) -> None:
        self.at = time.perf_counter()


def ensemble_op(fnls, fields: list[np.ndarray]) -> OpResult:
    """B independent evolve calls with s swept over (0.5, 1], then the
    soliton member.  Set-up is the per-member time from building the
    member's parameters to its first step, summed over the batch."""
    s_values = [0.5 + 0.5 * (i + 1) / ENSEMBLE_B for i in range(ENSEMBLE_B)]
    members = [(s, vals, ENSEMBLE_L) for s, vals in zip(s_values, fields)]
    members.append((1.0, exact_soliton(ENSEMBLE_N, ANCHOR_L, 0.0), ANCHOR_L))
    result = OpResult(wall=math.nan, setup=0.0, attempted=len(members))
    t0 = time.perf_counter()
    finals = []
    for s, vals, L in members:
        start = time.perf_counter()
        probe = FirstStep()
        u0 = fnls.Field(vals, fnls.SpectralGrid(ENSEMBLE_N, L))
        final, _ = fnls.evolve(u0, ENSEMBLE_T, fnls.yoshida_coefficients(2),
                               fnls.SolverParams(k=ENSEMBLE_DT), fnls.ModelParams(s=s),
                               observers=(probe,))
        result.setup += probe.at - start
        finals.append(final.values)
    result.wall = time.perf_counter() - t0

    for (s, vals, L), final in zip(members[:-1], finals):
        m0 = mass(vals, L)
        drift = abs(mass(final, L) - m0) / max(1.0, m0)
        if not drift <= MASS_DRIFT_TOL:
            result.fail(1, f"member s={s:.4f}: mass drift {drift:.2e} > {MASS_DRIFT_TOL}")
    result.err = l2_error(finals[-1], exact_soliton(ENSEMBLE_N, ANCHOR_L, ENSEMBLE_T),
                          ANCHOR_L)
    if not result.err <= ERR_TOL["ensemble_small_n"]:
        result.fail(1, f"soliton member err_l2 {result.err:.3e} > "
                       f"{ERR_TOL['ensemble_small_n']}")
    return result


def fits(results: list[OpResult], elapsed: float, seconds: float) -> bool:
    """Whether another op, as long as the median so far, ends in the window."""
    typical = sorted(r.wall for r in results)[len(results) // 2]
    return elapsed + typical <= seconds


def guarded(op, attempted: int):
    """Run op(); a crash counts every unit of the operation as failed."""
    t0 = time.perf_counter()
    try:
        return op()
    except Exception:
        result = OpResult(wall=time.perf_counter() - t0, attempted=attempted)
        result.fail(attempted, traceback.format_exc(limit=5))
        return result
