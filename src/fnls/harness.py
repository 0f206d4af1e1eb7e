"""Experiment harness: convergence tables, error growth in time,
invariant recording, and solitary-wave amplitude/speed tracking.

All studies consume a RunConfig and drive evolve(); the rows of a
convergence table share no mutable state and run in parallel worker
processes, by default (workers=None) min(rows, CPUs this process may
use), so ``taskset`` or a cgroup caps the pool.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceStudyError, ParameterError, TrackingError, check_count
from .integrators import evolve, exact_step_count
from .io import PetviashviliInitial, RunConfig, read_snapshot
from .model import InvariantRecord, ModelParams, invariants
from .spectral import Field, SpectralGrid
from .waves import ProfileResult, SolitonParams, nls_soliton, petviashvili_profile

__all__ = [
    "ConvergenceRow",
    "TrackRecord",
    "ErrorPoint",
    "ErrorGrowthResult",
    "InvariantRecorder",
    "FieldRecorder",
    "WaveTracker",
    "SPEED_WINDOW",
    "build_initial_field",
    "build_profile",
    "component_errors",
    "convergence_study",
    "error_growth_study",
]

# Sliding-window length (in records) of the least-squares speed estimator.
SPEED_WINDOW = 5


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a temporal convergence table; rates are None on the
    first row and log2(err_prev / err_curr) afterwards."""

    dt: float
    err_v: float
    rate_v: float | None
    err_w: float
    rate_w: float | None


@dataclass(frozen=True)
class TrackRecord:
    """Tracked wave state at one snapshot time; speed is None until the
    sliding window is full."""

    t: float
    amplitude: float
    peak_x: float
    speed: float | None


@dataclass(frozen=True)
class ErrorPoint:
    t: float
    err_v: float
    err_w: float


@dataclass(frozen=True)
class ErrorGrowthResult:
    series: list[ErrorPoint]
    slope: float
    fit_window: tuple[float, float]


class InvariantRecorder:
    """Observer recording (t, I1, I2, H) every ``stride`` steps."""

    def __init__(self, mp: ModelParams, stride: int = 1):
        self.mp = mp
        self.stride = stride
        self.records: list[InvariantRecord] = []

    def __call__(self, n: int, t: float, field: Field) -> None:
        self.records.append(invariants(t, field, self.mp))


class FieldRecorder:
    """Observer keeping (t, Field) snapshots in memory every ``stride`` steps."""

    def __init__(self, stride: int = 1):
        self.stride = stride
        self.records: list[tuple[float, Field]] = []

    def __call__(self, n: int, t: float, field: Field) -> None:
        self.records.append((t, field))


def component_errors(u: Field, ref: Field) -> tuple[float, float]:
    """Discrete L2 errors of the real and imaginary parts separately."""
    d = u.values - ref.values
    w = math.sqrt(u.grid.h)
    return w * float(np.linalg.norm(d.real)), w * float(np.linalg.norm(d.imag))


@contextmanager
def grid_allocation(N: int):
    """Report a grid or initial field too large to allocate as a bad N."""
    try:
        yield
    except MemoryError:
        raise ParameterError(f"N: cannot allocate the arrays of {N!r} grid points") from None


def build_profile(config: RunConfig) -> ProfileResult:
    """The Petviashvili profile that config.initial describes."""
    init = config.initial
    if not isinstance(init, PetviashviliInitial):
        raise ParameterError("initial: the profile command requires "
                             "initial.kind == 'petviashvili'")
    with grid_allocation(config.N):
        return petviashvili_profile(SpectralGrid(config.N, config.L), config.s,
                                    init.lambda1, init.lambda2, tol=init.tol)


def _soliton_reference(config: RunConfig) -> SolitonParams:
    """config.initial, the closed-form soliton a study measures errors against (s = 1)."""
    if not isinstance(config.initial, SolitonParams):
        raise ParameterError("initial: this study measures errors against the closed-form "
                             "soliton and requires initial.kind == 'soliton'")
    if config.s != 1.0:
        raise ParameterError(f"s: the closed-form soliton solves only s = 1, got {config.s!r}")
    return config.initial


def build_initial_field(config: RunConfig) -> Field:
    """The initial data described by config.initial, on the config's grid."""
    init = config.initial
    if isinstance(init, PetviashviliInitial):
        return build_profile(config).profile
    with grid_allocation(config.N):
        grid = SpectralGrid(config.N, config.L)
        if isinstance(init, SolitonParams):
            return nls_soliton(grid, 0.0, init)
        snap = read_snapshot(init.path)     # a ProfileFileInitial, the kind left
        if snap.field.grid.N != grid.N or snap.field.grid.L != grid.L:
            raise ParameterError(f"initial.path: snapshot grid (N={snap.field.grid.N}, "
                                 f"L={snap.field.grid.L!r}) does not match config "
                                 f"(N={grid.N}, L={grid.L!r})")
        if snap.s != config.s:
            raise ParameterError(f"initial.path: snapshot was computed for "
                                 f"s={snap.s!r}, config has s={config.s!r}")
        return snap.field


# --- temporal convergence table ---------------------------------------------

def _run_row(config: RunConfig, initial_values: np.ndarray,
             reference_values: np.ndarray, dt: float) -> tuple[float, float]:
    grid = SpectralGrid(config.N, config.L)
    final, _ = evolve(Field(initial_values, grid), config.T, *config.problem(dt))
    return component_errors(final, Field(reference_values, grid))


def _attach_rates(dts: list[float], errors: list[tuple[float, float]]) -> list[ConvergenceRow]:
    def rate(prev: float, err: float) -> float | None:
        return math.log2(prev / err) if prev > 0 and err > 0 else None
    # zero errors before the first row give it no rates
    return [ConvergenceRow(dt=dt, err_v=ev, rate_v=rate(pv, ev), err_w=ew, rate_w=rate(pw, ew))
            for dt, (pv, pw), (ev, ew) in zip(dts, [(0.0, 0.0), *errors], errors)]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def convergence_study(config: RunConfig, dt_list: list[float],
                      workers: int | None = None) -> list[ConvergenceRow]:
    """Evolve s = 1 soliton data to T once per dt and tabulate errors and rates.

    Errors are measured against the exact soliton at time T, separately
    for the real and imaginary parts.  Rows run in up to ``workers``
    processes, submitted smallest dt first (most steps) so that the
    slowest row does not queue behind shorter ones; results keep the
    order of dt_list.  ``workers=None`` means min(len(dt_list), usable
    CPUs): the CPUs in this process's affinity mask, or os.cpu_count()
    where the OS keeps none.  With one worker the rows run in-process.
    A failed row aborts the study; the rows before it in dt_list ride
    along on the raised ConvergenceStudyError.
    """
    if workers is not None:
        check_count("workers", workers)
    if not dt_list:
        raise ParameterError("dt_list must not be empty")
    for dt in dt_list:
        exact_step_count(config.T, dt, "dt")
    soliton = _soliton_reference(config)
    u0 = build_initial_field(config)
    reference = nls_soliton(u0.grid, config.T, soliton)
    n_workers = min(len(dt_list), _usable_cpus() if workers is None else workers)
    row = partial(_run_row, config, u0.values, reference.values)
    with ExitStack() as stack:
        if n_workers == 1:
            results = map(row, dt_list)
        else:
            from concurrent.futures import ProcessPoolExecutor
            # kept local: importing concurrent.futures.process costs every
            # `fnls simulate` start about 20 ms
            pool = ProcessPoolExecutor(max_workers=n_workers)
            stack.callback(pool.shutdown, cancel_futures=True)
            futures = {i: pool.submit(row, dt_list[i])
                       for i in sorted(range(len(dt_list)), key=dt_list.__getitem__)}
            results = (futures[i].result() for i in range(len(dt_list)))
        errors: list[tuple[float, float]] = []
        for dt in dt_list:
            try:
                errors.append(next(results))
            except Exception as err:
                raise ConvergenceStudyError(dt, _attach_rates(dt_list, errors), err)
    return _attach_rates(dt_list, errors)


# --- error growth in time ----------------------------------------------------

class _SolitonErrorRecorder:
    """Observer of errors at the wanted steps.  Its stride is their gcd, so
    evolve forms nodal values only on steps that can be wanted."""

    def __init__(self, wanted_steps: set[int], soliton: SolitonParams):
        self.wanted = wanted_steps
        self.stride = max(1, math.gcd(*wanted_steps))
        self.soliton = soliton
        self.points: list[ErrorPoint] = []

    def __call__(self, n: int, t: float, field: Field) -> None:
        if n in self.wanted:
            ref = nls_soliton(field.grid, t, self.soliton)
            ev, ew = component_errors(field, ref)
            self.points.append(ErrorPoint(t=t, err_v=ev, err_w=ew))


def _check_fit_count(count: int, fit_window: tuple[float, float]) -> None:
    if count < 2:
        raise ParameterError("fit_window: fewer than two positive-error checkpoints "
                             f"inside {fit_window}")


def error_growth_study(config: RunConfig, checkpoint_times: list[float],
                       fit_window: tuple[float, float] | None = None) -> ErrorGrowthResult:
    """Record L2 errors against the exact s = 1 soliton at the checkpoints
    and fit a log-log slope.

    Checkpoints must be step multiples of config.dt.  The fit uses the
    combined error sqrt(err_v^2 + err_w^2) over ``fit_window`` (default:
    the second half of the checkpoint time range); a window with fewer
    than two checkpoints is rejected before the run.
    """
    if not checkpoint_times:
        raise ParameterError("checkpoint_times must not be empty")
    soliton = _soliton_reference(config)
    M = exact_step_count(config.T, config.dt)
    wanted: set[int] = set()
    for t in checkpoint_times:
        n = 0 if t == 0.0 else exact_step_count(t, config.dt, "checkpoint_times")
        if n > M:
            raise ParameterError(f"checkpoint_times: t = {t!r} is beyond T = {config.T!r}")
        wanted.add(n)
    times = [n * config.dt for n in sorted(wanted)]     # as evolve reports them
    if fit_window is None:
        fit_window = (0.5 * (times[0] + times[-1]), times[-1])
    lo, hi = fit_window
    in_window = [0 < t and lo <= t <= hi for t in times]
    _check_fit_count(sum(in_window), fit_window)
    recorder = _SolitonErrorRecorder(wanted, soliton)
    evolve(build_initial_field(config), config.T, *config.problem(), observers=(recorder,))
    pts = [(p.t, e) for p, inside in zip(recorder.points, in_window)
           if inside and (e := math.hypot(p.err_v, p.err_w)) > 0]
    _check_fit_count(len(pts), fit_window)
    log_t = np.log([t for t, _ in pts])
    log_e = np.log([e for _, e in pts])
    slope = float(np.polyfit(log_t, log_e, 1)[0])
    return ErrorGrowthResult(series=recorder.points, slope=slope, fit_window=fit_window)


# --- wave tracking -----------------------------------------------------------

def _peak_estimate(field: Field) -> tuple[float, float]:
    """Sub-grid peak (amplitude, position) via quadratic interpolation of
    |u|^2 through the peak node and its neighbors."""
    g = field.grid
    y = np.abs(field.values) ** 2
    j = int(np.argmax(y))
    peak_mod = math.sqrt(y[j])
    mods = np.sqrt(y)
    close = np.flatnonzero(mods >= peak_mod - 1e-12 * max(1.0, peak_mod))
    dist = np.minimum((close - j) % g.N, (j - close) % g.N)
    if np.any(dist > 1):
        raise TrackingError(
            "no unique peak: multiple nodes within 1e-12 of the maximum"
        )
    y0 = y[j]
    ym = y[(j - 1) % g.N]
    yp = y[(j + 1) % g.N]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return peak_mod, float(g.nodes[j])
    delta = 0.5 * g.h * (ym - yp) / denom
    peak_sq = y0 - (yp - ym) ** 2 / (8.0 * denom)
    return math.sqrt(max(peak_sq, 0.0)), float(g.nodes[j] + delta)


class WaveTracker:
    """Observer tracking the wave's amplitude and peak every ``stride``
    steps; it keeps three floats per record, not the fields.

    A field without a unique peak stops the tracking: the TrackingError
    is kept, not raised inside evolve, and records() raises it.
    """

    def __init__(self, stride: int = 1):
        self.stride = stride
        self.times: list[float] = []
        self.amplitudes: list[float] = []
        self.peaks: list[float] = []
        self.L = math.nan
        self.error: TrackingError | None = None

    def __call__(self, n: int, t: float, field: Field) -> None:
        if self.error is not None:
            return
        try:
            amplitude, peak = _peak_estimate(field)
        except TrackingError as err:
            self.error = err
            return
        self.L = field.grid.L
        self.times.append(t)
        self.amplitudes.append(amplitude)
        self.peaks.append(peak)

    def records(self) -> list[TrackRecord]:
        """Amplitude, unwrapped peak position, and windowed speed.

        Peak positions are unwrapped across the periodic seam
        (consecutive jumps larger than L are shifted by multiples of 2L).
        The speed at record i is the least-squares slope of peak_x over
        records [i - W + 1, i] with W = SPEED_WINDOW, None while the
        window is incomplete.
        """
        if self.error is not None:
            raise self.error
        times = np.array(self.times)
        peak_x = np.unwrap(np.array(self.peaks), period=2.0 * self.L)
        records: list[TrackRecord] = []
        for i in range(len(times)):
            speed = None
            if i >= SPEED_WINDOW - 1:
                ts = times[i - SPEED_WINDOW + 1: i + 1]
                xs = peak_x[i - SPEED_WINDOW + 1: i + 1]
                speed = float(np.polyfit(ts, xs, 1)[0])
            records.append(TrackRecord(t=float(times[i]), amplitude=self.amplitudes[i],
                                       peak_x=float(peak_x[i]), speed=speed))
        return records
