"""Experiment harness: convergence tables, error growth in time,
invariant drift, and solitary-wave amplitude/speed tracking.

All studies consume a RunConfig and drive evolve(); independent runs
(e.g. the rows of a convergence table) may execute in parallel worker
processes since they share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceStudyError, ParameterError, TrackingError
from .integrators import SolverParams, evolve, exact_step_count, yoshida_coefficients
from .io import (
    PetviashviliInitial,
    ProfileFileInitial,
    RunConfig,
    SolitonInitial,
    read_snapshot,
)
from .model import InvariantRecord, ModelParams, invariants
from .spectral import Field, SpectralGrid
from .waves import SolitonParams, nls_soliton, petviashvili_profile

__all__ = [
    "ConvergenceRow",
    "TrackRecord",
    "ErrorPoint",
    "ErrorGrowthResult",
    "InvariantDriftResult",
    "InvariantRecorder",
    "FieldRecorder",
    "WaveTracker",
    "SPEED_WINDOW",
    "build_initial_field",
    "component_errors",
    "convergence_study",
    "error_growth_study",
    "invariant_drift_study",
    "wave_tracking",
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


@dataclass(frozen=True)
class InvariantDriftResult:
    """Invariant history plus max_t |Q(t) - Q(0)| / max(1, |Q(0)|) per Q."""

    records: list[InvariantRecord]
    drift_I1: float
    drift_I2: float
    drift_H: float


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


def build_initial_field(config: RunConfig) -> tuple[SpectralGrid, Field]:
    """Construct the grid and initial data described by config.initial."""
    grid = SpectralGrid(config.N, config.L)
    init = config.initial
    if isinstance(init, SolitonInitial):
        sp = SolitonParams(init.lambda1, init.lambda2, init.x0, init.theta0)
        return grid, nls_soliton(grid, 0.0, sp)
    if isinstance(init, ProfileFileInitial):
        snap = read_snapshot(init.path)
        if snap.field.grid.N != grid.N or snap.field.grid.L != grid.L:
            raise ParameterError(
                f"initial.path: snapshot grid (N={snap.field.grid.N}, "
                f"L={snap.field.grid.L!r}) does not match config "
                f"(N={grid.N}, L={grid.L!r})"
            )
        if snap.s != config.s:
            raise ParameterError(
                f"initial.path: snapshot was computed for s={snap.s!r}, "
                f"config has s={config.s!r}"
            )
        return grid, snap.field
    if isinstance(init, PetviashviliInitial):
        result = petviashvili_profile(grid, config.s, init.lambda1,
                                      init.lambda2, tol=init.tol)
        return grid, result.profile
    raise ParameterError(f"initial: unsupported kind {type(init).__name__}")


def _solver_params(config: RunConfig, dt: float) -> SolverParams:
    return SolverParams(k=dt, fp_tol=config.fp_tol,
                        fp_max_iters=config.fp_max_iters)


def _require_soliton_initial(config: RunConfig) -> SolitonParams:
    if not isinstance(config.initial, SolitonInitial):
        raise ParameterError(
            "initial: this study measures errors against the closed-form "
            "soliton and requires initial.kind == 'soliton'"
        )
    i = config.initial
    return SolitonParams(i.lambda1, i.lambda2, i.x0, i.theta0)


# --- temporal convergence table ---------------------------------------------

@dataclass(frozen=True)
class _RowJob:
    N: int
    L: float
    s: float
    dealias: bool
    scheme_p: int
    fp_tol: float
    fp_max_iters: int
    dt: float
    T: float
    initial_values: np.ndarray
    reference_values: np.ndarray


def _run_row(job: _RowJob) -> tuple[float, float]:
    grid = SpectralGrid(job.N, job.L)
    u0 = Field(job.initial_values, grid)
    scheme = yoshida_coefficients(job.scheme_p)
    sp = SolverParams(k=job.dt, fp_tol=job.fp_tol, fp_max_iters=job.fp_max_iters)
    mp = ModelParams(s=job.s, dealias=job.dealias)
    final, _ = evolve(u0, job.T, scheme, sp, mp)
    return component_errors(final, Field(job.reference_values, grid))


def _attach_rates(dts: list[float], errors: list[tuple[float, float]]) -> list[ConvergenceRow]:
    rows: list[ConvergenceRow] = []
    prev: tuple[float, float] | None = None
    for dt, (ev, ew) in zip(dts, errors):
        if prev is None:
            rv = rw = None
        else:
            rv = math.log2(prev[0] / ev) if prev[0] > 0 and ev > 0 else None
            rw = math.log2(prev[1] / ew) if prev[1] > 0 and ew > 0 else None
        rows.append(ConvergenceRow(dt=dt, err_v=ev, rate_v=rv, err_w=ew, rate_w=rw))
        prev = (ev, ew)
    return rows


def convergence_study(config: RunConfig, dt_list: list[float],
                      workers: int | None = None) -> list[ConvergenceRow]:
    """Evolve soliton data to T once per dt and tabulate errors and rates.

    Errors are measured against the exact soliton at time T, separately
    for the real and imaginary parts.  Rows run in up to ``workers``
    processes (default: one per row), submitted longest first (most
    steps T/dt) so that the slowest row does not queue behind shorter
    ones; results keep the order of dt_list.  A failed row aborts the
    study; the rows before it in dt_list ride along on the raised
    ConvergenceStudyError.
    """
    if not dt_list:
        raise ParameterError("dt_list must not be empty")
    for dt in dt_list:
        try:
            exact_step_count(config.T, dt)
        except ParameterError as err:
            raise ParameterError(f"dt = {dt!r} must divide T = {config.T!r} "
                                 f"exactly ({err})") from None
    soliton = _require_soliton_initial(config)
    grid, u0 = build_initial_field(config)
    reference = nls_soliton(grid, config.T, soliton)
    jobs = [
        _RowJob(N=config.N, L=config.L, s=config.s, dealias=config.dealias,
                scheme_p=config.scheme_p, fp_tol=config.fp_tol,
                fp_max_iters=config.fp_max_iters, dt=dt, T=config.T,
                initial_values=u0.values, reference_values=reference.values)
        for dt in dt_list
    ]
    n_workers = len(dt_list) if workers is None else workers
    n_workers = max(1, min(n_workers, len(dt_list)))

    errors: list[tuple[float, float]] = []
    if n_workers == 1:
        for job in jobs:
            try:
                errors.append(_run_row(job))
            except Exception as err:
                raise ConvergenceStudyError(job.dt, _attach_rates(dt_list, errors), err)
    else:
        from concurrent.futures import ProcessPoolExecutor
        # kept local: importing concurrent.futures.process costs every
        # `fnls simulate` start about 20 ms
        longest_first = sorted(range(len(jobs)),
                               key=lambda i: -exact_step_count(config.T, dt_list[i]))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [None] * len(jobs)
            for i in longest_first:
                futures[i] = pool.submit(_run_row, jobs[i])
            for job, future in zip(jobs, futures):
                try:
                    errors.append(future.result())
                except Exception as err:
                    for f in futures:
                        f.cancel()
                    raise ConvergenceStudyError(job.dt, _attach_rates(dt_list, errors), err)
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


def error_growth_study(config: RunConfig, checkpoint_times: list[float],
                       fit_window: tuple[float, float] | None = None) -> ErrorGrowthResult:
    """Record L2 errors against the exact soliton at the checkpoints and
    fit a log-log slope.

    Checkpoints must be step multiples of config.dt.  The fit uses the
    combined error sqrt(err_v^2 + err_w^2) over ``fit_window`` (default:
    the second half of the checkpoint time range).
    """
    if not checkpoint_times:
        raise ParameterError("checkpoint_times must not be empty")
    soliton = _require_soliton_initial(config)
    M = exact_step_count(config.T, config.dt)
    wanted: set[int] = set()
    for t in checkpoint_times:
        try:
            n = 0 if t == 0.0 else exact_step_count(t, config.dt)
        except ParameterError as err:
            raise ParameterError(f"checkpoint_times: t = {t!r} is not a step "
                                 f"multiple of dt = {config.dt!r} ({err})") from None
        if n > M:
            raise ParameterError(f"checkpoint_times: t = {t!r} is beyond T = {config.T!r}")
        wanted.add(n)
    grid, u0 = build_initial_field(config)
    recorder = _SolitonErrorRecorder(wanted, soliton)
    evolve(u0, config.T, yoshida_coefficients(config.scheme_p),
           _solver_params(config, config.dt),
           ModelParams(s=config.s, dealias=config.dealias),
           observers=(recorder,))
    series = recorder.points
    if fit_window is None:
        t_first, t_last = series[0].t, series[-1].t
        fit_window = (0.5 * (t_first + t_last), t_last)
    lo, hi = fit_window
    pts = [(p.t, math.hypot(p.err_v, p.err_w)) for p in series
           if lo <= p.t <= hi and p.t > 0]
    pts = [(t, e) for t, e in pts if e > 0]
    if len(pts) < 2:
        raise ParameterError(
            "fit_window: fewer than two positive-error checkpoints inside "
            f"{fit_window}"
        )
    log_t = np.log([t for t, _ in pts])
    log_e = np.log([e for _, e in pts])
    slope = float(np.polyfit(log_t, log_e, 1)[0])
    return ErrorGrowthResult(series=series, slope=slope, fit_window=fit_window)


# --- invariant drift ---------------------------------------------------------

def invariant_drift_study(config: RunConfig) -> InvariantDriftResult:
    """Run the configured evolution and summarize invariant drift."""
    grid, u0 = build_initial_field(config)
    mp = ModelParams(s=config.s, dealias=config.dealias)
    recorder = InvariantRecorder(mp, stride=config.invariant_stride)
    evolve(u0, config.T, yoshida_coefficients(config.scheme_p),
           _solver_params(config, config.dt), mp, observers=(recorder,))
    records = recorder.records

    def drift(values: list[float]) -> float:
        q0 = values[0]
        scale = max(1.0, abs(q0))
        return max(abs(q - q0) for q in values) / scale

    return InvariantDriftResult(
        records=records,
        drift_I1=drift([r.I1 for r in records]),
        drift_I2=drift([r.I2 for r in records]),
        drift_H=drift([r.H for r in records]),
    )


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


def wave_tracking(snapshots: list[tuple[float, Field]]) -> list[TrackRecord]:
    """Track amplitude, unwrapped peak position, and windowed speed over
    (t, Field) snapshots, as WaveTracker.records() does over a run."""
    if not snapshots:
        raise ParameterError("snapshots must not be empty")
    tracker = WaveTracker()
    for i, (t, field) in enumerate(snapshots):
        tracker(i, t, field)
    return tracker.records()
