"""Symmetric composition time integrators for the semidiscrete system.

One step of length k chains q implicit midpoint substeps of lengths
b_1 k, ..., b_q k:

    Y_0 = U_n;  Y_j = Y_{j-1} + k b_j F((Y_j + Y_{j-1}) / 2);  U_{n+1} = Y_q.

The coefficients come from Yoshida's triple-jump recursion, giving order
2p with q = 3^(p-1) stages.  Each implicit stage is solved by the
mean-field preconditioned fixed-point iteration

    X_{n+1} = A^{-1} ( Y_prev + i (k b_j / 2) P((|X_n|^2 - c) X_n) ),
    A = I + i (k b_j / 2) ((-d_xx)^s - c P),

with A inverted exactly mode by mode, and X* the midpoint so that
Y_next = 2 X* - Y_prev.  P is the dealiasing mask, or 1 without
dealiasing.  Moving c P X from the right-hand side into A leaves the
fixed point unchanged and only changes the path to it: the shift takes
the mean of the cubic term's linearization, 2 |X|^2, into the
preconditioner, so the map contracts faster on fields that are not
localized.  c = 2 mean|u|^2 = 2 ||fft(u)||^2 / N^2 is taken once, by
Parseval, from the state the _StepContext starts from (the discrete mass
is conserved); c = 0 for the linear model.  In Fourier space the map is
two diagonal multipliers per stage, pre_j = A^{-1} / N and
gain_j = i (k b_j / 2) pre_j P (gain_j = 0 for the linear model):

    Z_{n+1} = gain_j fft((|X_n|^2 - c) X_n) + base,   base = pre_j fft(Y_prev),
    X_{n+1} = N ifft(Z_{n+1}),

so Z is the coefficient vector of X scaled by 1/N and the inverse
transform applies no normalization (numpy's norm="forward").  base is
formed once per stage, and each iteration is one shifted cubic term, one
FFT pair and one multiply-add.  One kernel, _stage_solve, solves every stage
for step, imr_stage_solve and evolve; it writes into work buffers that
its _StepContext allocates once, and fft(Y_next) into an array the
caller provides, so a run allocates nothing per stage or step.

The state is carried between stages and steps as Fourier coefficients
only.  The stopping test ||X_{n+1} - X_n|| <= fp_tol ||X_{n+1}|| is applied
to Z, which by Parseval is the same test (||X|| = sqrt(N) ||Z||), so the
converged stage is returned as fft(Y_next) = 2 N Z - fft(Y_prev) without
an inverse transform.  A stage of n iterations costs 2n transforms: the
inverse transform of its starting iterate, then n forward and n - 1
inverse ones.  Physical values are formed only where something reads
them: for observers, and for the returned Field.

step and imr_stage_solve start every stage from X_0 = Y_prev.  evolve
starts stage j of step n from an extrapolated midpoint instead, the
standard starting approximation for implicit symplectic Runge-Kutta
methods (Hairer, Lubich & Wanner, Geometric Numerical Integration,
VIII.6).  It keeps the Fourier increments d_{j,m} = fft(Y_j - Y_{j-1})
of the last four steps and, from step 5 on, starts from

    X_0 = ifft( fft(Y_prev) + 1/2 sum_{i=1..4} c_i R^i d_{j,n-i} ),
    c = (4, -6, 4, -1),  R = prod_j (1 - i (k b_j/2) lam) / (1 + i (k b_j/2) lam),

a cubic extrapolation of the increment in the frame of the linear
propagator R of one full step.  R uses the unshifted symbol lam, not the
shifted preconditioner, and is built at the first predicted stage.  The
predictor is exact for the linear flow; without the R^i factors the stiff
modes, which rotate by more than pi/3 per step, are amplified by the
extrapolation and the stage solve can diverge.  Only the starting
iterate changes: the fixed-point map and its stopping test are the same,
so the converged stages are too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StageDivergenceError
from .model import ModelParams
from .spectral import Field, SpectralGrid

__all__ = [
    "MAX_COMPOSITION_LEVEL",
    "CompositionScheme",
    "exact_step_count",
    "SolverParams",
    "StepReport",
    "RunStats",
    "yoshida_coefficients",
    "imr_stage_solve",
    "step",
    "evolve",
]


# Highest accepted Yoshida level p: q = 3^(p-1) = 243 stages, order 12.
MAX_COMPOSITION_LEVEL = 6


@dataclass(frozen=True)
class CompositionScheme:
    """Stage coefficients b_1..b_q of a composition method of order 2p."""

    p: int
    q: int
    b: tuple[float, ...]
    order: int

    def __post_init__(self):
        if len(self.b) != self.q:
            raise ParameterError(
                f"scheme has q = {self.q} but {len(self.b)} coefficients"
            )
        if any(bj == 0.0 for bj in self.b):
            raise ParameterError("stage coefficients must be nonzero")


def yoshida_coefficients(p: int) -> CompositionScheme:
    """Triple-jump coefficients for the level-p composition of the IMR.

    p = 1 is the implicit midpoint rule itself (b = [1], order 2).  Each
    further level wraps the previous sequence c as [w1 c, w0 c, w1 c] with
    w1 = 1 / (2 - 2^(1/(2p-1))) and w0 = 1 - 2 w1, tripling the stage
    count and raising the order by two.
    """
    if not isinstance(p, (int, np.integer)) or not 1 <= p <= MAX_COMPOSITION_LEVEL:
        raise ParameterError(
            f"composition level p must be an integer in [1, {MAX_COMPOSITION_LEVEL}], "
            f"got {p!r}"
        )
    b = [1.0]
    for level in range(2, p + 1):
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * level - 1)))
        w0 = 1.0 - 2.0 * w1
        b = [w1 * c for c in b] + [w0 * c for c in b] + [w1 * c for c in b]
    return CompositionScheme(p=int(p), q=3 ** (int(p) - 1), b=tuple(b), order=2 * int(p))


@dataclass(frozen=True)
class SolverParams:
    """Time step and fixed-point solver controls.

    k may be negative (backward step) for reversibility checks; evolve
    itself only accepts forward runs.
    """

    k: float
    fp_tol: float = 1e-13
    fp_max_iters: int = 200
    stability_check: bool = True

    def __post_init__(self):
        if self.k == 0.0 or not math.isfinite(self.k):
            raise ParameterError(f"time step k must be nonzero and finite, got {self.k!r}")
        if not self.fp_tol > 0.0:
            raise ParameterError(f"fp_tol must be positive, got {self.fp_tol!r}")
        if self.fp_max_iters < 1:
            raise ParameterError(f"fp_max_iters must be >= 1, got {self.fp_max_iters!r}")


@dataclass
class StepReport:
    """Per-step solver diagnostics."""

    fp_iterations_per_stage: list[int]
    stability_margin: float
    warnings: list[str] = field(default_factory=list)


@dataclass
class RunStats:
    """Aggregated diagnostics of an evolve run: fp_iterations is the exact
    total over all stages, mean_fp_iterations its mean per stage."""

    steps: int
    fp_iterations: int
    mean_fp_iterations: float
    max_stability_margin: float
    initial_stability_margin: float
    warnings: list[str] = field(default_factory=list)


def _inverse_symbol(N: int, ihk: complex, sym: np.ndarray) -> np.ndarray:
    """(1 + ihk sym)^-1 / N mode by mode, in one fresh array."""
    inv = (N * ihk) * sym
    inv += N
    return np.reciprocal(inv, out=inv)


class _StepContext:
    """Stage multipliers precomputed once per (grid, coefficients, solver,
    model) and starting state u_hat = fft(u), and the work buffers of the
    stage kernel, allocated once and reused by every stage solved with
    this context."""

    def __init__(self, grid: SpectralGrid, b: tuple[float, ...],
                 sp: SolverParams, mp: ModelParams, u_hat: np.ndarray):
        self.grid = grid
        self.sp = sp
        self.b = b
        self.lam = lam = grid.fractional_symbol(mp.s)
        # mean-field shift c = 2 mean|u|^2, by Parseval
        self.shift = 0.0 if mp.linear else 2.0 * np.vdot(u_hat, u_hat).real / grid.N ** 2
        shifted = lam - self.shift * (grid.dealias_mask if mp.dealias else 1.0)
        tables = {}     # symmetric compositions repeat b_j; equal stages share
        for bj in b:
            if bj not in tables:
                ihk = 0.5j * sp.k * bj
                pre = _inverse_symbol(grid.N, ihk, shifted)
                if mp.linear:
                    gain = np.zeros_like(pre)
                elif mp.dealias:
                    gain = ihk * pre * grid.dealias_mask
                else:
                    gain = ihk * pre
                tables[bj] = pre, gain
        self.pre = [tables[bj][0] for bj in b]
        self.gain = [tables[bj][1] for bj in b]
        self.max_abs_b = max(abs(bj) for bj in b)
        N = grid.N
        self.x = np.empty(N, dtype=complex)         # nodal iterate X_n
        self.z = (np.empty(N, dtype=complex), np.empty(N, dtype=complex))
        self.work = np.empty(N, dtype=complex)      # cubic term, iterate change
        self.mod = np.empty(N)                      # |X_n|^2
        self.base = np.empty(N, dtype=complex)      # pre_j fft(Y_prev)

    def stability_margin(self, u_hat: np.ndarray) -> float:
        # 3 R^2 k N max|b_j| with R the discrete L2 norm of the current
        # state, taken from its coefficients u_hat = fft(u) by Parseval.
        r_sq = self.grid.h * np.vdot(u_hat, u_hat).real / self.grid.N
        return 3.0 * r_sq * abs(self.sp.k) * self.grid.N * self.max_abs_b


class _StagePredictor:
    """Starting iterates for evolve's stages, extrapolated from the stage
    increments of the last four steps (see the module docstring)."""

    COEFFS = (4.0, -6.0, 4.0, -1.0)     # c_i for the steps n-1 .. n-4

    def __init__(self, ctx: _StepContext):
        self.ctx = ctx
        N = ctx.grid.N
        # history[j - 1, (m - 1) % 4] = fft(Y_j - Y_{j-1}) of step m
        self.history = np.empty((len(ctx.pre), 4, N), dtype=complex)
        self.steps = 0          # completed steps recorded in history
        self.weights = None     # 1/2 c_i R^i, built at the first prediction
        self.guess_hat = np.empty(N, dtype=complex)
        self.work = np.empty(N, dtype=complex)

    def _build_weights(self) -> np.ndarray:
        N = self.ctx.grid.N
        R = np.ones(N, dtype=complex)
        for bj in self.ctx.b:       # unshifted Cayley factor of each stage
            ihk = 0.5j * self.ctx.sp.k * bj
            R *= 2.0 * N * _inverse_symbol(N, ihk, self.ctx.lam) - 1.0
        weights = np.empty((4, N), dtype=complex)
        power = R
        for i, c in enumerate(self.COEFFS):
            np.multiply(power, 0.5 * c, out=weights[i])
            power = power * R
        return weights

    def guess(self, stage_index: int, y_hat: np.ndarray) -> np.ndarray:
        """Fourier coefficients of stage j's starting midpoint; y_hat itself
        while fewer than four steps are recorded."""
        n = self.steps
        if n < 4:
            return y_hat
        if self.weights is None:
            self.weights = self._build_weights()
        hist = self.history[stage_index - 1]
        acc, work = self.guess_hat, self.work
        np.copyto(acc, y_hat)
        for i, w in enumerate(self.weights, start=1):
            np.multiply(w, hist[(n - i) % 4], out=work)
            np.add(acc, work, out=acc)
        return acc

    def record(self, stage_index: int, y_hat: np.ndarray, y_next_hat: np.ndarray):
        np.subtract(y_next_hat, y_hat, out=self.history[stage_index - 1, self.steps % 4])


# Diverging stage iterates may overflow before the iteration cap trips;
# that is the expected failure route, not a condition worth a numpy
# warning.  Each entry point enters this scope once around its stages.
_QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore"}


def _stage_solve(ctx: _StepContext, stage_index: int, y_hat: np.ndarray,
                 x0_hat: np.ndarray, out: np.ndarray) -> int:
    """Solve one midpoint stage from fft(Y_prev) = y_hat, starting from
    X_0 = ifft(x0_hat); writes fft(Y_next) into out and returns the
    iteration count.

    Neither input is written; x0_hat may be y_hat, but out must be
    distinct from both.  The caller holds the _QUIET_OVERFLOW scope.
    """
    sp = ctx.sp
    N = ctx.grid.N
    gain = ctx.gain[stage_index - 1]
    x, work, mod, base, shift = ctx.x, ctx.work, ctx.mod, ctx.base, ctx.shift
    z, z_next = ctx.z
    np.multiply(ctx.pre[stage_index - 1], y_hat, out=base)
    np.divide(x0_hat, N, out=z)
    np.fft.ifft(z, norm="forward", out=x)
    diff = norm = 0.0
    for it in range(1, sp.fp_max_iters + 1):
        np.abs(x, out=mod)
        np.multiply(mod, mod, out=mod)
        np.subtract(mod, shift, out=mod)
        np.multiply(mod, x, out=work)
        np.fft.fft(work, out=z_next)
        np.multiply(z_next, gain, out=z_next)
        np.add(z_next, base, out=z_next)
        np.subtract(z_next, z, out=work)
        diff = math.sqrt(np.vdot(work, work).real)
        norm = math.sqrt(np.vdot(z_next, z_next).real)
        z, z_next = z_next, z
        if not math.isfinite(norm):
            # overflow: bail out now, the tolerance test would be
            # vacuous (inf <= fp_tol * inf)
            raise StageDivergenceError(stage_index, it, math.inf)
        if diff <= sp.fp_tol * norm:
            np.multiply(z, 2.0 * N, out=out)
            np.subtract(out, y_hat, out=out)
            return it
        np.fft.ifft(z, norm="forward", out=x)
    residual = diff / norm if norm > 0.0 else math.inf
    raise StageDivergenceError(stage_index, sp.fp_max_iters, residual)


def imr_stage_solve(Y_prev: Field, b_j: float, sp: SolverParams,
                    mp: ModelParams) -> tuple[Field, int]:
    """Single implicit midpoint substep of length k b_j."""
    if b_j == 0.0:
        raise ParameterError("stage coefficient b_j must be nonzero")
    y_hat = np.fft.fft(Y_prev.values)
    ctx = _StepContext(Y_prev.grid, (float(b_j),), sp, mp, y_hat)
    y_next_hat = np.empty_like(y_hat)
    with np.errstate(**_QUIET_OVERFLOW):
        iters = _stage_solve(ctx, 1, y_hat, y_hat, y_next_hat)
    return Field(np.fft.ifft(y_next_hat), Y_prev.grid), iters


def step(U_n: Field, scheme: CompositionScheme, sp: SolverParams,
         mp: ModelParams) -> tuple[Field, StepReport]:
    """Advance one composition step of length k."""
    y_hat = np.fft.fft(U_n.values)
    ctx = _StepContext(U_n.grid, scheme.b, sp, mp, y_hat)
    report = StepReport(fp_iterations_per_stage=[], stability_margin=math.nan)
    if sp.stability_check:
        margin = ctx.stability_margin(y_hat)
        report.stability_margin = margin
        if margin >= 1.0:
            report.warnings.append(
                f"stability margin {margin:.3g} >= 1: stage fixed points "
                "may be non-unique"
            )
    spare = np.empty_like(y_hat)
    with np.errstate(**_QUIET_OVERFLOW):
        for j in range(1, scheme.q + 1):
            iters = _stage_solve(ctx, j, y_hat, y_hat, spare)
            report.fp_iterations_per_stage.append(iters)
            y_hat, spare = spare, y_hat
    return Field(np.fft.ifft(y_hat), U_n.grid), report


def exact_step_count(T: float, k: float) -> int:
    """Step count M = T/k, required to be a positive integer to 0.5 ulp.

    Mismatches are rejected rather than silently rounding k: convergence
    studies rely on exact step counts.
    """
    ratio = T / k
    if not math.isfinite(ratio):
        raise ParameterError(f"T/k = {T!r}/{k!r} is not a finite step count")
    M = round(ratio)
    if M < 1 or abs(ratio - M) > 0.5 * math.ulp(abs(ratio)):
        raise ParameterError(
            f"T/k = {ratio!r} is not a positive integer step count; "
            "choose k dividing T exactly"
        )
    return M


def evolve(U0: Field, T: float, scheme: CompositionScheme, sp: SolverParams,
           mp: ModelParams, observers: tuple = ()) -> tuple[Field, RunStats]:
    """Run M = T/k composition steps from U0.

    Observers are callables invoked as observer(step_index, t, field) at
    step 0 and after every step whose index is a multiple of their
    ``stride`` attribute (default 1).  The loop itself is strictly
    sequential and deterministic.
    """
    if not T > 0.0:
        raise ParameterError(f"final time T must be positive, got {T!r}")
    M = exact_step_count(T, sp.k)
    grid = U0.grid
    strides = [max(1, int(getattr(obs, "stride", 1))) for obs in observers]

    u_hat = np.fft.fft(U0.values)
    ctx = _StepContext(grid, scheme.b, sp, mp, u_hat)
    for obs in observers:
        obs(0, 0.0, U0)

    initial_margin = ctx.stability_margin(u_hat)
    max_margin = math.nan if not sp.stability_check else -math.inf
    total_iters = 0
    flagged = 0
    predictor = _StagePredictor(ctx)
    spare = np.empty_like(u_hat)    # u_hat and spare alternate as stage output
    caller_errstate = np.geterr()
    with np.errstate(**_QUIET_OVERFLOW):
        for n in range(1, M + 1):
            if sp.stability_check:
                margin = ctx.stability_margin(u_hat)
                max_margin = max(max_margin, margin)
                flagged += margin >= 1.0
            try:
                for j in range(1, scheme.q + 1):
                    x0_hat = predictor.guess(j, u_hat)
                    total_iters += _stage_solve(ctx, j, u_hat, x0_hat, spare)
                    predictor.record(j, u_hat, spare)
                    u_hat, spare = spare, u_hat
            except StageDivergenceError as err:
                err.annotate(step_index=n, time=(n - 1) * sp.k)
                raise
            predictor.steps += 1
            if any(n % stride == 0 for stride in strides):
                field_n = Field(np.fft.ifft(u_hat), grid)
                t_n = n * sp.k
                # observers run under the caller's numpy error handling
                with np.errstate(**caller_errstate):
                    for obs, stride in zip(observers, strides):
                        if n % stride == 0:
                            obs(n, t_n, field_n)

    warnings = []
    if flagged:
        warnings.append(
            f"stability margin >= 1 on {flagged} of {M} steps "
            f"(max {max_margin:.3g})"
        )
    stats = RunStats(
        steps=M,
        fp_iterations=total_iters,
        mean_fp_iterations=total_iters / (M * scheme.q),
        max_stability_margin=max_margin,
        initial_stability_margin=initial_margin,
        warnings=warnings,
    )
    return Field(np.fft.ifft(u_hat), grid), stats
