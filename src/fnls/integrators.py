"""Symmetric composition time integrators for the semidiscrete system.

One step of length k chains q implicit midpoint substeps of lengths
b_j k, Y_j = Y_{j-1} + k b_j F((Y_j + Y_{j-1}) / 2), with Yoshida's
triple-jump coefficients: order 2p with q = 3^(p-1) stages.  Each stage
solves for its midpoint X by the mean-field preconditioned fixed point

    X_{n+1} = A^{-1} (Y_{j-1} + i (k b_j / 2) (|X_n|^2 - c) X_n),
    A = I + i (k b_j / 2) ((-d_xx)^s - c),   c = 2 mean|u_0|^2,

with A inverted mode by mode and Y_j = 2 X* - Y_{j-1}.  In Fourier space
the map is Z_{n+1} = base + gain_j fft((|X_n|^2 - c) X_n), with
Z = 2 fft(X), base = pre_j fft(Y_{j-1}), pre_j = 2 A^{-1} and
gain_j = i (k b_j / 2) pre_j; the linear model has c = 0 and gain_j = 0.
From step 5 on, stage j starts from Z_0 = base + g~, where the
nonlinear part g = Z* - base is extrapolated from its values g_i in step
n - i, in each mode's rotation w = sign(g_1 conj(g_2)) (sign(0) = 0):

    g~ = 3 w g_1 - 3 w^2 g_2 + w^3 g_3.

Sweep n >= 2 stops when ||Z_n - Z_{n-1}|| <= fp_tol ||Z_n||, the first
sweep when eta_j ||Z_1 - Z_0|| <= fp_tol ||Z_1||, with
eta_j = max(0.01, theta / (1 - theta)) for the largest contraction ratio
theta of stage j's last solve of two or more sweeps (eta_j = 1 before
one, and when theta >= 1/2).  ||Z_n|| is read only where the test can
pass: ||Z_r|| + sum_{m=r+1..n} ||Z_m - Z_{m-1}||, r the last sweep that
read it, bounds it.  README "Solver" gives the rationale and measurements.

References: Hairer, Lubich & Wanner, Geometric Numerical Integration,
II.4 and VIII.6 (compositions, starting approximations); Hairer & Wanner,
Solving ODEs II, IV.8 (stopping estimate); Hochbruck & Ostermann,
"Exponential integrators", Acta Numerica 2010 (the split Z* = base + g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, StageDivergenceError, check_count,
                     check_positive_finite)
from .model import ModelParams
from .spectral import Field, SpectralGrid, fft, ifft

__all__ = [
    "MAX_COMPOSITION_LEVEL",
    "CompositionScheme",
    "exact_step_count",
    "SolverParams",
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
    b: tuple[float, ...]

    def __post_init__(self):
        if not self.b or not all(bj != 0.0 and math.isfinite(bj) for bj in self.b):
            raise ParameterError("stage coefficients must be nonzero and finite "
                                 f"(one or more), got {self.b!r}")

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def order(self) -> int:
        return 2 * self.p


def yoshida_coefficients(p: int) -> CompositionScheme:
    """Triple-jump coefficients for the level-p composition of the IMR.

    p = 1 is the implicit midpoint rule itself (b = [1], order 2).  Each
    further level wraps the previous sequence c as [w1 c, w0 c, w1 c] with
    w1 = 1 / (2 - 2^(1/(2p-1))) and w0 = 1 - 2 w1, tripling the stage
    count and raising the order by two.
    """
    check_count("composition level p", p, 1, MAX_COMPOSITION_LEVEL)
    b = [1.0]
    for level in range(2, p + 1):
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * level - 1)))
        w0 = 1.0 - 2.0 * w1
        b = [w1 * c for c in b] + [w0 * c for c in b] + [w1 * c for c in b]
    return CompositionScheme(p=int(p), b=tuple(b))


@dataclass(frozen=True)
class SolverParams:
    """Time step and fixed-point solver controls.

    k may be negative, for backward runs: evolve takes a final time T of
    the same sign, as T/k must be a positive integer step count.  A stage
    solve stops at sweep n >= 2 when ||Z_n - Z_{n-1}|| <= fp_tol ||Z_n||,
    and at its first sweep when eta_j ||Z_1 - Z_0|| <= fp_tol ||Z_1||,
    eta_j in [0.01, 1] being the stage's measured error estimate factor
    theta / (1 - theta) (see the module docstring); at most fp_max_iters
    sweeps are made.
    """

    k: float
    fp_tol: float = 1e-13
    fp_max_iters: int = 200

    def __post_init__(self):
        if self.k == 0.0 or not math.isfinite(self.k):
            raise ParameterError(f"k: must be nonzero and finite, got {self.k!r}")
        check_positive_finite("fp_tol", self.fp_tol)
        check_count("fp_max_iters", self.fp_max_iters)


@dataclass
class RunStats:
    """Diagnostics of an evolve run: stage_iterations[j - 1] is stage j's
    exact fixed-point iteration total over all steps, fp_iterations their
    sum and mean_fp_iterations the mean per stage solve.  max_contraction
    is the largest measured contraction ratio ||dZ_n|| / ||dZ_{n-1}|| of
    any stage solve, 0.0 if no stage took two sweeps."""

    steps: int
    stage_iterations: tuple[int, ...]
    max_contraction: float

    @property
    def fp_iterations(self) -> int:
        return sum(self.stage_iterations)

    @property
    def mean_fp_iterations(self) -> float:
        return self.fp_iterations / (self.steps * len(self.stage_iterations))


class _StepContext:
    """Stage multipliers precomputed once per (grid, coefficients, solver,
    model) and starting state u_hat = fft(u), and the work buffers of the
    stage kernel, allocated once and reused by every stage solved with
    this context."""

    def __init__(self, grid: SpectralGrid, b: tuple[float, ...],
                 sp: SolverParams, mp: ModelParams, u_hat: np.ndarray):
        N = grid.N
        self.tol, self.max_iters = sp.fp_tol, sp.fp_max_iters
        # the stop test's margin against a bound on ||Z_n|| (_stage_solve):
        # computed norms, and sums of n of them, err by at most about
        # (N + n) 2^-53 relative (Higham, Accuracy and Stability of
        # Numerical Algorithms, 3.1, 4.2); 1e-9 is 4 times that up to
        # N + fp_max_iters = 2.2e6, beyond which the margin grows with N
        self.lazy_tol = sp.fp_tol * (1.0 + max(1e-9, (N + sp.fp_max_iters) * 2.0 ** -51))
        self.inverse_scale = np.array(0.5 / N)      # X = ifft(Z) / (2 N)
        # mean-field shift c = 2 mean|u|^2, by Parseval; kept as a complex
        # 0-d array, which the cubic term subtracts without a conversion
        shift = 0.0 if mp.linear else 2.0 * np.vdot(u_hat, u_hat).real / N ** 2
        self.shift = np.array(shift, dtype=complex)
        shifted = grid.fractional_symbol(mp.s) - shift
        tables = {}     # symmetric compositions repeat b_j; equal stages share
        for bj in b:
            if bj not in tables:
                ihk = 0.5j * sp.k * bj
                # 2 A^-1 = 1 / (A / 2), in place; a reciprocal is cheaper
                # than a division
                pre = (0.5 * ihk) * shifted
                pre += 0.5
                np.reciprocal(pre, out=pre)
                gain = np.zeros_like(pre) if mp.linear else ihk * pre
                tables[bj] = pre, gain, sp.k * bj
        self.stages = [tables[bj] for bj in b]      # (pre_j, gain_j, k b_j)
        # eta[j - 1]: weight of stage j's first-sweep error estimate, 1.0
        # until a solve of two or more sweeps has measured its contraction
        self.eta = [1.0] * len(b)
        self.max_contraction = 0.0
        self.x = np.empty(N, dtype=complex)         # nodal iterate X_n
        self.z = (np.empty(N, dtype=complex), np.empty(N, dtype=complex))
        self.work = np.empty(N, dtype=complex)      # cubic term, iterate change
        self.base = np.empty(N, dtype=complex)      # pre_j fft(Y_prev)


# factors of 3 w (g1 - w (g2 - w g3 / 3)), as complex 0-d arrays, and the
# forward transform's scale, which a ufunc takes without the conversion a
# Python scalar costs each call; ufuncs take out positionally for the same
# reason, except np.maximum, whose positional out numpy 2.4 deprecates
THIRD, THREE = (np.array(f, dtype=complex) for f in (1.0 / 3.0, 3.0))
ONE = np.array(1.0)
TINY = np.array(np.finfo(float).tiny)


def _extrapolate(history: np.ndarray, n: int, w: np.ndarray, scale: np.ndarray) -> None:
    """Predict each stage's nonlinear part g in step n (see the module
    docstring) into the slot of g_{n-3}, which step n then overwrites:
    history[(m - 1) % 3, j - 1] holds stage j's converged g in step m.
    w and scale are (q, N) work arrays."""
    g1, g2, acc = (history[(n - 1 - i) % 3] for i in (1, 2, 3))
    np.conjugate(g2, w)
    np.multiply(w, g1, w)
    # w / |w|, and 0 where w is exactly 0: 0 / tiny, not 0 / 0 (np.sign
    # does both, but took 12 times as long as np.abs at q N = 12288)
    np.abs(w, scale)
    np.maximum(scale, TINY, out=scale)
    np.reciprocal(scale, scale)
    np.multiply(w, scale, w)
    np.multiply(acc, w, acc)
    np.multiply(acc, THIRD, acc)
    np.subtract(g2, acc, acc)
    np.multiply(acc, w, acc)
    np.subtract(g1, acc, acc)
    np.multiply(acc, w, acc)
    np.multiply(acc, THREE, acc)


# Diverging stage iterates may overflow before the iteration cap trips;
# that is the expected failure route, not a condition worth a numpy
# warning.  evolve enters this scope around its set-up and around all
# its stages.
_QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore"}


def _stage_solve(ctx: _StepContext, stage_index: int, y_hat: np.ndarray,
                 out: np.ndarray, g: np.ndarray, predicted: bool) -> int:
    """Solve one midpoint stage from fft(Y_prev) = y_hat, starting from
    Z_0 = base + g if predicted, else from X_0 = Y_prev; writes fft(Y_next)
    into out, the converged nonlinear part into g, and returns the
    iteration count.  A solve of two or more sweeps records its measured
    contraction theta in ctx.eta and ctx.max_contraction.

    y_hat is not written, and out must be distinct from the other arrays.
    evolve, the one caller, holds the _QUIET_OVERFLOW scope.
    """
    pre, gain, kb = ctx.stages[stage_index - 1]
    eta = ctx.eta[stage_index - 1]
    x, work, base, shift = ctx.x, ctx.work, ctx.base, ctx.shift
    tol, lazy_tol, scale, max_iters = ctx.tol, ctx.lazy_tol, ctx.inverse_scale, ctx.max_iters
    z, z_next = ctx.z
    np.multiply(pre, y_hat, base)
    if predicted:
        np.add(base, g, z)
    else:
        np.add(y_hat, y_hat, z)
    ifft(z, scale, x)
    diff, bound, theta = math.inf, math.inf, 0.0
    for it in range(1, max_iters + 1):
        np.conjugate(x, work)
        np.multiply(work, x, work)
        np.subtract(work, shift, work)
        np.multiply(work, x, work)
        fft(work, ONE, g)
        np.multiply(g, gain, g)
        np.add(g, base, z_next)
        np.subtract(z_next, z, work)
        prev, diff = diff, math.sqrt(np.vdot(work, work).real)
        z, z_next = z_next, z
        # this sweep's contraction: 0 at the first (prev = inf); later,
        # prev > 0, as a sweep that changed nothing has already stopped
        ratio = diff / prev
        if ratio > theta:
            theta = ratio
        # bound >= ||Z_n||: the last norm read plus the increments since
        # (inf before the first read).  A sweep whose increment fails the
        # stop test against it, with lazy_tol's rounding margin, cannot stop
        # and skips the read; a non-finite increment compares false and
        # reads, so an overflowing iterate fails as before
        bound += diff
        if not eta * diff > lazy_tol * bound:
            bound = norm = math.sqrt(np.vdot(z, z).real)
            if not math.isfinite(norm):
                # overflow: bail out now, the tolerance test would be
                # vacuous (inf <= fp_tol * inf)
                raise StageDivergenceError(stage_index, it, math.inf, math.inf, kb)
            if eta * diff <= tol * norm:
                np.subtract(z, y_hat, out)
                if it > 1:
                    ctx.eta[stage_index - 1] = (max(0.01, theta / (1.0 - theta))
                                                if theta < 0.5 else 1.0)
                    ctx.max_contraction = max(ctx.max_contraction, theta)
                return it
        eta = 1.0       # later sweeps keep the plain increment test
        ifft(z, scale, x)
    norm = math.sqrt(np.vdot(z, z).real)
    residual = diff / norm if norm > 0.0 else math.inf
    raise StageDivergenceError(stage_index, max_iters, residual, theta, kb)


def step(U_n: Field, scheme: CompositionScheme, sp: SolverParams,
         mp: ModelParams) -> tuple[Field, list[int]]:
    """Advance one composition step of length k, as a one-step evolve;
    also returns the fixed-point iteration count of each stage."""
    out, stats = evolve(U_n, sp.k, scheme, sp, mp)
    return out, list(stats.stage_iterations)


def imr_stage_solve(Y_prev: Field, b_j: float, sp: SolverParams,
                    mp: ModelParams) -> tuple[Field, int]:
    """Single implicit midpoint substep of length k b_j: a one-stage step."""
    out, counts = step(Y_prev, CompositionScheme(1, (float(b_j),)), sp, mp)
    return out, counts[0]


def exact_step_count(T: float, k: float, name: str = "T/k") -> int:
    """Step count M = T/k, required to be a positive integer to 0.5 ulp.

    Mismatches are rejected rather than silently rounding k: convergence
    studies rely on exact step counts.  The message starts with name, the
    caller's name for the value checked.
    """
    ratio = T / k if k else math.inf
    if not math.isfinite(ratio):
        raise ParameterError(f"{name}: T/k = {T!r}/{k!r} is not a finite step count")
    M = round(ratio)
    if M < 1 or abs(ratio - M) > 0.5 * math.ulp(abs(ratio)):
        raise ParameterError(f"{name}: T/k = {T!r}/{k!r} = {ratio!r} is not a positive "
                             "integer step count; choose k dividing T exactly")
    return M


def evolve(U0: Field, T: float, scheme: CompositionScheme, sp: SolverParams,
           mp: ModelParams, observers: tuple = ()) -> tuple[Field, RunStats]:
    """Run M = T/k composition steps from U0, backward in time if k < 0.

    Observers are callables invoked as observer(step_index, t, field) at
    step 0 and after every step whose index is a multiple of their
    ``stride`` attribute (default 1), which must be a positive integer.
    The loop itself is strictly sequential and deterministic.
    """
    M = exact_step_count(T, sp.k)
    grid = U0.grid
    strides = [getattr(obs, "stride", 1) for obs in observers]
    for stride in strides:
        check_count("observer stride", stride)

    N = grid.N
    caller_errstate = np.geterr()
    with np.errstate(**_QUIET_OVERFLOW):
        # the mean-field shift of a huge field overflows here; the first
        # stage solve then reports the failure with its step and stage
        u_hat = fft(U0.values, 1.0, out=np.empty(N, dtype=complex))
        ctx = _StepContext(grid, scheme.b, sp, mp, u_hat)
    for obs in observers:
        obs(0, 0.0, U0)

    counts = [0] * scheme.q     # counts[j - 1]: stage j's iterations
    if M > 4:
        history = np.empty((3, scheme.q, N), dtype=complex)
        w = np.empty((scheme.q, N), dtype=complex)
        scale = np.empty((scheme.q, N))
        # slots[r] pairs each stage index j with its row of history[r]
        slots = [list(enumerate(rows, 1)) for rows in history]
    else:
        # nothing is predicted: every stage writes its g into one scratch
        scratch = np.empty_like(u_hat)
        slots = [[(j, scratch) for j in range(1, scheme.q + 1)]]
    spare = np.empty_like(u_hat)    # u_hat and spare alternate as stage output
    with np.errstate(**_QUIET_OVERFLOW):
        for n in range(1, M + 1):
            # from step 5 on, every stage starts from its predicted part,
            # written into the slot its converged part then overwrites
            predicted = n > 4
            if predicted:
                _extrapolate(history, n, w, scale)
            try:
                for j, g in slots[(n - 1) % len(slots)]:
                    counts[j - 1] += _stage_solve(ctx, j, u_hat, spare, g, predicted)
                    u_hat, spare = spare, u_hat
            except StageDivergenceError as err:
                err.annotate(step_index=n, time=(n - 1) * sp.k)
                raise
            if observers and any(n % stride == 0 for stride in strides):
                field_n = Field(ifft(u_hat, 1.0 / N, out=np.empty_like(u_hat)), grid)
                t_n = n * sp.k
                # observers run under the caller's numpy error handling
                with np.errstate(**caller_errstate):
                    for obs, stride in zip(observers, strides):
                        if n % stride == 0:
                            obs(n, t_n, field_n)

    stats = RunStats(steps=M, stage_iterations=tuple(counts),
                     max_contraction=ctx.max_contraction)
    return Field(ifft(u_hat, 1.0 / N, out=spare), grid), stats
