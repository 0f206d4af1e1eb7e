"""Reference traveling waves: the closed-form s = 1 soliton and
numerically generated fractional solitary-wave profiles.

A traveling wave u(x, t) = Phi(x - lambda2 t) e^{i lambda1 t} of the
fractional NLS satisfies the profile equation

    (lambda1 + (-d_xx)^s) Phi + i lambda2 Phi' - |Phi|^2 Phi = 0.

For s = 1 the solution is explicit (sech profile); for s < 1 the profile
is computed with the Petviashvili iteration in Fourier space, Anderson
mixed: each next iterate combines the plain map image with the last DEPTH
differences of images and map residuals, by real least-squares weights.
That removes the single slow mode of the plain iteration (a rate of about
0.59 per iteration at s = 0.75): the README profile takes 15 iterations
instead of 48.  The returned profile is always a plain map image, with
the residual and iteration count of the solve.  The differences are held
as a deque of at most DEPTH pairs, newest first, from which each mixed
step forms its normal equations.  An iteration costs two transforms, run
like the stage kernel of integrators (pocketfft gufuncs with 0-d scales),
plus a fixed number of passes.  The solve and residual_operator apply one
operator: the profile symbol l(k) and model.nonlinearity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ProfileDivergenceError, check_count,
                     check_finite, check_positive_finite)
from .model import nonlinearity
from .spectral import ONE, Field, SpectralGrid, check_s, fft, ifft

__all__ = [
    "SolitonParams",
    "ProfileResult",
    "nls_soliton",
    "residual_operator",
    "petviashvili_profile",
]

PROFILE_TOL = 1e-12     # petviashvili_profile's and a config's default tol


@dataclass(frozen=True)
class SolitonParams:
    """Parameters of the s = 1 soliton.

    lambda1 sets the frequency, lambda2 the velocity; all four are finite,
    and the sech width parameter a = lambda1 - lambda2^2 / 4 is positive.
    """

    lambda1: float
    lambda2: float = 0.0
    x0: float = 0.0
    theta0: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "x0", "theta0"):
            check_finite(name, getattr(self, name))
        if not self.a > 0.0:
            raise ParameterError(f"lambda1: must exceed lambda2^2/4 = "
                                 f"{0.25 * self.lambda2**2!r}, got {self.lambda1!r}")

    @property
    def a(self) -> float:
        return self.lambda1 - 0.25 * self.lambda2**2


def nls_soliton(grid: SpectralGrid, t: float, sp: SolitonParams) -> Field:
    """Exact s = 1 soliton sampled at the grid nodes at time t.

    u(x, t) = rho(xi) e^{i (theta(xi) + theta0 + lambda1 t)} with
    xi = x - lambda2 t - x0, rho(x) = sqrt(2a) sech(sqrt(a) x) and
    theta(x) = (lambda2 / 2) x.  xi is not wrapped periodically; the
    sech tails are below machine precision for adequate L.
    """
    a = sp.a
    xi = grid.nodes - sp.lambda2 * t - sp.x0
    with np.errstate(over="ignore"):    # cosh = inf far out: sech is exactly 0
        rho = np.sqrt(2.0 * a) / np.cosh(np.sqrt(a) * xi)
    phase = 0.5 * sp.lambda2 * xi + sp.theta0 + sp.lambda1 * t
    return Field(rho * np.exp(1j * phase), grid)


def residual_operator(phi: Field, s: float, lambda1: float,
                      lambda2: float) -> Field:
    """Profile-equation residual (lambda1 + (-d_xx)^s) Phi + i lambda2 Phi' - |Phi|^2 Phi.

    The linear part is the profile solve's symbol l(k), applied in one
    transform pair; the cubic term is model.nonlinearity.
    """
    check_s(s)
    ell = _profile_symbol(phi.grid, s, lambda1, lambda2)
    linear = np.fft.ifft(ell * np.fft.fft(phi.values))
    return Field(linear - nonlinearity(phi).values, phi.grid)


@dataclass(frozen=True)
class ProfileResult:
    """Converged traveling-wave profile with its solve diagnostics."""

    profile: Field
    residual: float
    iterations: int


def _profile_symbol(grid: SpectralGrid, s: float, lambda1: float,
                    lambda2: float) -> np.ndarray:
    """Fourier symbol l(k) = lambda1 + |pi k/L|^(2s) - lambda2 (pi k/L) of
    the profile equation's linear part, the drift read off derivative_symbol."""
    drift = grid.derivative_symbol.imag
    return lambda1 + grid.fractional_symbol(s) - lambda2 * drift


# Anderson mixing depth: the number of past iterate and map-residual
# differences each mixed step combines.  On the N = 4096, s = 0.75 profile,
# depth 1, 2, 3 and 4 took 25, 19, 15 and 16 iterations (plain: 48).
DEPTH = 3


def _mixing_weights(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Real least-squares weights from the normal equations gram w = rhs,
    or None where the system is singular or not finite."""
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        return None
    try:
        weights = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    return weights if np.isfinite(weights).all() else None


def petviashvili_profile(grid: SpectralGrid, s: float, lambda1: float,
                         lambda2: float, tol: float = PROFILE_TOL,
                         max_iters: int = 500) -> ProfileResult:
    """Compute a solitary-wave profile by the Anderson-mixed Petviashvili
    iteration.

    The Petviashvili map acts in coefficient space,

        F(Phi_hat) = m^(3/2) G_hat / l,   G = |Phi|^2 Phi,
        m = sum_k l(k) |Phi_hat(k)|^2 / sum_k G_hat(k) conj(Phi_hat(k)),

    with stabilization exponent 3/2 (the optimal value for a cubic
    nonlinearity).  The initial iterate is the s = 1 soliton with the
    same (lambda1, lambda2).  Stops when the relative l2 change
    ||F(Phi_n) - Phi_n|| / ||F(Phi_n)|| is <= tol and the profile-equation
    residual of the next iterate is <= 100 tol.

    The next iterate is mixed from the last DEPTH differences of map
    images and map residuals f_n = F(Phi_n) - Phi_n (Anderson type II):

        Phi_{n+1} = F(Phi_n) - sum_i w_i (F(Phi_{i+1}) - F(Phi_i)),

    with real weights w minimizing ||f_n - sum_i w_i (f_{i+1} - f_i)||
    (normal equations of np.vdot inner products).  Real weights keep the
    conjugate symmetry of the iterates.  The first iteration, one whose
    normal equations are singular or not finite, and the iteration that
    passes the change test take the plain step Phi_{n+1} = F(Phi_n), so
    the returned profile is a plain Petviashvili image.  An iteration whose
    ||f_n|| exceeds ||f_{n-1}|| also takes the plain step and drops the
    differences held so far: far from the profile, stale differences can
    keep the mixed iteration from converging where the plain one does.
    The differences are held in a deque of at most DEPTH pairs
    (F(Phi_{i+1}) - F(Phi_i), f_{i+1} - f_i), newest first; each mixed
    step forms its DEPTH x DEPTH normal equations from them anew.

    An iteration costs two transforms, Phi = ifft(Phi_hat) and
    G_hat = fft(G), a fixed number of passes, and a DEPTH x DEPTH solve.
    Raises ProfileDivergenceError after max_iters iterations, or at once,
    carrying m, when m is not finite and positive: for an extreme lambda1
    the sum N sum |Phi|^4 underflows to 0 or overflows.  The residual of
    iterate n is read in coefficient space as
    sqrt(h / N) ||l Phi_hat - G_hat||, by Parseval the l2 norm of
    residual_operator, which applies the same l and cubic term.
    """
    check_s(s, lo=0.5)
    check_finite("lambda1", lambda1)
    check_finite("lambda2", lambda2)
    check_positive_finite("tol", tol)
    check_count("max_iters", max_iters)
    ell = _profile_symbol(grid, s, lambda1, lambda2)
    if np.min(ell) <= 0.0:
        raise ParameterError(
            "profile symbol lambda1 + |pi k/L|^(2s) - lambda2 pi k/L must be "
            f"positive for all grid modes; min = {float(np.min(ell)):.6g}"
        )

    N = grid.N
    phi = nls_soliton(grid, 0.0, SolitonParams(lambda1, lambda2))
    vals = phi.values                           # updated in place by ifft
    inv_ell = 1.0 / ell
    inverse_scale = np.array(1.0 / N)
    res_scale = math.sqrt(grid.h / N)           # l2 norm of X from fft(X)
    phi_hat = fft(vals, ONE, out=np.empty(N, dtype=complex))
    g_hat = np.empty(N, dtype=complex)
    # (F(Phi_{i+1}) - F(Phi_i), f_{i+1} - f_i), newest first
    history: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=DEPTH)
    last = None                                 # (F(Phi_n), f_n)
    last_norm = math.inf                        # ||f_{n-1}||

    def cubic_and_residual() -> tuple[np.ndarray, float]:
        # G_hat = fft(|Phi|^2 Phi) of phi, l Phi_hat and the residual of phi_hat
        fft(nonlinearity(phi).values, ONE, g_hat)
        ell_phi = ell * phi_hat
        gap = ell_phi - g_hat
        return ell_phi, res_scale * math.sqrt(np.vdot(gap, gap).real)

    ell_phi, _ = cubic_and_residual()
    residual_history: list[float] = []
    for it in range(1, max_iters + 1):
        # Both sums are real up to roundoff (Parseval pairs them with
        # real-valued nodal sums); keep the real parts.
        quartic = float(np.vdot(phi_hat, g_hat).real)
        m = float(np.vdot(phi_hat, ell_phi).real) / quartic if quartic else 0.0
        if not 0.0 < m < math.inf:
            raise ProfileDivergenceError(it - 1, residual_history, m)
        image = g_hat * inv_ell * m ** 1.5
        residual = image - phi_hat
        norm = math.sqrt(np.vdot(residual, residual).real)
        change = norm / math.sqrt(np.vdot(image, image).real)
        if norm > last_norm:
            history.clear()             # restart: forget the differences
        elif last is not None:
            history.appendleft((image - last[0], residual - last[1]))
        last, last_norm = (image, residual), norm
        weights = None
        if history and change > tol:
            d_res = [d_residual for _, d_residual in history]
            # gram[i][j] = Re <df_i, df_j>, the older difference first
            gram = np.array([[np.vdot(d_res[max(i, j)], d_res[min(i, j)]).real
                              for j in range(len(d_res))] for i in range(len(d_res))])
            rhs = np.array([np.vdot(d_residual, residual).real for d_residual in d_res])
            weights = _mixing_weights(gram, rhs)
        phi_hat = image
        if weights is not None:
            for (d_image, _), w in zip(history, weights):
                phi_hat = phi_hat - d_image * w
        ifft(phi_hat, inverse_scale, vals)
        ell_phi, res = cubic_and_residual()
        residual_history.append(res)
        if change <= tol and res <= 100.0 * tol:
            return ProfileResult(profile=phi, residual=res, iterations=it)
    raise ProfileDivergenceError(max_iters, residual_history)
