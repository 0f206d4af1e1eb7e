"""Reference traveling waves: the closed-form s = 1 soliton and
numerically generated fractional solitary-wave profiles.

A traveling wave u(x, t) = Phi(x - lambda2 t) e^{i lambda1 t} of the
fractional NLS satisfies the profile equation

    (lambda1 + (-d_xx)^s) Phi + i lambda2 Phi' - |Phi|^2 Phi = 0.

For s = 1 the solution is explicit (sech profile); for s < 1 the profile
is computed with the Petviashvili iteration in Fourier space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ProfileDivergenceError, check_count,
                     check_finite, check_positive_finite)
from .spectral import Field, SpectralGrid, check_s, derivative, fractional_laplacian

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
    """Profile-equation residual (lambda1 + (-d_xx)^s) Phi + i lambda2 Phi' - |Phi|^2 Phi."""
    vals = phi.values
    lap = fractional_laplacian(phi, s).values
    dphi = derivative(phi).values
    cubic = np.abs(vals) ** 2 * vals
    return Field(lambda1 * vals + lap + 1j * lambda2 * dphi - cubic, phi.grid)


@dataclass(frozen=True)
class ProfileResult:
    """Converged traveling-wave profile with its solve diagnostics."""

    profile: Field
    residual: float
    iterations: int


def _profile_symbol(grid: SpectralGrid, s: float, lambda1: float,
                    lambda2: float) -> np.ndarray:
    """Fourier symbol l(k) = lambda1 + |pi k/L|^(2s) - lambda2 (pi k/L).

    The drift term is read off the derivative symbol, so the Nyquist mode
    k = -N/2 drops it exactly as residual_operator's derivative does.
    """
    drift = grid.derivative_symbol.imag
    return lambda1 + grid.fractional_symbol(s) - lambda2 * drift


def petviashvili_profile(grid: SpectralGrid, s: float, lambda1: float,
                         lambda2: float, tol: float = PROFILE_TOL,
                         max_iters: int = 500) -> ProfileResult:
    """Compute a solitary-wave profile by the Petviashvili iteration.

    Iterates in coefficient space,

        Phi_hat <- m^(3/2) G_hat / l,   G = |Phi|^2 Phi,
        m = sum_k l(k) |Phi_hat(k)|^2 / sum_k G_hat(k) conj(Phi_hat(k)),

    with stabilization exponent 3/2 (the optimal value for a cubic
    nonlinearity).  The initial iterate is the s = 1 soliton with the
    same (lambda1, lambda2).  Stops when the relative l2 change of the
    iterate is <= tol and the profile-equation residual is <= 100 tol.

    Phi_hat is carried from one iteration to the next, so an iteration
    costs two transforms: Phi = ifft(Phi_hat) and G_hat = fft(G).  The
    residual of iterate n is read in coefficient space from the G_hat the
    next update needs anyway, as sqrt(h / N) ||l Phi_hat - G_hat||: l drops
    the drift at the Nyquist mode exactly as residual_operator does, so by
    Parseval this is residual_operator's l2 norm.
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

    vals = nls_soliton(grid, 0.0, SolitonParams(lambda1, lambda2)).values
    phi_hat = np.fft.fft(vals)
    g_hat = np.fft.fft(np.abs(vals) ** 2 * vals)
    res_scale = np.sqrt(grid.h / grid.N)    # l2 norm of X from fft(X)
    residual_history: list[float] = []
    for it in range(1, max_iters + 1):
        # Both sums are real up to roundoff (Parseval pairs them with
        # real-valued nodal sums); keep the real parts.
        num = float(np.sum(ell * np.abs(phi_hat) ** 2))
        den = float(np.real(np.sum(g_hat * np.conj(phi_hat))))
        m = num / den
        new_hat = m**1.5 * g_hat / ell
        change = np.linalg.norm(new_hat - phi_hat) / np.linalg.norm(new_hat)
        phi_hat = new_hat
        vals = np.fft.ifft(phi_hat)
        g_hat = np.fft.fft(np.abs(vals) ** 2 * vals)
        res = float(res_scale * np.linalg.norm(ell * phi_hat - g_hat))
        residual_history.append(res)
        if change <= tol and res <= 100.0 * tol:
            return ProfileResult(profile=Field(vals, grid), residual=res, iterations=it)
    raise ProfileDivergenceError(max_iters, residual_history)
