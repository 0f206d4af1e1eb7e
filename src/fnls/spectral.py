"""Periodic Fourier collocation infrastructure.

Functions on a uniform grid over (-L, L) are represented by their nodal
values and expanded in the modes e^{i pi k x / L} for integer wavenumbers
k in {-N/2, ..., N/2 - 1}.  The forward transform is normalized by 1/N so
that coefficients approximate the continuous Fourier coefficients

    u_hat(k) = (1/2L) int_{-L}^{L} e^{-i pi k x / L} u(x) dx

(trapezoid quadrature at the nodes).  Because the first node sits at -L
rather than 0, the discrete transform picks up an alternating phase
(-1)^k relative to a plain FFT; diagonal multiplier operators are
unaffected (the phases cancel), so they are applied directly in FFT
layout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import ParameterError, check_count, check_positive_finite

__all__ = [
    "SpectralGrid",
    "Field",
    "Coefficients",
    "forward_transform",
    "inverse_transform",
    "fractional_laplacian",
    "derivative",
    "l2_norm",
    "hs_norm",
]


# numpy's pocketfft gufuncs, called without the np.fft wrapper, whose
# argument handling adds about 4 us per call: as much as the transform
# itself at N = 128 (measured in README "Solver").
# fft(a, fct, out=out) writes fct * sum_j a_j e^{-2 pi i j m / N} along the
# last axis of a, and ifft the same with e^{+2 pi i j m / N}; stacks of
# shape (B, N) are transformed row by row.  out is required: the gufunc
# cannot size it.  Bit for bit, np.fft.fft(a) is fft(a, 1.0), np.fft.ifft(a)
# is ifft(a, 1 / N) and np.fft.ifft(a, norm="forward") is ifft(a, 1.0).
fft = _pocketfft_umath.fft
ifft = _pocketfft_umath.ifft
# fct = 1 as a 0-d array, which the gufuncs take without converting a
# Python float on each call
ONE = np.array(1.0)


def check_grid(N, L) -> None:
    """SpectralGrid's preconditions on N and L, raised as ParameterError
    naming the value; N must also leave 16 N bytes addressable."""
    check_count("N", N, lo=4)
    if N % 2:
        raise ParameterError(f"N: must be an even integer >= 4, got {N!r}")
    if 16 * int(N) > sys.maxsize:
        raise ParameterError(f"N: {N!r} complex values exceed the addressable memory")
    check_positive_finite("L", L)


def check_s(s, lo: float = 0.0) -> None:
    """Raise ParameterError unless the fractional order s lies in (lo, 1];
    lo = 1/2 where a Petviashvili profile or the H^s bound needs s > 1/2."""
    if not lo < s <= 1.0:
        raise ParameterError(f"s: must lie in ({lo:g}, 1], got {s!r}")


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on (-L, L) with N collocation nodes.

    Nodes are x_j = -L + j h with h = 2L/N; the right endpoint is excluded
    by periodicity.  The wavenumber table keeps numpy's FFT ordering
    [0, 1, ..., N/2 - 1, -N/2, ..., -1] so coefficient arrays align with
    fft output.
    """

    N: int
    L: float

    def __post_init__(self):
        check_grid(self.N, self.L)
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "L", float(self.L))

    @cached_property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT order, covering [-N/2, N/2 - 1]."""
        k = np.arange(self.N, dtype=np.int64)
        k[self.N // 2:] -= self.N
        return k

    @cached_property
    def kappa(self) -> np.ndarray:
        """Physical wavenumbers pi k / L, FFT order."""
        return np.pi * self.wavenumbers / self.L

    @cached_property
    def mode_phase(self) -> np.ndarray:
        # (-1)^k: relates plain-FFT coefficients to the -L-based expansion.
        return np.where(self.wavenumbers % 2 == 0, 1.0, -1.0)

    @cached_property
    def derivative_symbol(self) -> np.ndarray:
        """i pi k / L with the unmatched Nyquist mode -N/2 zeroed."""
        sym = 1j * self.kappa
        sym[self.wavenumbers == -self.N // 2] = 0.0
        sym.setflags(write=False)
        return sym

    @cached_property
    def _fractional_symbols(self) -> dict:
        return {}

    def fractional_symbol(self, s: float) -> np.ndarray:
        """Multiplier |pi k / L|^(2s) of the fractional Laplacian, computed
        once per s on this grid and returned read-only."""
        sym = self._fractional_symbols.get(s)
        if sym is None:
            sym = np.abs(self.kappa) ** (2.0 * s)
            sym.setflags(write=False)
            self._fractional_symbols[s] = sym
        return sym


def _grid_array(name: str, values, grid: SpectralGrid) -> np.ndarray:
    # the complex array of a Field or Coefficients, one entry per grid point
    array = np.asarray(values, dtype=np.complex128)
    if array.shape != (grid.N,):
        raise ParameterError(f"{name}: must have shape ({grid.N},), got {array.shape}")
    return array


@dataclass(frozen=True)
class Field:
    """Complex nodal values of a 2L-periodic function on a SpectralGrid."""

    values: np.ndarray
    grid: SpectralGrid

    def __post_init__(self):
        object.__setattr__(self, "values", _grid_array("values", self.values, self.grid))


@dataclass(frozen=True)
class Coefficients:
    """Fourier coefficients aligned with the grid's wavenumber table."""

    modes: np.ndarray
    grid: SpectralGrid

    def __post_init__(self):
        object.__setattr__(self, "modes", _grid_array("modes", self.modes, self.grid))


def forward_transform(f: Field) -> Coefficients:
    """Discrete Fourier coefficients u_hat_k = (1/N) sum_j u_j e^{-i pi k x_j / L}."""
    g = f.grid
    return Coefficients(g.mode_phase * np.fft.fft(f.values) / g.N, g)


def inverse_transform(c: Coefficients) -> Field:
    """Exact inverse of forward_transform."""
    g = c.grid
    return Field(np.fft.ifft(c.modes * g.mode_phase) * g.N, g)


def _apply_symbol(f: Field, symbol: np.ndarray) -> Field:
    # Diagonal Fourier multiplier; the -L phase factors cancel.
    return Field(np.fft.ifft(symbol * np.fft.fft(f.values)), f.grid)


def fractional_laplacian(f: Field, s: float) -> Field:
    """Apply (-d_xx)^s: mode k is scaled by |pi k / L|^(2s).

    The zero mode is annihilated; the Nyquist mode is kept (the symbol is
    even, so no conjugate partner is needed).
    """
    check_s(s)
    return _apply_symbol(f, f.grid.fractional_symbol(s))


def derivative(f: Field) -> Field:
    """Spectral first derivative; the Nyquist mode is zeroed.

    The odd symbol i pi k / L has no matched conjugate partner at k = -N/2,
    so that mode is dropped to keep real fields real.
    """
    return _apply_symbol(f, f.grid.derivative_symbol)


def l2_norm(f: Field) -> float:
    """Discrete L2 norm sqrt(h sum_j |f_j|^2)."""
    return float(np.sqrt(f.grid.h) * np.linalg.norm(f.values))


def hs_norm(f: Field, s: float) -> float:
    """Sobolev H^s norm sqrt(2L sum_k (1 + k^2)^s |u_hat_k|^2)."""
    g = f.grid
    c = np.fft.fft(f.values) / g.N     # mode_phase cancels under |c|^2
    weights = (1.0 + g.wavenumbers.astype(np.float64) ** 2) ** s
    return float(np.sqrt(2.0 * g.L * np.sum(weights * np.abs(c) ** 2)))
