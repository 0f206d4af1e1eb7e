"""Semidiscrete fractional NLS model.

The equation i u_t - (-d_xx)^s u + |u|^2 u = 0 on (-L, L) becomes, after
Fourier collocation in space, the ODE system

    u_t = F(u) = -i (-d_xx)^s u + i |u|^2 u,

with the cubic term formed pointwise at the nodes.  This module provides
F, its conserved functionals (the mass I1, the momentum I2 and the
Hamiltonian H, evaluated together by ``invariants``), and the a-priori
H^s bound diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, check_s

__all__ = [
    "ModelParams",
    "InvariantRecord",
    "HsBoundDiagnostic",
    "nonlinearity",
    "rhs",
    "invariants",
    "hs_bound_diagnostic",
]


@dataclass(frozen=True)
class ModelParams:
    """Fractional order s in (0, 1]."""

    s: float

    def __post_init__(self):
        check_s(self.s)


@dataclass(frozen=True)
class InvariantRecord:
    t: float
    I1: float
    I2: float
    H: float


@dataclass(frozen=True)
class HsBoundDiagnostic:
    """Constants of the H^s a-priori bound and whether its hypotheses hold.

    C_S is None when the bound formula is not applicable (C_star <= 0 or
    negative radicand).
    """

    C_inf: float
    C_star: float
    C_S: float | None
    satisfied: bool


def nonlinearity(u: Field) -> Field:
    """Pointwise cubic term |u_j|^2 u_j, formed as conj(u_j) u_j u_j; only
    the stage kernel of integrators forms its own (shifted, in place)."""
    v = u.values
    return Field(np.conjugate(v) * v * v, u.grid)


def rhs(u: Field, p: ModelParams) -> Field:
    """Semidiscrete right-hand side F(u) = -i (-d_xx)^s u + i |u|^2 u."""
    lap = np.fft.ifft(u.grid.fractional_symbol(p.s) * np.fft.fft(u.values))
    return Field(-1j * lap + 1j * nonlinearity(u).values, u.grid)


def invariants(t: float, u: Field, p: ModelParams) -> InvariantRecord:
    """The three conserved functionals at time t:

        I1 = (h/2) sum_j |u_j|^2,
        I2 = (h/2) sum_j Im(u_j conj((Du)_j)),
        H  = h sum_j ( |(|D|^s u)_j|^2 / 2 - |u_j|^4 / 2 ),

    with D the spectral derivative and |D|^s the half-power multiplier
    |pi k / L|^s.  One FFT gives the power spectrum |u_hat_k|^2 / N, and
    by Parseval I2 = -(h/2N) sum_k kappa_k |u_hat_k|^2 (the Nyquist mode
    zeroed as in derivative_symbol) and the kinetic term of H is
    (1/2N) sum_k |pi k / L|^(2s) |u_hat_k|^2; one nodal density |u_j|^2
    gives I1 and the quartic term.
    """
    g = u.grid
    c = np.fft.fft(u.values)
    power = (c.real ** 2 + c.imag ** 2) / g.N
    density = u.values.real ** 2 + u.values.imag ** 2
    kinetic = 0.5 * np.dot(g.fractional_symbol(p.s), power)
    potential = 0.5 * np.sum(density ** 2)
    return InvariantRecord(t=t, I1=float(0.5 * g.h * np.sum(density)),
                           I2=float(-0.5 * g.h * np.dot(g.derivative_symbol.imag, power)),
                           H=float(g.h * (kinetic - potential)))


def hs_bound_diagnostic(u0: Field, p: ModelParams) -> HsBoundDiagnostic:
    """A-priori H^s bound constants for initial data u0.

    C_inf sums (1 + |k|^s)^(-2) over the grid's mode set (the truncated
    sum appearing in the bound's proof; the untruncated statement uses
    1 + |k|^(2s) instead).  The bound ||u||_s <= C_S holds while the
    solution exists provided C_star = 1 - C_inf^2 I1 >= 0 and
    I1/2 + H >= 0; ``satisfied`` reports exactly those two hypotheses.
    """
    check_s(p.s, lo=0.5)
    k = np.abs(u0.grid.wavenumbers.astype(np.float64))
    c_inf = float(np.sqrt(np.sum((1.0 + k**p.s) ** -2.0)))
    record = invariants(0.0, u0, p)
    i1, energy = record.I1, record.H
    c_star = 1.0 - c_inf**2 * i1
    satisfied = c_star >= 0.0 and 0.5 * i1 + energy >= 0.0
    c_s = None
    if c_star > 0.0 and 2.0 * energy + i1 >= 0.0:
        c_s = float(np.sqrt((2.0 * energy + i1) / c_star))
    return HsBoundDiagnostic(C_inf=c_inf, C_star=c_star, C_S=c_s, satisfied=satisfied)
