import math

import numpy as np
import pytest

from fnls import (
    Field,
    ModelParams,
    ParameterError,
    SolitonParams,
    SpectralGrid,
    fractional_laplacian,
    hs_bound_diagnostic,
    invariants,
    l2_norm,
    nls_soliton,
    nonlinearity,
    rhs,
)
from conftest import LINEAR_SCALE, smooth_random_field


def test_model_params_validation():
    ModelParams(s=1.0)
    ModelParams(s=0.25)
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            ModelParams(s=s)


def test_nonlinearity_pointwise(small_grid):
    vals = np.arange(small_grid.N) * (0.3 - 0.4j)
    out = nonlinearity(Field(vals, small_grid))
    np.testing.assert_allclose(out.values, np.abs(vals) ** 2 * vals)


@pytest.mark.parametrize("s,m,c", [(1.0, 3, 1.0), (0.75, -2, 0.8), (0.6, 5, 1.3)])
def test_rhs_plane_wave_balance(s, m, c):
    # u = c e^{imx} solves the flow with frequency |m|^{2s} - |c|^2 (L = pi),
    # so F(u) must equal -i (|m|^{2s} - |c|^2) u.
    g = SpectralGrid(64, np.pi)
    u = Field(c * np.exp(1j * m * g.nodes), g)
    omega = abs(m) ** (2 * s) - c**2
    out = rhs(u, ModelParams(s=s))
    np.testing.assert_allclose(out.values, -1j * omega * u.values, atol=1e-12)


# the ids start with the "False" of the deleted 2/3-rule mask axis, so the
# collocation cases keep the names they had
@pytest.mark.parametrize("s", [0.6, 1.0], ids=lambda s: f"False-{s}")
def test_rhs_mass_production_vanishes(small_grid, s):
    u = smooth_random_field(small_grid, seed=21, bandwidth=3.0)
    f = rhs(u, ModelParams(s=s))
    production = np.real(np.sum(f.values * np.conj(u.values)))
    scale = max(1.0, l2_norm(f) * l2_norm(u) / small_grid.h)
    assert abs(production) <= 1e-13 * scale


def test_rhs_linear_hook(small_grid):
    # the tests reach the linear flow through data scaled by LINEAR_SCALE,
    # whose cubic term underflows to exactly 0
    u = smooth_random_field(small_grid, seed=23, amplitude=LINEAR_SCALE)
    out = rhs(u, ModelParams(s=0.8))
    np.testing.assert_array_equal(out.values, -1j * fractional_laplacian(u, 0.8).values)


def test_mass_of_soliton():
    # int 2a sech^2(sqrt(a) xi) dx = 4 sqrt(a), halved by the 1/2 in I1
    g = SpectralGrid(512, 16 * np.pi)
    u = nls_soliton(g, 0.0, SolitonParams(lambda1=1.0))
    assert invariants(0.0, u, ModelParams(s=1.0)).I1 == pytest.approx(2.0, abs=1e-12)


def test_mass_of_constant(small_grid):
    c = 0.7 - 0.2j
    u = Field(np.full(small_grid.N, c), small_grid)
    i1 = invariants(0.0, u, ModelParams(s=1.0)).I1
    assert i1 == pytest.approx(small_grid.L * abs(c) ** 2, rel=1e-13)


@pytest.mark.parametrize("m,c", [(1, 1.0), (-1, 1.0), (4, 0.5)])
def test_momentum_pure_mode(m, c):
    g = SpectralGrid(64, np.pi)
    u = Field(c * np.exp(1j * m * g.nodes), g)
    assert invariants(0.0, u, ModelParams(s=1.0)).I2 == pytest.approx(-g.L * m * c**2, rel=1e-12)


def test_momentum_of_moving_soliton():
    # phase lambda2 xi / 2 over squared profile: I2 = -lambda2 sqrt(a)
    g = SpectralGrid(512, 16 * np.pi)
    p = SolitonParams(lambda1=1.0, lambda2=0.25)
    u = nls_soliton(g, 0.0, p)
    i2 = invariants(0.0, u, ModelParams(s=1.0)).I2
    assert i2 == pytest.approx(-0.25 * math.sqrt(p.a), abs=1e-10)


def test_momentum_real_field_zero(small_grid):
    rng = np.random.default_rng(29)
    u = Field(np.asarray(rng.normal(size=small_grid.N), dtype=complex), small_grid)
    record = invariants(0.0, u, ModelParams(s=1.0))
    assert abs(record.I2) <= 1e-12 * max(1.0, record.I1)


@pytest.mark.parametrize("s,m", [(1.0, 2), (0.75, 3), (0.6, 0)])
def test_hamiltonian_pure_mode(s, m):
    g = SpectralGrid(64, np.pi)
    u = Field(np.exp(1j * m * g.nodes), g)
    kinetic = abs(m) ** (2 * s) if m else 0.0
    expected = g.L * (kinetic - 1.0)
    assert invariants(0.0, u, ModelParams(s=s)).H == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_hamiltonian_constant(small_grid):
    c = 1.2
    u = Field(np.full(small_grid.N, c + 0j), small_grid)
    energy = invariants(0.0, u, ModelParams(s=0.8)).H
    assert energy == pytest.approx(-small_grid.L * c**4, rel=1e-13)


def test_invariants_gauge_and_shift_invariance(small_grid):
    p = ModelParams(s=0.75)
    u = smooth_random_field(small_grid, seed=31)
    base = invariants(0.0, u, p)
    rotated = invariants(0.0, Field(np.exp(0.9j) * u.values, small_grid), p)
    shifted = invariants(0.0, Field(np.roll(u.values, 17), small_grid), p)
    for other in (rotated, shifted):
        assert other.I1 == pytest.approx(base.I1, rel=1e-12)
        assert other.I2 == pytest.approx(base.I2, rel=1e-12, abs=1e-14)
        assert other.H == pytest.approx(base.H, rel=1e-12)


def test_hs_bound_c_inf_oracle(small_grid):
    p = ModelParams(s=0.75)
    u = smooth_random_field(small_grid, seed=37, amplitude=0.1)
    diag = hs_bound_diagnostic(u, p)
    terms = [(1.0 + abs(float(k)) ** p.s) ** -2 for k in small_grid.wavenumbers]
    assert diag.C_inf == pytest.approx(math.sqrt(math.fsum(terms)), rel=1e-14)


def test_hs_bound_zero_field(small_grid):
    diag = hs_bound_diagnostic(Field(np.zeros(small_grid.N), small_grid), ModelParams(s=1.0))
    assert diag.C_star == pytest.approx(1.0)
    assert diag.satisfied
    assert diag.C_S == pytest.approx(0.0)


def test_hs_bound_small_field_consistency(small_grid):
    p = ModelParams(s=0.8)
    u = smooth_random_field(small_grid, seed=41, amplitude=0.05)
    diag = hs_bound_diagnostic(u, p)
    assert diag.satisfied
    assert diag.C_S is not None
    record = invariants(0.0, u, p)
    assert diag.C_S**2 * diag.C_star == pytest.approx(2 * record.H + record.I1, rel=1e-12)
    # Cauchy-Schwarz behind C_inf: ||u||_inf <= C_inf ||u||_{s,proof}
    c = np.abs(np.fft.fft(u.values) / small_grid.N)
    weights = (1.0 + np.abs(small_grid.wavenumbers.astype(float)) ** p.s) ** 2
    proof_norm = math.sqrt(float(np.sum(weights * c**2)))
    assert np.max(np.abs(u.values)) <= diag.C_inf * proof_norm + 1e-13


def test_hs_bound_large_field_fails_hypotheses(small_grid):
    u = Field(np.full(small_grid.N, 2.0 + 0j), small_grid)
    diag = hs_bound_diagnostic(u, ModelParams(s=1.0))
    assert not diag.satisfied
    assert diag.C_star < 0
    assert diag.C_S is None


@pytest.mark.parametrize("s", [0.5, 0.3])
def test_hs_bound_requires_s_above_half(small_grid, s):
    u = Field(np.zeros(small_grid.N), small_grid)
    with pytest.raises(ParameterError, match=r"^s: must lie in \(0.5, 1\]"):
        hs_bound_diagnostic(u, ModelParams(s=s))
