import math

import numpy as np
import pytest

from fnls import (
    Coefficients,
    Field,
    ParameterError,
    SpectralGrid,
    derivative,
    forward_transform,
    fractional_laplacian,
    hs_norm,
    inverse_transform,
    l2_norm,
)
from fnls.spectral import fft, ifft
from conftest import smooth_random_field


def test_grid_geometry():
    g = SpectralGrid(8, 2.0)
    assert g.h == 0.5
    assert g.nodes[0] == -2.0
    assert g.nodes[g.N // 2] == 0.0
    np.testing.assert_allclose(np.diff(g.nodes), g.h)
    np.testing.assert_array_equal(g.wavenumbers, [0, 1, 2, 3, -4, -3, -2, -1])
    np.testing.assert_allclose(g.kappa, np.pi * g.wavenumbers / g.L)
    np.testing.assert_array_equal(g.mode_phase, [1, -1, 1, -1, 1, -1, 1, -1])


# 2^62: 16 N bytes exceed the address space, rejected before any array is built
@pytest.mark.parametrize("N", [3, 2, 0, -4, 7, 2**62, np.int64(2**62)])
def test_grid_rejects_bad_N(N):
    with pytest.raises(ParameterError):
        SpectralGrid(N, 1.0)


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf])
def test_grid_rejects_bad_L(L):
    with pytest.raises(ParameterError):
        SpectralGrid(16, L)


@pytest.mark.parametrize("shape", [(4,), (6,), (96,), (128,), (512,), (4096,), (3, 128)])
def test_pocketfft_bindings_match_numpy_fft(shape):
    # the bound gufuncs must give np.fft's bits; a numpy release that moves
    # or changes the private module fails here
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    N = shape[-1]
    np.testing.assert_array_equal(fft(a, 1.0, out=np.empty_like(a)), np.fft.fft(a))
    np.testing.assert_array_equal(ifft(a, 1.0, out=np.empty_like(a)),
                                  np.fft.ifft(a, norm="forward"))
    np.testing.assert_array_equal(ifft(a, 1.0 / N, out=np.empty_like(a)), np.fft.ifft(a))


def test_fractional_symbol_cached_read_only():
    g = SpectralGrid(16, 3.0)
    sym = g.fractional_symbol(0.75)
    assert g.fractional_symbol(0.75) is sym
    assert not sym.flags.writeable
    np.testing.assert_array_equal(sym, np.abs(g.kappa) ** 1.5)
    assert g.fractional_symbol(1.0) is not sym
    np.testing.assert_array_equal(g.fractional_symbol(1.0), g.kappa ** 2)


def test_field_shape_check(small_grid):
    with pytest.raises(ParameterError):
        Field(np.zeros(small_grid.N + 1), small_grid)
    with pytest.raises(ParameterError):
        Coefficients(np.zeros(3), small_grid)


@pytest.mark.parametrize("m", [0, 1, -3, 7, -15])
def test_forward_transform_pure_mode(small_grid, m):
    # e^{i m x} must produce a single unit coefficient at wavenumber m;
    # this pins the (-1)^k phase convention for the -L-based grid.
    u = Field(np.exp(1j * m * small_grid.nodes), small_grid)
    c = forward_transform(u).modes
    expected = np.zeros(small_grid.N, dtype=complex)
    expected[small_grid.wavenumbers == m] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-13)


def test_inverse_transform_pure_mode(small_grid):
    modes = np.zeros(small_grid.N, dtype=complex)
    modes[small_grid.wavenumbers == -5] = 2.0 - 1.0j
    u = inverse_transform(Coefficients(modes, small_grid))
    np.testing.assert_allclose(
        u.values, (2.0 - 1.0j) * np.exp(-5j * small_grid.nodes), atol=1e-13)


@pytest.mark.parametrize("N", [16, 64, 250])
def test_transform_round_trip(N):
    g = SpectralGrid(N, 1.7)
    u = smooth_random_field(g, seed=N)
    back = inverse_transform(forward_transform(u))
    np.testing.assert_allclose(back.values, u.values, atol=1e-13)
    c = forward_transform(u)
    again = forward_transform(inverse_transform(c))
    np.testing.assert_allclose(again.modes, c.modes, atol=1e-13)


def test_parseval(small_grid):
    u = smooth_random_field(small_grid, seed=3)
    c = forward_transform(u).modes
    grid_side = small_grid.h * np.sum(np.abs(u.values) ** 2)
    mode_side = 2.0 * small_grid.L * np.sum(np.abs(c) ** 2)
    assert grid_side == pytest.approx(mode_side, rel=1e-13)


def test_derivative_pure_mode():
    # u = e^{i3x} on L = pi differentiates to 3i e^{i3x}
    g = SpectralGrid(32, np.pi)
    u = Field(np.exp(3j * g.nodes), g)
    du = derivative(u)
    np.testing.assert_allclose(du.values, 3j * u.values, atol=1e-12)


def test_derivative_constant_and_nyquist(small_grid):
    const = Field(np.full(small_grid.N, 1.5 + 0.5j), small_grid)
    np.testing.assert_allclose(derivative(const).values, 0.0, atol=1e-14)
    nyq = np.zeros(small_grid.N, dtype=complex)
    nyq[small_grid.wavenumbers == -small_grid.N // 2] = 1.0
    u = Field(np.fft.ifft(nyq * (-1.0) ** small_grid.wavenumbers) * small_grid.N, small_grid)
    np.testing.assert_allclose(derivative(u).values, 0.0, atol=1e-13)


def test_derivative_keeps_real_fields_real(small_grid):
    rng = np.random.default_rng(11)
    u = Field(np.asarray(rng.normal(size=small_grid.N), dtype=complex), small_grid)
    du = derivative(u).values
    assert np.max(np.abs(du.imag)) <= 1e-12 * np.max(np.abs(du.real))


def test_derivative_against_analytic_sech():
    # L = 30 makes sech periodic to ~2e-13, so the analytic line derivative
    # is a valid oracle for the periodic spectral one
    g = SpectralGrid(512, 30.0)
    u = Field(1.0 / np.cosh(g.nodes) + 0j, g)
    exact = -np.tanh(g.nodes) / np.cosh(g.nodes)
    np.testing.assert_allclose(derivative(u).values.real, exact, atol=1e-10)


@pytest.mark.parametrize("s,m", [(1.0, 2), (0.75, 5), (0.6, -3), (0.5, 1)])
def test_fractional_laplacian_pure_mode(s, m):
    g = SpectralGrid(64, np.pi)   # L = pi makes kappa_m = m
    u = Field(np.exp(1j * m * g.nodes), g)
    out = fractional_laplacian(u, s)
    np.testing.assert_allclose(out.values, abs(m) ** (2 * s) * u.values, atol=1e-12)


def test_fractional_laplacian_s1_matches_second_derivative(small_grid):
    u = smooth_random_field(small_grid, seed=5, bandwidth=3.0)
    lap = fractional_laplacian(u, 1.0)
    minus_dxx = Field(-derivative(derivative(u)).values, small_grid)
    # agreement holds away from the Nyquist mode, absent in this data
    np.testing.assert_allclose(lap.values, minus_dxx.values, atol=1e-11)


def test_fractional_laplacian_annihilates_constants(small_grid):
    const = Field(np.full(small_grid.N, 2.0 - 1.0j), small_grid)
    np.testing.assert_allclose(fractional_laplacian(const, 0.7).values, 0.0, atol=1e-13)


def test_fractional_laplacian_real_even_symmetry():
    g = SpectralGrid(128, 12.0)
    u = Field(1.0 / np.cosh(g.nodes) + 0j, g)
    out = fractional_laplacian(u, 0.6).values
    assert np.max(np.abs(out.imag)) <= 1e-13
    np.testing.assert_allclose(out[1:], out[1:][::-1], atol=1e-12)


@pytest.mark.parametrize("s", [0.0, -0.2, 1.1])
def test_fractional_laplacian_rejects_bad_s(small_grid, s):
    u = Field(np.ones(small_grid.N), small_grid)
    with pytest.raises(ParameterError):
        fractional_laplacian(u, s)


def test_l2_norm_constant(small_grid):
    c = 1.25 - 0.5j
    u = Field(np.full(small_grid.N, c), small_grid)
    assert l2_norm(u) == pytest.approx(abs(c) * np.sqrt(2 * small_grid.L), rel=1e-13)


def test_l2_norm_against_trapezoid_quadrature():
    # independent oracle: sqrt(int sech^2) on a 16x finer trapezoid rule;
    # N = 512 keeps the coarse-grid quadrature error itself below 1e-13
    g = SpectralGrid(512, 16 * np.pi)
    u = Field(1.0 / np.cosh(g.nodes) + 0j, g)
    fine = np.linspace(-g.L, g.L, 16 * g.N, endpoint=False)
    quad = np.sqrt(np.sum(1.0 / np.cosh(fine) ** 2) * (2 * g.L / fine.size))
    assert l2_norm(u) == pytest.approx(quad, rel=1e-12)


def test_hs_norm_reduces_to_l2_at_s0(small_grid):
    u = smooth_random_field(small_grid, seed=13)
    assert hs_norm(u, 0.0) == pytest.approx(l2_norm(u), rel=1e-12)


def test_hs_norm_pure_mode(small_grid):
    u = Field(np.exp(4j * small_grid.nodes), small_grid)
    expected = np.sqrt(2 * small_grid.L) * (1 + 16.0) ** 0.375
    assert hs_norm(u, 0.75) == pytest.approx(expected, rel=1e-12)


def test_hs_norm_dominates_l2(small_grid):
    u = smooth_random_field(small_grid, seed=17)
    assert hs_norm(u, 0.6) >= l2_norm(u)
