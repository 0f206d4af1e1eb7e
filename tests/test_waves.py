import math
import pickle

import numpy as np
import pytest

from fnls import (
    Field,
    ParameterError,
    ProfileDivergenceError,
    SolitonParams,
    SpectralGrid,
    forward_transform,
    l2_norm,
    linf_norm,
    nls_soliton,
    petviashvili_profile,
    residual_operator,
)


def test_soliton_params():
    p = SolitonParams(lambda1=1.0, lambda2=0.25)
    assert p.a == pytest.approx(1.0 - 0.25**2 / 4)
    with pytest.raises(ParameterError):
        SolitonParams(lambda1=0.2, lambda2=1.0)   # a = 0.2 - 0.25 < 0
    with pytest.raises(ParameterError):
        SolitonParams(lambda1=0.0)


def test_soliton_peak_and_phase():
    g = SpectralGrid(512, 16 * np.pi)
    p = SolitonParams(lambda1=1.0, lambda2=0.25, x0=2.0, theta0=0.7)
    u = nls_soliton(g, 0.0, p)
    j = int(np.argmax(np.abs(u.values)))
    assert g.nodes[j] == pytest.approx(2.0, abs=g.h)
    assert np.max(np.abs(u.values)) <= math.sqrt(2 * p.a) + 1e-12
    # value at the nearest node to the peak: rho e^{i(theta(xi) + theta0)}
    xi = g.nodes[j] - 2.0
    expected = (math.sqrt(2 * p.a) / math.cosh(math.sqrt(p.a) * xi)
                * np.exp(1j * (0.125 * xi + 0.7)))
    assert u.values[j] == pytest.approx(expected, rel=1e-12)


def test_soliton_translates_with_time():
    g = SpectralGrid(512, 16 * np.pi)
    p = SolitonParams(lambda1=1.0, lambda2=0.25)
    later = nls_soliton(g, 4.0, p)
    j = int(np.argmax(np.abs(later.values)))
    assert g.nodes[j] == pytest.approx(1.0, abs=g.h)


def test_soliton_on_wide_domain():
    # sqrt(a) |xi| reaches 992 here, and cosh overflows beyond 710: the sech
    # tails are exactly 0 (1 / inf), silently, and the rest is untouched
    grid = SpectralGrid(2048, 1000.0)
    sol = SolitonParams(1.0, 0.25)
    u = nls_soliton(grid, 0.0, sol)
    arg = np.sqrt(sol.a) * grid.nodes
    far = np.abs(arg) > 711.0
    assert np.count_nonzero(far) > grid.N // 4
    np.testing.assert_array_equal(u.values[far], 0.0)
    near = ~far & (np.abs(arg) < 710.0)
    rho = np.sqrt(2.0 * sol.a) / np.cosh(arg[near])
    np.testing.assert_array_equal(
        u.values[near], rho * np.exp(1j * (0.5 * sol.lambda2 * grid.nodes[near])))


def test_residual_operator_zero_map(small_grid):
    zero = Field(np.zeros(small_grid.N), small_grid)
    out = residual_operator(zero, 0.75, 1.0, 0.25)
    np.testing.assert_array_equal(out.values, 0.0)


def test_residual_operator_accepts_classical_soliton():
    # the closed-form s = 1 profile must satisfy the traveling-wave equation;
    # N = 1024 keeps the spectral tail under the laplacian symbol's growth
    g = SpectralGrid(1024, 16 * np.pi)
    u = nls_soliton(g, 0.0, SolitonParams(lambda1=1.0, lambda2=0.25))
    res = residual_operator(u, 1.0, 1.0, 0.25)
    assert l2_norm(res) <= 1e-10


def test_residual_operator_detects_wrong_scaling():
    g = SpectralGrid(512, 16 * np.pi)
    u = nls_soliton(g, 0.0, SolitonParams(lambda1=1.0, lambda2=0.25))
    doubled = Field(2.0 * u.values, g)
    assert l2_norm(residual_operator(doubled, 1.0, 1.0, 0.25)) > 0.1


def test_petviashvili_recovers_classical_soliton():
    g = SpectralGrid(512, 16 * np.pi)
    result = petviashvili_profile(g, 1.0, 1.0, 0.25)
    exact = nls_soliton(g, 0.0, SolitonParams(1.0, 0.25))
    assert result.residual <= 1e-10
    assert linf_norm(Field(result.profile.values - exact.values, g)) <= 1e-8
    assert result.iterations >= 1


def test_petviashvili_fractional_profile():
    # kappa_max = pi N / (2 L) = 32: enough for the algebraic tails at s = 0.75
    g = SpectralGrid(1024, 16 * np.pi)
    result = petviashvili_profile(g, 0.75, 1.0, 0.25)
    assert result.residual <= 1e-10
    vals = result.profile.values
    # abs=0: near 5e-12 approx's default abs=1e-12 would decide, not rel
    assert l2_norm(residual_operator(result.profile, 0.75, 1.0, 0.25)) == pytest.approx(
        result.residual, rel=1e-3, abs=0)
    # peak centered at x = 0, modulus even, coefficients real (conjugate symmetry)
    assert int(np.argmax(np.abs(vals))) == g.N // 2
    np.testing.assert_allclose(np.abs(vals[1:]), np.abs(vals[1:][::-1]),
                               rtol=0, atol=1e-10)
    modes = forward_transform(result.profile).modes
    assert np.max(np.abs(modes.imag)) <= 1e-9 * np.max(np.abs(modes.real))


def test_petviashvili_stationary_profile():
    g = SpectralGrid(512, 16 * np.pi)
    result = petviashvili_profile(g, 0.75, 1.0, 0.0)
    assert result.residual <= 1e-10
    vals = result.profile.values
    assert np.max(np.abs(vals.imag)) <= 1e-10
    assert np.min(vals.real) >= -1e-10


def test_petviashvili_profile_grid_independent():
    # refining N leaves the resolved profile unchanged on common nodes
    coarse = petviashvili_profile(SpectralGrid(1024, 16 * np.pi), 0.75, 1.0, 0.25)
    fine = petviashvili_profile(SpectralGrid(2048, 16 * np.pi), 0.75, 1.0, 0.25)
    diff = coarse.profile.values - fine.profile.values[::2]
    assert np.max(np.abs(diff)) <= 1e-8


def test_petviashvili_validation(small_grid):
    for bad in (0.5, 0.4):
        with pytest.raises(ParameterError, match=r"^s: must lie in \(0.5, 1\]"):
            petviashvili_profile(small_grid, bad, 1.0, 0.0)
    with pytest.raises(ParameterError, match="^profile symbol .* must be positive"):
        petviashvili_profile(small_grid, 0.75, -1.0, 0.0)
    with pytest.raises(ParameterError, match="^lambda1: must be finite"):
        petviashvili_profile(small_grid, 0.75, math.inf, 0.0)
    with pytest.raises(ParameterError, match="^lambda2: must be finite"):
        petviashvili_profile(small_grid, 0.75, 1.0, math.nan)
    for bad in (0.0, math.inf):
        with pytest.raises(ParameterError):
            petviashvili_profile(small_grid, 0.75, 1.0, 0.0, tol=bad)
    for bad in (0, 2.5, True):
        with pytest.raises(ParameterError):
            petviashvili_profile(small_grid, 0.75, 1.0, 0.0, max_iters=bad)
    # numpy integers are integers
    result = petviashvili_profile(SpectralGrid(256, 16 * np.pi), 0.75, 1.0, 0.25,
                                  max_iters=np.int64(80))
    assert result.residual <= 1e-10
    with pytest.raises(ParameterError):
        petviashvili_profile(small_grid, 0.75, 0.2, 1.0)   # a <= 0


def test_petviashvili_start_width_names_lambda1():
    # the symbol is positive on this grid, the s = 1 start is not a wave
    with pytest.raises(ParameterError, match="^lambda1: must exceed") as info:
        petviashvili_profile(SpectralGrid(256, 16 * np.pi), 0.75, 0.2, 1.0)
    assert "soliton" not in str(info.value)


def test_petviashvili_divergence_error():
    g = SpectralGrid(256, 16 * np.pi)
    with pytest.raises(ProfileDivergenceError) as info:
        petviashvili_profile(g, 0.75, 1.0, 0.25, max_iters=2)
    err = info.value
    assert err.iterations == 2
    assert len(err.residual_history) == 2
    back = pickle.loads(pickle.dumps(err))
    assert back.iterations == 2
    assert back.residual_history == err.residual_history
    assert str(back) == str(err)


def test_petviashvili_converges_on_coarse_grids():
    # the README quick-start profile: the iteration symbol must drop the
    # drift term at the Nyquist mode exactly as residual_operator does, or
    # the residual on these grids cannot fall below about 1e-6
    for N in (256, 512):
        g = SpectralGrid(N, 16 * np.pi)
        result = petviashvili_profile(g, 0.75, 1.0, 0.25, max_iters=80)
        assert result.residual <= 1e-10
        assert l2_norm(residual_operator(result.profile, 0.75, 1.0, 0.25)) == pytest.approx(
            result.residual, rel=1e-3, abs=0)
