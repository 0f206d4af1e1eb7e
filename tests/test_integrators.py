import math
import pickle
import tracemalloc

import numpy as np
import pytest

from fnls import (
    CompositionScheme,
    Field,
    FieldRecorder,
    ModelParams,
    ParameterError,
    RunConfig,
    SolitonParams,
    SolverParams,
    SpectralGrid,
    StageDivergenceError,
    evolve,
    exact_step_count,
    imr_stage_solve,
    invariants,
    l2_norm,
    nls_soliton,
    petviashvili_profile,
    rhs,
    step,
    yoshida_coefficients,
)
from fnls import integrators
from fnls.integrators import MAX_COMPOSITION_LEVEL
from fnls.spectral import fft, ifft
from conftest import LINEAR_SCALE, smooth_random_field

W1_ORDER4 = 1.3512071919596578
W0_ORDER4 = -1.7024143839193155


def test_yoshida_base_scheme():
    sch = yoshida_coefficients(1)
    assert sch.p == 1 and sch.q == 1 and sch.order == 2
    assert sch.b == (1.0,)


def test_yoshida_order4_coefficients():
    sch = yoshida_coefficients(2)
    assert sch.q == 3 and sch.order == 4
    assert sch.b == pytest.approx((W1_ORDER4, W0_ORDER4, W1_ORDER4), rel=1e-15)
    assert math.fsum(sch.b) == pytest.approx(1.0, abs=1e-15)
    assert abs(math.fsum(w**3 for w in sch.b)) <= 1e-14


def test_yoshida_order6_structure():
    sch = yoshida_coefficients(3)
    assert sch.q == 9 and sch.order == 6
    assert sch.b == tuple(reversed(sch.b))
    assert math.fsum(sch.b) == pytest.approx(1.0, abs=1e-13)
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 5.0))
    assert sch.b[0] == pytest.approx(w1 * W1_ORDER4, rel=1e-14)
    # each third is a scaled copy of the order-4 pattern
    np.testing.assert_allclose(sch.b[:3], w1 * np.array(yoshida_coefficients(2).b), rtol=1e-14)


def test_yoshida_rejects_bad_level():
    for p in (0, -1, 1.5):
        with pytest.raises(ParameterError):
            yoshida_coefficients(p)


def test_yoshida_rejects_level_above_bound():
    # rejected before any coefficient is built
    for p in (MAX_COMPOSITION_LEVEL + 1, 10**9):
        with pytest.raises(ParameterError, match="composition level"):
            yoshida_coefficients(p)


def test_composition_scheme_validation():
    sch = CompositionScheme(p=1, b=(0.5, 0.5))
    assert sch.q == 2 and sch.order == 2
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="nonzero and finite"):
            CompositionScheme(p=1, b=(1.0, bad))
    with pytest.raises(ParameterError):
        CompositionScheme(p=1, b=())


def test_solver_params_validation():
    SolverParams(k=-0.5)   # negative steps are legal (reversibility checks)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            SolverParams(k=bad)
    for bad in (0.0, math.inf):
        with pytest.raises(ParameterError):
            SolverParams(k=0.1, fp_tol=bad)
    with pytest.raises(ParameterError):
        SolverParams(k=0.1, fp_max_iters=0)


def test_exact_step_count():
    assert exact_step_count(10.0, 2.5e-2) == 400
    assert exact_step_count(156.25, 0.015625) == 10000
    assert exact_step_count(1.0, 1e-3) == 1000
    with pytest.raises(ParameterError):
        exact_step_count(1.0, 0.3)
    with pytest.raises(ParameterError):
        exact_step_count(0.5, 0.7)
    with pytest.raises(ParameterError, match="finite"):
        exact_step_count(1.0, 0.0)


@pytest.mark.parametrize("T,k,message", [
    (1.0, 0.3, "dt: T/k = 1.0/0.3 = 3.3333333333333335 is not a positive integer step "
               "count; choose k dividing T exactly"),
    (1.0, 0.0, "dt: T/k = 1.0/0.0 is not a finite step count"),
], ids=["not-integer", "not-finite"])
def test_exact_step_count_names_its_value(T, k, message):
    with pytest.raises(ParameterError) as info:
        exact_step_count(T, k, "dt")
    assert str(info.value) == message


def test_exact_step_count_rejects_overflow(small_grid):
    for T, k in ((math.inf, 0.1), (1e308, 1e-10), (1.0, 1e-320)):
        with pytest.raises(ParameterError, match="finite"):
            exact_step_count(T, k)
    u = smooth_random_field(small_grid, seed=29)
    with pytest.raises(ParameterError):
        evolve(u, math.inf, yoshida_coefficients(1), SolverParams(k=0.1), ModelParams(s=1.0))
    with pytest.raises(ParameterError, match="^T:"):
        RunConfig(L=np.pi, N=64, s=1.0, dt=0.1, T=math.inf, scheme_p=1,
                  initial=SolitonParams(1.0))


def test_stage_zero_field_converges_immediately(small_grid):
    mp = ModelParams(s=1.0)
    out, iters = imr_stage_solve(Field(np.zeros(small_grid.N), small_grid), 1.0,
                                 SolverParams(k=1e-2), mp)
    assert iters == 1
    np.testing.assert_array_equal(out.values, 0.0)


def test_stage_linear_flow_two_sweeps(small_grid):
    # without the cubic term the preconditioner inverts the stage exactly,
    # so the first sweep lands on the fixed point and the second detects it
    mp = ModelParams(s=0.75)
    u = smooth_random_field(small_grid, seed=43)
    out, iters = imr_stage_solve(Field(LINEAR_SCALE * u.values, small_grid), 1.0,
                                 SolverParams(k=1e-2), mp)
    assert iters == 2
    # closed form: Cayley multiplier per mode
    hk = 0.5e-2
    sym = np.abs(small_grid.kappa) ** 1.5
    mult = (1 - 1j * hk * sym) / (1 + 1j * hk * sym)
    expected = np.fft.ifft(mult * np.fft.fft(u.values))
    np.testing.assert_allclose(out.values / LINEAR_SCALE, expected, atol=1e-14)


def test_stage_rejects_zero_coefficient(small_grid):
    u = smooth_random_field(small_grid, seed=47)
    with pytest.raises(ParameterError):
        imr_stage_solve(u, 0.0, SolverParams(k=1e-2), ModelParams(s=1.0))


def test_stage_residual_resubstitution():
    # converged stage satisfies X = Y + (k b/2) F(X) to 10 fp_tol
    g = SpectralGrid(512, 16 * np.pi)
    mp = ModelParams(s=1.0)
    sp = SolverParams(k=1e-2, fp_tol=1e-13)
    y = nls_soliton(g, 0.0, SolitonParams(1.0, 0.25))
    out, _ = imr_stage_solve(y, 1.0, sp, mp)
    x_star = Field(0.5 * (out.values + y.values), g)
    resid = x_star.values - y.values - 0.5e-2 * rhs(x_star, mp).values
    assert l2_norm(Field(resid, g)) <= 10 * sp.fp_tol * l2_norm(x_star)


# These cases once also ran under the 2/3-rule mask.  The mask is gone;
# the collocation runs keep the ids they had, which end in "-False".
def _collocation_id(value):
    return f"{value}-False"


def reference_step(u, scheme, sp, mp, shift=True):
    """Plain per-stage fixed-point loop: fresh arrays, np.linalg.norm test.

    With ``shift`` the preconditioner is I + i(k b/2)(lam - c) and the
    cubic term (|X|^2 - c) X, with c = 2 mean|u|^2 of the step's start
    state; the fixed point is the same either way.  Returns the stage
    values Y_1..Y_q and the iteration count of each stage.
    """
    lam = u.grid.fractional_symbol(mp.s)
    c = 2.0 * np.mean(np.abs(u.values) ** 2) if shift else 0.0
    y, y_hat, stages, iters = u.values, np.fft.fft(u.values), [], []
    for b in scheme.b:
        hk = 0.5 * sp.k * b
        x = y
        for it in range(1, sp.fp_max_iters + 1):
            g_hat = np.fft.fft((np.abs(x) ** 2 - c) * x)
            x_hat = (y_hat + 1j * hk * g_hat) / (1.0 + 1j * hk * (lam - c))
            x_new = np.fft.ifft(x_hat)
            done = np.linalg.norm(x_new - x) <= sp.fp_tol * np.linalg.norm(x_new)
            x = x_new
            if done:
                break
        iters.append(it)
        y, y_hat = 2.0 * x - y, 2.0 * x_hat - y_hat
        stages.append(y)
    return stages, iters


@pytest.mark.parametrize("s", [0.6, 1.0], ids=_collocation_id)
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("N", [64, 96])   # 1/N is inexact on the 96-point grid
def test_step_matches_reference_loop(N, p, s):
    grid = SpectralGrid(N, np.pi)
    mp = ModelParams(s=s)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(p)
    u = smooth_random_field(grid, seed=37, amplitude=1.5)
    out, counts = step(u, scheme, sp, mp)
    stages, ref_iters = reference_step(u, scheme, sp, mp)
    assert counts == ref_iters
    assert l2_norm(Field(out.values - stages[-1], grid)) <= 10 * sp.fp_tol * l2_norm(u)


@pytest.mark.parametrize("s", [0.6, 1.0], ids=_collocation_id)
def test_mean_field_shift_keeps_stage_values(small_grid, s):
    # the shift changes the path to each stage's fixed point, not the point
    mp = ModelParams(s=s)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=37, amplitude=1.5)
    ctx = integrators._StepContext(small_grid, scheme.b, sp, mp, np.fft.fft(u.values))
    assert ctx.shift == pytest.approx(2 * np.mean(np.abs(u.values) ** 2), rel=1e-14)
    shifted, shifted_iters = reference_step(u, scheme, sp, mp)
    plain, plain_iters = reference_step(u, scheme, sp, mp, shift=False)
    for a, b in zip(shifted, plain):
        assert l2_norm(Field(a - b, small_grid)) <= 10 * sp.fp_tol * l2_norm(u)
    assert sum(shifted_iters) < sum(plain_iters)


def test_evolve_snapshots_do_not_alias(small_grid):
    # ten steps, so the stage predictor (from step 5 on) writes its history
    # while observers hold earlier states
    u = smooth_random_field(small_grid, seed=31)
    before = u.values.copy()
    recorder = FieldRecorder()
    copies = []

    def copier(n, t, field):
        copies.append(field.values.copy())

    out, _ = evolve(u, 0.2, yoshida_coefficients(2), SolverParams(k=2e-2),
                    ModelParams(s=0.75), observers=(recorder, copier))
    np.testing.assert_array_equal(u.values, before)
    snaps = [f.values for _, f in recorder.records]
    assert len(snaps) == len(copies) == 11
    for a, copy in zip(snaps, copies):
        np.testing.assert_array_equal(a, copy)
    for i, a in enumerate(snaps):
        for b in snaps[i + 1:]:
            assert not np.shares_memory(a, b)
            assert not np.array_equal(a, b)
    # the returned field is the last observed state, in memory of its own
    np.testing.assert_array_equal(out.values, copies[-1])
    for a in snaps + [u.values]:
        assert not np.shares_memory(out.values, a)


def test_step_and_stage_outputs_do_not_alias(small_grid):
    # the stage kernel works in buffers owned by its context; every entry
    # point still hands back fresh arrays that later calls leave alone
    mp = ModelParams(s=0.75)
    sp = SolverParams(k=2e-2)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=31)
    first, _ = step(u, scheme, sp, mp)
    second, _ = step(first, scheme, sp, mp)
    staged, _ = imr_stage_solve(second, W1_ORDER4, sp, mp)
    copies = [a.values.copy() for a in (u, first, second, staged)]
    later, _ = imr_stage_solve(staged, W0_ORDER4, sp, mp)
    last, _ = step(later, scheme, sp, mp)
    outputs = [u.values, first.values, second.values, staged.values,
               later.values, last.values]
    for a, copy in zip(outputs, copies):
        np.testing.assert_array_equal(a, copy)
    for i, a in enumerate(outputs):
        for b in outputs[i + 1:]:
            assert not np.shares_memory(a, b)
            assert not np.array_equal(a, b)


def test_evolve_predictor_exact_for_linear_flow(small_grid):
    # steps 1-4 start from Y_{j-1} and take two sweeps per stage; from step 5
    # the predicted midpoint is the fixed point, so one sweep confirms it
    mp = ModelParams(s=0.75)
    u = smooth_random_field(small_grid, seed=43, amplitude=LINEAR_SCALE)
    M, q = 10, 3
    _, stats = evolve(u, 0.1, yoshida_coefficients(2), SolverParams(k=1e-2), mp)
    assert stats.steps == M
    assert round(stats.mean_fp_iterations * M * q) == 2 * 4 * q + 1 * (M - 4) * q
    assert stats.stage_iterations == (2 * 4 + (M - 4),) * q


def _record_rotations(monkeypatch):
    # the predictor's measured rotations w and recorded nonlinear parts
    # g_{n-1}, g_{n-2}, g_{n-3}, copied at every step it extrapolates
    seen = []
    extrapolate = integrators._extrapolate

    def recording(history, n, w, scale):
        before = history.copy()
        extrapolate(history, n, w, scale)
        seen.append((w.copy(), before[(n - 2) % 3], before))

    monkeypatch.setattr(integrators, "_extrapolate", recording)
    return seen


def test_predictor_linear_flow_has_no_nonlinear_part(small_grid, monkeypatch):
    # without the cubic term each stage's midpoint is its linear part
    # base = pre_j fft(Y_prev) exactly: every recorded nonlinear part is 0,
    # and so is its measured rotation (0 / tiny, never 0 / 0)
    seen = _record_rotations(monkeypatch)
    sp = SolverParams(k=1e-2)
    u = smooth_random_field(small_grid, seed=43, amplitude=LINEAR_SCALE)
    evolve(u, 0.1, yoshida_coefficients(2), sp, ModelParams(s=0.75))
    assert len(seen) == 6
    for omega, _, history in seen:
        np.testing.assert_array_equal(history, 0.0)
        np.testing.assert_array_equal(omega, 0.0)


def test_predictor_rotation_is_soliton_rotation(monkeypatch):
    # the s = 1 soliton's modes turn by exp(i (lambda1 - kappa lambda2) k)
    # per step, not by the linear propagator; the rotation measured on each
    # stage's nonlinear part matches it up to the scheme's local error,
    # which is O(k^5) relative to the largest part
    seen = _record_rotations(monkeypatch)
    grid = SpectralGrid(256, 8 * np.pi)
    sol = SolitonParams(lambda1=1.0, lambda2=0.25)
    u0 = nls_soliton(grid, 0.0, sol)
    deviations = []
    for k in (2.5e-2, 1.25e-2):
        seen.clear()
        evolve(u0, 10 * k, yoshida_coefficients(2), SolverParams(k=k), ModelParams(s=1.0))
        omega, latest, _ = seen[-1]
        rotation = np.exp(1j * (sol.lambda1 - grid.kappa * sol.lambda2) * k)
        share = np.abs(latest) / np.max(np.abs(latest), axis=1, keepdims=True)
        core = share >= 1e-2
        assert np.max(np.abs(omega - rotation)[core]) <= 1e-4
        deviations.append(np.max(np.abs(omega - rotation) * share))
        assert deviations[-1] <= 100 * k ** 5
    assert deviations[0] >= 16 * deviations[1]


# 2N is not a power of two at N = 96
@pytest.mark.parametrize("N", [64, 96], ids=_collocation_id)
def test_evolve_records_nonlinear_parts(N, monkeypatch):
    # the kernel writes gain_j F of each iterate straight into the
    # predictor's history; what stays there is the nonlinear part of the
    # stage midpoint, Z* - pre_j fft(Y_{j-1}), with Z* = 2 fft(X*) and
    # pre_j = 2 A_j^-1, checked against reference_step from each step's start
    histories = []
    extrapolate = integrators._extrapolate

    def kept(history, n, w, scale):
        histories.append(history)
        extrapolate(history, n, w, scale)

    monkeypatch.setattr(integrators, "_extrapolate", kept)
    grid = SpectralGrid(N, np.pi)
    mp = ModelParams(s=0.8)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(grid, seed=37, amplitude=1.5)
    states = FieldRecorder()
    evolve(u, 6 * sp.k, scheme, sp, mp, observers=(states,))
    history = histories[0]
    lam = grid.fractional_symbol(mp.s)
    c = 2.0 * np.mean(np.abs(u.values) ** 2)
    shifted = lam - c
    for m in (4, 5, 6):         # the three steps history holds
        _, start = states.records[m - 1]
        stages, _ = reference_step(start, scheme, sp, mp)
        y_prev = start.values
        for j, (b, y_next) in enumerate(zip(scheme.b, stages)):
            z_star = np.fft.fft(y_prev + y_next)
            pre = 2.0 / (1.0 + 0.5j * sp.k * b * shifted)
            expected = z_star - pre * np.fft.fft(y_prev)
            error = np.linalg.norm(history[(m - 1) % 3, j] - expected)
            assert error <= 10 * sp.fp_tol * np.linalg.norm(z_star)
            y_prev = y_next


def test_evolve_plane_wave_with_zero_increments(small_grid):
    # A exp(i kappa x) with kappa = N/4 on (-pi, pi) has nodal values
    # A i^j; every other mode stays exactly 0, so its increments and their
    # product are 0 and the measured rotation must not be 0/0 (a NaN start
    # diverges; tier-1 also turns any numpy warning into an error)
    A, M = 1.5, 10
    u = Field(A * 1j ** (np.arange(small_grid.N) % 4), small_grid)
    mp = ModelParams(s=0.75)
    sp = SolverParams(k=2e-2)
    scheme = yoshida_coefficients(2)
    out, _ = evolve(u, M * sp.k, scheme, sp, mp)
    assert np.all(np.isfinite(out.values))
    # the discrete solution stays a plane wave: stage j turns it by
    # (1 - i phi) / (1 + i phi), phi = (k b_j / 2) (lam - |X|^2), where the
    # midpoint's modulus is |X|^2 = A^2 / (1 + phi^2)
    lam = (small_grid.N / 4) ** (2 * mp.s)
    factor = 1.0
    for b in scheme.b:
        phi = 0.0
        for _ in range(100):
            phi = 0.5 * sp.k * b * (lam - A ** 2 / (1 + phi ** 2))
        factor *= (1 - 1j * phi) / (1 + 1j * phi)
    exact = u.values * factor ** M
    err = l2_norm(Field(out.values - exact, small_grid))
    assert err <= 10 * M * scheme.q * sp.fp_tol * l2_norm(u)


def _soliton_mean_iterations(dt):
    cfg = RunConfig(L=16 * np.pi, N=512, s=1.0, dt=dt, T=5.0, scheme_p=2,
                    initial=SolitonParams(1.0, 0.25))
    u0 = nls_soliton(SpectralGrid(cfg.N, cfg.L), 0.0, cfg.initial)
    _, stats = evolve(u0, cfg.T, *cfg.problem())
    return stats.mean_fp_iterations


def test_evolve_soliton_iteration_budget():
    # the README soliton run; the linear-propagator frame took 5.35
    # iterations per stage, increments extrapolated in the measured rotation
    # 2.12, the nonlinear part alone 1.20
    assert _soliton_mean_iterations(1.25e-2) <= 1.5


def test_evolve_fine_soliton_iteration_budget():
    # criterion 01's finest step: the predicted nonlinear part is so close
    # that almost every stage stops after one sweep (2.00 iterations per
    # stage extrapolating whole increments, 1.01 now)
    assert _soliton_mean_iterations(3.125e-3) <= 1.1


def test_evolve_fractional_profile_iteration_budget():
    # criterion 05's Petviashvili profile at s = 0.75: 6.03 iterations per
    # stage in the linear-propagator frame, 2.09 extrapolating increments
    # in the measured rotation, 1.15 predicting the nonlinear part alone
    grid = SpectralGrid(1024, 16 * np.pi)
    prof = petviashvili_profile(grid, 0.75, 1.0, 0.25)
    _, stats = evolve(prof.profile, 5.0, yoshida_coefficients(2),
                      SolverParams(k=1.25e-2), ModelParams(s=0.75))
    assert stats.mean_fp_iterations <= 1.5


def test_evolve_first_sweep_estimate_on_fractional_profile():
    # at k = 2.5e-2 most predicted stages start within about 100 fp_tol of
    # their fixed point: the first sweep's increment, weighted by the
    # stage's measured contraction, already passes (2.33 sweeps per stage
    # with the plain increment test on every sweep, 1.47 with the estimate)
    grid = SpectralGrid(1024, 16 * np.pi)
    u = petviashvili_profile(grid, 0.75, 1.0, 0.25).profile
    scheme, sp, mp = yoshida_coefficients(2), SolverParams(k=2.5e-2), ModelParams(s=0.75)
    M = 200
    out, stats = evolve(u, M * sp.k, scheme, sp, mp)
    assert stats.mean_fp_iterations <= 1.6
    # step's fresh context keeps the plain test on every sweep: the states
    # agree to the stopping tolerance
    looped = u
    for _ in range(M):
        looped, _ = step(looped, scheme, sp, mp)
    diff = l2_norm(Field(out.values - looped.values, grid))
    assert diff <= 10 * M * scheme.q * sp.fp_tol * l2_norm(u)


def test_evolve_reports_max_contraction(small_grid):
    # under the linear flow every second sweep changes nothing: ratio 0
    mp = ModelParams(s=0.75)
    u = smooth_random_field(small_grid, seed=43, amplitude=LINEAR_SCALE)
    _, stats = evolve(u, 0.1, yoshida_coefficients(2), SolverParams(k=1e-2), mp)
    assert stats.max_contraction == 0.0
    # criterion 04's data contracts by about 0.1 per sweep at k = 0.25
    grid = SpectralGrid(128, np.pi)
    x = grid.nodes
    vals = (0.5 * np.exp(1j * x) + 0.4 * np.exp(2j * x + 1.1j)
            + 0.2 * np.exp(-2j * x + 2.6j) + 0.1 * np.exp(4j * x))
    _, stats = evolve(Field(vals, grid), 25.0, yoshida_coefficients(2),
                      SolverParams(k=0.25), ModelParams(s=1.0))
    assert 0.05 <= stats.max_contraction < 0.5


def test_step_allocates_no_predictor():
    # a one-step evolve predicts nothing, so its stages share one N-sized
    # scratch instead of the predictor's (3, q, N) history (1.9 MiB here)
    grid = SpectralGrid(512, np.pi)
    u = smooth_random_field(grid, seed=47)
    scheme, sp, mp = yoshida_coefficients(5), SolverParams(k=1e-2), ModelParams(s=0.75)
    assert scheme.q == 81
    tracemalloc.start()
    try:
        step(u, scheme, sp, mp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("stride", [None, 1, 3])
def test_evolve_carries_coefficients(small_grid, monkeypatch, stride):
    # a stage of n iterations costs 2n transforms; evolve adds one forward
    # transform of U0, one inverse transform per observed step and one for
    # the returned field
    u = smooth_random_field(small_grid, seed=89)
    calls = [0]

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return transform(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(integrators, "fft", counted(integrators.fft))
    monkeypatch.setattr(integrators, "ifft", counted(integrators.ifft))
    observers, observed = (), 0
    M, q = 12, 3
    if stride is not None:
        def observer(n, t, field):
            pass
        observer.stride = stride
        observers, observed = (observer,), M // stride
    _, stats = evolve(u, M * 2e-2, yoshida_coefficients(2), SolverParams(k=2e-2),
                      ModelParams(s=0.75), observers=observers)
    total_iters = round(stats.mean_fp_iterations * M * q)
    assert calls[0] == 2 * total_iters + 2 + observed


@pytest.mark.parametrize("s", [0.6, 1.0], ids=_collocation_id)
@pytest.mark.parametrize("p", [1, 2])
def test_evolve_predictor_matches_step_loop(small_grid, p, s):
    # step has no predictor: the states agree to the stopping tolerance,
    # and evolve needs fewer iterations to get there
    mp = ModelParams(s=s)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(p)
    u = smooth_random_field(small_grid, seed=37, amplitude=1.5)
    M = 10
    looped, loop_iters = u, 0
    for _ in range(M):
        looped, counts = step(looped, scheme, sp, mp)
        loop_iters += sum(counts)
    out, stats = evolve(u, M * sp.k, scheme, sp, mp)
    assert stats.steps == M
    diff = l2_norm(Field(out.values - looped.values, small_grid))
    assert diff <= 10 * M * scheme.q * sp.fp_tol * l2_norm(u)
    assert round(stats.mean_fp_iterations * M * scheme.q) < loop_iters


def _eager_stage_solve(ctx, stage_index, y_hat, out, g, predicted):
    """integrators._stage_solve with ||Z_n|| read on every sweep: the stop
    rule eta ||Z_n - Z_{n-1}|| <= fp_tol ||Z_n|| as stated, in fresh arrays
    and with Python-float transform scales."""
    pre, gain, kb = ctx.stages[stage_index - 1]
    eta = ctx.eta[stage_index - 1]
    N = y_hat.size
    base = pre * y_hat
    z = base + g if predicted else y_hat + y_hat
    diff, theta = math.inf, 0.0
    for it in range(1, ctx.max_iters + 1):
        x = ifft(z, 0.5 / N, out=np.empty(N, dtype=complex))
        cubic = (np.conjugate(x) * x - ctx.shift) * x
        g[:] = fft(cubic, 1.0, out=np.empty(N, dtype=complex)) * gain
        z_next = g + base
        prev, diff = diff, math.sqrt(np.vdot(z_next - z, z_next - z).real)
        norm = math.sqrt(np.vdot(z_next, z_next).real)
        z = z_next
        if not math.isfinite(norm):
            raise StageDivergenceError(stage_index, it, math.inf, math.inf, kb)
        theta = max(theta, diff / prev)
        if eta * diff <= ctx.tol * norm:
            out[:] = z - y_hat
            if it > 1:
                ctx.eta[stage_index - 1] = (max(0.01, theta / (1.0 - theta))
                                            if theta < 0.5 else 1.0)
                ctx.max_contraction = max(ctx.max_contraction, theta)
            return it
        eta = 1.0
    residual = diff / norm if norm > 0.0 else math.inf
    raise StageDivergenceError(stage_index, ctx.max_iters, residual, theta, kb)


class _CountingNumpy:
    """numpy, with the calls of np.vdot counted."""

    def __init__(self):
        self.vdots = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def vdot(self, a, b):
        self.vdots += 1
        return np.vdot(a, b)


def _outcome(kernel, u, T, scheme, sp, mp):
    """evolve's final values, stage counts and contraction with the given
    stage kernel, or the fields of its StageDivergenceError; and the
    number of np.vdot calls the module made."""
    counting = _CountingNumpy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrators, "_stage_solve", kernel)
        patch.setattr(integrators, "np", counting)
        try:
            out, stats = evolve(u, T, scheme, sp, mp)
        except StageDivergenceError as err:
            return ((err.stage_index, err.iterations, err.residual, err.contraction,
                     err.kb, err.step_index), counting.vdots)
    return (out.values.tobytes(), stats.stage_iterations, stats.max_contraction), counting.vdots


def _lazy_and_eager(*run):
    """The module kernel's outcome and vdot count, once it has matched the
    eager copy's outcome bit for bit."""
    (lazy, vdots), (eager, _) = (_outcome(kernel, *run)
                                 for kernel in (integrators._stage_solve, _eager_stage_solve))
    assert lazy == eager
    return lazy, vdots


@pytest.mark.parametrize("k, s, amplitude, bandwidth, seed", [
    (0.025, 0.55, 1.0, 4.0, 17), (0.025, 1.0, 1.0, 4.0, 17),
    # theta 0.86: ||Z_n|| moves enough within a stage that a bound without
    # the increments since the last read skipped a read the test needed
    (0.2, 1.0, 1.5, 3.0, 3)])
def test_lazy_norm_read_decides_as_eager_rule(k, s, amplitude, bandwidth, seed):
    # predicted stages of several sweeps on ensemble_small_n's grid: most
    # sweeps skip the ||Z_n|| read, yet every decision is the same
    grid = SpectralGrid(128, np.pi)
    u = smooth_random_field(grid, seed=seed, amplitude=amplitude, bandwidth=bandwidth)
    sp, scheme = SolverParams(k=k), yoshida_coefficients(2)
    lazy, vdots = _lazy_and_eager(u, 40 * sp.k, scheme, sp, ModelParams(s=s))
    sweeps = sum(lazy[1])
    assert sweeps >= 4 * 40 * scheme.q
    # one vdot for the mean-field shift and one per sweep for ||dZ_n||
    norm_reads = vdots - 1 - sweeps
    assert norm_reads <= 0.5 * sweeps


def test_lazy_norm_read_on_one_sweep_stages():
    # the README soliton: most predicted stages stop after one sweep,
    # which always reads ||Z_1||
    grid = SpectralGrid(512, 16 * np.pi)
    u = nls_soliton(grid, 0.0, SolitonParams(1.0, 0.25))
    sp, scheme = SolverParams(k=1.25e-2), yoshida_coefficients(2)
    lazy, _ = _lazy_and_eager(u, 100 * sp.k, scheme, sp, ModelParams(s=1.0))
    assert sum(lazy[1]) <= 1.5 * 100 * scheme.q


@pytest.mark.parametrize("k, max_iters", [(0.05, 1), (0.25, 3)])
def test_lazy_norm_read_keeps_the_cap_residual(small_grid, k, max_iters):
    # a capped stage reports the residual ||dZ|| / ||Z|| of its last
    # iterate, read or not by the last sweep, and the same contraction
    u = smooth_random_field(small_grid, seed=7)
    lazy, _ = _lazy_and_eager(u, 0.5, yoshida_coefficients(2),
                              SolverParams(k=k, fp_max_iters=max_iters), ModelParams(s=0.8))
    assert lazy[:2] == (1, max_iters)


def test_lazy_norm_read_keeps_the_overflow_route():
    grid = SpectralGrid(512, 16 * np.pi)
    u = nls_soliton(grid, 0.0, SolitonParams(1.0, 0.25))
    lazy, _ = _lazy_and_eager(u, 5.0, yoshida_coefficients(2),
                              SolverParams(k=2.5, fp_max_iters=50), ModelParams(s=1.0))
    assert lazy[3] == math.inf


@pytest.mark.parametrize("seed", range(5))
def test_stage_norm_preservation(small_grid, seed):
    mp = ModelParams(s=0.75)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    u = smooth_random_field(small_grid, seed=seed)
    out, _ = imr_stage_solve(u, W0_ORDER4, sp, mp)
    assert abs(l2_norm(out) - l2_norm(u)) <= 10 * sp.fp_tol * l2_norm(u)


@pytest.mark.parametrize("seed", range(5))
def test_composition_equals_substeps(small_grid, seed):
    mp = ModelParams(s=1.0)
    sp = SolverParams(k=1e-2, fp_tol=1e-13)
    u = smooth_random_field(small_grid, seed=100 + seed)
    scheme = yoshida_coefficients(2)
    composed, _ = step(u, scheme, sp, mp)
    piecewise = u
    for b in scheme.b:
        piecewise, _ = step(piecewise, yoshida_coefficients(1),
                            SolverParams(k=sp.k * b, fp_tol=sp.fp_tol), mp)
    diff = l2_norm(Field(composed.values - piecewise.values, small_grid))
    assert diff <= 10 * sp.fp_tol * l2_norm(u)


def test_step_conserves_momentum(small_grid):
    mp = ModelParams(s=0.8)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    u = smooth_random_field(small_grid, seed=53)
    out, _ = step(u, yoshida_coefficients(2), sp, mp)
    before, after = invariants(0.0, u, mp).I2, invariants(0.0, out, mp).I2
    assert abs(after - before) <= 100 * sp.fp_tol * max(1.0, abs(before))


@pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
def test_reversibility(small_grid, s):
    mp = ModelParams(s=s)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=59)
    fwd, _ = step(u, scheme, SolverParams(k=2.5e-2, fp_tol=1e-13), mp)
    back, _ = step(fwd, scheme, SolverParams(k=-2.5e-2, fp_tol=1e-13), mp)
    assert l2_norm(Field(back.values - u.values, small_grid)) <= 100e-13 * l2_norm(u)


@pytest.mark.parametrize("s", [0.6, 1.0])
def test_evolve_runs_backward(small_grid, s):
    # ten steps forward, then T = -10 k with step -k: the predictor runs in
    # both directions, and the scheme's symmetry brings u0 back
    mp = ModelParams(s=s)
    scheme = yoshida_coefficients(2)
    k, M = 2.5e-2, 10
    forward, backward = SolverParams(k=k), SolverParams(k=-k)
    u = smooth_random_field(small_grid, seed=59)
    fwd, _ = evolve(u, M * k, scheme, forward, mp)
    back, stats = evolve(fwd, -M * k, scheme, backward, mp)
    assert stats.steps == M
    err = l2_norm(Field(back.values - u.values, small_grid))
    assert err <= 100 * forward.fp_tol * l2_norm(u)


def test_linear_flow_preserves_mode_moduli(small_grid):
    mp = ModelParams(s=0.6)
    u = smooth_random_field(small_grid, seed=61)
    before = np.abs(np.fft.fft(u.values) / small_grid.N)
    out, _ = evolve(Field(LINEAR_SCALE * u.values, small_grid), 1.0,
                    yoshida_coefficients(2), SolverParams(k=1e-2), mp)
    after = np.abs(np.fft.fft(out.values / LINEAR_SCALE) / small_grid.N)
    assert np.max(np.abs(after - before)) <= 1e-13


def test_linear_flow_matches_exact_propagator(small_grid):
    # modulus is exact; the phase error is the scheme's k^4 truncation
    mp = ModelParams(s=1.0)
    u = smooth_random_field(small_grid, seed=67, bandwidth=2.0)
    out, _ = evolve(Field(LINEAR_SCALE * u.values, small_grid), 0.5,
                    yoshida_coefficients(2), SolverParams(k=1e-3), mp)
    sym = np.abs(small_grid.kappa) ** 2
    exact = np.fft.ifft(np.exp(-0.5j * sym) * np.fft.fft(u.values))
    assert np.max(np.abs(out.values / LINEAR_SCALE - exact)) <= 1e-8


def test_evolve_step_accounting(small_grid):
    mp = ModelParams(s=1.0)
    u = smooth_random_field(small_grid, seed=71, amplitude=0.5)
    calls = []

    def observer(n, t, field):
        calls.append((n, t))

    observer.stride = 5
    out, stats = evolve(u, 0.2, yoshida_coefficients(1), SolverParams(k=1e-2), mp,
                        observers=(observer,))
    assert stats.steps == 20
    assert [n for n, _ in calls] == [0, 5, 10, 15, 20]
    assert calls[3][1] == pytest.approx(0.15, rel=1e-15)
    assert stats.mean_fp_iterations > 0


def test_evolve_counts_iterations_exactly(small_grid):
    # before the predictor starts (four steps) every stage starts like
    # step's, and mass conservation keeps the mean-field shift equal to
    # roundoff, so evolve's total is the sum of step's per-stage counts
    mp = ModelParams(s=0.8)
    sp = SolverParams(k=2e-2)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=71)
    _, stats = evolve(u, 4 * sp.k, scheme, sp, mp)
    looped, counts = u, []
    for _ in range(4):
        looped, stage_counts = step(looped, scheme, sp, mp)
        counts += stage_counts
    assert isinstance(stats.fp_iterations, int)
    assert stats.fp_iterations == sum(counts)
    assert stats.mean_fp_iterations == stats.fp_iterations / (4 * scheme.q)


@pytest.mark.parametrize("stride", [2.5, 0, -1, True, "2"])
def test_evolve_rejects_bad_observer_stride(small_grid, stride):
    def observer(n, t, field):
        pass
    observer.stride = stride
    u = smooth_random_field(small_grid, seed=71)
    with pytest.raises(ParameterError, match="stride"):
        evolve(u, 0.1, yoshida_coefficients(2), SolverParams(k=2e-2), ModelParams(s=0.8),
               observers=(observer,))


def test_evolve_accepts_numpy_integer_stride(small_grid):
    seen = []

    def observer(n, t, field):
        seen.append(n)
    observer.stride = np.int64(2)
    u = smooth_random_field(small_grid, seed=71)
    evolve(u, 0.1, yoshida_coefficients(2), SolverParams(k=2e-2), ModelParams(s=0.8),
           observers=(observer,))
    assert seen == [0, 2, 4]


def test_evolve_observers_keep_caller_error_handling(small_grid):
    # the stage loop silences overflow; observers still see the caller's
    # numpy error settings
    seen = []

    def observer(n, t, field):
        seen.append((np.geterr()["over"], np.geterr()["invalid"]))

    u = smooth_random_field(small_grid, seed=71)
    with np.errstate(over="raise", invalid="warn"):
        evolve(u, 0.1, yoshida_coefficients(2), SolverParams(k=2e-2), ModelParams(s=0.8),
               observers=(observer,))
    assert seen == [("raise", "warn")] * 6


@pytest.mark.parametrize("settings", [{}, {"all": "raise"}], ids=["default", "raise"])
def test_evolve_set_up_overflow_is_a_stage_divergence(settings):
    # finite data whose mean-field shift 2 mean|u|^2 overflows while evolve
    # builds its stage tables: the first stage solve reports the failure,
    # with no numpy warning (an error under this suite) or FloatingPointError
    grid = SpectralGrid(64, np.pi)
    u = Field(1e154 * np.exp(1j * grid.nodes), grid)
    with np.errstate(**settings), pytest.raises(StageDivergenceError) as info:
        evolve(u, 0.2, yoshida_coefficients(2), SolverParams(k=0.1), ModelParams(s=0.75))
    assert str(info.value).startswith("fixed-point stage solve at stage 1 overflowed "
                                      "after 1 iteration; largest contraction inf")
    assert info.value.step_index == 1


def test_evolve_rejects_bad_horizon(small_grid):
    mp = ModelParams(s=1.0)
    u = smooth_random_field(small_grid, seed=73)
    scheme = yoshida_coefficients(1)
    with pytest.raises(ParameterError):
        evolve(u, -1.0, scheme, SolverParams(k=1e-2), mp)
    with pytest.raises(ParameterError):
        evolve(u, 1.0, scheme, SolverParams(k=0.3), mp)


def test_stage_divergence_raises_and_annotates():
    g = SpectralGrid(512, 16 * np.pi)
    mp = ModelParams(s=1.0)
    u = nls_soliton(g, 0.0, SolitonParams(1.0, 0.25))
    # contraction factor ~ (k b / 2) 3 |u|^2 > 1 for k = 2.5
    with pytest.raises(StageDivergenceError) as info:
        evolve(u, 5.0, yoshida_coefficients(2), SolverParams(k=2.5, fp_max_iters=50), mp)
    err = info.value
    assert err.stage_index in (1, 2, 3)
    assert 1 <= err.iterations <= 50
    assert err.step_index == 1
    assert err.time == 0.0
    # the iterate overflowed: its contraction is inf, and the message says so
    assert err.contraction == math.inf
    assert err.kb == 2.5 * yoshida_coefficients(2).b[err.stage_index - 1]
    assert f"stage {err.stage_index} overflowed after {err.iterations} iteration" in str(err)


def test_stage_iteration_cap_raises_with_finite_residual(small_grid):
    # the stage stays finite but is not converged when the cap is reached
    u = smooth_random_field(small_grid, seed=7)
    with pytest.raises(StageDivergenceError) as info:
        evolve(u, 0.5, yoshida_coefficients(2), SolverParams(k=0.05, fp_max_iters=1),
               ModelParams(s=0.8))
    err = info.value
    assert (err.stage_index, err.iterations, err.step_index, err.time) == (1, 1, 1, 0.0)
    assert 0.0 < err.residual < math.inf
    # one sweep measures no contraction
    assert (err.contraction, err.kb) == (0.0, 0.05 * W1_ORDER4)
    assert " hit the iteration cap: " in str(err)
    assert " after 1 iteration; largest contraction 0 at k*b_j = 0.0676 " in str(err)


def test_stage_iteration_cap_reports_measured_contraction(small_grid):
    u = smooth_random_field(small_grid, seed=7)
    with pytest.raises(StageDivergenceError) as info:
        evolve(u, 0.5, yoshida_coefficients(2), SolverParams(k=0.25, fp_max_iters=3),
               ModelParams(s=0.8))
    err = info.value
    assert 0.0 < err.contraction < 1.0
    assert (f"after 3 iterations; largest contraction {err.contraction:.3g} "
            f"at k*b_j = {0.25 * W1_ORDER4:.3g} (step 1, t = 0)") in str(err)


def test_stage_divergence_pickles():
    err = StageDivergenceError(stage_index=1, iterations=7, residual=2.5,
                               contraction=0.75, kb=0.125)
    err.annotate(step_index=3, time=0.75)
    back = pickle.loads(pickle.dumps(err))
    assert back.stage_index == 1 and back.iterations == 7
    assert back.contraction == 0.75 and back.kb == 0.125
    assert back.step_index == 3 and back.time == 0.75
    assert str(back) == str(err)


def test_against_adaptive_reference_integrator(small_grid):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    mp = ModelParams(s=0.8)
    u = smooth_random_field(small_grid, seed=83, amplitude=0.8, bandwidth=2.0)
    out, _ = evolve(u, 0.5, yoshida_coefficients(2), SolverParams(k=1e-3), mp)

    def odefun(t, y):
        f = rhs(Field(y[:small_grid.N] + 1j * y[small_grid.N:], small_grid), mp).values
        return np.concatenate([f.real, f.imag])

    y0 = np.concatenate([u.values.real, u.values.imag])
    sol = scipy_integrate.solve_ivp(odefun, (0.0, 0.5), y0, method="DOP853",
                                    rtol=1e-12, atol=1e-14)
    ref = sol.y[:small_grid.N, -1] + 1j * sol.y[small_grid.N:, -1]
    assert l2_norm(Field(out.values - ref, small_grid)) <= 1e-8
