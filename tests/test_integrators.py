import math
import pickle

import numpy as np
import pytest

from fnls import (
    CompositionScheme,
    Field,
    FieldRecorder,
    ModelParams,
    ParameterError,
    RunConfig,
    SolitonInitial,
    SolitonParams,
    SolverParams,
    SpectralGrid,
    StageDivergenceError,
    evolve,
    exact_step_count,
    forward_transform,
    imr_stage_solve,
    l2_norm,
    momentum,
    nls_soliton,
    rhs,
    step,
    yoshida_coefficients,
)
from fnls.integrators import MAX_COMPOSITION_LEVEL
from conftest import smooth_random_field

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
    with pytest.raises(ParameterError):
        CompositionScheme(p=1, q=2, b=(1.0,), order=2)
    with pytest.raises(ParameterError):
        CompositionScheme(p=1, q=2, b=(1.0, 0.0), order=2)


def test_solver_params_validation():
    SolverParams(k=-0.5)   # negative steps are legal (reversibility checks)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            SolverParams(k=bad)
    with pytest.raises(ParameterError):
        SolverParams(k=0.1, fp_tol=0.0)
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


def test_exact_step_count_rejects_overflow(small_grid):
    for T, k in ((math.inf, 0.1), (1e308, 1e-10), (1.0, 1e-320)):
        with pytest.raises(ParameterError, match="finite"):
            exact_step_count(T, k)
    u = smooth_random_field(small_grid, seed=29)
    with pytest.raises(ParameterError):
        evolve(u, math.inf, yoshida_coefficients(1), SolverParams(k=0.1), ModelParams(s=1.0))
    config = RunConfig(L=np.pi, N=64, s=1.0, dt=0.1, T=math.inf, scheme_p=1,
                       initial=SolitonInitial(1.0))
    with pytest.raises(ParameterError, match="^dt:"):
        config.validate()


def test_stage_zero_field_converges_immediately(small_grid):
    mp = ModelParams(s=1.0)
    out, iters = imr_stage_solve(Field(np.zeros(small_grid.N), small_grid), 1.0,
                                 SolverParams(k=1e-2), mp)
    assert iters == 1
    np.testing.assert_array_equal(out.values, 0.0)


def test_stage_linear_flow_two_sweeps(small_grid):
    # without the cubic term the preconditioner inverts the stage exactly,
    # so the first sweep lands on the fixed point and the second detects it
    mp = ModelParams(s=0.75, linear=True)
    u = smooth_random_field(small_grid, seed=43)
    out, iters = imr_stage_solve(u, 1.0, SolverParams(k=1e-2), mp)
    assert iters == 2
    # closed form: Cayley multiplier per mode
    hk = 0.5e-2
    sym = np.abs(small_grid.kappa) ** 1.5
    mult = (1 - 1j * hk * sym) / (1 + 1j * hk * sym)
    expected = np.fft.ifft(mult * np.fft.fft(u.values))
    np.testing.assert_allclose(out.values, expected, atol=1e-14)


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


def test_stage_residual_resubstitution_dealiased(small_grid):
    mp = ModelParams(s=0.8, dealias=True)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    y = smooth_random_field(small_grid, seed=41, bandwidth=8.0)
    out, _ = imr_stage_solve(y, W1_ORDER4, sp, mp)
    x_star = Field(0.5 * (out.values + y.values), small_grid)
    resid = x_star.values - y.values - 0.5 * sp.k * W1_ORDER4 * rhs(x_star, mp).values
    assert l2_norm(Field(resid, small_grid)) <= 10 * sp.fp_tol * l2_norm(x_star)


def reference_step(u, scheme, sp, mp, shift=True):
    """Plain per-stage fixed-point loop: fresh arrays, np.linalg.norm test.

    With ``shift`` the preconditioner is I + i(k b/2)(lam - c P) and the
    cubic term (|X|^2 - c) X, with c = 2 mean|u|^2 of the step's start
    state; the fixed point is the same either way.  Returns the stage
    values Y_1..Y_q and the iteration count of each stage.
    """
    lam = u.grid.fractional_symbol(mp.s)
    mask = u.grid.dealias_mask if mp.dealias else 1.0
    c = 2.0 * np.mean(np.abs(u.values) ** 2) if shift else 0.0
    y, y_hat, stages, iters = u.values, np.fft.fft(u.values), [], []
    for b in scheme.b:
        hk = 0.5 * sp.k * b
        x = y
        for it in range(1, sp.fp_max_iters + 1):
            g_hat = np.fft.fft((np.abs(x) ** 2 - c) * x) * mask
            x_hat = (y_hat + 1j * hk * g_hat) / (1.0 + 1j * hk * (lam - c * mask))
            x_new = np.fft.ifft(x_hat)
            done = np.linalg.norm(x_new - x) <= sp.fp_tol * np.linalg.norm(x_new)
            x = x_new
            if done:
                break
        iters.append(it)
        y, y_hat = 2.0 * x - y, 2.0 * x_hat - y_hat
        stages.append(y)
    return stages, iters


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("s", [0.6, 1.0])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("N", [64, 96])   # 1/N is inexact on the 96-point grid
def test_step_matches_reference_loop(N, p, s, dealias):
    grid = SpectralGrid(N, np.pi)
    mp = ModelParams(s=s, dealias=dealias)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(p)
    u = smooth_random_field(grid, seed=37, amplitude=1.5)
    out, report = step(u, scheme, sp, mp)
    stages, ref_iters = reference_step(u, scheme, sp, mp)
    assert report.fp_iterations_per_stage == ref_iters
    assert l2_norm(Field(out.values - stages[-1], grid)) <= 10 * sp.fp_tol * l2_norm(u)


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("s", [0.6, 1.0])
def test_mean_field_shift_keeps_stage_values(small_grid, s, dealias):
    # the shift changes the path to each stage's fixed point, not the point
    mp = ModelParams(s=s, dealias=dealias)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=37, amplitude=1.5)
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
    mp = ModelParams(s=0.75, linear=True)
    u = smooth_random_field(small_grid, seed=43)
    M, q = 10, 3
    _, stats = evolve(u, 0.1, yoshida_coefficients(2), SolverParams(k=1e-2), mp)
    assert stats.steps == M
    assert round(stats.mean_fp_iterations * M * q) == 2 * 4 * q + 1 * (M - 4) * q


def test_predictor_rotates_by_unshifted_propagator(small_grid):
    # the mean-field shift changes the preconditioner only; the predictor
    # rotates increments by the linear flow's Cayley propagator
    from fnls.integrators import _StagePredictor, _StepContext
    sp = SolverParams(k=2e-2)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=37, amplitude=1.5)
    ctx = _StepContext(small_grid, scheme.b, sp, ModelParams(s=0.75, dealias=True),
                       np.fft.fft(u.values))
    assert ctx.shift == pytest.approx(2 * np.mean(np.abs(u.values) ** 2), rel=1e-14)
    lam = small_grid.fractional_symbol(0.75)
    R = np.prod([(1 - 0.5j * sp.k * b * lam) / (1 + 0.5j * sp.k * b * lam)
                 for b in scheme.b], axis=0)
    weights = _StagePredictor(ctx)._build_weights()
    np.testing.assert_allclose(weights[0], 2.0 * R, rtol=1e-13)   # c_1 R / 2, c_1 = 4


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

    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
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


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("s", [0.6, 1.0])
@pytest.mark.parametrize("p", [1, 2])
def test_evolve_predictor_matches_step_loop(small_grid, p, s, dealias):
    # step has no predictor: the states agree to the stopping tolerance,
    # and evolve needs fewer iterations to get there
    mp = ModelParams(s=s, dealias=dealias)
    sp = SolverParams(k=2e-2, fp_tol=1e-13)
    scheme = yoshida_coefficients(p)
    u = smooth_random_field(small_grid, seed=37, amplitude=1.5)
    M = 10
    looped, loop_iters = u, 0
    for _ in range(M):
        looped, report = step(looped, scheme, sp, mp)
        loop_iters += sum(report.fp_iterations_per_stage)
    out, stats = evolve(u, M * sp.k, scheme, sp, mp)
    assert stats.steps == M
    diff = l2_norm(Field(out.values - looped.values, small_grid))
    assert diff <= 10 * M * scheme.q * sp.fp_tol * l2_norm(u)
    assert round(stats.mean_fp_iterations * M * scheme.q) < loop_iters


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
    assert abs(momentum(out) - momentum(u)) <= 100 * sp.fp_tol * max(1.0, abs(momentum(u)))


@pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
def test_reversibility(small_grid, s):
    mp = ModelParams(s=s)
    scheme = yoshida_coefficients(2)
    u = smooth_random_field(small_grid, seed=59)
    fwd, _ = step(u, scheme, SolverParams(k=2.5e-2, fp_tol=1e-13), mp)
    back, _ = step(fwd, scheme, SolverParams(k=-2.5e-2, fp_tol=1e-13), mp)
    assert l2_norm(Field(back.values - u.values, small_grid)) <= 100e-13 * l2_norm(u)


def test_linear_flow_preserves_mode_moduli(small_grid):
    mp = ModelParams(s=0.6, linear=True)
    u = smooth_random_field(small_grid, seed=61)
    before = np.abs(forward_transform(u).modes)
    out, _ = evolve(u, 1.0, yoshida_coefficients(2), SolverParams(k=1e-2), mp)
    after = np.abs(forward_transform(out).modes)
    assert np.max(np.abs(after - before)) <= 1e-13


def test_linear_flow_matches_exact_propagator(small_grid):
    # modulus is exact; the phase error is the scheme's k^4 truncation
    mp = ModelParams(s=1.0, linear=True)
    u = smooth_random_field(small_grid, seed=67, bandwidth=2.0)
    out, _ = evolve(u, 0.5, yoshida_coefficients(2), SolverParams(k=1e-3), mp)
    sym = np.abs(small_grid.kappa) ** 2
    exact = np.fft.ifft(np.exp(-0.5j * sym) * np.fft.fft(u.values))
    assert np.max(np.abs(out.values - exact)) <= 1e-8


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
    assert stats.initial_stability_margin >= 0


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
        looped, report = step(looped, scheme, sp, mp)
        counts += report.fp_iterations_per_stage
    assert isinstance(stats.fp_iterations, int)
    assert stats.fp_iterations == sum(counts)
    assert stats.mean_fp_iterations == stats.fp_iterations / (4 * scheme.q)


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
    assert "stage" in str(err)


def test_stage_divergence_pickles():
    err = StageDivergenceError(stage_index=1, iterations=7, residual=2.5)
    err.annotate(step_index=3, time=0.75)
    back = pickle.loads(pickle.dumps(err))
    assert back.stage_index == 1 and back.iterations == 7
    assert back.step_index == 3 and back.time == 0.75
    assert str(back) == str(err)


def test_stability_margin_warning_aggregation(small_grid):
    mp = ModelParams(s=1.0)
    u = smooth_random_field(small_grid, seed=79, amplitude=2.0)
    _, stats = evolve(u, 0.5, yoshida_coefficients(2), SolverParams(k=2.5e-2), mp)
    assert stats.max_stability_margin >= 1.0
    assert len(stats.warnings) == 1
    assert "stability margin" in stats.warnings[0]


def test_stability_margin_value(small_grid):
    # 3 R^2 k N max|b_j| with R the discrete L2 norm of the state
    u = smooth_random_field(small_grid, seed=97)
    sp = SolverParams(k=2e-2)
    scheme = yoshida_coefficients(2)
    _, stats = evolve(u, 2 * sp.k, scheme, sp, ModelParams(s=1.0))
    expected = 3 * l2_norm(u) ** 2 * sp.k * small_grid.N * max(abs(b) for b in scheme.b)
    assert stats.initial_stability_margin == pytest.approx(expected, rel=1e-13)


def test_stability_check_can_be_disabled(small_grid):
    mp = ModelParams(s=1.0)
    u = smooth_random_field(small_grid, seed=79, amplitude=2.0)
    _, stats = evolve(u, 0.5, yoshida_coefficients(2),
                      SolverParams(k=2.5e-2, stability_check=False), mp)
    assert stats.warnings == []


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
