import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fnls import (
    ConvergenceStudyError,
    Field,
    ModelParams,
    ParameterError,
    PetviashviliInitial,
    RunConfig,
    SolitonInitial,
    SolitonParams,
    SpectralGrid,
    StageDivergenceError,
    TrackingError,
    WaveTracker,
    build_initial_field,
    component_errors,
    convergence_study,
    error_growth_study,
    invariant_drift_study,
    nls_soliton,
    petviashvili_profile,
    write_snapshot,
)
from fnls import ProfileFileInitial
from fnls.harness import SPEED_WINDOW

DESK = dict(L=16 * np.pi, N=512, s=1.0, T=1.0, scheme_p=2,
            initial=SolitonInitial(lambda1=1.0, lambda2=0.25))


def desk_config(**overrides):
    merged = {**DESK, **overrides}
    return RunConfig(dt=merged.pop("dt", 1e-2), **merged)


def test_component_errors_closed_form(small_grid):
    base = np.zeros(small_grid.N, dtype=complex)
    shifted = np.full(small_grid.N, 0.3 - 0.4j)
    err_v, err_w = component_errors(Field(shifted, small_grid), Field(base, small_grid))
    root = math.sqrt(2 * small_grid.L)
    assert err_v == pytest.approx(0.3 * root, rel=1e-13)
    assert err_w == pytest.approx(0.4 * root, rel=1e-13)


def test_convergence_study_fourth_order_rates():
    rows = convergence_study(desk_config(dt=2e-2), [2e-2, 1e-2, 5e-3])
    assert rows[0].rate_v is None and rows[0].rate_w is None
    for row in rows[1:]:
        assert 3.6 <= row.rate_v <= 4.4
        assert 3.6 <= row.rate_w <= 4.4
    assert rows[0].err_v > rows[1].err_v > rows[2].err_v > 0


def test_convergence_study_gauge_invariance():
    # a constant phase rotates error between the v and w components but
    # must leave the combined L2 error unchanged
    dts = [2e-2, 1e-2]
    plain = convergence_study(desk_config(), dts)
    rotated = convergence_study(
        desk_config(initial=SolitonInitial(lambda1=1.0, lambda2=0.25, theta0=1.3)), dts)
    for a, b in zip(plain, rotated):
        assert math.hypot(b.err_v, b.err_w) == pytest.approx(
            math.hypot(a.err_v, a.err_w), rel=1e-6)


def test_convergence_study_parallel_matches_sequential():
    dts = [2e-2, 1e-2]
    seq = convergence_study(desk_config(), dts, workers=1)
    par = convergence_study(desk_config(), dts, workers=2)
    for a, b in zip(seq, par):
        assert (a.err_v, a.err_w) == (b.err_v, b.err_w)


def test_convergence_study_input_validation():
    with pytest.raises(ParameterError, match="dt"):
        convergence_study(desk_config(), [0.3])
    with pytest.raises(ParameterError):
        convergence_study(desk_config(), [])
    with pytest.raises(ParameterError, match="soliton"):
        config = desk_config(initial=PetviashviliInitial(lambda1=1.0), s=0.75)
        convergence_study(config, [1e-2])
    # the closed-form soliton solves only s = 1: no reference for s = 0.75
    with pytest.raises(ParameterError, match="^s: the closed-form soliton solves only s = 1"):
        convergence_study(desk_config(s=0.75), [1e-2])


@pytest.mark.parametrize("workers", [0, -1, 2.5, True])
def test_convergence_study_rejects_bad_workers(workers):
    # the check FNLS_THREADS gets; workers=None means one worker per row
    with pytest.raises(ParameterError, match="^workers: "):
        convergence_study(desk_config(), [1e-2], workers=workers)


def test_convergence_study_divergence_carries_partial_rows():
    config = desk_config(T=5.2, dt=1e-2, fp_max_iters=60)
    with pytest.raises(ConvergenceStudyError) as info:
        convergence_study(config, [1e-2, 2.6], workers=1)
    err = info.value
    assert err.failed_dt == 2.6
    assert len(err.partial_rows) == 1
    assert err.partial_rows[0].dt == 1e-2
    assert isinstance(err.__cause__, StageDivergenceError)
    back = pickle.loads(pickle.dumps(err))
    assert back.failed_dt == 2.6 and len(back.partial_rows) == 1
    assert str(back) == str(err)
    # the pool submits the longer 1e-2 row first but reports in dt_list order
    with pytest.raises(ConvergenceStudyError) as info:
        convergence_study(config, [1e-2, 2.6], workers=2)
    assert info.value.failed_dt == 2.6
    assert [row.dt for row in info.value.partial_rows] == [1e-2]
    assert isinstance(info.value.__cause__, StageDivergenceError)
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)
    # the failed study has shut its pool down and joined its workers
    assert multiprocessing.active_children() == []


def test_convergence_study_failed_submit_leaves_no_worker(monkeypatch):
    # the pool is shut down on every exit, also when a submit fails
    submit, calls = ProcessPoolExecutor.submit, []

    def second_submit_fails(pool, *args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("cannot schedule new futures")
        return submit(pool, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", second_submit_fails)
    with pytest.raises(RuntimeError, match="cannot schedule"):
        convergence_study(desk_config(), [1e-2, 2e-2], workers=2)
    assert multiprocessing.active_children() == []


def test_convergence_study_pool_keeps_unsorted_dt_order():
    dts = [1e-2, 2e-2, 5e-3]
    seq = convergence_study(desk_config(), dts, workers=1)
    par = convergence_study(desk_config(), dts, workers=2)
    assert [row.dt for row in par] == dts
    assert par == seq


def test_error_growth_study_linear_in_time():
    config = desk_config(dt=2.5e-2, T=20.0)
    result = error_growth_study(config, [2.5, 5.0, 10.0, 15.0, 20.0],
                                fit_window=(5.0, 20.0))
    assert 0.6 <= result.slope <= 1.4
    assert result.fit_window == (5.0, 20.0)
    ts = [p.t for p in result.series]
    assert ts == [2.5, 5.0, 10.0, 15.0, 20.0]
    # roughly linear: doubling t roughly doubles the combined error
    e5 = math.hypot(result.series[1].err_v, result.series[1].err_w)
    e10 = math.hypot(result.series[2].err_v, result.series[2].err_w)
    assert 1.2 <= e10 / e5 <= 3.0


def test_error_growth_study_default_window():
    config = desk_config(dt=2.5e-2, T=20.0)
    result = error_growth_study(config, [5.0, 10.0, 15.0, 20.0])
    assert result.fit_window == (12.5, 20.0)


def test_error_growth_study_zero_time_checkpoint():
    config = desk_config(dt=1e-2, T=2.0)
    result = error_growth_study(config, [0.0, 1.0, 2.0], fit_window=(1.0, 2.0))
    assert result.series[0].t == 0.0
    assert result.series[0].err_v <= 1e-14
    assert math.isfinite(result.slope)


def test_error_growth_study_validation(monkeypatch):
    # every rejection comes before the run
    from fnls import harness

    def no_run(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr(harness, "evolve", no_run)
    config = desk_config(dt=2.5e-2, T=20.0)
    with pytest.raises(ParameterError, match="checkpoint"):
        error_growth_study(config, [1.23])
    for t in (-2.5, 22.5, math.nan):
        with pytest.raises(ParameterError, match="checkpoint"):
            error_growth_study(config, [5.0, t])
    with pytest.raises(ParameterError):
        error_growth_study(config, [])
    # one checkpoint in the window leaves no slope to fit
    with pytest.raises(ParameterError, match="^fit_window: fewer than two"):
        error_growth_study(desk_config(dt=2.5e-2, T=0.5), [0.25, 0.5],
                           fit_window=(0.4, 0.5))
    # criterion 06's run (T = 50), with the default window and a given one
    config = desk_config(dt=1.25e-2, T=50.0)
    with pytest.raises(ParameterError, match="^fit_window: fewer than two"):
        error_growth_study(config, [5.0])
    with pytest.raises(ParameterError, match="^fit_window: fewer than two"):
        error_growth_study(config, [5.0, 10.0, 50.0], fit_window=(20.0, 40.0))
    with pytest.raises(ParameterError, match="^s: the closed-form soliton solves only s = 1"):
        error_growth_study(desk_config(dt=2.5e-2, T=0.5, s=0.75), [0.25, 0.5])


def test_error_growth_study_observes_only_checkpoint_steps(monkeypatch):
    # checkpoints at steps 20, 40, 60 (dt = 2.5e-2): the recorder's stride
    # is their gcd, so evolve observes steps 0, 20, 40, 60 and no others
    from fnls import harness
    seen = []
    record = harness._SolitonErrorRecorder.__call__

    def counted(self, n, t, field):
        seen.append(n)
        record(self, n, t, field)

    monkeypatch.setattr(harness._SolitonErrorRecorder, "__call__", counted)
    config = desk_config(dt=2.5e-2, T=1.5)
    result = error_growth_study(config, [1.0, 0.5, 1.5])
    assert seen == [0, 20, 40, 60]
    assert [p.t for p in result.series] == [0.5, 1.0, 1.5]


def test_invariant_drift_study_small_run():
    # N = 512 resolves the soliton to ~1e-11, so aliasing cannot pollute
    # the conserved quantities
    config = desk_config(dt=1e-2, T=1.0)
    result = invariant_drift_study(config)
    assert len(result.records) == 101
    assert result.drift_I1 <= 1e-10
    assert result.drift_I2 <= 1e-10
    # H is conserved only up to the k^4 truncation error of the scheme
    assert result.drift_H <= 1e-6


@pytest.mark.parametrize("stride", [2.5, 0])
def test_invariant_drift_study_rejects_bad_stride(stride):
    with pytest.raises(ParameterError, match="^invariant_stride:"):
        invariant_drift_study(desk_config(invariant_stride=stride))


@pytest.mark.parametrize("study", [
    lambda config: convergence_study(config, [1e-2], workers=1),
    lambda config: error_growth_study(config, [0.5, 1.0]),
    invariant_drift_study,
], ids=["convergence", "error_growth", "invariant_drift"])
def test_studies_validate_config(study):
    # an out-of-range value is a bad configuration, not a numerical
    # failure (a ConvergenceStudyError) of the run it would start; with
    # fp_tol = inf every stage would stop after one sweep
    for name, value in (("s", 1.5), ("L", math.inf), ("fp_tol", math.inf)):
        with pytest.raises(ParameterError, match=f"^{name}:"):
            study(desk_config(**{name: value}))


def track(snapshots):
    """The records of a WaveTracker fed (t, Field) snapshots as steps 0, 1, ..."""
    tracker = WaveTracker()
    for n, (t, field) in enumerate(snapshots):
        tracker(n, t, field)
    return tracker.records()


def test_tracking_analytic_soliton():
    # parabolic peak refinement carries an O(h^4) amplitude bias; N = 4096
    # keeps it near 1e-7 for this profile
    g = SpectralGrid(4096, 16 * np.pi)
    p = SolitonParams(lambda1=1.0, lambda2=0.25)
    snapshots = [(0.25 * j, nls_soliton(g, 0.25 * j, p)) for j in range(9)]
    records = track(snapshots)
    peak = math.sqrt(2 * p.a)
    for i, r in enumerate(records):
        assert abs(r.amplitude - peak) <= 1e-6
        assert abs(r.peak_x - 0.25 * r.t) <= 1e-3
        if i < SPEED_WINDOW - 1:
            assert r.speed is None
        else:
            assert abs(r.speed - 0.25) <= 1e-3


def test_tracking_stationary_soliton():
    g = SpectralGrid(1024, 16 * np.pi)
    p = SolitonParams(lambda1=1.0)
    snapshots = [(0.5 * j, nls_soliton(g, 0.5 * j, p)) for j in range(6)]
    records = track(snapshots)
    for r in records:
        assert abs(r.peak_x) <= 1e-9
        if r.speed is not None:
            assert abs(r.speed) <= 1e-9


def test_tracking_rolled_snapshots_give_exact_speed(small_grid):
    vals = np.exp(-small_grid.nodes**2) + 0j
    snapshots = [(0.5 * j, Field(np.roll(vals, 3 * j), small_grid)) for j in range(7)]
    records = track(snapshots)
    expected = 3 * small_grid.h / 0.5
    for r in records:
        if r.speed is not None:
            assert r.speed == pytest.approx(expected, rel=1e-9)


def test_tracking_unwraps_periodic_crossing(small_grid):
    # the peak leaves through x = L and re-enters at -L; unwrapped positions
    # must keep the fitted speed constant
    vals = np.exp(-small_grid.nodes**2) + 0j
    m = 20   # per-record shift below half a period, as unwrapping requires
    snapshots = [(1.0 * j, Field(np.roll(vals, m * j), small_grid)) for j in range(8)]
    records = track(snapshots)
    expected = m * small_grid.h
    for r in records:
        if r.speed is not None:
            assert r.speed == pytest.approx(expected, rel=1e-9)


def test_tracking_flat_field_raises(small_grid):
    flat = Field(np.ones(small_grid.N), small_grid)
    with pytest.raises(TrackingError):
        track([(0.0, flat)])


def test_wave_tracker_keeps_first_error(small_grid):
    flat = Field(np.ones(small_grid.N), small_grid)
    peaked = Field(np.exp(-small_grid.nodes**2) + 0j, small_grid)
    tracker = WaveTracker()
    tracker(0, 0.0, peaked)
    tracker(1, 0.5, flat)
    first = tracker.error
    assert isinstance(first, TrackingError)
    tracker(2, 1.0, flat)
    tracker(3, 1.5, peaked)
    assert tracker.error is first and tracker.times == [0.0]
    with pytest.raises(TrackingError) as info:
        tracker.records()
    assert info.value is first


def test_tracking_flat_crest_across_the_seam(small_grid):
    # |u| = 1 at nodes N - 1, 0 and 1: the parabola through them is flat,
    # so the crest is node 0, at x = -L, with no sub-grid shift
    vals = np.full(small_grid.N, 0.5, dtype=complex)
    vals[[-1, 0, 1]] = (1j, 1.0, -1.0)
    tracker = WaveTracker()
    tracker(0, 0.0, Field(vals, small_grid))
    [record] = tracker.records()
    assert tracker.error is None
    assert record.amplitude == 1.0
    assert record.peak_x == -small_grid.L


def test_tracking_empty_input():
    # a tracker that observed nothing has no records
    assert WaveTracker().records() == []


def test_build_initial_field_soliton():
    config = desk_config()
    field = build_initial_field(config)
    assert field.grid.N == 512
    expected = nls_soliton(field.grid, 0.0, SolitonParams(1.0, 0.25))
    np.testing.assert_array_equal(field.values, expected.values)


def test_build_initial_field_petviashvili():
    config = RunConfig(L=16 * np.pi, N=512, s=1.0, dt=1e-2, T=1.0, scheme_p=2,
                       initial=PetviashviliInitial(lambda1=1.0, lambda2=0.25))
    field = build_initial_field(config)
    direct = petviashvili_profile(field.grid, 1.0, 1.0, 0.25)
    np.testing.assert_allclose(field.values, direct.profile.values, atol=1e-14)


def test_build_initial_field_profile_file(tmp_path):
    g = SpectralGrid(64, np.pi)
    vals = np.exp(-g.nodes**2) + 0j
    path = tmp_path / "profile.bin"
    write_snapshot(path, Field(vals, g), s=0.75, t=0.0)

    good = RunConfig(L=np.pi, N=64, s=0.75, dt=1e-2, T=0.1, scheme_p=1,
                     initial=ProfileFileInitial(path=path))
    field = build_initial_field(good)
    np.testing.assert_array_equal(field.values, vals)

    nul_path = RunConfig(L=np.pi, N=64, s=0.75, dt=1e-2, T=0.1, scheme_p=1,
                         initial=ProfileFileInitial(path=tmp_path / "a\0b"))
    with pytest.raises(ParameterError, match="^snapshot:"):
        build_initial_field(nul_path)

    bad_n = RunConfig(L=np.pi, N=128, s=0.75, dt=1e-2, T=0.1, scheme_p=1,
                      initial=ProfileFileInitial(path=path))
    with pytest.raises(ParameterError, match="N"):
        build_initial_field(bad_n)

    bad_s = RunConfig(L=np.pi, N=64, s=0.8, dt=1e-2, T=0.1, scheme_p=1,
                      initial=ProfileFileInitial(path=path))
    with pytest.raises(ParameterError, match="s"):
        build_initial_field(bad_s)
