import math

import numpy as np
import pytest

import fnls

DESK_L = 16 * np.pi
DESK_SOLITON = fnls.SolitonParams(lambda1=1.0, lambda2=0.25)
DESK_DTS = [2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3]

FULL_SCALE_ERR_V = 1.1621e-4


def _verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _desk_config(scheme_p):
    return fnls.RunConfig(L=DESK_L, N=512, s=1.0, dt=2.5e-2, T=10.0,
                          scheme_p=scheme_p,
                          initial=fnls.SolitonInitial(1.0, 0.25))


def _smooth_field(grid, rng, amplitude=1.0, bandwidth=4.0):
    coeffs = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    coeffs *= np.exp(-((grid.wavenumbers / bandwidth) ** 2))
    vals = fnls.inverse_transform(fnls.Coefficients(coeffs, grid)).values
    peak = np.max(np.abs(vals))
    return fnls.Field(vals * (amplitude / peak), grid)


def test_criterion_01_temporal_order_four():
    rows = fnls.convergence_study(_desk_config(2), DESK_DTS)
    rates = [r.rate_v for r in rows[1:]] + [r.rate_w for r in rows[1:]]
    ok = all(3.7 <= rate <= 4.3 for rate in rates)
    _verdict(1, ok, f"q=3 rates {[f'{r:.3f}' for r in rates]} in [3.7, 4.3]")


@pytest.mark.slow
def test_criterion_01_full_scale_error_magnitude():
    grid = fnls.SpectralGrid(4096, 32 * np.pi)
    u0 = fnls.nls_soliton(grid, 0.0, DESK_SOLITON)
    scheme = fnls.yoshida_coefficients(2)
    uT, _ = fnls.evolve(u0, 100.0, scheme, fnls.SolverParams(k=2.5e-2),
                        fnls.ModelParams(s=1.0))
    err_v, _ = fnls.component_errors(uT, fnls.nls_soliton(grid, 100.0, DESK_SOLITON))
    ok = FULL_SCALE_ERR_V / 2 <= err_v <= 2 * FULL_SCALE_ERR_V
    _verdict(1, ok, f"full scale err_v {err_v:.4e} within 2x of {FULL_SCALE_ERR_V:.4e}")


def test_criterion_02_temporal_order_two():
    rows = fnls.convergence_study(_desk_config(1), DESK_DTS)
    rates = [r.rate_v for r in rows[1:]] + [r.rate_w for r in rows[1:]]
    ok = all(1.8 <= rate <= 2.2 for rate in rates)
    _verdict(2, ok, f"q=1 rates {[f'{r:.3f}' for r in rates]} in [1.8, 2.2]")


def test_criterion_03_local_error_orders():
    grid = fnls.SpectralGrid(512, DESK_L)
    u0 = fnls.nls_soliton(grid, 0.0, DESK_SOLITON)
    mp = fnls.ModelParams(s=1.0)
    slopes = {}
    for p, expected in ((1, 3.0), (2, 5.0)):
        scheme = fnls.yoshida_coefficients(p)
        errs = []
        for k in (1e-2, 5e-3, 2.5e-3):
            one, _ = fnls.step(u0, scheme, fnls.SolverParams(k=k), mp)
            ref = u0
            for _ in range(64):
                ref, _ = fnls.step(ref, scheme, fnls.SolverParams(k=k / 64), mp)
            errs.append(fnls.l2_norm(fnls.Field(one.values - ref.values, grid)))
        slopes[expected] = [math.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    ok = (all(2.7 <= r <= 3.3 for r in slopes[3.0])
          and all(4.7 <= r <= 5.3 for r in slopes[5.0]))
    _verdict(3, ok, f"local slopes q=1 {[f'{r:.2f}' for r in slopes[3.0]]} "
                    f"q=3 {[f'{r:.2f}' for r in slopes[5.0]]}")


def _criterion_04_field():
    grid = fnls.SpectralGrid(128, np.pi)
    x = grid.nodes
    vals = (0.5 * np.exp(1j * x) + 0.4 * np.exp(2j * x + 1.1j)
            + 0.2 * np.exp(-2j * x + 2.6j) + 0.1 * np.exp(4j * x))
    return fnls.Field(vals.astype(complex), grid)


def _invariant_drifts(u0, T, k, tol):
    """Largest relative I1 and I2 drifts of a Yoshida order-4 run at s = 1,
    read every 200 steps."""
    mp = fnls.ModelParams(s=1.0)
    rec = fnls.InvariantRecorder(mp, stride=200)
    fnls.evolve(u0, T, fnls.yoshida_coefficients(2), fnls.SolverParams(k=k, fp_tol=tol),
                mp, observers=(rec,))
    r0 = rec.records[0]
    d1 = max(abs(r.I1 - r0.I1) / max(1, abs(r0.I1)) for r in rec.records)
    d2 = max(abs(r.I2 - r0.I2) / max(1, abs(r0.I2)) for r in rec.records)
    return d1, d2


def test_criterion_04_conservation_and_fp_tol_scaling():
    u0 = _criterion_04_field()
    drifts = {tol: _invariant_drifts(u0, 2500.0, 0.25, tol) for tol in (1e-13, 1e-11)}
    (a1, a2), (b1, b2) = drifts[1e-13], drifts[1e-11]
    ratio1, ratio2 = b1 / a1, b2 / a2
    ok = (a1 <= 1e-10 and a2 <= 1e-9
          and 100 / 3 <= ratio1 <= 300 and 100 / 3 <= ratio2 <= 300)
    _verdict(4, ok, f"1e4 steps: I1 drift {a1:.2e} I2 drift {a2:.2e}, "
                    f"fp_tol x100 ratios {ratio1:.0f}/{ratio2:.0f} in [33, 300]")


# Criterion 04's field at five step sizes: each stage stops within about
# fp_tol of its fixed point, so M q stage errors walk the invariants by
# about fp_tol sqrt(M q).  D = drift / (fp_tol sqrt(M q)) read at most 1.38
# on this field and 2.13 on four seeded fields (100 readings); stopping
# every sweep on the theta / (1 - theta) estimate read up to 4.98 here.
DRIFT_KS = (0.15625, 0.2, 0.25, 0.3125, 0.5)
DRIFT_C = 3.0


@pytest.mark.slow
def test_invariant_drift_bound_at_every_step_size():
    u0 = _criterion_04_field()
    readings = []
    for k in DRIFT_KS:
        M = round(2500.0 / k)
        for tol in (1e-13, 1e-11):
            d1, d2 = _invariant_drifts(u0, 2500.0, k, tol)
            scale = tol * math.sqrt(3 * M)      # q = 3 stages per step
            readings.append(f"k={k} tol={tol:g}: D {d1 / scale:.2f}/{d2 / scale:.2f}")
            assert max(d1, d2) <= DRIFT_C * scale, readings[-1]
    print(f"drift bound D <= {DRIFT_C:g} (I1/I2): " + "; ".join(readings))


def test_criterion_05_hamiltonian_near_conservation():
    grid = fnls.SpectralGrid(1024, DESK_L)
    prof = fnls.petviashvili_profile(grid, 0.75, 1.0, 0.25)
    mp = fnls.ModelParams(s=0.75)
    rec = fnls.InvariantRecorder(mp, stride=10)
    fnls.evolve(prof.profile, 10.0, fnls.yoshida_coefficients(2),
                fnls.SolverParams(k=1.25e-2), mp, observers=(rec,))
    H0 = rec.records[0].H
    drift = lambda recs: max(abs(r.H - H0) / max(1.0, abs(H0)) for r in recs)
    full = drift(rec.records)
    half = drift([r for r in rec.records if r.t <= 5.0])
    ok = full <= 1e-6 and full <= 2 * half
    _verdict(5, ok, f"H drift {full:.2e} <= 1e-6, full/half {full / half:.2f} <= 2")


def test_criterion_06_linear_error_growth():
    cfg = fnls.RunConfig(L=DESK_L, N=512, s=1.0, dt=1.25e-2, T=50.0, scheme_p=2,
                         initial=fnls.SolitonInitial(1.0, 0.25))
    res = fnls.error_growth_study(cfg, [5.0 * i for i in range(1, 11)],
                                  fit_window=(5.0, 50.0))
    ok = 0.8 <= res.slope <= 1.2
    _verdict(6, ok, f"error growth slope {res.slope:.3f} in [0.8, 1.2]")


def test_criterion_07_spectral_spatial_accuracy():
    mp = fnls.ModelParams(s=1.0)
    scheme = fnls.yoshida_coefficients(2)
    errs = {}
    for N in (128, 256):
        grid = fnls.SpectralGrid(N, DESK_L)
        u0 = fnls.nls_soliton(grid, 0.0, DESK_SOLITON)
        uT, _ = fnls.evolve(u0, 1.0, scheme, fnls.SolverParams(k=1e-3), mp)
        ev, ew = fnls.component_errors(uT, fnls.nls_soliton(grid, 1.0, DESK_SOLITON))
        errs[N] = math.hypot(ev, ew)
    ratio = errs[128] / errs[256]
    ok = ratio >= 100
    _verdict(7, ok, f"err(N=128)/err(N=256) = {ratio:.0f} >= 100")


def test_criterion_08_composition_oracle():
    grid = fnls.SpectralGrid(64, np.pi)
    mp = fnls.ModelParams(s=1.0)
    q3 = fnls.yoshida_coefficients(2)
    q1 = fnls.yoshida_coefficients(1)
    sp = fnls.SolverParams(k=2.5e-2)
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(100):
        u0 = _smooth_field(grid, rng)
        whole, _ = fnls.step(u0, q3, sp, mp)
        y = u0
        for b in q3.b:
            y, _ = fnls.step(y, q1, fnls.SolverParams(k=sp.k * b), mp)
        rel = (fnls.l2_norm(fnls.Field(whole.values - y.values, grid))
               / fnls.l2_norm(u0))
        worst = max(worst, rel)
    ok = worst <= 10 * sp.fp_tol
    _verdict(8, ok, f"100 trials, q=3 vs three q=1 substeps: worst {worst:.2e} "
                    f"<= {10 * sp.fp_tol:.0e}")


def test_criterion_09_petviashvili_profiles():
    g512 = fnls.SpectralGrid(512, DESK_L)
    r1 = fnls.petviashvili_profile(g512, 1.0, 1.0, 0.0)
    exact = fnls.nls_soliton(g512, 0.0, fnls.SolitonParams(1.0, 0.0))
    dist = fnls.l2_norm(fnls.Field(r1.profile.values - exact.values, g512))

    g1024 = fnls.SpectralGrid(1024, DESK_L)
    r2 = fnls.petviashvili_profile(g1024, 0.75, 1.0, 0.25)

    mp = fnls.ModelParams(s=0.75)
    tracker = fnls.WaveTracker(stride=8)
    fnls.evolve(r2.profile, 10.0, fnls.yoshida_coefficients(2),
                fnls.SolverParams(k=1.25e-2), mp, observers=(tracker,))
    tracks = tracker.records()
    amp_err = max(abs(tr.amplitude - tracks[0].amplitude) for tr in tracks)
    speed_err = max(abs(tr.speed - 0.25) for tr in tracks if tr.speed is not None)

    ok = (dist <= 1e-8 and r2.residual <= 1e-10
          and amp_err <= 1e-3 and speed_err <= 5e-3)
    _verdict(9, ok, f"s=1 distance {dist:.2e} <= 1e-8, s=0.75 residual "
                    f"{r2.residual:.2e} <= 1e-10, amp err {amp_err:.2e} <= 1e-3, "
                    f"speed err {speed_err:.2e} <= 5e-3")


def test_criterion_10_reversibility():
    grid = fnls.SpectralGrid(64, np.pi)
    scheme = fnls.yoshida_coefficients(2)
    forward = fnls.SolverParams(k=2.5e-2)
    backward = fnls.SolverParams(k=-2.5e-2)
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for trial in range(50):
        mp = fnls.ModelParams(s=(0.6, 0.75, 1.0)[trial % 3])
        u0 = _smooth_field(grid, rng)
        u1, _ = fnls.step(u0, scheme, forward, mp)
        u2, _ = fnls.step(u1, scheme, backward, mp)
        rel = (fnls.l2_norm(fnls.Field(u2.values - u0.values, grid))
               / fnls.l2_norm(u0))
        worst = max(worst, rel)
    ok = worst <= 100 * forward.fp_tol
    _verdict(10, ok, f"50 trials across s in (0.6, 0.75, 1.0): worst return "
                     f"error {worst:.2e} <= {100 * forward.fp_tol:.0e}")
