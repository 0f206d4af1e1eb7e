"""The traced run: per-layer metrics from spans, the micro table, and
interpreter start-up.

Ops alternate untraced and traced so that trace_overhead_frac compares
like with like: median traced wall_s over median untraced wall_s, both
driven in this interpreter.  Totals and counts come from the spans of the
traced ops (median over ops); single-call costs come from micro timings at
the workload's N.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracing import Tracer, layer_self_times, self_times

# name -> unit, in the order they are printed.
PER_LAYER = {
    "cli.startup_s": "s",
    "io.load_config_ms": "ms",
    "io.snapshot_write_us": "us",
    "io.snapshot_read_us": "us",
    "io.snapshots_written": "count",
    "io.snapshot_bytes": "B",
    "io.csv_write_ms": "ms",
    "spectral.fft_pair_us": "us",
    "model.nonlinearity_us": "us",
    "model.invariants_us": "us",
    "model.invariant_calls": "count",
    "integrators.evolve_s": "s",
    "integrators.observer_s": "s",
    "integrators.self_s": "s",
    "integrators.fp_iters_total": "count",
    "integrators.fp_iters_per_stage": "count",
    "integrators.fp_iter_us": "us",
    "integrators.step_us": "us",
    "integrators.stage_solve_us": "us",
    "integrators.evolve_calls": "count",
    "waves.petviashvili_ms": "ms",
    "waves.petviashvili_iters": "count",
    "waves.profile_residual": "l2",
    "harness.build_initial_ms": "ms",
    "harness.rows_serial_s": "s",
    "harness.row_max_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.wave_tracking_ms": "ms",
    "harness.snapshots_held": "count",
    "trace_overhead_frac": "ratio",
}
MICRO_NAMES = ("spectral.fft_pair_us", "model.nonlinearity_us", "model.invariants_us",
               "integrators.stage_solve_us", "integrators.step_us")
MICRO_NS = (128, 512, 4096)
for _n in MICRO_NS:
    for _name in MICRO_NAMES:
        PER_LAYER[f"{_name}.N{_n}"] = "us"

# Micro problems, one per N, each the state and step of the workload that
# runs at that N: the ensemble domain with a fixed smooth field (seed 0, so
# the table does not depend on --seed), the README soliton, and the
# fractional run with the soliton standing in for its profile.
MICRO_PROBLEMS = {128: (wl.ENSEMBLE_L, 0.75, wl.ENSEMBLE_DT),
                  512: (16 * math.pi, 1.0, 1.25e-2),
                  4096: (32 * math.pi, 0.75, 2.5e-2)}
MICRO_BLOCK_S = 0.01
MICRO_BLOCKS = 5
STARTUP_REPEATS = 5


def per_call_us(fn) -> float:
    """Median over blocks of the per-call time, each block about 10 ms."""
    fn()
    calls, elapsed = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= MICRO_BLOCK_S:
            break
        calls *= 2
    blocks = [elapsed / calls]
    for _ in range(MICRO_BLOCKS - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(blocks)


def micro_table(fnls) -> dict[int, dict[str, float]]:
    table = {}
    for N in MICRO_NS:
        L, s, dt = MICRO_PROBLEMS[N]
        grid = fnls.SpectralGrid(N, L)
        vals = (wl.smooth_fields(0)[0] if N == wl.ENSEMBLE_N
                else wl.exact_soliton(N, L, 0.0))
        u = fnls.Field(vals, grid)
        scheme = fnls.yoshida_coefficients(2)
        sp, mp = fnls.SolverParams(k=dt), fnls.ModelParams(s=s)
        table[N] = {
            "spectral.fft_pair_us": per_call_us(
                lambda: fnls.inverse_transform(fnls.forward_transform(u))),
            "model.nonlinearity_us": per_call_us(lambda: fnls.nonlinearity(u)),
            "model.invariants_us": per_call_us(lambda: fnls.invariants(0.0, u, mp)),
            "integrators.stage_solve_us": per_call_us(
                lambda: fnls.imr_stage_solve(u, scheme.b[0], sp, mp)),
            "integrators.step_us": per_call_us(lambda: fnls.step(u, scheme, sp, mp)),
        }
    return table


def snapshot_io_us(fnls, N: int, L: float) -> tuple[float, float]:
    path = wl.WORK / f"micro-{N}.bin"
    u = fnls.Field(wl.exact_soliton(N, L, 0.0), fnls.SpectralGrid(N, L))
    write = per_call_us(lambda: fnls.write_snapshot(path, u, 1.0, 0.0))
    read = per_call_us(lambda: fnls.read_snapshot(path))
    path.unlink()
    return write, read


def startup_s() -> float:
    """Median wall time of a fresh interpreter that imports fnls."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fnls"], check=True,
                       env=wl.child_env(), cwd=wl.ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals and counts of one traced op."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    evolves = by_name.get("integrators.evolve", [])
    evolve_ids = {s["id"] for s in evolves}
    fp_iters = sum(s["fp_iters"] for s in evolves)
    stages = sum(s["stages"] for s in evolves)
    self_s = sum(own[s["id"]] for s in evolves)
    observer_s = sum(dur(s) for s in spans
                     if s["parent"] in evolve_ids and s["name"].endswith(".__call__"))
    studies = by_name.get("harness.convergence_study", [])
    study_ids = {s["id"] for s in studies}
    rows = [dur(s) for s in evolves if s["parent"] in study_ids]
    pool_capacity = sum(s["workers"] * dur(s) for s in studies)
    profiles = by_name.get("waves.petviashvili_profile", [])
    csv_s = sum(total(n) for n in by_name if n.startswith("io.write_") and n.endswith("_csv"))
    return {
        "io.load_config_ms": 1e3 * total("io.load_config"),
        "io.snapshots_written": len(by_name.get("io.write_snapshot", [])),
        "io.snapshot_bytes": sum(s["bytes"] for s in by_name.get("io.write_snapshot", [])),
        "io.csv_write_ms": 1e3 * csv_s,
        "model.invariant_calls": len(by_name.get("model.invariants", [])),
        "integrators.evolve_s": sum(dur(s) for s in evolves),
        "integrators.observer_s": observer_s,
        "integrators.self_s": self_s,
        "integrators.fp_iters_total": fp_iters,
        "integrators.fp_iters_per_stage": fp_iters / stages if stages else 0.0,
        "integrators.fp_iter_us": 1e6 * self_s / fp_iters if fp_iters else 0.0,
        "integrators.evolve_calls": len(evolves),
        "waves.petviashvili_ms": 1e3 * total("waves.petviashvili_profile"),
        "waves.petviashvili_iters": sum(s["iters"] for s in profiles),
        "waves.profile_residual": max((s["residual"] for s in profiles), default=0.0),
        "harness.build_initial_ms": 1e3 * total("harness.build_initial_field"),
        "harness.rows_serial_s": sum(rows),
        "harness.row_max_s": max(rows, default=0.0),
        "harness.pool_efficiency": sum(rows) / pool_capacity if pool_capacity else 0.0,
        "harness.wave_tracking_ms": 1e3 * total("harness.wave_tracking"),
        "harness.snapshots_held": len(by_name.get("harness.FieldRecorder.__call__", [])),
    }


def traced_run(fnls, workload: str, seed: int, seconds: float, op, n_grid: int,
               grid_L: float, rows_expected: int):
    """Alternate untraced and traced ops for `seconds`, then time the layers.

    `op()` runs one in-process operation and returns its OpResult; it
    must not raise.
    Returns (results, metrics, spans, layer self times).
    """
    tracer = Tracer(wl.WORK)
    for stale in wl.WORK.glob("worker-*.json"):
        stale.unlink()
    untraced, traced, per_op, spans = [], [], [], []
    start = time.perf_counter()
    k = 0
    while not (untraced and traced) or wl.fits(untraced + traced,
                                                time.perf_counter() - start, seconds):
        if k % 2 == 0:
            untraced.append(op())
        else:
            tracer.run_id = f"{workload}-seed{seed}-op{k}"
            tracer.spans = []
            tracer.install()
            try:
                traced.append(tracer.span(f"perfbench.{workload}", op))
            finally:
                tracer.uninstall()
            tracer.collect_workers()
            study_ids = {s["id"] for s in tracer.spans
                         if s["name"] == "harness.convergence_study"}
            rows = sum(1 for s in tracer.spans
                       if s["name"] == "integrators.evolve" and s["parent"] in study_ids)
            if rows != rows_expected:
                traced[-1].fail(traced[-1].attempted,
                                f"{rows} pool-worker evolve spans, {rows_expected} expected")
            per_op.append(span_metrics(tracer.spans))
            spans.extend(tracer.spans)
        k += 1

    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    table = micro_table(fnls)
    for N, row in table.items():
        for name, value in row.items():
            metrics[f"{name}.N{N}"] = value
    metrics.update(table[n_grid])
    write_us, read_us = snapshot_io_us(fnls, n_grid, grid_L)
    metrics["io.snapshot_write_us"] = write_us
    metrics["io.snapshot_read_us"] = read_us
    metrics["cli.startup_s"] = startup_s()
    metrics["trace_overhead_frac"] = (statistics.median(r.wall for r in traced)
                                      / statistics.median(r.wall for r in untraced))
    return untraced + traced, metrics, spans, layer_self_times(spans)
