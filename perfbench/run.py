"""fnls benchmark: four solver workloads, end-to-end metrics with tracing
off, and a traced run that breaks each workload down by layer.

    python3 perfbench/run.py --workload convergence_c01 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload, one table

Each run is a closed loop: one generator, the next operation starts when
the previous one ends, as long as it is expected to end within --seconds.
Every operation's output is checked; a failed check counts as a failed
operation (runs, convergence rows, ensemble members).  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
End-to-end times are rescaled to a reference host speed, measured by a
probe around every operation (see probe()).  The traced run also writes its spans to
perfbench/work/spans-<workload>-seed<seed>.json.

Run it from the root of a source checkout: the program is imported from
./src, never from an installed copy.  See perfbench/README.md for what
each metric measures.
"""

from __future__ import annotations

import os

# Before numpy loads here; child processes get the same via child_env().
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "err_l2": "l2"}

# name -> (kind, config, grid N, grid L, operations per op)
WORKLOADS = {
    "simulate_readme": ("cli", wl.README_CONFIG, 512, 16 * math.pi, 1),
    "convergence_c01": ("convergence", wl.CRITERION_01_CONFIG, 512, 16 * math.pi,
                        len(wl.CRITERION_01_DTS)),
    "ensemble_small_n": ("ensemble", None, wl.ENSEMBLE_N, wl.ENSEMBLE_L,
                         wl.ENSEMBLE_B + 1),
    "fractional_large_n": ("cli", wl.FRACTIONAL_CONFIG, 4096, 32 * math.pi, 1),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fnls():
    sys.path.insert(0, str(wl.SRC))
    import fnls
    import fnls.cli
    origin = os.path.realpath(fnls.__file__)
    if not origin.startswith(os.path.realpath(wl.SRC) + os.sep):
        raise SystemExit(f"error: fnls imported from {origin}, not from {wl.SRC}")
    return fnls


def busy_processes(kind: str) -> int:
    return wl.CONVERGENCE_WORKERS if kind == "convergence" else 1


def environment(seed: int, kind: str) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (AttributeError, KeyError, TypeError):  # numpy < 1.26 has no dicts mode
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "absent"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"seed": seed, "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy, "blas": blas, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "busy_processes": busy_processes(kind)}


def report_problems(results: list) -> None:
    for r in results:
        for problem in r.problems:
            print(f"check failed: {problem}", file=sys.stderr)


# Host-speed probe.  The machine is shared, and its speed drifts by up to
# 2x over seconds to minutes: more than any bound on a raw wall time.  So
# every op is bracketed by a fixed numpy kernel of the kind the solver runs
# (an FFT pair and pointwise complex products at N = 4096, no fnls code),
# in as many processes as the workload keeps busy, and end-to-end times are
# rescaled by the kernel's speed around the op.
PROBE_N = 4096
PROBE_BLOCK = 20           # repetitions between clock reads
PROBE_REF_S = 2.2e-4       # one repetition, one process, on the reference host:
                           # a 2-vCPU Intel Xeon VM, numpy 2.4, at its fast state
PROBE_SHARE = 0.1          # probe time after an op, as a share of its wall time
PROBE_MIN_S = 0.2


def probe_kernel(seconds: float) -> float:
    """Mean time of one probe repetition over about `seconds`."""
    x = np.exp(1j * np.linspace(0.0, 50.0, PROBE_N))
    reps, t0 = 0, time.perf_counter()
    while True:
        for _ in range(PROBE_BLOCK):
            y = np.fft.ifft(np.fft.fft(x) * x)
            y *= np.abs(y) ** 2
        reps += PROBE_BLOCK
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / reps


def probe(seconds: float, processes: int) -> float:
    """probe_kernel run in `processes` processes at once; the mean of them."""
    children = []
    try:
        for _ in range(processes - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_end)
                    os.write(write_end, repr(probe_kernel(seconds)).encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        times = [probe_kernel(seconds)]
        for _, read_end in children:
            with os.fdopen(read_end, "rb") as pipe:
                times.append(float(pipe.read()))
    finally:
        for pid, _ in children:
            os.waitpid(pid, 0)
    return statistics.fmean(times)


def closed_loop(seconds: float, processes: int, op) -> list:
    """Ops until the next one, with its probe, would end after `seconds`.

    Each result's `slowdown` is the probe time around it over PROBE_REF_S.
    """
    results, start = [], time.perf_counter()

    def next_fits():
        typical = statistics.median(r.wall for r in results)
        return time.perf_counter() - start + (1.0 + PROBE_SHARE) * typical <= seconds

    before = probe(PROBE_MIN_S, processes)
    while not results or next_fits():
        result = op(len(results))
        after = probe(max(PROBE_MIN_S, PROBE_SHARE * result.wall), processes)
        result.slowdown = 0.5 * (before + after) / PROBE_REF_S
        results.append(result)
        before = after
    return results


def end_to_end(kind: str, results: list) -> dict[str, float]:
    """Medians over the ops of the run.  wall_s and setup_s are in seconds
    at the reference host speed: each op's times over its slowdown."""
    def values(attr, rescale=False):
        found = [getattr(r, attr) / (r.slowdown if rescale else 1.0)
                 for r in results if getattr(r, attr) is not None]
        if not found:
            raise SystemExit(f"error: no operation produced {attr}")
        return found

    def median_of(attr, rescale=False):
        return statistics.median(values(attr, rescale))

    if kind == "cli":
        rss = median_of("rss_mb")
    else:
        # This process ran the workload; its pool workers are its children.
        rss = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    return {"wall_s": median_of("wall", True), "setup_s": median_of("setup", True),
            "peak_rss_mb": rss, "err_l2": median_of("err")}


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=wl.ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "fnls" / "__init__.py").is_file():
        print(f"error: no fnls source at {wl.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    kind, config, n_grid, grid_L, units = WORKLOADS[name]
    work = wl.WORK / name
    work.mkdir(parents=True, exist_ok=True)
    config_path = wl.write_config(work, "config", config) if config else None
    fnls = import_fnls() if args.trace or kind != "cli" else None
    fields = wl.smooth_fields(args.seed) if kind == "ensemble" else None

    def inprocess_op():
        if kind == "cli":
            return wl.simulate_inprocess(fnls, name, config, config_path, work / "out")
        if kind == "convergence":
            return wl.convergence_op(fnls, config_path)
        return wl.ensemble_op(fnls, fields)

    if args.trace:
        from layers import PER_LAYER, traced_run
        results, metrics, spans, layer_self = traced_run(
            fnls, name, args.seed, args.seconds,
            lambda: wl.guarded(inprocess_op, units), n_grid, grid_L,
            units if kind == "convergence" else 0)
        report_problems(results)
        units_of = PER_LAYER
    else:
        if kind == "cli":
            op = lambda k: wl.guarded(lambda: wl.simulate_subprocess(
                name, config, config_path, work / f"op{k}"), units)
        else:
            op = lambda k: wl.guarded(inprocess_op, units)
        results = closed_loop(args.seconds, busy_processes(kind), op)
        report_problems(results)
        metrics = end_to_end(kind, results)
        units_of = END_TO_END

    env = environment(args.seed, kind)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if args.trace:
        spans_path = wl.WORK / f"spans-{name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": name, "env": env, "metrics": metrics,
            "layer_self_s": layer_self, "spans": spans}))
        print(f"spans: {len(spans)} written to {spans_path.relative_to(wl.ROOT)}")
        print("layer self time (s, all traced ops): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(layer_self.items())))

    print(f"env: {json.dumps(env)}")
    print(f"{name} seed={args.seed} trace={args.trace} ops={len(results)} "
          f"attempted={attempted} failed={failed} "
          f"({100.0 * failed / attempted:.1f}% failed)")
    if not args.trace:
        walls = [r.wall for r in results]
        print(f"  op wall times as measured: min {min(walls):.4f} s, median "
              f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s")
        slowdowns = [r.slowdown for r in results]
        print(f"  host slowdown against the reference: min {min(slowdowns):.3f}, "
              f"median {statistics.median(slowdowns):.3f}, max {max(slowdowns):.3f}")
    for metric, unit in units_of.items():
        print(f"  {metric:<36} {metrics[metric]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units_of.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
