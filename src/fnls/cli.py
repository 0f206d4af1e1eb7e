"""Command-line entry points.

Subcommands: ``simulate`` (run one evolution, write invariants.csv,
tracking.csv, and snapshots), ``convergence`` (temporal convergence
table, write convergence.csv), ``profile`` (compute a Petviashvili
profile, write profile.bin plus profile.json).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.  FNLS_THREADS caps the parallelism of convergence sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .errors import FnlsError, ParameterError, TrackingError
from .harness import (
    InvariantRecorder,
    WaveTracker,
    build_initial_field,
    convergence_study,
)
from .integrators import SolverParams, evolve, yoshida_coefficients
from .io import (
    PetviashviliInitial,
    RunConfig,
    SnapshotWriter,
    load_config,
    write_convergence_csv,
    write_invariants_csv,
    write_snapshot,
    write_tracking_csv,
)
from .model import ModelParams
from .spectral import SpectralGrid
from .waves import petviashvili_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _output_dir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(config: RunConfig) -> int:
    out = _output_dir(config)
    grid, u0 = build_initial_field(config)
    scheme = yoshida_coefficients(config.scheme_p)
    sp = SolverParams(k=config.dt, fp_tol=config.fp_tol,
                      fp_max_iters=config.fp_max_iters)
    mp = ModelParams(s=config.s, dealias=config.dealias)
    invariant_rec = InvariantRecorder(mp, stride=config.invariant_stride)
    tracker = WaveTracker(stride=config.snapshot_stride)
    snapshot_writer = SnapshotWriter(out, s=config.s, stride=config.snapshot_stride)

    start = time.perf_counter()
    _, stats = evolve(u0, config.T, scheme, sp, mp,
                      observers=(invariant_rec, tracker, snapshot_writer))
    wall = time.perf_counter() - start

    write_invariants_csv(out / "invariants.csv", invariant_rec.records)
    try:
        track = tracker.records()
    except TrackingError as err:
        print(f"warning: tracking skipped: {err}", file=sys.stderr)
        track = []
    write_tracking_csv(out / "tracking.csv", track)

    print(f"steps:               {stats.steps}")
    print(f"fp iterations:       {stats.fp_iterations} "
          f"({stats.mean_fp_iterations:.2f} per stage)")
    print(f"stability margin:    {stats.max_stability_margin:.3g} max "
          f"({stats.initial_stability_margin:.3g} initial)")
    print(f"wall time:           {wall:.2f} s")
    for warning in stats.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_convergence(config: RunConfig, dt_list: list[float]) -> int:
    out = _output_dir(config)
    workers = None
    env = os.environ.get("FNLS_THREADS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ParameterError(f"FNLS_THREADS: expected an integer, got {env!r}")
        if workers < 1:
            raise ParameterError(f"FNLS_THREADS: must be >= 1, got {workers}")
    rows = convergence_study(config, dt_list, workers=workers)
    write_convergence_csv(out / "convergence.csv", rows)
    print("dt,err_v,rate_v,err_w,rate_w")
    for r in rows:
        rv = "" if r.rate_v is None else f"{r.rate_v:.4f}"
        rw = "" if r.rate_w is None else f"{r.rate_w:.4f}"
        print(f"{r.dt:g},{r.err_v:.6e},{rv},{r.err_w:.6e},{rw}")
    return EXIT_OK


def cmd_profile(config: RunConfig) -> int:
    out = _output_dir(config)
    init = config.initial
    if not isinstance(init, PetviashviliInitial):
        raise ParameterError(
            "initial: the profile command requires initial.kind == 'petviashvili'"
        )
    grid = SpectralGrid(config.N, config.L)
    result = petviashvili_profile(grid, config.s, init.lambda1, init.lambda2,
                                  tol=init.tol)
    write_snapshot(out / "profile.bin", result.profile, s=config.s, t=0.0)
    metadata = {
        "lambda1": result.lambda1,
        "lambda2": result.lambda2,
        "s": result.s,
        "tol": init.tol,
        "residual": result.residual,
        "iterations": result.iterations,
    }
    (out / "profile.json").write_text(json.dumps(metadata, indent=2) + "\n")
    print(f"residual:   {result.residual:.6e}")
    print(f"iterations: {result.iterations}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnls",
        description="Fourier spectral solver for the periodic fractional NLS "
                    "equation with composition time integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one evolution")
    p_conv = sub.add_parser("convergence", help="temporal convergence table")
    p_prof = sub.add_parser("profile", help="compute a solitary-wave profile")
    for p in (p_sim, p_conv, p_prof):
        p.add_argument("--config", required=True, type=Path,
                       help="JSON run configuration")
        p.add_argument("--output", type=Path, default=None,
                       help="override the config's output_dir")
    p_conv.add_argument("--dt", type=float, nargs="+", default=None,
                        help="step sizes for the table (default: config dt)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.output is not None:
            config = config.with_output_dir(args.output)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "convergence":
            dt_list = args.dt if args.dt else [config.dt]
            return cmd_convergence(config, dt_list)
        return cmd_profile(config)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FnlsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
