"""Command-line entry points.

Subcommands: ``simulate`` (run one evolution, write invariants.csv,
tracking.csv, and snapshots), ``convergence`` (temporal convergence
table, write convergence.csv), ``profile`` (compute a Petviashvili
profile, write profile.bin plus profile.json).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import FnlsError, ParameterError, TrackingError
from .harness import (
    ConvergenceRow,
    InvariantRecorder,
    TrackRecord,
    WaveTracker,
    build_initial_field,
    build_profile,
    convergence_study,
)
from .integrators import evolve
from .io import (
    RunConfig,
    SnapshotWriter,
    load_config,
    write_csv,
    write_snapshot,
)
from .model import InvariantRecord

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _output_dir(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:    # ValueError: a NUL byte in the path
        raise ParameterError(f"--output: cannot create {str(out)!r}: "
                             f"{getattr(err, 'strerror', None) or err}") from None
    return out


def cmd_simulate(config: RunConfig, out: Path) -> int:
    u0 = build_initial_field(config)
    _output_dir(out)
    scheme, sp, mp = config.problem()
    invariant_rec = InvariantRecorder(mp, stride=config.invariant_stride)
    tracker = WaveTracker(stride=config.snapshot_stride)
    snapshot_writer = SnapshotWriter(out, s=config.s, stride=config.snapshot_stride)

    start = time.perf_counter()
    _, stats = evolve(u0, config.T, scheme, sp, mp,
                      observers=(invariant_rec, tracker, snapshot_writer))
    wall = time.perf_counter() - start

    write_csv(out / "invariants.csv", InvariantRecord, invariant_rec.records)
    try:
        track = tracker.records()
    except TrackingError as err:
        print(f"warning: tracking skipped: {err}", file=sys.stderr)
        track = []
    write_csv(out / "tracking.csv", TrackRecord, track)

    print(f"steps:               {stats.steps}")
    print(f"fp iterations:       {stats.fp_iterations} "
          f"({stats.mean_fp_iterations:.2f} per stage)")
    print(f"max contraction:     {stats.max_contraction:.3g}")
    print(f"wall time:           {wall:.2f} s")
    return EXIT_OK


def cmd_convergence(config: RunConfig, out: Path, dt_list: list[float]) -> int:
    rows = convergence_study(config, dt_list)
    print("dt,err_v,rate_v,err_w,rate_w")
    for r in rows:
        rv = "" if r.rate_v is None else f"{r.rate_v:.4f}"
        rw = "" if r.rate_w is None else f"{r.rate_w:.4f}"
        print(f"{r.dt:g},{r.err_v:.6e},{rv},{r.err_w:.6e},{rw}")
    write_csv(_output_dir(out) / "convergence.csv", ConvergenceRow, rows)
    return EXIT_OK


def cmd_profile(config: RunConfig, out: Path) -> int:
    result = build_profile(config)
    _output_dir(out)
    write_snapshot(out / "profile.bin", result.profile, s=config.s, t=0.0)
    init = config.initial
    metadata = {
        "lambda1": init.lambda1,
        "lambda2": init.lambda2,
        "s": config.s,
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
        p.add_argument("--output", type=Path, default=Path("."),
                       help="directory for the output files (default: .)")
    p_conv.add_argument("--dt", type=float, nargs="+", default=None,
                        help="step sizes for the table (default: config dt)")
    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _shield_dt_values(argv: list[str]) -> list[str]:
    """Prefix a space to each --dt value that starts with '-'.

    argparse reads such a token as an option unless it is a plain negative
    decimal, so -inf or -1e-05 would end the --dt list with a usage error.
    float() ignores the space, and the value then reaches the dt check,
    which rejects it with a configuration error.
    """
    shielded, in_dt = [], False
    for token in argv:
        if in_dt and _is_number(token):
            if token.startswith("-"):
                token = " " + token
        else:
            in_dt = token == "--dt"
        shielded.append(token)
    return shielded


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_shield_dt_values(argv))
    try:
        config = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(config, args.output)
        if args.command == "convergence":
            dt_list = args.dt if args.dt else [config.dt]
            return cmd_convergence(config, args.output, dt_list)
        return cmd_profile(config, args.output)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        # config and snapshot reads report their own failures, so an
        # OSError is an output that cannot be written
        print(f"error: --output: cannot write {str(err.filename or args.output)!r}: "
              f"{err.strerror or err}", file=sys.stderr)
        return EXIT_CONFIG
    except FnlsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
