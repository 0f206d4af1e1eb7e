"""Run configuration, CSV output, and the binary snapshot format.

Config files are a single JSON document whose keys are exactly the
RunConfig field names; unknown keys are an error so typos in experiment
scripts fail loudly.  CSV numeric fields are written with 17 significant
digits, enough to reproduce every float64 bit-exactly on re-parse.

Snapshot files are a self-describing binary container: the magic bytes
"FNLS1", then little-endian u32 N, f64 L, f64 s, f64 t, then N
interleaved (re, im) float64 pairs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Union, get_args

import numpy as np

from .errors import (ParameterError, check_count, check_finite,
                     check_positive_finite)
from .integrators import (MAX_COMPOSITION_LEVEL, CompositionScheme, SolverParams,
                          exact_step_count, yoshida_coefficients)
from .model import ModelParams
from .spectral import Field, SpectralGrid, check_grid, check_s
from .waves import PROFILE_TOL, SolitonParams

__all__ = [
    "ProfileFileInitial",
    "PetviashviliInitial",
    "InitialSpec",
    "RunConfig",
    "load_config",
    "Snapshot",
    "write_snapshot",
    "read_snapshot",
    "SnapshotWriter",
    "format_float",
    "write_csv",
]

SNAPSHOT_MAGIC = b"FNLS1"
_SNAPSHOT_HEADER = struct.Struct("<Iddd")


@dataclass(frozen=True)
class ProfileFileInitial:
    path: Path


@dataclass(frozen=True)
class PetviashviliInitial:
    lambda1: float
    lambda2: float = 0.0
    tol: float = PROFILE_TOL

    def __post_init__(self) -> None:
        SolitonParams(self.lambda1, self.lambda2)     # the iteration's start
        check_positive_finite("tol", self.tol)


InitialSpec = Union[SolitonParams, ProfileFileInitial, PetviashviliInitial]


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run; see load_config for the JSON form."""

    L: float
    N: int
    s: float
    dt: float
    T: float
    scheme_p: int
    initial: InitialSpec
    fp_tol: float = SolverParams.fp_tol
    fp_max_iters: int = SolverParams.fp_max_iters
    invariant_stride: int = 1
    snapshot_stride: int = 100

    def __post_init__(self) -> None:
        # A RunConfig that exists is valid: each field goes through the check
        # of the component that takes it, under the field's name, without
        # building the grid, model or solver.
        check_grid(self.N, self.L)
        check_s(self.s)
        check_positive_finite("dt", self.dt)
        check_positive_finite("T", self.T)
        exact_step_count(self.T, self.dt, "dt")
        check_count("scheme_p", self.scheme_p, 1, MAX_COMPOSITION_LEVEL)
        check_positive_finite("fp_tol", self.fp_tol)
        check_count("fp_max_iters", self.fp_max_iters)
        check_count("invariant_stride", self.invariant_stride)
        check_count("snapshot_stride", self.snapshot_stride)
        if not isinstance(self.initial, get_args(InitialSpec)):
            raise ParameterError(f"initial: unsupported kind {type(self.initial).__name__}")
        if isinstance(self.initial, PetviashviliInitial):
            check_s(self.s, lo=0.5)

    def problem(self, dt: float | None = None) -> tuple[CompositionScheme,
                                                        SolverParams, ModelParams]:
        """The scheme, solver and model of this run, with time step dt
        (default: the config's dt)."""
        return (yoshida_coefficients(self.scheme_p),
                SolverParams(k=self.dt if dt is None else dt, fp_tol=self.fp_tol,
                             fp_max_iters=self.fp_max_iters),
                ModelParams(s=self.s))


def _take(data: dict, out: dict, key: str, kind: Any, where: str = "",
          required: bool = False) -> None:
    """Move data[key] to out[key], checked as a float, str or Path, parsed by
    a callable kind, or (kind None) left to the dataclass; defaults live there."""
    if key not in data:
        if required:
            raise ParameterError(f"{where}{key}: missing required config key")
        return
    value = data.pop(key)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"{where}{key}: expected a number, got {value!r}")
        check_finite(where + key, value)
        value = float(value)
    elif kind in (str, Path) and not isinstance(value, str):
        raise ParameterError(f"{where}{key}: expected a string, got {value!r}")
    elif kind is not None:
        value = kind(value)     # str, Path, or a nested object's parser
    out[key] = value


# kind -> (spec type, the parser its values share, the spec's fields: its keys)
_INITIAL_KINDS = {kind: (spec_type, parse, fields(spec_type)) for kind, spec_type, parse in (
    ("soliton", SolitonParams, float), ("profile_file", ProfileFileInitial, Path),
    ("petviashvili", PetviashviliInitial, float))}


def _parse_initial(data: Any) -> InitialSpec:
    if not isinstance(data, dict):
        raise ParameterError(f"initial: expected an object, got {data!r}")
    data, values = dict(data), {}
    _take(data, values, "kind", str, "initial.", required=True)
    kind = values.pop("kind")
    if kind not in _INITIAL_KINDS:
        raise ParameterError(f"initial.kind: expected one of {list(_INITIAL_KINDS)}, "
                             f"got {kind!r}")
    spec_type, parse, spec_fields = _INITIAL_KINDS[kind]
    for field in spec_fields:
        _take(data, values, field.name, parse, "initial.", required=field.default is MISSING)
    if data:
        raise ParameterError(f"initial: unknown key(s) {sorted(data)} for kind {kind!r}")
    try:
        return spec_type(**values)
    except ParameterError as err:   # each spec check names its key: "initial.tol: ..."
        raise ParameterError(f"initial.{err}") from None


def load_config(path: Path | str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, ValueError) as err:    # ValueError: not UTF-8, or a NUL byte
        raise ParameterError(f"config: cannot read {path}: {err}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ParameterError(f"config: invalid JSON in {path}: {err}") from None
    if not isinstance(data, dict):
        raise ParameterError("config: top-level JSON value must be an object")
    values: dict[str, Any] = {}
    _take(data, values, "L", float, required=True)
    _take(data, values, "N", None, required=True)
    _take(data, values, "s", float, required=True)
    _take(data, values, "dt", float, required=True)
    _take(data, values, "T", float, required=True)
    _take(data, values, "scheme_p", None, required=True)
    _take(data, values, "initial", _parse_initial, required=True)
    _take(data, values, "fp_tol", float)
    _take(data, values, "fp_max_iters", None)
    _take(data, values, "invariant_stride", None)
    _take(data, values, "snapshot_stride", None)
    if data:
        raise ParameterError(f"config: unknown key(s) {sorted(data)}")
    return RunConfig(**values)


# --- snapshot container ------------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    field: Field
    s: float
    t: float


def write_snapshot(path: Path | str, field: Field, s: float, t: float) -> None:
    """Write a field snapshot in the FNLS1 binary container."""
    g = field.grid
    payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(_SNAPSHOT_HEADER.pack(g.N, g.L, s, t))
        fh.write(payload)


def read_snapshot(path: Path | str) -> Snapshot:
    """Read an FNLS1 snapshot; the round trip is bit-exact."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as err:    # ValueError: a NUL byte in the path
        raise ParameterError(f"snapshot: cannot read {path}: {err}") from None
    if blob[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise ParameterError(f"snapshot: {path} is not an FNLS1 snapshot file")
    offset = len(SNAPSHOT_MAGIC)
    try:
        N, L, s, t = _SNAPSHOT_HEADER.unpack_from(blob, offset)
    except struct.error:
        raise ParameterError(f"snapshot: {path} is truncated") from None
    offset += _SNAPSHOT_HEADER.size
    expected = offset + 16 * N
    if len(blob) != expected:
        raise ParameterError(
            f"snapshot: {path} has {len(blob)} bytes, expected {expected} for N = {N}"
        )
    try:
        grid = SpectralGrid(N, L)
    except ParameterError as err:
        raise ParameterError(f"snapshot: {path}: {err}") from None
    values = np.frombuffer(blob, dtype="<c16", count=N, offset=offset).copy()
    if not np.isfinite(values).all():
        raise ParameterError(f"snapshot: {path} holds non-finite values")
    return Snapshot(field=Field(values, grid), s=s, t=t)


class SnapshotWriter:
    """Observer writing one snapshot file every ``stride`` steps."""

    def __init__(self, directory: Path | str, s: float, stride: int = 100):
        self.directory = Path(directory)
        self.s = s
        self.stride = stride
        self.paths: list[Path] = []

    def __call__(self, n: int, t: float, field: Field) -> None:
        path = self.directory / f"snapshot_{n:08d}.bin"
        write_snapshot(path, field, self.s, t)
        self.paths.append(path)


# --- CSV output --------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any float64 bit-exactly."""
    return f"{x:.17g}"


def write_csv(path: Path | str, record_type: type, records: Iterable[Any]) -> None:
    """Write records of the dataclass record_type, one row each, under a
    header of its field names; None is written as an empty cell."""
    names = [f.name for f in fields(record_type)]
    row = attrgetter(*names)    # a tuple: every record type has several fields
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for record in records:
            fh.write(",".join("" if v is None else format_float(v) for v in row(record)))
            fh.write("\n")
