"""Spans around calls into the public functions of each fnls module.

The tracer wraps, from outside the program, every public function of the
layers below and the ``__call__`` of the observer classes, replacing each
in every fnls namespace that binds it.  A span is a dict with name, start,
end (``time.perf_counter``, which is system-wide on Linux), parent span id
and run id, plus counts taken from arguments or results where the work
happens.  Spans stay in memory until the run ends.

Pool workers forked while the wrappers are installed inherit them.  Each
worker keeps its own spans and writes them to the spool directory when it
exits; ``collect_workers`` merges them back.  A worker started by spawn
would inherit nothing, so the traced convergence run checks that its row
spans arrived.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("spectral", "model", "integrators", "waves", "io", "harness", "cli")
OBSERVERS = (("harness", "InvariantRecorder"), ("harness", "FieldRecorder"),
             ("io", "SnapshotWriter"))


def _evolve_counts(args, kwargs, result):
    u0, scheme = args[0], args[2]
    stats = result[1]
    stages = stats.steps * len(scheme.b)
    # RunStats keeps the mean over stages; the total is an exact integer.
    return {"N": u0.grid.N, "stages": stages,
            "fp_iters": round(stats.mean_fp_iterations * stages)}


def _profile_counts(args, kwargs, result):
    return {"iters": result.iterations, "residual": result.residual}


def _snapshot_bytes(args, kwargs, result):
    field = args[1] if len(args) > 1 else kwargs["field"]
    return {"bytes": 33 + 16 * field.grid.N}  # 5-byte magic, 28-byte header


def _study_workers(args, kwargs, result):
    dts = args[1] if len(args) > 1 else kwargs["dt_list"]
    workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
    return {"workers": max(1, min(workers or len(dts), len(dts)))}


COUNTS = {"integrators.evolve": _evolve_counts,
          "waves.petviashvili_profile": _profile_counts,
          "io.write_snapshot": _snapshot_bytes,
          "harness.convergence_study": _study_workers}


def public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module)
                                                 if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.run_id: str | None = None
        self._pid = os.getpid()
        self._count = 0
        self._undo: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> str:
        self._count += 1
        return f"{self._pid}.{self._count}"

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        record = {"id": sid, "name": name, "parent": parent, "run": self.run_id}
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)
        counts = COUNTS.get(name)
        if counts is not None:
            record.update(counts(args, kwargs, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("fnls")
        modules = [importlib.import_module(f"fnls.{layer}") for layer in LAYERS]
        namespaces = modules + [package]
        for layer, module in zip(LAYERS, modules):
            for name, fn in public_functions(module):
                traced = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, attr, fn))
                            setattr(ns, attr, traced)
        for layer, cls_name in OBSERVERS:
            cls = getattr(importlib.import_module(f"fnls.{layer}"), cls_name)
            call = cls.__call__
            self._undo.append((cls, "__call__", call))
            cls.__call__ = self._wrap(f"{layer}.{cls_name}.__call__", call)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- pool workers --------------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self._pid = os.getpid()
        self._count = 0
        multiprocessing.util.Finalize(self, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self) -> None:
        if self.spans:
            path = self.spool / f"worker-{self._pid}.json"
            path.write_text(json.dumps(self.spans))

    def collect_workers(self) -> None:
        """Merge the span files of exited workers."""
        for path in sorted(self.spool.glob("worker-*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children may overlap (rows running in two workers), so the covered part
    is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer, the span name's first component."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"].split(".")[0]] += own[s["id"]]
    return dict(totals)
