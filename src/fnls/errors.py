"""Exception types shared across the package.

Exit-code mapping used by the CLI: ParameterError means a bad configuration
or argument (exit 2); the divergence and tracking errors mean a numerical
failure at runtime (exit 3).  Each error passes its constructor arguments
to Exception and builds its message from its fields, so default pickling
(a pool worker's failure) replays the constructor and restores the fields
set later, such as step_index.

check_count, check_finite and check_positive_finite are the package's
value checks: every precondition on a count, a wave parameter or a
tolerance calls one with the value's name, which starts the message.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "FnlsError",
    "ParameterError",
    "StageDivergenceError",
    "ProfileDivergenceError",
    "TrackingError",
    "ConvergenceStudyError",
]


class FnlsError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FnlsError, ValueError):
    """A parameter or configuration value violates a precondition.

    The message names the offending field or inequality.
    """


def check_count(name: str, value, lo: int = 1, hi: int | None = None) -> None:
    """Raise ParameterError unless value is an integer in [lo, hi] (no upper
    bound if hi is None); numpy integers pass, booleans do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name}: expected an integer, got {value!r}")
    if not lo <= value <= (math.inf if hi is None else hi):
        bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise ParameterError(f"{name}: must {bound}, got {value!r}")


def check_finite(name: str, value) -> None:
    """Raise ParameterError unless |value| <= the largest float."""
    if not abs(value) <= sys.float_info.max:
        raise ParameterError(f"{name}: must be finite, got {value!r}")


def check_positive_finite(name: str, value) -> None:
    """Raise ParameterError unless 0 < value < inf."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{name}: must be positive and finite, got {value!r}")


class StageDivergenceError(FnlsError, RuntimeError):
    """The fixed-point iteration of an implicit midpoint stage overflowed
    or did not converge within the iteration cap.

    Attributes
    ----------
    stage_index : int
        1-based index of the failing stage within the composition step.
    iterations : int
        Number of iterations performed.
    residual : float
        Last relative successive-difference norm (inf on overflow).
    contraction : float
        Largest contraction ratio ||dZ_n|| / ||dZ_{n-1}|| the failing solve
        measured: inf if the iterate overflowed, 0.0 before a second sweep.
    kb : float
        The stage's substep length k b_j.
    step_index : int or None
        Step number within an evolve run, filled in by the driver.
    time : float or None
        Simulation time at the start of the failing step.
    """

    def __init__(self, stage_index: int, iterations: int, residual: float,
                 contraction: float, kb: float):
        super().__init__(stage_index, iterations, residual, contraction, kb)
        self.stage_index = stage_index
        self.iterations = iterations
        self.residual = residual
        self.contraction = contraction
        self.kb = kb
        self.step_index: int | None = None
        self.time: float | None = None

    def annotate(self, step_index: int, time: float) -> None:
        # Called by evolve so CLI messages can report where the run failed.
        self.step_index = step_index
        self.time = time

    def __str__(self) -> str:
        where = ("" if self.step_index is None
                 else f" (step {self.step_index}, t = {self.time:.6g})")
        count = f"{self.iterations} iteration{'' if self.iterations == 1 else 's'}"
        outcome = (f"overflowed after {count}" if math.isinf(self.contraction)
                   else f"hit the iteration cap: residual {self.residual:.3e} after {count}")
        return (f"fixed-point stage solve at stage {self.stage_index} {outcome}; "
                f"largest contraction {self.contraction:.3g} at k*b_j = {self.kb:.3g}"
                f"{where}")


class ProfileDivergenceError(FnlsError, RuntimeError):
    """Petviashvili iteration failed to reach the requested tolerance."""

    def __init__(self, iterations: int, residual_history: list[float]):
        super().__init__(iterations, residual_history)
        self.iterations = iterations
        self.residual_history = residual_history

    def __str__(self) -> str:
        last = self.residual_history[-1] if self.residual_history else float("nan")
        return (f"Petviashvili iteration did not converge after {self.iterations} "
                f"iterations (last residual {last:.3e})")


class TrackingError(FnlsError, RuntimeError):
    """Wave tracking could not locate a unique peak."""


class ConvergenceStudyError(FnlsError, RuntimeError):
    """A row of a convergence study failed; carries the completed rows.

    Attributes
    ----------
    failed_dt : float
        The step size of the failing row.
    partial_rows : list
        ConvergenceRow results completed before the failure, in dt order.
    """

    def __init__(self, failed_dt: float, partial_rows: list, cause: Exception):
        super().__init__(failed_dt, partial_rows, cause)
        self.failed_dt = failed_dt
        self.partial_rows = partial_rows
        self.__cause__ = cause

    def __str__(self) -> str:
        return (f"convergence study aborted: run with dt = {self.failed_dt:g} "
                f"failed ({self.__cause__}); {len(self.partial_rows)} completed "
                f"row(s) retained")
