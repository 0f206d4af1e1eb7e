"""Fourier spectral solver for the periodic cubic fractional NLS equation

    i u_t - (-d_xx)^s u + |u|^2 u = 0,    x in (-L, L),  0 < s <= 1,

with symmetric implicit-midpoint composition time integrators, reference
traveling waves, and an experiment harness for convergence, conservation,
and wave-tracking studies.
"""

from .errors import (
    ConvergenceStudyError,
    FnlsError,
    ParameterError,
    ProfileDivergenceError,
    StageDivergenceError,
    TrackingError,
)
from .harness import (
    ConvergenceRow,
    ErrorGrowthResult,
    ErrorPoint,
    FieldRecorder,
    InvariantDriftResult,
    InvariantRecorder,
    TrackRecord,
    WaveTracker,
    build_initial_field,
    component_errors,
    convergence_study,
    error_growth_study,
    invariant_drift_study,
    wave_tracking,
)
from .integrators import (
    CompositionScheme,
    RunStats,
    SolverParams,
    evolve,
    exact_step_count,
    imr_stage_solve,
    step,
    yoshida_coefficients,
)
from .io import (
    PetviashviliInitial,
    ProfileFileInitial,
    RunConfig,
    Snapshot,
    SnapshotWriter,
    SolitonInitial,
    load_config,
    read_snapshot,
    write_snapshot,
)
from .model import (
    HsBoundDiagnostic,
    InvariantRecord,
    ModelParams,
    hamiltonian,
    hs_bound_diagnostic,
    invariants,
    mass,
    momentum,
    nonlinearity,
    rhs,
)
from .spectral import (
    Coefficients,
    Field,
    SpectralGrid,
    dealias,
    derivative,
    forward_transform,
    fractional_laplacian,
    hs_norm,
    inverse_transform,
    l2_norm,
    linf_norm,
)
from .waves import (
    ProfileResult,
    SolitonParams,
    nls_soliton,
    petviashvili_profile,
    residual_operator,
)

__version__ = "0.1.0"
