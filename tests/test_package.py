import importlib

import fnls

MODULES = ("errors", "spectral", "model", "integrators", "waves", "io", "harness")

# Names that scripts import from fnls; each must stay exported.
STABLE_EXPORTS = {
    "Coefficients", "CompositionScheme", "ConvergenceRow", "ConvergenceStudyError",
    "ErrorGrowthResult", "ErrorPoint", "Field", "FieldRecorder", "FnlsError",
    "HsBoundDiagnostic", "InvariantDriftResult", "InvariantRecord",
    "InvariantRecorder", "ModelParams", "ParameterError", "PetviashviliInitial",
    "ProfileDivergenceError", "ProfileFileInitial", "ProfileResult", "RunConfig",
    "RunStats", "Snapshot", "SnapshotWriter", "SolitonInitial", "SolitonParams",
    "SolverParams", "SpectralGrid", "StageDivergenceError", "TrackRecord",
    "TrackingError", "WaveTracker", "build_initial_field", "component_errors",
    "convergence_study", "derivative", "error_growth_study", "evolve",
    "exact_step_count", "forward_transform", "fractional_laplacian", "hamiltonian",
    "hs_bound_diagnostic", "hs_norm", "imr_stage_solve", "invariant_drift_study",
    "invariants", "inverse_transform", "l2_norm", "linf_norm", "load_config", "mass",
    "momentum", "nls_soliton", "nonlinearity", "petviashvili_profile",
    "read_snapshot", "residual_operator", "rhs", "step",
    "write_snapshot", "yoshida_coefficients",
}


def test_package_exports_exactly_the_module_lists():
    # each public name is declared once, in its own module's __all__
    owners = {}
    for module_name in MODULES:
        module = importlib.import_module(f"fnls.{module_name}")
        for name in module.__all__:
            assert name not in owners, f"{name} is in two modules' __all__"
            owners[name] = module
    assert len(fnls.__all__) == len(set(fnls.__all__))
    assert set(fnls.__all__) == set(owners)
    for name, module in owners.items():
        assert getattr(fnls, name) is getattr(module, name)
    assert STABLE_EXPORTS <= set(fnls.__all__)
