"""Residual tangle of three-qubit states.

Exact SL-invariants of pure states, the closed-form residual tangle of
generalized GHZ/W mixtures, propagation of the measure under single-qubit
generalized measurements, and a numerical convex-roof minimizer that
serves as an independent cross-check of the closed forms.
"""
from .ghzw import (
    ConcavityReport,
    GhzWMixture,
    MixtureAnalysis,
    analyze,
    as_mixture,
    concavity_certificate,
    family_sqrt_tau,
    family_state,
    generalized_ghz,
    generalized_w,
    optimal_ensemble,
    optimal_objective,
)
from .invariants import InvariantBreakdown, alpha, invariants, sqrt_tau, tau
from .roof import RoofOptions, RoofResult, objective_at, roof_minimize
from .slocc import (
    MeasurementOutcome,
    NoncovarianceReport,
    ScalingFixture,
    counterexample_fixture,
    measure,
    measure_density,
    propagate_rtangle,
    verify_tangle_noncovariance,
)
from .states import (
    DensityMatrix,
    LocalOperator,
    MeasurementReport,
    MeasurementSet,
    PureState,
    ValidationError,
    WeightedEnsemble,
    apply_local,
    density_eigendecomposition,
    ensemble_to_density,
    permute_qubits,
    validate_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "ConcavityReport",
    "DensityMatrix",
    "GhzWMixture",
    "InvariantBreakdown",
    "LocalOperator",
    "MeasurementOutcome",
    "MeasurementReport",
    "MeasurementSet",
    "MixtureAnalysis",
    "NoncovarianceReport",
    "PureState",
    "RoofOptions",
    "RoofResult",
    "ScalingFixture",
    "ValidationError",
    "WeightedEnsemble",
    "alpha",
    "analyze",
    "apply_local",
    "as_mixture",
    "concavity_certificate",
    "counterexample_fixture",
    "density_eigendecomposition",
    "ensemble_to_density",
    "family_sqrt_tau",
    "family_state",
    "generalized_ghz",
    "generalized_w",
    "invariants",
    "measure",
    "measure_density",
    "objective_at",
    "optimal_ensemble",
    "optimal_objective",
    "permute_qubits",
    "propagate_rtangle",
    "roof_minimize",
    "sqrt_tau",
    "tau",
    "validate_measurement",
    "verify_tangle_noncovariance",
]
