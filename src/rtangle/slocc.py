"""Generalized single-qubit measurements on mixed states.

A Kraus set {M_j} maps an ensemble {q_i, |psi_i>} of rho to, for each
outcome j with probability p_j = sum_i q_i <psi_i|M_j^dag M_j|psi_i>,

    r_ij   = q_i <psi_i|M_j^dag M_j|psi_i> / p_j,
    |phi_ij> = M_j |psi_i> / sqrt(<psi_i|M_j^dag M_j|psi_i>),

which is again an ensemble of rho_j = M_j rho M_j^dag / p_j.  The residual
tangle transforms covariantly under this map, t_r(rho_j) = alpha_j t_r(rho)
with alpha_j = |det M_j| / p_j, and an optimal ensemble stays optimal.
The plain (squared) tangle does not transform this way for mixed states;
:func:`verify_tangle_noncovariance` quantifies that on a built-in fixture.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import alpha as scaling_alpha
from .states import (
    DensityMatrix,
    LocalOperator,
    MeasurementSet,
    PureState,
    ValidationError,
    WeightedEnsemble,
    density_eigendecomposition,
    ensemble_to_density,
    validate_measurement,
)

PROB_FLOOR = 1e-14       # outcomes below this probability are flagged empty
WEIGHT_FLOOR = 1e-14     # post-measurement members below this weight are dropped


class KrausError(ValidationError):
    """The Kraus set is not complete: sum M^dag M deviates from the identity."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """One outcome of a generalized measurement on a mixed state."""

    index: int
    probability: float
    alpha: float
    post_ensemble: WeightedEnsemble | None
    post_density: DensityMatrix | None
    empty: bool = False
    rtangle_propagated: float | None = None


def measure(e: WeightedEnsemble, ms: MeasurementSet,
            rtangle_in: float | None = None) -> list[MeasurementOutcome]:
    """Apply a complete Kraus set to an ensemble, one outcome per operator.

    With ``rtangle_in`` given, each outcome carries the propagated value
    ``alpha_j * rtangle_in``; a value outside [0, 1] raises
    :class:`ValidationError` before any outcome is computed.
    """
    if rtangle_in is not None:
        _check_rtangle_in(rtangle_in)
    report = validate_measurement(ms)
    if not report.passed:
        raise KrausError("measure: Kraus set incomplete, sum M^dag M deviates "
                         f"from identity by {report.deviation:.3e}")
    rho = ensemble_to_density(e).matrix
    outcomes = []
    for j, op in enumerate(ms.operators):
        full = op.expanded()
        post = []
        p_j = 0.0
        for w, psi in e.members:
            raw = full @ psi.amp
            nsq = float(np.vdot(raw, raw).real)
            p_j += w * nsq
            post.append((w * nsq, raw, nsq))
        if p_j < PROB_FLOOR:
            outcomes.append(MeasurementOutcome(
                index=j, probability=p_j, alpha=0.0,
                post_ensemble=None, post_density=None, empty=True))
            continue
        members = tuple(
            (wn / p_j, PureState(raw / np.sqrt(nsq)))
            for wn, raw, nsq in post
            if wn / p_j > WEIGHT_FLOOR
        )
        rho_j = DensityMatrix(full @ rho @ full.conj().T / p_j)
        a_j = scaling_alpha(op, p_j)
        propagated = None if rtangle_in is None else propagate_rtangle(rtangle_in, a_j)
        outcomes.append(MeasurementOutcome(
            index=j, probability=float(p_j), alpha=a_j,
            post_ensemble=WeightedEnsemble(members), post_density=rho_j,
            rtangle_propagated=propagated))
    return outcomes


def measure_density(rho: DensityMatrix, ms: MeasurementSet,
                    rtangle_in: float | None = None) -> list[MeasurementOutcome]:
    """Density-matrix entry point: measures the spectral ensemble of rho
    (:func:`density_eigendecomposition`), as :func:`measure` does."""
    return measure(density_eigendecomposition(rho), ms, rtangle_in=rtangle_in)


def _check_rtangle_in(rtangle_in: float) -> None:
    # a residual tangle lies in [0, 1]; NaN fails the comparison
    if not 0.0 <= rtangle_in <= 1.0:
        raise ValidationError(f"rtangle_in must be in [0, 1], got {rtangle_in!r}")


def propagate_rtangle(rtangle_in: float, alpha: float) -> float:
    """Residual tangle of a measurement outcome: alpha * t_r(input).

    Raises :class:`ValidationError` for an ``rtangle_in`` outside [0, 1],
    or a negative or non-finite ``alpha``.
    """
    _check_rtangle_in(rtangle_in)
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValidationError(f"propagate_rtangle: alpha must be finite and >= 0, got {alpha!r}")
    return alpha * rtangle_in


# --------------------------------------------------------------------------
# Tangle non-covariance fixture: a rank-2 GHZ/W mixture and a two-outcome
# measurement for which the squared-tangle ratio provably differs from
# alpha^2.  The two tangle constants are the known exact values for this
# family (closed-form mixed-state tangle).

@dataclass(frozen=True)
class ScalingFixture:
    ensemble: WeightedEnsemble
    measurement: MeasurementSet
    outcome_index: int
    tau_input: float
    tau_outcome: float


def counterexample_fixture() -> ScalingFixture:
    """Built-in fixture: 4/5 gGHZ + 1/5 gW with M_0 = diag(1, 1/sqrt(10))."""
    from .ghzw import generalized_ghz, generalized_w

    s2, s3 = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)
    ens = WeightedEnsemble((
        (0.8, generalized_ghz(s2, s2)),
        (0.2, generalized_w(s3, s3, s3)),
    ))
    ms = MeasurementSet((
        LocalOperator(np.diag([1.0, 1.0 / np.sqrt(10.0)]), "A"),
        LocalOperator(np.array([[0.0, 0.0], [0.0, 3.0 / np.sqrt(10.0)]]), "A"),
    ))
    tau_in = (63.0 - np.sqrt(465.0)) / 90.0
    tau_out = 160.0 * (9.0 - np.sqrt(6.0)) / 7569.0
    return ScalingFixture(ensemble=ens, measurement=ms, outcome_index=0,
                          tau_input=float(tau_in), tau_outcome=float(tau_out))


# |tau ratio - alpha^2| above which a report reads non-covariant: the
# default fixture's gap is about 3.5e-3, a pure-state fixture's rounding
NONCOVARIANCE_GAP = 3e-3


@dataclass(frozen=True)
class NoncovarianceReport:
    probability: float
    alpha: float
    alpha_sq: float
    tau_input: float
    tau_outcome: float
    tau_ratio: float
    gap: float
    noncovariant: bool

    @property
    def verdict(self) -> str:
        return "non-covariant" if self.noncovariant else "covariant"


def verify_tangle_noncovariance(fixture: ScalingFixture | None = None) -> NoncovarianceReport:
    """Compare tau(rho_j)/tau(rho) against alpha_j^2 on a fixture.

    For mixed states the ratio generically differs from alpha^2 (the
    default fixture exhibits a gap of about 3.5e-3); for pure states the
    two agree, which callers can check by supplying a pure-state fixture
    with tangles computed from the invariants.  The report reads
    non-covariant where the gap exceeds ``NONCOVARIANCE_GAP`` in modulus.
    """
    fx = fixture if fixture is not None else counterexample_fixture()
    outcome = measure(fx.ensemble, fx.measurement)[fx.outcome_index]
    if fx.tau_input <= 0:
        raise ValidationError("verify_tangle_noncovariance: tau_input must be positive")
    ratio = fx.tau_outcome / fx.tau_input
    a2 = outcome.alpha ** 2
    gap = ratio - a2
    return NoncovarianceReport(
        probability=outcome.probability,
        alpha=outcome.alpha,
        alpha_sq=a2,
        tau_input=fx.tau_input,
        tau_outcome=fx.tau_outcome,
        tau_ratio=ratio,
        gap=gap,
        noncovariant=abs(gap) > NONCOVARIANCE_GAP,
    )
