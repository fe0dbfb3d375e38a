"""SL-invariant polynomials of three-qubit pure states.

The three-tangle of a pure state with amplitudes ``C_pqr`` is

    tau = 4 |d1 - 2 d2 + 4 d3|,

where ``d1 - 2 d2 + 4 d3`` is the Cayley hyperdeterminant of the 2x2x2
amplitude tensor:

    d1 = C000^2 C111^2 + C001^2 C110^2 + C010^2 C101^2 + C100^2 C011^2
    d2 = C000 C111 C011 C100 + C000 C111 C101 C010 + C000 C111 C110 C001
       + C011 C100 C101 C010 + C011 C100 C110 C001 + C101 C010 C110 C001
    d3 = C000 C110 C101 C011 + C111 C001 C010 C100

``sqrt(tau)`` is homogeneous of degree 2 in the amplitudes, which is what
makes it a convex-roof-friendly quantity; ``tau`` itself is degree 4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .states import LocalOperator, PureState


def hyperdet_parts(amp: np.ndarray):
    """Return (d1, d2, d3) of an 8-amplitude vector.

    They are the sums of the monomials of :data:`kernels._IDX` whose
    coefficients in ``kernels._COEF`` are 1 (the first 4), -2 (the next 6)
    and 4 (the last 2).
    """
    X = np.asarray(amp)[kernels._IDX]
    m = (((X[0] * X[1]) * X[2]) * X[3]).tolist()
    return complex(sum(m[:4])), complex(sum(m[4:10])), complex(sum(m[10:]))


@dataclass(frozen=True)
class InvariantBreakdown:
    """The d-invariants of a pure state together with tau and sqrt(tau)."""

    d1: complex
    d2: complex
    d3: complex
    hyperdet: complex
    tau: float
    sqrt_tau: float


def invariants(psi: PureState) -> InvariantBreakdown:
    """All invariants of a pure state.

    For an unnormalized input (``normalized=False``) the returned ``tau``
    is the homogeneous degree-4 value of the raw amplitudes.
    """
    d1, d2, d3 = hyperdet_parts(psi.amp)
    det = d1 - 2.0 * d2 + 4.0 * d3
    tau = 4.0 * abs(det)
    return InvariantBreakdown(d1=d1, d2=d2, d3=d3, hyperdet=det, tau=tau, sqrt_tau=np.sqrt(tau))


def tau(psi: PureState) -> float:
    return invariants(psi).tau


def sqrt_tau(psi: PureState) -> float:
    return invariants(psi).sqrt_tau


def sqrt_tau_homogeneous(psi: PureState) -> float:
    """Degree-2 homogeneous extension of sqrt(tau) to arbitrary vectors.

    Satisfies ``sqrt_tau_homogeneous(c * psi) == |c|^2 * sqrt_tau_homogeneous(psi)``
    for any complex scalar ``c``; on weight-sqrt-scaled ensemble members it
    yields the weighted summand of the convex-roof objective directly.
    """
    return float(invariants(psi).sqrt_tau)


def alpha(op: LocalOperator, p: float) -> float:
    """Scaling factor sqrt(det M^dag M) / p of a measurement outcome.

    ``p`` is the outcome probability.  For a 2x2 operator
    ``sqrt(det M^dag M) = |det M|`` exactly, so no matrix square root is
    needed.
    """
    if not p > 0:
        raise ValueError(f"alpha: outcome probability must be positive, got {p!r}")
    return op.det_abs() / p
