"""Numerical convex-roof minimization over pure-state decompositions.

:func:`roof_minimize` answers from a certificate where one applies and
otherwise runs the lock-step search of :mod:`rtangle.search`, whose value
is an upper bound on the roof by construction (every decomposition of rho
is one).  The search runs at ranks 3 and up, and at rank 2 where no
certificate's decomposition fits in the ensemble size.

A rank-2 input meets three certificates, cheapest first.  Each gives a
decomposition and a lower bound on the roof, and one rule holds for all
(:func:`_certificates`): the bound is kept for the result whatever the
ensemble size, and a decomposition whose members fit in the ensemble size
answers, with ``restarts_used == 0``.  The first whose bracket is closed
(the bound at most ``lp._CERT_GAP`` below its value and above it by no more
than rounding) is returned at once; otherwise the lowest that fits is.
The search runs only where no decomposition fits: the ensemble size is
below every certificate's, or every certificate declined.  All three read
one list of tangle-free directions inside the range of rho: the distinct
roots of a quartic (the hyperdeterminant restricted to the range),
evaluated and solved once per input on the unit eigenvectors
(:func:`quartic.range_roots`), which gives each root both as a row of U,
for the zero fit and the orbit, and as a unit range vector, which the
program reads as a chart point.  A quartic that is 0 up to rounding, on a
biseparable range, gives the unit frame instead, and the zero fit
certifies the spectral decomposition.

* zero, bound 0: a non-negative fit of the identity over the root
  projectors gives a decomposition that mixes back to rho, where one
  exists.  This is the zero branch of the GHZ/W mixtures (Lohmayer et al.,
  PRL 97, 260502 (2006)).  With four distinct
  roots the fit is one 4 x 4 solve: its solution is unique, so it is
  either non-negative, and the answer, or has a weight negative beyond
  rounding, and no exact non-negative fit exists.  Fewer than four roots,
  repeated ones (the projectors are then dependent) and weights between
  rounding and that margin run phase one of the program's simplex on the
  root columns.
* orbit closed form (sqrt-tau), bound t_r:
  where :func:`ghzw.range_orbit` recognizes rho, from the same roots, as
  an SLOCC image of a GHZ/W mixture, its closed form t_r is the bound and
  its optimal decomposition, the mixture's with the images of gGHZ and gW
  in place of them, the decomposition.  Tau is not covariant on the
  orbit, so it has no such path.
* linear program (both functionals), bound the dual's: the roof as a
  linear program over the range's Bloch sphere (:mod:`rtangle.lp`), whose
  basic solution is a decomposition of at most 4 members and whose dual is
  the best affine bound (Osterloh, Siewert & Uhlmann, PRA 77, 032310
  (2008)), so the two bracket the roof.

The program's bound holds to working precision, not as a proof; the
closed form is exact for the recognized frame, which holds to
``ghzw._ORBIT_TOL``.  On a 2-core x86-64 box (numpy 2.4.6, one pinned
core) a zero-branch solve takes 0.22-0.25 ms and an orbit solve 0.28-0.32
ms, mostly numpy call overhead on arrays of 2 to 8 rows and the checks of
each member, not arithmetic; a linear program takes about 1.5 ms.

The returned value is an upper bound on the true convex roof by
construction, certified or not.  Unless a bracket closed at once, the
result carries the highest bound of the certificates that ran, among those
not above its value by more than rounding, and ``converged`` says whether
that bracket is closed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels, lp, search
from .ghzw import range_orbit
from .quartic import eigen_factor, range_roots
from .states import (
    DensityMatrix,
    PureState,
    ValidationError,
    WeightedEnsemble,
    ensemble_to_density,
)

FUNCTIONALS = ("sqrt_tau", "tau")

_WEIGHT_FLOOR = 1e-14
_MIX_TOL = 1e-8
# how far a lower bound may sit above a decomposition's value from rounding
# alone; further above, pricing missed a point and the bound is dropped
_BOUND_SLACK = 1e-9


class OptionsError(ValidationError):
    """A :class:`RoofOptions` field is out of range."""


class RankError(ValidationError):
    """The ensemble size is below the rank of the input."""


@dataclass(frozen=True)
class RoofOptions:
    """Search-budget knobs for :func:`roof_minimize`.

    ``max_iterations`` sets the search budget: each smoothing level of a
    start gets ``max(max_iterations // levels, 10)`` accepted steps, where
    ``levels`` is ``len(search._SCHEDULE)``, the length of the smoothing
    ladder; rejected trial steps are not counted.  Every field is an
    integer (a Python or numpy one, not a bool).
    """

    ensemble_size: int = 4
    restarts: int = 50
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise OptionsError(f"RoofOptions: {name} must be an integer, got {value!r}")
        if self.ensemble_size < 1 or self.ensemble_size > 8:
            raise OptionsError("RoofOptions: ensemble_size must be in 1..8")
        if self.restarts < 1:
            raise OptionsError("RoofOptions: restarts must be >= 1")
        if self.max_iterations < 1:
            raise OptionsError("RoofOptions: max_iterations must be >= 1")
        if self.seed < 0:
            raise OptionsError("RoofOptions: seed must be >= 0")


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found; ``value`` upper-bounds the true roof.

    ``best_restart_index`` is k when random restart k won, and -1 when no
    search ran, exactly when ``restarts_used == 0``: the input itself at
    rank 1, or a rank-2 certificate's decomposition that fits in the
    ensemble size.

    ``lower_bound`` is a lower bound on the true roof, to working precision
    (the linear program's offset is a numerical minimum, not a proof), or
    None.  At rank 2 it is the highest bound of the certificates that ran
    (0 for the tangle-free fit, the closed form t_r of a recognized GHZ/W
    image, the linear program's dual bound), among those not above
    ``value`` by more than rounding.  It is None at every other rank, and
    at rank 2 when no certificate gave a bound.

    For sqrt-tau, working precision has a floor of about 1e-8, the rounding
    of 2 sqrt|Det| near a product state: on near-product inputs (images
    under local operators of condition number 1e3 or more) a bound may lie
    up to about 1e-8 above the true roof, and is then dropped.

    ``converged`` means certified: the input has rank 1, or
    ``value - lower_bound`` is at most ``lp._CERT_GAP`` (1e-7).  At any other
    rank it is False without a lower bound.
    """

    value: float
    ensemble: WeightedEnsemble
    restarts_used: int
    best_restart_index: int
    converged: bool
    lower_bound: float | None = None


def _check_functional(functional: str) -> bool:
    if functional not in FUNCTIONALS:
        raise ValidationError(f"functional must be one of {FUNCTIONALS}, got {functional!r}")
    return functional == "sqrt_tau"


def _ensemble_value(weights: np.ndarray, U: np.ndarray, use_sqrt: bool) -> float:
    """The objective of a decomposition, its members' weighted sqrt-tau or
    tau, from its weights and the stack U, (k, 8), of their unit amplitudes,
    in one gather of every member's hyperdeterminant monomials.  They are
    summed as :func:`invariants.hyperdet_parts` sums them, and |Det| is a
    hypot, as in :func:`invariants.invariants`: a member on a root of the
    hyperdeterminant reads 2 sqrt|Det| of rounding, so any other order would
    move the value by about 1e-9."""
    X = U[:, kernels._IDX]
    m = (((X[:, 0] * X[:, 1]) * X[:, 2]) * X[:, 3]).T
    det = np.add.accumulate(m[:4])[-1] - 2.0 * np.add.accumulate(m[4:10])[-1] + 4.0 * (m[10] + m[11])
    tau = 4.0 * np.hypot(det.real, det.imag)
    return float(sum((weights * (np.sqrt(tau) if use_sqrt else tau)).tolist()))


# --------------------------------------------------------------------------
# the tangle-free decomposition of rank-2 inputs

# the identity on the range, in the coordinates (M00, M11, Re M01, Im M01)
_IDENTITY = np.array([1.0, 1.0, 0.0, 0.0])


def _zero_decomposition(dirs: np.ndarray):
    """A tangle-free decomposition (rank 2 only).

    A non-negative fit of the identity over the projectors onto the
    tangle-free directions ``dirs`` (the rows of U of
    :func:`quartic.range_roots`), with weights up to ``lp._SUPPORT`` taken as
    rounding; returns its k members as the rows of U, (k, 2), when the fit
    is exact (residual below ``lp._FIT_TOL``, so U has orthonormal columns to
    that) and k >= 2, else None.  The members are tangle-free up to the
    rounding of the quartic's roots.

    One solve decides in the common case of four distinct roots: the fit is
    then unique, a non-negative one is the answer, and one with a weight
    below -``lp._FIT_TOL`` ||A^-1||_F (the Frobenius norm bounds the spectral
    one) means no fit within ``lp._FIT_TOL`` is non-negative, which declines a
    linear-branch input at once.  Fewer than four roots (a repeated root is
    listed once), the two rows of the unit frame where the quartic
    vanishes, and weights between rounding and that bound go to phase one
    of the program (:func:`lp._simplex`): the four unit columns at cost 1,
    with the weights ``_IDENTITY`` the start basis, and the roots at cost
    0.  The roots of its final basis are the candidate members, their
    weights solved on them; a simplex that fails declines.
    """
    D = np.asarray(dirs)
    P = D[:, :, None] * D[:, None, :].conj()  # d_i conj(d_j) of each root
    A = np.array([P[:, 0, 0].real, P[:, 1, 1].real, P[:, 0, 1].real, -P[:, 0, 1].imag])
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # fewer than four roots, or a singular A
        u = None
    else:
        u = inv @ _IDENTITY
        low = u.min()
        if low < -lp._SUPPORT:
            if low < -lp._FIT_TOL * np.linalg.norm(inv):
                return None
            u = None
    if u is None:  # phase one: is the identity in the cone of the root projectors?
        basis = np.arange(4)
        try:
            lp._simplex(np.repeat((1.0, 0.0), (4, len(D))), np.concatenate((np.eye(4), A), axis=1),
                        _IDENTITY, basis)
        except np.linalg.LinAlgError:
            return None
        roots = basis[basis >= 4] - 4
        u = np.zeros(len(D))
        u[roots] = np.linalg.lstsq(A[:, roots], _IDENTITY, rcond=None)[0]
    support = u > lp._SUPPORT
    k = np.count_nonzero(support)
    if k < 2 or np.linalg.norm(A[:, support] @ u[support] - _IDENTITY) >= lp._FIT_TOL:
        return None
    return np.sqrt(u[support])[:, None] * D[support]


# --------------------------------------------------------------------------

def _result(W: np.ndarray, use_sqrt: bool, restarts_used: int, best_restart_index: int,
            bounds=()) -> RoofResult:
    """The result of the rows W.  Its lower bound is the highest of
    ``bounds`` that is sound, above the value by no more than rounding
    (further above, pricing missed a point), and it is converged, certified,
    when that bracket is closed: the bound is at most ``lp._CERT_GAP`` below
    the value.  Its members are the rows of W of weight |W_k|^2 above
    ``_WEIGHT_FLOOR``, read with the value from one stack of unit rows."""
    weights = np.array([np.vdot(row, row).real for row in W])
    keep = weights > _WEIGHT_FLOOR
    weights = weights[keep]
    U = W[keep] / np.sqrt(weights)[:, None]
    ensemble = WeightedEnsemble(tuple(zip(weights.tolist(), map(PureState, U))))
    value = _ensemble_value(weights, U, use_sqrt)
    bound = max((b for b in bounds if b <= value + _BOUND_SLACK), default=None)
    return RoofResult(value=value, ensemble=ensemble, restarts_used=restarts_used,
                      best_restart_index=best_restart_index, lower_bound=bound,
                      converged=bound is not None and value - bound <= lp._CERT_GAP)


def _certificates(B: np.ndarray, use_sqrt: bool):
    """The certificates of a rank-2 rho = B^T conj(B), cheapest first: for
    each that runs, its decomposition as its member rows W, at most 4, and
    its lower bound on the roof.  The range quartic is evaluated and solved
    once: the zero fit and the orbit read its roots as rows of U, and the
    linear program reads the quartic and its roots on the unit rows E."""
    E, q, roots, dirs = range_roots(B)
    exact = _zero_decomposition(dirs)
    if exact is not None:
        yield exact @ B, 0.0
    # the closed form holds for t_r alone: tau is not covariant on the orbit
    orbit = range_orbit(B, E, q, dirs) if use_sqrt else None
    if orbit is not None:
        yield orbit.rows(), orbit.analysis.rtangle
    program = lp._lp_roof(lp._Range(B, use_sqrt, E, q, roots))
    if program is not None:
        yield program


def roof_minimize(rho: DensityMatrix, functional: str = "sqrt_tau",
                  opts: RoofOptions | None = None) -> RoofResult:
    """Minimize the convex-roof objective over size-m decompositions of rho.

    At rank 2 the certificates answer where a decomposition of theirs fits
    in m members (see the module docstring); the lock-step search runs at
    ranks 3 and up, and at rank 2 only where none fits."""
    opts = opts if opts is not None else RoofOptions()
    use_sqrt = _check_functional(functional)
    B = eigen_factor(rho)
    r, m = B.shape[0], opts.ensemble_size
    if m < r:
        raise RankError(
            f"roof_minimize: ensemble_size {m} is below the input rank {r}; "
            f"increase --size (ensemble_size) to at least {r}")
    if r == 1:
        return replace(_result(B, use_sqrt, 0, -1), converged=True)

    # a certificate's decomposition that fits in m members answers: the first
    # with a closed bracket, else the lowest, with every bound kept (ties go
    # to the earlier certificate).  The search runs only where none fits
    fits, bounds = [], []
    for W, bound in _certificates(B, use_sqrt) if r == 2 else ():
        bounds.append(bound)
        if len(W) <= m:
            res = _result(W, use_sqrt, 0, -1, [bound])
            if res.converged:  # its bracket is closed
                return res
            fits.append(W)
    if fits:
        return min((_result(W, use_sqrt, 0, -1, bounds) for W in fits), key=lambda res: res.value)
    W, best = search.minimize(B, use_sqrt, opts)
    return _result(W, use_sqrt, opts.restarts, best, bounds)


def objective_at(rho: DensityMatrix, e: WeightedEnsemble, functional: str = "sqrt_tau") -> float:
    """Weighted objective of a given decomposition of rho.

    Any valid decomposition upper-bounds the convex roof, so this is also
    a certificate evaluator.  Raises if ``e`` does not mix back to ``rho``
    within max-entry tolerance 1e-8.
    """
    use_sqrt = _check_functional(functional)
    dev = float(np.abs(ensemble_to_density(e).matrix - rho.matrix).max())
    if dev > _MIX_TOL:
        raise ValidationError(
            f"objective_at: ensemble does not reproduce rho (max deviation {dev:.3e})")
    return _ensemble_value(e.weights(), np.array([psi.amp for psi in e.states()]), use_sqrt)
