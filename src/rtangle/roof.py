"""Numerical convex-roof minimization over pure-state decompositions.

Every size-m decomposition of a rank-r density matrix arises from its
spectral ensemble through an m x r matrix U with orthonormal columns
(purification freedom): the sub-normalized members are the rows of
W = U B, where B stacks sqrt(eigenvalue)-scaled eigenvectors.  The
objective uses the homogeneity of the invariants, so weights never appear
explicitly:

    sqrt_tau:  sum_i 2 sqrt|Det(W_i)|
    tau:       sum_i 4 |Det(W_i)| / ||W_i||^2

Both functionals are non-smooth exactly where members become tangle-free,
which is where minimizers live, so the search anneals a smoothing
parameter toward zero.  The local search is Riemannian conjugate-gradient
descent on the column-orthonormal manifold, from the projected Wirtinger
gradient: Polak-Ribiere+ directions, with the last direction carried over
by tangent projection and a restart at the steepest descent where that is
not a descent direction, then polar retraction and backtracking.  The
random restarts of a solve advance in lock step as one stacked
``(S, m, r)`` batch, one batched kernel call per trial step; they share
one smoothing ladder, each keeps its own step size, and each ends bit for
bit where it would if run alone.

A rank-2 input meets three certificates, cheapest first.  Each gives a
decomposition and a lower bound on the roof, and one rule holds for all
(:func:`_certificates`): the bound is kept for the result whatever the
ensemble size, and a decomposition whose members fit in the ensemble size
answers, with ``restarts_used == 0``.  The first whose bracket is closed
(the bound at most ``_CERT_GAP`` below its value and above it by no more
than rounding) is returned at once; otherwise the lowest that fits is.
The search runs only where no decomposition fits: the ensemble size is
below every certificate's, or every certificate declined.  All three read
one list of tangle-free directions inside the range of rho: the roots of a
quartic (the hyperdeterminant restricted to the range), solved once per
input on the unit eigenvectors (:func:`quartic.zero_directions`).  A
quartic that is 0 up to rounding, on a biseparable range, gives the unit
frame instead, and the zero fit certifies the spectral decomposition.

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
  linear program over the range's Bloch sphere, solved by a revised
  simplex.  Its basic solution is a decomposition of at most 4 members,
  and its dual is the best affine bound (Osterloh, Siewert &
  Uhlmann, PRA 77, 032310 (2008)), so the two bracket the roof.  It
  certifies the tau roof of the GHZ/W mixtures and their SLOCC images,
  and the sqrt-tau roof of those the closed form does not take.

The dual bound's offset is found numerically (grid, roots of the quartic,
Newton steps from the lowest points), so the program certifies to working
precision; it is not a proof.  The closed form is exact for the recognized
frame, which holds to ``ghzw._ORBIT_TOL``.  A zero-branch or an orbit
solve takes about half a millisecond, a linear program two to six.

The returned value is an upper bound on the true convex roof by
construction, certified or not.  Unless a bracket closed at once, the
result carries the highest bound of the certificates that ran, among those
not above its value by more than rounding, and ``converged`` says whether
that bracket is closed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .ghzw import range_orbit
from .invariants import invariants
from .quartic import eigen_factor, pair_quartic, zero_directions
from .states import (
    DensityMatrix,
    PureState,
    ValidationError,
    WeightedEnsemble,
    ensemble_to_density,
)

FUNCTIONALS = ("sqrt_tau", "tau")

# the smoothing ladder every start of the search anneals down
_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-13, 0.0)
_WEIGHT_FLOOR = 1e-14
_MIX_TOL = 1e-8


class OptionsError(ValidationError):
    """A :class:`RoofOptions` field is out of range."""


class RankError(ValidationError):
    """The ensemble size is below the rank of the input."""


@dataclass(frozen=True)
class RoofOptions:
    """Search-budget knobs for :func:`roof_minimize`.

    ``max_iterations`` sets the search budget: each smoothing level of a
    start gets ``max(max_iterations // levels, 10)`` accepted steps, where
    ``levels`` is ``len(_SCHEDULE)``, the length of the smoothing ladder;
    rejected trial steps are not counted.  Every field is an integer (a
    Python or numpy one, not a bool).
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

    ``converged`` means certified: the input has rank 1, or
    ``value - lower_bound`` is at most ``_CERT_GAP`` (1e-7).  At any other
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


def _member_value(psi: PureState, use_sqrt: bool) -> float:
    inv = invariants(psi)
    return inv.sqrt_tau if use_sqrt else inv.tau


def _ensemble_from_rows(W: np.ndarray) -> WeightedEnsemble:
    members = []
    for row in W:
        w = float(np.vdot(row, row).real)
        if w > _WEIGHT_FLOOR:
            members.append((w, PureState(row / np.sqrt(w))))
    return WeightedEnsemble(tuple(members))


# --------------------------------------------------------------------------
# the tangle-free decomposition of rank-2 inputs

# residual norm up to which the zero fit counts as exact, and weight up to
# which a fitted member is rounding, not a member
_FIT_TOL = 1e-10
_SUPPORT = 1e-12
# the identity on the range, in the coordinates (M00, M11, Re M01, Im M01)
_IDENTITY = np.array([1.0, 1.0, 0.0, 0.0])


def _zero_decomposition(dirs: np.ndarray):
    """A tangle-free decomposition (rank 2 only).

    A non-negative fit of the identity over the projectors onto the
    tangle-free directions ``dirs`` (:func:`quartic.zero_directions`
    of B), with weights up to ``_SUPPORT`` taken as rounding; returns its k
    members as the rows of U, (k, 2), when the fit is exact (residual below
    ``_FIT_TOL``, so U has orthonormal columns to that) and k >= 2, else
    None.  The members are tangle-free up to the rounding of the
    quartic's roots.

    One solve decides in the common case of four distinct roots: the fit is
    then unique, a non-negative one is the answer, and one with a weight
    below -``_FIT_TOL`` ||A^-1||_F (the Frobenius norm bounds the spectral
    one) means no fit within ``_FIT_TOL`` is non-negative, which declines a
    linear-branch input at once.  Repeated roots, the two rows of the unit
    frame where the quartic vanishes, and weights between rounding and
    that bound go to phase one of the program
    (:func:`_simplex`): the four unit columns at cost 1, with the weights
    ``_IDENTITY`` the start basis, and the roots at cost 0.  The roots of
    its final basis are the candidate members, their weights solved on
    them; a simplex that fails declines.
    """
    D = np.array(dirs)
    c = np.conj(D[:, 0] * D[:, 1].conj())
    A = np.array([(D[:, 0] * D[:, 0].conj()).real, (D[:, 1] * D[:, 1].conj()).real,
                  c.real, c.imag])
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # fewer than four roots, or a repeated one
        u = None
    else:
        u = inv @ _IDENTITY
        if u.min() < -_SUPPORT:
            if u.min() < -_FIT_TOL * np.linalg.norm(inv):
                return None
            u = None
    if u is None:  # phase one: is the identity in the cone of the root projectors?
        basis = np.arange(4)
        try:
            _simplex(np.repeat((1.0, 0.0), (4, len(D))), np.concatenate((np.eye(4), A.T)),
                     _IDENTITY, basis)
        except np.linalg.LinAlgError:
            return None
        roots = basis[basis >= 4] - 4
        u = np.zeros(len(D))
        u[roots] = np.linalg.lstsq(A[:, roots], _IDENTITY, rcond=None)[0]
    support = u > _SUPPORT
    k = np.count_nonzero(support)
    if k < 2 or np.linalg.norm(A[:, support] @ u[support] - _IDENTITY) >= _FIT_TOL:
        return None
    return np.sqrt(u[support])[:, None] * D[support]


def _bloch(angles: np.ndarray):
    """The unit vectors (c, y) = (cos(theta/2), e^(i phi) sin(theta/2)) of
    (..., 2) angles: c real, y complex."""
    half = angles[..., 0] / 2.0
    return np.cos(half), np.exp(1j * angles[..., 1]) * np.sin(half)


def _phase_off(V: np.ndarray):
    """(c, y) of unit vectors V, (n, 2), with the phase of V[:, 0] taken off."""
    return np.abs(V[:, 0]), V[:, 1] * np.exp(-1j * np.angle(V[:, 0]))


def _basis(c, y) -> np.ndarray:
    """The rows (c^2, |y|^2, 2 c Re y, 2 c Im y) of v v^H at unit (c, y)."""
    return np.stack((c * c, y.real ** 2 + y.imag ** 2, 2.0 * c * y.real, 2.0 * c * y.imag),
                    axis=-1)


_POWERS = np.arange(5)
# _TAYLOR[d] maps the coefficients of z^0 .. z^4 of a quartic to those of its
# d-th derivative, d = 0, 1, 2
_TAYLOR = np.stack((np.eye(5), np.eye(5, k=1) * _POWERS,
                    np.eye(5, k=2) * _POWERS * (_POWERS - 1)))
# Bloch-sphere grid (theta, phi) of the range, one step apart in both angles
_BLOCH_STEP = np.pi / 60
_BLOCH_GRID = np.stack(np.meshgrid(np.arange(61) * _BLOCH_STEP, np.arange(120) * _BLOCH_STEP,
                                   indexing="ij"), axis=-1).reshape(-1, 2)
_BLOCH_C, _BLOCH_Y = _bloch(_BLOCH_GRID)
_BLOCH_BASIS = _basis(_BLOCH_C, _BLOCH_Y)
# value minus certified lower bound up to which a decomposition counts as
# optimal: 2 sqrt|D| magnifies the rounding of a tangle-free member to ~1e-8
_CERT_GAP = 1e-7
# sqrt-tau below which a member is fitted as tangle-free: a light member on
# a root of q reads up to ~1e-7 after rounding, and an l fitted to that
# would sit as far above g = 0 at the root, a loss that delta takes
# unweighted
_ROUNDED_ROOT = 1e-6
# pricing: at most this many Newton steps from each start, none longer than
# one grid step in its chart; a start stops once its next step would be
# shorter than _NEWTON_TOL, or once its step has been halved
# _NEWTON_HALVINGS times and is still rejected
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-6
_NEWTON_HALVINGS = 3
# the ring of columns a round adds around where each support point's steps
# end: six points at each of 1/3, 1/9, .., 1/729 of a grid step in the chart.
# The program moves a support point only onto a column, and where the mixing
# rows hold it off the minimum of f - l the minima alone creep toward it
# (rho0 of the counterexample closes in five rounds without rings, three
# with; 360 random rank-2 programs take a median of six rounds without
# them, four with)
_RING = ((_BLOCH_STEP / 3.0 ** np.arange(1, 7))[:, None]
         * np.exp(2j * np.pi * np.arange(6) / 6)).ravel()
# the distances from a root of q in the support at which pricing starts
# beside it: 1/3, 1/9 and 1/27 of a grid step in the chart
_CUSP_RADII = _BLOCH_STEP / 3.0 ** np.arange(1, 4)


def _abs2(z):
    return z.real ** 2 + z.imag ** 2


def _affine(z, x0, x1, xi):
    """l = (x0 + x1 |z|^2 + 2 Re(xi z)) / (1 + |z|^2) at chart points z,
    and its Wirtinger derivative l_z."""
    zz = _abs2(z)
    n = 1.0 + zz
    l = (x0 + x1 * zz + 2.0 * (xi * z).real) / n
    return l, ((x1 - l) * np.conj(z) + xi) / n


class _Range:
    """The range of a rank-2 rho = B^T conj(B) on its Bloch sphere.

    A unit v in C^2 stands for the range state v0 e0 + v1 e1 (orthonormal
    eigenvectors e_k = B_k / sqrt(lambda_k), eigenvalues lambda_k); every
    decomposition of rho is a mixture of such states.  The roots of q, the
    tangle-free states, are read from the rows d of U that
    :func:`quartic.zero_directions` solved for: v is d_k sqrt(lambda_k),
    normalized.  Its objective is f(v) = 2 sqrt|q(v)|
    (sqrt-tau) or 4 |q(v)| (tau), with q the hyperdeterminant restricted to
    the range.  A Hermitian X gives the affine function
    l(v) = v^H X v = _basis(v) @ (X_00, X_11, Re X_01, -Im X_01).  If
    f >= l - delta on the whole sphere, every decomposition of rho has a
    value of at least lambda_0 X_00 + lambda_1 X_11 - delta (Osterloh,
    Siewert & Uhlmann, PRA 77, 032310 (2008)).

    Pricing minimizes f - l by Newton steps, the local reduction of
    semi-infinite programming (Hettich & Kortanek, SIAM Rev. 35, 380
    (1993)), in two charts of the sphere: z = y / c where c >= |y|, and
    z = c / y elsewhere (the point (z, 1): q read backwards, X_00 and
    X_11 swapped, X_01 conjugated), so a grid or support point has
    |z| <= 1 and no chart meets its singular pole.  With n = 1 + |z|^2 and Q the chart's quartic
    polynomial in z,

        f - l = K |Q(z)|^a / n^b - (x0 + x1 |z|^2 + 2 Re(xi z)) / n,

    (K, a, b) = (2, 1/2, 1) for sqrt-tau and (4, 1, 2) for tau.
    """

    def __init__(self, B: np.ndarray, use_sqrt: bool, dirs: np.ndarray):
        self.lam = (B.real ** 2 + B.imag ** 2).sum(-1)
        self.E = B / np.sqrt(self.lam)[:, None]
        self.q = pair_quartic(self.E[0], self.E[1])
        self.use_sqrt = use_sqrt
        roots = dirs * np.sqrt(self.lam)
        self.roots = roots / np.sqrt(_abs2(roots).sum(-1))[:, None]
        # per chart (z = y / c, then z = c / y) the rows of Q, Q' and Q'' on
        # (1, z, .., z^4)
        self.taylor = np.einsum("djk,ck->cdj", _TAYLOR, np.stack((self.q[::-1], self.q)))

    def columns(self):
        """The linear program's first columns, the grid and the roots of q:
        their unit vectors (c, y), costs and constraint rows, and the
        right-hand side.  For sqrt-tau a root below ``_ROUNDED_ROOT`` costs
        0."""
        root_c, root_y = _phase_off(self.roots)
        root_f = self.f(root_c, root_y)
        if self.use_sqrt:
            root_f = np.where(root_f < _ROUNDED_ROOT, 0.0, root_f)
        c, y = np.concatenate((_BLOCH_C, root_c)), np.concatenate((_BLOCH_Y, root_y))
        cost = np.concatenate((self.f(_BLOCH_C, _BLOCH_Y), root_f))
        rows = np.concatenate((_BLOCH_BASIS, _basis(root_c, root_y)))
        return c, y, cost, rows, np.array([self.lam[0], self.lam[1], 0.0, 0.0])

    def f(self, c, y):
        """Objective of the unit range vectors (c, y)."""
        return self._of_q(self._abs_q(c, y))

    def _abs_q(self, c, y):
        """|q| at the unit range vectors (c, y), by homogeneous Horner."""
        q, y2 = self.q, y * y
        h = ((q[4] * c + q[3] * y) * c + q[2] * y2) * c + q[1] * (y2 * y)
        return np.abs(h * c + q[0] * (y2 * y2))

    def _of_q(self, a):
        """The objective at |q| = a."""
        return 2.0 * np.sqrt(a) if self.use_sqrt else 4.0 * a

    def bound(self, X, lowest: float) -> float:
        """The lower bound of X, given the lowest f - l found on the sphere."""
        return self.lam[0] * X[0] + self.lam[1] * X[1] - max(0.0, -lowest)

    @staticmethod
    def chart(c, y):
        """Chart points z of the unit vectors (c, y) and their charts (True
        for z = c / y)."""
        flip = np.abs(y) > c
        return np.where(flip, c / np.where(flip, y, 1.0), y / np.where(flip, 1.0, c)), flip

    def coefficients(self, X, flip):
        """The coefficients of f - l in the charts ``flip``: per point the
        rows of Q, Q' and Q'' on (1, z, .., z^4), (n, 3, 5), then x0, x1 and
        xi."""
        xi = X[2] - 1j * X[3]
        return (self.taylor[flip.astype(int)], np.where(flip, X[1], X[0]),
                np.where(flip, X[0], X[1]), np.where(flip, np.conj(xi), xi))

    def excess(self, z, taylor, x0, x1, xi):
        """g = f - l at chart points z, given their charts' coefficients
        (see :meth:`coefficients`), and its Wirtinger derivatives g_z, g_zz*
        (d^2 g / dz dz*, real) and g_zz.  The gradient in (Re z, Im z) is
        2 conj(g_z) as a complex number, and the Hessian is
        2 [[g_zz* + Re g_zz, -Im g_zz], [-Im g_zz, g_zz* - Re g_zz]].  The
        derivatives hold off the roots of Q, where f is not smooth."""
        n = 1.0 + _abs2(z)
        Q, Q1, Q2 = (taylor @ (z[:, None] ** _POWERS)[..., None])[..., 0].T
        a, b = (0.5, 1.0) if self.use_sqrt else (1.0, 2.0)
        f = self._of_q(np.abs(Q)) / n ** b
        l, l_z = _affine(z, x0, x1, xi)
        with np.errstate(divide="ignore", invalid="ignore"):  # not finite on a root
            R = Q1 / Q
            # f = K exp(phi), phi = a log|Q| - b log n, and log|Q| is harmonic
            zc = np.conj(z)
            phi_z = 0.5 * a * R - b * zc / n
            f_zz = f * (0.5 * a * (Q2 / Q - R * R) + b * zc * zc / n ** 2 + phi_z * phi_z)
            g_z = f * phi_z - l_z
            g_zc = f * (_abs2(phi_z) - b / n ** 2) - (x1 - l - 2.0 * (z * l_z).real) / n
        return f - l, g_z, g_zc, f_zz + 2.0 * zc * l_z / n

    def lowest(self, X, on_grid: np.ndarray, c, y):
        """Lowest f - l over the grid (``on_grid``, its values there), the
        points (c, y) and Newton steps from these and the 8 lowest grid
        points; and, as (c, y), every point a step moved to and the rings
        ``_RING`` around where the steps from (c, y) ended: the next round's
        columns.  A point (c, y) on a root of q, where f has a cusp, is not a
        start itself: the points ``_CUSP_RADII`` from it along the gradient of
        l are, since f - l can fall off the cusp (for tau, f rises only
        linearly from a root), and the root's own column prices the cusp.

        Each step is the Newton step where the Hessian of f - l is positive
        definite and a steepest-descent step elsewhere, at most one grid
        step long in the chart.  It is taken only where f - l falls, and
        halved where it would not."""
        z, flip = self.chart(c, y)
        # sqrt-tau below _ROUNDED_ROOT reads as tangle-free: on a root
        cusp = self._abs_q(c, y) < (_ROUNDED_ROOT / 2.0) ** 2
        n_ring = np.count_nonzero(~cusp)
        # f rises off a root equally in every direction, so f - l falls
        # fastest along the gradient of l, 2 conj(l_z)
        l_z = _affine(z[cusp], *self.coefficients(X, flip[cusp])[1:])[1]
        off = z[cusp, None] + np.exp(-1j * np.angle(l_z))[:, None] * _CUSP_RADII
        start = np.argpartition(on_grid, 8)[:8]
        grid_z, grid_flip = self.chart(_BLOCH_C[start], _BLOCH_Y[start])
        z = np.concatenate((z[~cusp], off.ravel(), grid_z))
        flip = np.concatenate((flip[~cusp], np.repeat(flip[cusp], _CUSP_RADII.size), grid_flip))
        coef = self.coefficients(X, flip)
        g, g_z, g_zc, g_zz = self.excess(z, *coef)
        # the root, basic, has f - l = 0: a start beside it that is no lower
        # would only step back to its cusp, and does not start
        beside = np.repeat([False, True, False], (n_ring, off.size, len(grid_z)))
        scale = np.where(beside & (g >= 0.0), 0.0, 1.0)
        columns = []
        for _ in range(_NEWTON_STEPS):
            # the Newton step d solves g_zz* d + conj(g_zz) conj(d) = -conj(g_z)
            det = g_zc * g_zc - _abs2(g_zz)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where((g_zc > 0.0) & (det > 0.0),
                                (np.conj(g_zz) * g_z - g_zc * np.conj(g_z)) / det,
                                -_BLOCH_STEP * np.conj(g_z) / np.abs(g_z))
                length = np.abs(step)
                step *= scale * np.minimum(1.0, _BLOCH_STEP / length)
            live = (length * scale > _NEWTON_TOL) & (scale >= 0.5 ** _NEWTON_HALVINGS)
            if not live.any():
                break
            trial = np.where(live, z + step, z)
            new = self.excess(trial, *coef)
            better = live & (new[0] < g)
            z, g, g_z, g_zc, g_zz = (np.where(better, v, u)
                                     for u, v in zip((z, g, g_z, g_zc, g_zz), (trial,) + new))
            scale = np.where(better, 1.0, 0.5 * scale)
            columns.append((z[better], flip[better]))
        columns.append(((z[:n_ring, None] + _RING).ravel(), np.repeat(flip[:n_ring], _RING.size)))
        z, flip = (np.concatenate(v) for v in zip(*columns))
        n = np.sqrt(1.0 + _abs2(z))
        visited = (np.where(flip, np.abs(z), 1.0) / n,
                   np.where(flip, np.exp(-1j * np.angle(z)), z) / n)
        return min(on_grid.min(), g.min()), visited


# --------------------------------------------------------------------------
# rank-2 roof as a linear program over the range's Bloch sphere

_LP_ROUNDS = 20
# the program's own gap at which rounds stop: half of _CERT_GAP leaves the
# other half for the rounding of the decomposition's members
_LP_GAP = _CERT_GAP / 2
# the grid columns of e0, e1, (e0 + e1)/sqrt 2 and (e0 + i e1)/sqrt 2: the
# weights (lambda_0, lambda_1, 0, 0) on them are a feasible basic solution
_LP_BASIS = np.array([0, 60 * 120, 30 * 120, 30 * 120 + 30])
_LP_PIVOTS = 200     # pivots per round
_LP_TOL = 1e-12      # least negative reduced cost, and least ratio-test pivot
# how far a lower bound may sit above a decomposition's value from rounding
# alone; further above, pricing missed a point and the bound is dropped
_BOUND_SLACK = 1e-9


def _simplex(cost, rows, b, basis):
    """Revised simplex for min cost @ w, rows^T w = b, w >= 0, from the
    feasible ``basis`` (4 column indices, updated in place): the most
    negative reduced cost enters, and the ratio test's ties go to the lowest
    index.  Each pivot inverts the 4 x 4 basis once and reads the dual X,
    the basic weights and the entering direction from that inverse.
    Returns the basic weights, the dual X and the reduced costs; raises
    LinAlgError on a singular basis or after ``_LP_PIVOTS``.  The rank-2
    program calls it, and so does the zero fit's phase one
    (:func:`_zero_decomposition`)."""
    columns = np.ascontiguousarray(rows.T)  # X @ columns prices faster than rows @ X
    for _ in range(_LP_PIVOTS + 1):
        A, c = rows[basis], cost[basis]
        inv = np.linalg.inv(A)
        # a refinement step takes the dual to rounding, as a solve would: from
        # the inverse alone a basic column's reduced cost can pass -_LP_TOL
        X = inv @ c
        X += inv @ (c - A @ X)
        reduced = cost - X @ columns
        j = int(reduced.argmin())
        if reduced[j] >= -_LP_TOL:
            return b @ inv, X, reduced
        w, d = b @ inv, rows[j] @ inv
        # every cost is >= 0, so no direction is unbounded: d has a positive
        # entry.  In the program every column has trace c^2 + |y|^2 = 1, so d
        # sums to 1; phase one's two off-diagonal unit columns have trace 0
        ratio = np.where(d > _LP_TOL, np.maximum(w, 0.0), np.inf) / np.maximum(d, _LP_TOL)
        ties = np.flatnonzero(ratio == ratio.min())
        basis[ties[np.argmin(basis[ties])]] = j
    raise np.linalg.LinAlgError(f"no optimal basis in {_LP_PIVOTS} pivots")


def _lp_roof(B: np.ndarray, use_sqrt: bool, dirs: np.ndarray):
    """The roof of a rank-2 rho = B^T conj(B) as a linear program, given the
    roots ``dirs`` of :func:`quartic.zero_directions`.

    Columns are unit range vectors v with cost f(v) (see :class:`_Range`);
    weights w >= 0 with sum_k w_k v_k v_k^H = diag(lambda), four real
    equality rows, give a decomposition, so the program's value is an upper
    bound on the roof and its dual X gives the affine lower bound.
    :func:`_simplex` solves over the 61 x 120 grid and the roots of q
    (:meth:`_Range.columns`); each round prices X
    by Newton steps on f - l from the support (beside it, where it is a
    root of q) and the lowest grid points (:meth:`_Range.lowest`), appends
    the points they reached and rings around the support as columns and
    warm-starts from the last basis, until the program's value is within ``_LP_GAP`` of the bound or
    after ``_LP_ROUNDS``.

    Returns (W, bound), or None when the simplex fails: ``W`` holds the at
    most 4 sub-normalized members of the basic solution, (k, 8), their
    weights solved on the support; ``bound`` is the lower bound, which holds
    to working precision (its offset is a numerical minimum), not as a
    proof.
    """
    sphere = _Range(B, use_sqrt, dirs)
    c, y, cost, rows, b = sphere.columns()
    basis = _LP_BASIS.copy()
    for _ in range(_LP_ROUNDS):
        try:
            w, X, reduced = _simplex(cost, rows, b, basis)
        except np.linalg.LinAlgError:
            return None
        support = basis[w > 0.0]
        lowest, (new_c, new_y) = sphere.lowest(X, reduced[:len(_BLOCH_C)], c[support],
                                               y[support])
        bound = sphere.bound(X, min(lowest, reduced.min()))
        if cost[basis] @ w - bound <= _LP_GAP:
            break
        c, y = np.concatenate((c, new_c)), np.concatenate((y, new_y))
        cost = np.concatenate((cost, sphere.f(new_c, new_y)))
        rows = np.concatenate((rows, _basis(new_c, new_y)))
    # the basic solution's weights, solved on its support to rounding
    w = np.linalg.lstsq(rows[support].T, b, rcond=None)[0]
    V = np.stack((c[support] + 0j, y[support]), axis=-1)
    return (np.sqrt(np.maximum(w, 0.0))[:, None] * V) @ sphere.E, float(bound)


# --------------------------------------------------------------------------
# projected-gradient local search, every start of a solve in lock step

_ETA0, _ETA_MAX, _ETA_MIN = 0.2, 2.0, 1e-15
_ARMIJO = 1e-4
_STALL_TOL = 1e-9  # an accepted step that gains less ends its smoothing level
_GRAD_FLOOR = 1e-26


def _herm(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _tangent(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Projection X - U sym(U^H X) of each start's X onto the tangent space
    of the column-orthonormal manifold at U."""
    A = _herm(U) @ X
    return X - U @ ((A + _herm(A)) / 2.0)


def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re<X, Y> per start, summed over one start's block in one fixed form."""
    return (X.real * Y.real + X.imag * Y.imag).reshape(len(X), -1).sum(-1)


def _retract(Y: np.ndarray):
    """Polar retraction of each start; returns (trial, ok).  A start whose
    SVD fails is flagged in ``ok`` instead of failing the whole batch."""
    try:
        return kernels.polar_retract(Y), np.ones(len(Y), dtype=bool)
    except np.linalg.LinAlgError:
        out, ok = np.zeros_like(Y), np.ones(len(Y), dtype=bool)
        for i, y in enumerate(Y):
            try:
                out[i] = kernels.polar_retract(y)
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _sub(idx, mask: np.ndarray) -> np.ndarray:
    """The starts of ``idx``, an index array or ``slice(None)``, where mask holds."""
    return np.flatnonzero(mask) if isinstance(idx, slice) else idx[mask]


class _LockStep:
    """Annealed conjugate-gradient descent of S starts, advanced together.

    Every start anneals down the one smoothing ladder ``_SCHEDULE``.  At
    each level it takes backtracking steps on the column-orthonormal
    manifold along a direction D: -G when the level opens, then the
    Riemannian Polak-Ribiere+ direction (Absil, Mahony & Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, sec. 8.3)

        D = -G + beta T_U(D_prev),  beta = max(0, (|G|^2 - Re<G, G_prev>) / |G_prev|^2),

    with the transport T_U(X) = X - U sym(U^H X), the tangent projection
    (as G is tangent at U, <G, T_U(G_prev)> = <G, G_prev>).  Where
    Re<G, D> is not negative, NaN included, D is -G again.  The trial is
    the polar retraction of U + eta D; step size ``eta`` from 0.2, Armijo
    test f_trial < f + 1e-4 eta Re<G, D>, ``eta`` x1.4 on acceptance (at
    most 2) and /2 on rejection or a failed retraction.  A level ends on a
    tiny or non-finite gradient, an accepted step that gains less than
    ``_STALL_TOL``, an exhausted line search or a spent step budget.  The
    best exact (eps = 0) objective seen at any level boundary is kept, so a
    smoothing level can never lose an already-good iterate.

    One tick makes one trial step for every start in a line search: one
    batched retraction and one batched ``roof_value_grad``.  The accepted
    trials go straight on to the gradient projection, and a tick whose
    retractions all succeed or whose trials all pass masks nothing.
    Starts share no arithmetic, and every per-start reduction (|G|^2,
    beta, the slope) sums one start's block in one form, so each start
    ends exactly where it would alone.
    """

    def __init__(self, U0: np.ndarray, B: np.ndarray, use_sqrt: bool, opts: RoofOptions):
        S = len(U0)
        self.B, self.use_sqrt = B, use_sqrt
        # E = 2 conj(P B^T) = conj(P) @ B2: conjugation and doubling are exact
        self.B2 = 2.0 * np.conj(B.T)
        self.budget = max(opts.max_iterations // len(_SCHEDULE), 10)
        self.U = np.array(U0, dtype=np.complex128)
        self.best_W = self.U @ B
        self.best_value = kernels.roof_value(self.best_W, use_sqrt, 0.0)
        self.stage = np.zeros(S, dtype=np.int64)
        self.eps = np.full(S, _SCHEDULE[0])
        self.steps = np.zeros(S, dtype=np.int64)
        self.eta = np.full(S, _ETA0)
        self.f = np.zeros(S)
        self.G = np.zeros_like(self.U)
        self.gn2 = np.zeros(S)
        self.D = np.zeros_like(self.U)            # search direction
        self.slope = np.zeros(S)                  # Re<G, D>, negative
        self.searching = np.zeros(S, dtype=bool)  # in a line search

    def run(self):
        """Returns per start (best W, best exact value)."""
        self._begin(np.arange(len(self.U)))
        while self.searching.any():
            self._tick()
        return self.best_W, self.best_value

    def _begin(self, idx):
        """Open the current smoothing level: fresh step size and gradient."""
        if idx.size == 0:
            return
        self.eta[idx] = _ETA0
        self.steps[idx] = 0
        U = self.U[idx]
        self.f[idx], P = kernels.roof_value_grad(U @ self.B, self.use_sqrt, self.eps[idx])
        self._project(idx, U, P, fresh=True)

    def _project(self, idx, U, P, fresh=False):
        """Riemannian gradient G at the starts' U from their Wirtinger
        derivative P, and the next search direction D: -G when ``fresh`` (a
        level opens), else the Polak-Ribiere+ direction, falling back to -G
        where that is not a descent direction.  A vanishing or non-finite
        gradient ends the level.  ``idx`` is an index array or, for every
        start, ``slice(None)``."""
        if len(U) == 0:
            return
        E = np.conj(P) @ self.B2
        G = _tangent(U, E)
        gn2 = _inner(G, G)
        D, slope = -G, -gn2
        if not fresh:
            # <G, T_U(G_prev)> = <G, G_prev>, as G is tangent at U
            beta = np.maximum(0.0, (gn2 - _inner(G, self.G[idx])) / self.gn2[idx])
            D_cg = D + beta[:, None, None] * _tangent(U, self.D[idx])
            slope_cg = _inner(G, D_cg)
            cg = slope_cg < 0.0                   # False on NaN
            D = np.where(cg[:, None, None], D_cg, D)
            slope = np.where(cg, slope_cg, slope)
        self.G[idx], self.gn2[idx], self.D[idx], self.slope[idx] = G, gn2, D, slope
        flat = ~np.isfinite(gn2) | (gn2 < _GRAD_FLOOR)
        if not flat.any():
            self.searching[idx] = True
            return
        self.searching[_sub(idx, ~flat)] = True
        self._end(_sub(idx, flat))

    def _end(self, idx):
        """Close the level: keep a better exact value, then open the next
        level or retire the start."""
        if idx.size == 0:
            return
        self.searching[idx] = False
        W = self.U[idx] @ self.B
        value = kernels.roof_value(W, self.use_sqrt, 0.0)
        better = value < self.best_value[idx]
        self.best_value[idx[better]] = value[better]
        self.best_W[idx[better]] = W[better]
        self.stage[idx] += 1
        idx = idx[self.stage[idx] < len(_SCHEDULE)]
        self.eps[idx] = np.take(_SCHEDULE, self.stage[idx])
        self._begin(idx)

    def _tick(self):
        # until the first start retires every start is in a line search, and
        # a slice reads and writes the per-start arrays without a gather
        idx = slice(None) if self.searching.all() else np.flatnonzero(self.searching)
        eta = self.eta[idx]
        trial, ok = _retract(self.U[idx] + eta[:, None, None] * self.D[idx])
        back = []  # starts whose step halves: failed retraction or rejected trial
        if not ok.all():
            back.append(_sub(idx, ~ok))
            idx, eta, trial = _sub(idx, ok), eta[ok], trial[ok]
        f, P = kernels.roof_value_grad(trial @ self.B, self.use_sqrt, self.eps[idx])
        f0 = self.f[idx]
        accept = f < f0 + _ARMIJO * eta * self.slope[idx]
        if not accept.all():
            back.append(_sub(idx, ~accept))
            idx, eta, trial, f, P = _sub(idx, accept), eta[accept], trial[accept], f[accept], P[accept]
            f0 = f0[accept]
        if back:
            back = np.concatenate(back)
            self.eta[back] *= 0.5
            self._end(back[self.eta[back] <= _ETA_MIN])

        done = f0 - f < _STALL_TOL  # before f0, a view under a slice, is overwritten
        self.U[idx], self.f[idx] = trial, f
        self.eta[idx] = np.minimum(eta * 1.4, _ETA_MAX)
        self.steps[idx] += 1
        done |= self.steps[idx] >= self.budget
        if done.any():
            self._end(_sub(idx, done))
            idx, trial, P = _sub(idx, ~done), trial[~done], P[~done]
        self._project(idx, trial, P)


# --------------------------------------------------------------------------

def _bracket_closed(value: float, bound: float | None) -> bool:
    """Certified: a sound bound at most ``_CERT_GAP`` below the value."""
    return bound is not None and value - bound <= _CERT_GAP


def _result(W: np.ndarray, use_sqrt: bool, restarts_used: int, best_restart_index: int,
            bounds=()) -> RoofResult:
    """The result of the rows W.  Its lower bound is the highest of
    ``bounds`` that is sound, above the value by no more than rounding
    (further above, pricing missed a point), and it is converged when that
    bracket is closed."""
    ensemble = _ensemble_from_rows(W)
    value = float(sum(w * _member_value(psi, use_sqrt) for w, psi in ensemble.members))
    bound = max((b for b in bounds if b <= value + _BOUND_SLACK), default=None)
    return RoofResult(value=value, ensemble=ensemble, restarts_used=restarts_used,
                      best_restart_index=best_restart_index,
                      converged=_bracket_closed(value, bound), lower_bound=bound)


def _certificates(B: np.ndarray, use_sqrt: bool):
    """The certificates of a rank-2 rho = B^T conj(B), cheapest first: for
    each that runs, its decomposition as its member rows W, at most 4, and
    its lower bound on the roof.  The range quartic is solved once, and the
    zero fit, the orbit and the linear program all read its roots."""
    dirs = zero_directions(B)
    exact = _zero_decomposition(dirs)
    if exact is not None:
        yield exact @ B, 0.0
    # the closed form holds for t_r alone: tau is not covariant on the orbit
    orbit = range_orbit(B, dirs) if use_sqrt else None
    if orbit is not None:
        yield orbit.rows(), orbit.analysis.rtangle
    lp = _lp_roof(B, use_sqrt, dirs)
    if lp is not None:
        yield lp


def roof_minimize(rho: DensityMatrix, functional: str = "sqrt_tau",
                  opts: RoofOptions | None = None) -> RoofResult:
    """Minimize the convex-roof objective over size-m decompositions of rho.

    At rank 2 the certificates answer where a decomposition of theirs fits
    in m members (see the module docstring); the lock-step search runs at
    ranks 3 and up, and at rank 2 only where none fits."""
    opts = opts if opts is not None else RoofOptions()
    use_sqrt = _check_functional(functional)
    B = eigen_factor(rho)
    r = B.shape[0]
    m = opts.ensemble_size
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
    rngs = [np.random.default_rng([opts.seed, k]) for k in range(opts.restarts)]
    restarts = [np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
                for rng in rngs]
    W, values = _LockStep(np.array(restarts), B, use_sqrt, opts).run()
    best = int(np.argmin(values))
    return _result(W[best], use_sqrt, opts.restarts, best, bounds)


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
    return float(sum(w * _member_value(psi, use_sqrt) for w, psi in e.members))
