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
parameter toward zero.  The local search is Riemannian quasi-Newton
descent on the column-orthonormal manifold, from the projected Wirtinger
gradient: BFGS directions from a dense inverse Hessian per start, over the
real coordinates of its block and carried down the smoothing ladder (each
level opens on the steepest descent at the length of the last step, and
rescales the carried inverse Hessian at its first curvature pair), with a
restart at the steepest descent where that is not a descent direction,
then polar retraction and backtracking.  The random restarts
of a solve advance in lock step as a stacked ``(S, m, r)`` batch, one
batched kernel call per trial step, in as few batches as keep their inverse
Hessians within 8 MB; they share one smoothing ladder, each keeps its own
step size and inverse Hessian, and each ends bit for bit where it would if
run alone.  The kernel reads the rows u of U through the range tensor T,
Det(u B) = T(u, u, u, u) (:func:`quartic.range_tensor`), and returns df/dU;
the members U B are formed only where a level ends.

A rank-2 input meets three certificates, cheapest first.  Each gives a
decomposition and a lower bound on the roof, and one rule holds for all
(:func:`_certificates`): the bound is kept for the result whatever the
ensemble size, and a decomposition whose members fit in the ensemble size
answers, with ``restarts_used == 0``.  The first whose bracket is closed
(the bound at most ``_CERT_GAP`` below its value and above it by no more
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
  linear program over the range's Bloch sphere, solved by a revised
  simplex.  Each column is a point of the sphere held in one coordinate,
  its chart point: the range vector with its larger coordinate set to 1
  (:class:`_Range`), costed by the chart's quartic (on the grid, by
  tables of the quartic's monomials built at import) and constrained by
  the coordinates of v v^H.  Its basic solution is a decomposition of at
  most 4 members, and its dual is the best affine bound (Osterloh,
  Siewert & Uhlmann, PRA 77, 032310 (2008)), so the two bracket the roof.  It
  certifies the tau roof of the GHZ/W mixtures and their SLOCC images,
  and the sqrt-tau roof of those the closed form does not take.

The dual bound's offset is found numerically (grid, roots of the quartic,
Newton steps from the lowest points), so the program certifies to working
precision; it is not a proof.  The closed form is exact for the recognized
frame, which holds to ``ghzw._ORBIT_TOL``.  A zero-branch or an orbit
solve takes about half a millisecond, a linear program two to three: Newton
steps on its optimality conditions move the support before it is priced,
the second solve of a round starts from the moved support, and most
programs close at their first pricing pass.

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
from .quartic import eigen_factor, range_roots, range_tensor
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

    For sqrt-tau, working precision has a floor of about 1e-8, the rounding
    of 2 sqrt|Det| near a product state: on near-product inputs (images
    under local operators of condition number 1e3 or more) a bound may lie
    up to about 1e-8 above the true roof, and is then dropped.

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
    tangle-free directions ``dirs`` (the rows of U of
    :func:`quartic.range_roots`), with weights up to ``_SUPPORT`` taken as
    rounding; returns its k members as the rows of U, (k, 2), when the fit
    is exact (residual below ``_FIT_TOL``, so U has orthonormal columns to
    that) and k >= 2, else None.  The members are tangle-free up to the
    rounding of the quartic's roots.

    One solve decides in the common case of four distinct roots: the fit is
    then unique, a non-negative one is the answer, and one with a weight
    below -``_FIT_TOL`` ||A^-1||_F (the Frobenius norm bounds the spectral
    one) means no fit within ``_FIT_TOL`` is non-negative, which declines a
    linear-branch input at once.  Fewer than four roots (a repeated root is
    listed once), the two rows of the unit frame where the quartic
    vanishes, and weights between rounding and that bound go to phase one
    of the program (:func:`_simplex`): the four unit columns at cost 1,
    with the weights ``_IDENTITY`` the start basis, and the roots at cost
    0.  The roots of its final basis are the candidate members, their
    weights solved on them; a simplex that fails declines.
    """
    D = np.array(dirs)
    c = np.conj(D[:, 0] * D[:, 1].conj())
    A = np.array([(D[:, 0] * D[:, 0].conj()).real, (D[:, 1] * D[:, 1].conj()).real,
                  c.real, c.imag])
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # fewer than four roots, or a singular A
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
            _simplex(np.repeat((1.0, 0.0), (4, len(D))), np.concatenate((np.eye(4), A), axis=1),
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


def _abs2(z):
    return z.real ** 2 + z.imag ** 2


def _chart(V: np.ndarray):
    """Chart points (z, flip) of the range vectors V, (n, 2), their larger
    coordinate set to 1: z = V1 / V0 (flip False) where |V0| >= |V1|, else
    z = V0 / V1 (flip True), so |z| <= 1 and the phase of V is gone."""
    flip = np.abs(V[:, 1]) > np.abs(V[:, 0])
    return np.where(flip, V[:, 0], V[:, 1]) / np.where(flip, V[:, 1], V[:, 0]), flip


def _unchart(z, flip):
    """The unit range vectors of chart points, (n, 2): (1, z) / sqrt(n) in
    the chart z = v1 / v0 and (z, 1) / sqrt(n) in the chart z = v0 / v1,
    with n = 1 + |z|^2 (see :func:`_chart`)."""
    v = np.stack((np.where(flip, z, 1.0), np.where(flip, 1.0, z)), axis=-1)
    return v / np.sqrt(1.0 + _abs2(z))[:, None]


def _chart_basis(z, flip):
    """The constraint rows a = (|v0|^2, |v1|^2, 2 Re(v0* v1), 2 Im(v0* v1))
    of the unit vectors v = _unchart(z, flip), the coordinates of v v^H, and
    their derivatives in Re z and Im z, as one (3, len(z), 4) array.  With
    n = 1 + |z|^2 and z* the conjugate, a = (1, |z|^2, 2 Re z, 2 Im z) / n in
    the chart z = v1 / v0 and (|z|^2, 1, 2 Re z*, 2 Im z*) / n in the chart
    z = v0 / v1."""
    s, t = z.real, z.imag
    n = 1.0 + s * s + t * t
    u = 2.0 * np.where(flip, np.conj(z), z) / n
    a0 = np.where(flip, n - 1.0, 1.0) / n
    d0 = np.where(flip, 2.0, -2.0) / (n * n)  # a0 has the gradient d0 (Re z, Im z)
    u_s, u_t = (2.0 - 2.0 * s * u) / n, (np.where(flip, -2j, 2j) - 2.0 * t * u) / n
    a = np.stack((a0, 1.0 - a0, u.real, u.imag, d0 * s, -d0 * s, u_s.real, u_s.imag,
                  d0 * t, -d0 * t, u_t.real, u_t.imag), axis=-1)
    return a.reshape(-1, 3, 4).swapaxes(0, 1)


_POWERS = np.arange(5)
# _TAYLOR[d] maps the coefficients of z^0 .. z^4 of a quartic to those of its
# d-th derivative, d = 0, 1, 2
_TAYLOR = np.stack((np.eye(5), np.eye(5, k=1) * _POWERS,
                    np.eye(5, k=2) * _POWERS * (_POWERS - 1)))


def _monomials(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The monomials c^k s^(4-k), k = 0 .. 4, of the pairs (c, s), as an
    (n, 5) array built in place by products."""
    M = np.ones((len(c), 5), dtype=np.result_type(c, s))
    for k in range(1, 5):
        M[:, :5 - k] *= s[:, None]
        M[:, k:] *= c[:, None]
    return M


# Bloch-sphere grid (theta, phi) of the range, one step apart in both angles:
# the 61 x 120 mesh, of whose 120 points in each pole row, which are one
# point, one is kept
_BLOCH_STEP = np.pi / 60
_BLOCH_THETA, _BLOCH_PHI = np.arange(61) * _BLOCH_STEP, np.arange(120) * _BLOCH_STEP
_BLOCH_KEPT = slice(119, -119)
_BLOCH_GRID = np.stack(np.meshgrid(_BLOCH_THETA, _BLOCH_PHI, indexing="ij"),
                       axis=-1).reshape(-1, 2)[_BLOCH_KEPT]
# the grid as the chart points of its unit vectors, (cos(theta/2),
# e^(i phi) sin(theta/2)), and their constraint rows, held as the rows view of
# a (4, 7082) array, the layout the program's columns take
_BLOCH_Z, _BLOCH_FLIP = _chart(np.stack(
    (np.cos(_BLOCH_GRID[:, 0] / 2.0), np.exp(1j * _BLOCH_GRID[:, 1]) * np.sin(_BLOCH_GRID[:, 0] / 2.0)),
    axis=-1))
_BLOCH_ROWS = _chart_basis(_BLOCH_Z, _BLOCH_FLIP)[0].T.copy().T
# q at those unit vectors is sum_k q_k cos^k(theta/2) sin^(4-k)(theta/2)
# e^(i (4-k) phi), so on the mesh it is (_BLOCH_POLAR * q) @ _BLOCH_AZIMUTH.T,
# from the monomials of the 61 polar and the 120 azimuthal angles
_BLOCH_POLAR = _monomials(np.cos(_BLOCH_THETA / 2.0), np.sin(_BLOCH_THETA / 2.0))
_BLOCH_AZIMUTH = _monomials(np.ones(120), np.exp(1j * _BLOCH_PHI))
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
# support refinement: at most _KKT_STEPS Newton steps on the program's KKT
# system per round, none once no residual is above _KKT_TOL; singular values
# below _KKT_RCOND of the largest count as zero, since a support point that
# the grid split in two makes the system singular as the halves meet
_KKT_STEPS = 2
_KKT_TOL = 1e-13
_KKT_RCOND = 1e-5
# each refined point goes in as a column with the four points _KKT_OFFSET
# from it in its chart.  Where fewer than four points carry weight,
# zero-weight columns complete the basis and fix the dual X, and only a
# column this close to a support point makes X stationary there, up to a
# bound loss of order _KKT_OFFSET^2.  A point within _KKT_SEP (as a column)
# of a support point or of an earlier point is dropped with its offsets:
# near-equal columns make a basis ill-conditioned
_KKT_OFFSET = 1e-5 * np.array([0.0, 1.0, 1j, -1.0, -1j])
_KKT_SEP = 1e-6
# the distances from a root of q in the support at which pricing starts
# beside it: 1/3, 1/9 and 1/27 of a grid step in the chart
_CUSP_RADII = _BLOCH_STEP / 3.0 ** np.arange(1, 4)


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
    decomposition of rho is a mixture of such states.  The rows E, the
    quartic q on them and its roots, the tangle-free states as unit rows v,
    are those of the one solve :func:`quartic.range_roots`.  Its objective
    is f(v) = 2 sqrt|q(v)| (sqrt-tau) or 4 |q(v)| (tau), with q the
    hyperdeterminant restricted to the range.  A Hermitian X gives the
    affine function l(v) = v^H X v = a @ (X_00, X_11, Re X_01, -Im X_01),
    with a the constraint row of v (:func:`_chart_basis`).  If
    f >= l - delta on the whole sphere, every decomposition of rho has a
    value of at least lambda_0 X_00 + lambda_1 X_11 - delta (Osterloh,
    Siewert & Uhlmann, PRA 77, 032310 (2008)).

    A point of the sphere is held as its chart point (z, flip), nowhere as
    a unit vector: v is (1, z) up to scale in the chart z = v1 / v0 (flip
    False) and (z, 1) in the chart z = v0 / v1 (flip True: q read
    backwards, X_00 and X_11 swapped, X_01 conjugated).  The roots come in
    through :func:`_chart`, which sets the larger coordinate to 1, so a grid
    point or a root has |z| <= 1 and no chart meets its singular pole; a
    point that a step moves stays in its chart, and the members go out
    through :func:`_unchart`.  Pricing minimizes f - l by Newton steps in
    the charts, the local reduction of semi-infinite programming (Hettich
    & Kortanek, SIAM Rev. 35, 380 (1993)).  With n = 1 + |z|^2 and Q the
    chart's quartic polynomial in z,

        f - l = K |Q(z)|^a / n^b - (x0 + x1 |z|^2 + 2 Re(xi z)) / n,

    (K, a, b) = (2, 1/2, 1) for sqrt-tau and (4, 1, 2) for tau.
    """

    def __init__(self, B: np.ndarray, use_sqrt: bool, E: np.ndarray, q: np.ndarray,
                 roots: np.ndarray):
        self.lam = _abs2(B).sum(-1)
        self.b = np.array([self.lam[0], self.lam[1], 0.0, 0.0])
        self.E, self.q, self.roots, self.use_sqrt = E, q, roots, use_sqrt
        # per chart (z = v1 / v0, then z = v0 / v1) the rows of Q, Q' and Q'' on
        # (1, z, .., z^4)
        self.taylor = np.einsum("djk,ck->cdj", _TAYLOR, np.stack((self.q[::-1], self.q)))

    def columns(self):
        """The linear program's first columns (:class:`_Columns`), the grid
        and the roots of q.  The grid's costs are read from the monomial
        tables of its angles, and a root that :meth:`on_root` reads as one
        costs 0."""
        root_z, root_flip = _chart(self.roots)
        root_f = self.f(root_z, root_flip)
        root_f[self.on_root(root_f)] = 0.0
        held = _Columns(2 * len(_BLOCH_Z))
        mesh = (_BLOCH_POLAR * self.q) @ _BLOCH_AZIMUTH.T
        held.add(_BLOCH_Z, _BLOCH_FLIP, self._of_q(np.abs(mesh.ravel()[_BLOCH_KEPT])), _BLOCH_ROWS)
        held.add(root_z, root_flip, root_f, _chart_basis(root_z, root_flip)[0])
        return held

    def on_root(self, f):
        """Whether objective values f are those of roots of q up to rounding:
        |q| below (``_ROUNDED_ROOT`` / 2)^2, so sqrt-tau below
        ``_ROUNDED_ROOT``, reads as tangle-free.  A root is tangle-free
        whatever the functional, so tau reads the same test."""
        return f < self._of_q((_ROUNDED_ROOT / 2.0) ** 2)

    def f(self, z, flip):
        """Objective at the chart points (z, flip)."""
        return self._of_q(self._abs_q(z, flip))

    def _abs_q(self, z, flip):
        """|q| at the unit vectors of the chart points (z, flip): |Q(z)| / n^2,
        n = 1 + |z|^2, with Q the chart's quartic, its row of ``taylor``,
        evaluated by Horner: the one form off the grid, whose costs
        :meth:`columns` reads from the monomial tables of its angles."""
        a = np.where(flip, self.taylor[1, 0, :, None], self.taylor[0, 0, :, None])
        Q = a[4]
        for k in range(3, -1, -1):
            Q = Q * z + a[k]
        return np.abs(Q) / (1.0 + _abs2(z)) ** 2

    def _of_q(self, a):
        """The objective at |q| = a."""
        return 2.0 * np.sqrt(a) if self.use_sqrt else 4.0 * a

    def bound(self, X, lowest: float) -> float:
        """The lower bound of X, given the lowest f - l found on the sphere."""
        return self.lam[0] * X[0] + self.lam[1] * X[1] - max(0.0, -lowest)

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

    def lowest(self, X, on_grid: np.ndarray, z, flip, cost):
        """Lowest f - l over the grid (``on_grid``, its values there), the
        support's chart points (z, flip) and Newton steps from these and the
        8 lowest grid points; and, as chart points, every point a step moved
        to: the next round's columns.  A support point whose cost reads as a
        root of q (:meth:`on_root`), where f has a cusp, is not a start
        itself: the points ``_CUSP_RADII`` from it along the gradient of l
        are, since f - l can fall off the cusp (for tau, f rises only
        linearly from a root), and the root's own column prices the cusp.

        Each step is the Newton step where the Hessian of f - l is positive
        definite and a steepest-descent step elsewhere, at most one grid
        step long in the chart.  It is taken only where f - l falls, and
        halved where it would not."""
        cusp = self.on_root(cost)
        # f rises off a root equally in every direction, so f - l falls
        # fastest along the gradient of l, 2 conj(l_z)
        l_z = _affine(z[cusp], *self.coefficients(X, flip[cusp])[1:])[1]
        off = z[cusp, None] + np.exp(-1j * np.angle(l_z))[:, None] * _CUSP_RADII
        start = np.argpartition(on_grid, 8)[:8]
        z = np.concatenate((z[~cusp], off.ravel(), _BLOCH_Z[start]))
        flip = np.concatenate((flip[~cusp], np.repeat(flip[cusp], _CUSP_RADII.size),
                               _BLOCH_FLIP[start]))
        coef = self.coefficients(X, flip)
        g, g_z, g_zc, g_zz = self.excess(z, *coef)
        # the root, basic, has f - l = 0: a start beside it that is no lower
        # would only step back to its cusp, and does not start
        beside = np.repeat([False, True, False], (np.count_nonzero(~cusp), off.size, start.size))
        scale = np.where(beside & (g >= 0.0), 0.0, 1.0)
        columns = [(z[:0], flip[:0])]  # a round may take no step
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
        return min(on_grid.min(), g.min()), tuple(np.concatenate(v) for v in zip(*columns))

    def _refine(self, X, w, z, flip, a, cost):
        """Newton steps on the program's KKT system from its support, the
        chart points (z, flip), with their weights w, their constraint rows
        a and costs, both as the program holds them, and the dual X; returns,
        as chart points with their constraint rows, each point the steps
        reach followed by its ``_KKT_OFFSET`` points (columns for the
        program, not a solution), and for each such point the index of the
        support point it moved from.

        The unknowns are X, w and the chart points z_k of the support points
        off the roots of q, each in its own chart; a point whose cost reads
        as a root (:meth:`on_root`) holds still.  With
        b = (lambda_0, lambda_1, 0, 0) and a(v) the constraint row
        (:func:`_chart_basis`), the rows are the mixing
        sum_k w_k a(v_k) = b, the complementarity f(v_k) - a(v_k) @ X = 0 at
        every support point (a point that holds still keeps its row and its
        cost) and the stationarity of f - l in each moving point's chart.
        Each step solves the linearization by least squares, so where the
        system is singular (an affine face of the roof, where the optimum is
        not unique, or two support points that meet) the step is the
        least-norm one.  At most ``_KKT_STEPS`` steps are taken, each with
        one evaluation of the moving points' rows and of f - l, none once
        every residual is within ``_KKT_TOL``; a point that is not finite is
        dropped.  The rows of the points reached and of their offsets are
        evaluated once, for the separation test and the columns alike."""
        move = ~self.on_root(cost)
        support, A = a, a.copy()
        z, flip, taylor = z[move], flip[move], self.taylor[flip[move].astype(int)]
        k, m = len(w), len(z)
        # the unknowns (J's columns) and the residuals F (its rows) come in
        # one order: X and the mixing, w and the complementarity, then Re z
        # (i) and Im z (j) of the moving points and their stationarity; ``at``
        # are the moving points' complementarity rows
        i = 4 + k + np.arange(m)
        j, at = i + m, 4 + np.flatnonzero(move)
        J = np.zeros((4 + k + 2 * m,) * 2)
        moved = False
        for _ in range(_KKT_STEPS if m else 0):  # with no point to move, none to propose
            a, a_s, a_t = _chart_basis(z, flip)
            A[move] = a
            g, g_z, g_zc, g_zz = self.excess(z, taylor, *self.coefficients(X, flip)[1:])
            slack = cost - A @ X
            slack[move] = g
            F = np.concatenate((A.T @ w - self.b, slack, 2.0 * g_z.real, -2.0 * g_z.imag))
            if not np.isfinite(F).all() or np.abs(F).max() <= _KKT_TOL:
                break
            J[:4, 4:4 + k], J[4:4 + k, :4] = A.T, -A
            J[:4, i], J[:4, j] = w[move] * a_s.T, w[move] * a_t.T
            J[at, i], J[at, j] = F[i], F[j]
            J[i, :4], J[j, :4] = -a_s, -a_t
            J[i, i], J[j, j] = 2.0 * (g_zc + g_zz.real), 2.0 * (g_zc - g_zz.real)
            J[i, j] = J[j, i] = -2.0 * g_zz.imag
            if not np.isfinite(J).all():
                break
            step = np.linalg.lstsq(J, -F, rcond=_KKT_RCOND)[0]
            X, w, z = X + step[:4], w + step[4:4 + k], z + step[i] + 1j * step[j]
            moved = True
        kept = np.isfinite(z) & moved
        origin = np.flatnonzero(move)[kept]
        n = _KKT_OFFSET.size
        z, flip = (z[kept, None] + _KKT_OFFSET).ravel(), np.repeat(flip[kept], n)
        a = _chart_basis(z, flip)[0]
        # a point near a support point or an earlier point goes with its
        # offsets: they are near that point's
        near = ((a[::n, None] - np.concatenate((support, a[::n]))) ** 2).sum(-1) <= _KKT_SEP ** 2
        fresh = ~np.tril(near, k - 1).any(axis=1)
        keep = np.repeat(fresh, n)
        return (z[keep], flip[keep], a[keep]), origin[fresh]


# --------------------------------------------------------------------------
# rank-2 roof as a linear program over the range's Bloch sphere

_LP_ROUNDS = 20
# the program's own gap at which rounds stop: half of _CERT_GAP leaves the
# other half for the rounding of the decomposition's members
_LP_GAP = _CERT_GAP / 2
# the grid columns of e0, e1, (e0 + e1)/sqrt 2 and (e0 + i e1)/sqrt 2: their
# indices in the 61 x 120 mesh, less the 119 pole points dropped before them.
# The weights (lambda_0, lambda_1, 0, 0) on them are a feasible basic solution
_LP_BASIS = np.array([119, 60 * 120, 30 * 120, 30 * 120 + 30]) - 119
_LP_PIVOTS = 200     # pivots per round
_LP_TOL = 1e-12      # least negative reduced cost, and least ratio-test pivot
_LP_COND = 1e6       # largest condition number of a start basis from the refinement
# how far a lower bound may sit above a decomposition's value from rounding
# alone; further above, pricing missed a point and the bound is dropped
_BOUND_SLACK = 1e-9


def _simplex(cost, columns, b, basis):
    """Revised simplex for min cost @ w, columns @ w = b, w >= 0, from the
    feasible ``basis`` (4 column indices, updated in place), with
    ``columns`` the constraint rows as the columns of a (4, n) array: the
    most negative reduced cost enters, and the ratio test's ties go to the
    lowest index.  Each pivot inverts the 4 x 4 basis once and reads the
    dual X, the basic weights and the entering direction from that inverse.
    Returns the basic weights, the dual X and the reduced costs; raises
    LinAlgError on a singular basis or after ``_LP_PIVOTS``.  The rank-2
    program calls it, and so does the zero fit's phase one
    (:func:`_zero_decomposition`)."""
    for _ in range(_LP_PIVOTS + 1):
        A, c = columns[:, basis].T, cost[basis]
        inv = np.linalg.inv(A)
        # a refinement step takes the dual to rounding, as a solve would: from
        # the inverse alone a basic column's reduced cost can pass -_LP_TOL
        X = inv @ c
        X += inv @ (c - A @ X)
        reduced = cost - X @ columns
        j = int(reduced.argmin())
        if reduced[j] >= -_LP_TOL:
            return b @ inv, X, reduced
        w, d = b @ inv, columns[:, j] @ inv
        # every cost is >= 0, so no direction is unbounded: d has a positive
        # entry.  In the program every column has trace |v|^2 = 1, so d
        # sums to 1; phase one's two off-diagonal unit columns have trace 0.
        # The test runs on four Python floats, and a tie leaves the lowest index
        ratio = [max(wk, 0.0) / dk if dk > _LP_TOL else np.inf
                 for wk, dk in zip(w.tolist(), d.tolist())]
        basis[min(zip(ratio, basis.tolist(), range(4)))[2]] = j
    raise np.linalg.LinAlgError(f"no optimal basis in {_LP_PIVOTS} pivots")


def _feasible(A, b) -> bool:
    """Whether the basis of the rows A, 4 x 4, is a feasible start for
    :func:`_simplex`: its condition number is below ``_LP_COND`` and its
    weights, A^T w = b, are non-negative."""
    s = np.linalg.svd(A, compute_uv=False)
    return bool(s[-1] * _LP_COND > s[0] and np.linalg.solve(A.T, b).min() >= 0.0)


class _Columns:
    """The program's columns, held once and appended in place: their chart
    points, costs and constraint rows, the rows as the columns of a (4, n)
    array, the layout :func:`_simplex` prices from.  It starts with room for
    ``room`` columns, and the room doubles whenever an append needs more."""

    def __init__(self, room: int):
        self.n = 0
        self._z, self._flip, self._cost, self._A = (np.empty(room, complex), np.empty(room, bool),
                                                    np.empty(room), np.empty((4, room)))

    def add(self, z, flip, cost, rows):
        """Append columns: chart points, costs and their rows, (k, 4)."""
        n, k = self.n, len(z)
        if n + k > len(self._z):  # no room: move to twice the room needed
            z0, flip0, cost0, A0 = self.held()
            self.__init__(2 * (n + k))
            self.add(z0, flip0, cost0, A0.T)
        self._z[n:n + k], self._flip[n:n + k], self._cost[n:n + k] = z, flip, cost
        self._A[:, n:n + k] = rows.T
        self.n = n + k

    def held(self):
        """The chart points, flips, costs and (4, n) rows of the columns."""
        n = self.n
        return self._z[:n], self._flip[:n], self._cost[:n], self._A[:, :n]


def _warm_start(cost, A, b, basis, places, first) -> None:
    """Put the refined points in the simplex's start basis, each in the
    place of the support point it moved from (``places``); their columns are
    ``first``, ``first`` + 5, .., each followed by its four offset columns.
    Where that trial leaves a weight negative (a support point that did not
    move, such as a point the grid split in two, whose other half the
    refinement dropped), one ratio test on the trial's inverse finds the
    offset columns that can take the most negative weight's place with every
    weight non-negative, and of these the one that lowers the cost most
    enters.  The basis chosen replaces ``basis``, in place, where it is
    feasible and well-conditioned (:func:`_feasible`, the one conditioning
    test); otherwise ``basis`` stays."""
    trial = basis.copy()
    points = first + _KKT_OFFSET.size * np.arange(len(places))
    trial[places] = points
    try:
        inv = np.linalg.inv(A[:, trial])
    except np.linalg.LinAlgError:
        return
    w = inv @ b
    p = int(w.argmin())
    if w[p] < 0.0:
        offsets = (points[:, None] + np.arange(1, _KKT_OFFSET.size)).ravel()
        d = inv @ A[:, offsets]
        # entering at p's place with weight t = w_p / d_p leaves w - t d
        # elsewhere: feasible where d_p < 0 and no weight turns negative
        with np.errstate(divide="ignore", invalid="ignore"):
            t = w[p] / d[p]
            after = w[:, None] - t * d
            after[p] = t
            value = cost[trial] @ after + (cost[offsets] - cost[trial[p]]) * t
        ok = (d[p] < 0.0) & (after >= 0.0).all(axis=0)
        if not ok.any():
            return
        trial[p] = offsets[ok][value[ok].argmin()]
    if _feasible(A[:, trial].T, b):
        basis[:] = trial


def _lp_roof(sphere: _Range):
    """The roof of a rank-2 rho = B^T conj(B) as a linear program over its
    range ``sphere``, which holds the quartic and the roots of its one
    solve (:func:`quartic.range_roots`).

    Columns are range vectors v, held as chart points (z, flip), with cost
    f(v) and constraint row a(v), the coordinates of v v^H (see
    :class:`_Range`); weights w >= 0 with sum_k w_k a(v_k) = b, the four
    real rows of sum_k w_k v_k v_k^H = diag(lambda), give a decomposition,
    so the program's value is an upper bound on the roof and its dual X
    gives the affine lower bound.
    :func:`_simplex` solves over the Bloch grid, 7082 points one step apart
    in both angles, and the roots of q (:meth:`_Range.columns`).  Each
    round then moves the basic solution's support by Newton steps on the
    program's KKT system (:meth:`_Range._refine`), appends the points they
    reach as columns and solves again, from the basis with the refined
    points in the places of the support points they moved from where that
    start is feasible, after at most one ratio test over their offset
    columns, and from the last basis otherwise (:func:`_warm_start`);
    prices that solution's dual X by Newton steps on f - l from the support
    (beside it, where it is a root of q) and the lowest grid points
    (:meth:`_Range.lowest`); and appends the points those reached, until
    the program's value is within ``_LP_GAP`` of the bound or after
    ``_LP_ROUNDS``.  The columns are held once (:class:`_Columns`), and
    each point's cost and row are evaluated once, when it becomes a
    column.  The bound is priced at the simplex's own dual alone, so it
    holds, and the decomposition mixes back, whether or not the refinement
    converged.

    Returns (W, bound), or None when the simplex fails or the weights,
    solved on the final support, miss b by ``_FIT_TOL`` or more or have one
    below -``_SUPPORT``: ``W`` holds the at most 4 sub-normalized members of
    the basic solution, (k, 8); ``bound`` is the lower bound, which holds
    to working precision (its offset is a numerical minimum), not as a
    proof.  The members are the support's chart points read back as unit
    vectors (:func:`_unchart`).
    """
    held = sphere.columns()
    z, flip, cost, A = held.held()
    basis, b = _LP_BASIS.copy(), sphere.b
    for _ in range(_LP_ROUNDS):
        try:
            w, X, reduced = _simplex(cost, A, b, basis)
            at = np.flatnonzero(w > 0.0)
            support = basis[at]
            (new_z, new_flip, rows), origin = sphere._refine(
                X, w[at], z[support], flip[support], A[:, support].T, cost[support])
            if len(new_z):
                first = held.n
                held.add(new_z, new_flip, sphere.f(new_z, new_flip), rows)
                z, flip, cost, A = held.held()
                _warm_start(cost, A, b, basis, at[origin], first)
                w, X, reduced = _simplex(cost, A, b, basis)
        except np.linalg.LinAlgError:
            return None
        support = basis[w > 0.0]
        lowest, visited = sphere.lowest(X, reduced[:len(_BLOCH_Z)], z[support], flip[support],
                                        cost[support])
        bound = sphere.bound(X, min(lowest, reduced.min()))
        if cost[basis] @ w - bound <= _LP_GAP:
            break
        held.add(*visited, sphere.f(*visited), _chart_basis(*visited)[0])
        z, flip, cost, A = held.held()
    # the basic solution's weights, solved on its support to rounding; weights
    # that miss b, or are negative beyond rounding, decline
    A = A[:, support]
    w = np.linalg.lstsq(A, b, rcond=None)[0]
    if w.min() < -_SUPPORT or np.linalg.norm(A @ w - b) >= _FIT_TOL:
        return None
    V = _unchart(z[support], flip[support])
    return (np.sqrt(np.maximum(w, 0.0))[:, None] * V) @ sphere.E, float(bound)


# --------------------------------------------------------------------------
# projected-gradient local search, every start of a solve in lock step

_ETA0, _ETA_MAX, _ETA_MIN = 0.2, 2.0, 1e-15
_ARMIJO = 1e-4
_STALL_TOL = 1e-9  # an accepted step that gains less ends its smoothing level
_GRAD_FLOOR = 1e-26
_H_BYTES = 2 ** 23  # the inverse Hessians of one lock-step batch: 8 MB, 64 starts at m = r = 8


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


def _real(X: np.ndarray) -> np.ndarray:
    """The real view (k, 2mr) of each start's (m, r) block, C-contiguous X."""
    return X.view(np.float64).reshape(len(X), -1)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y per row of two (k, n) real views."""
    return (x * y).sum(-1)


def _bfgs(H: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray, fresh: np.ndarray,
          kept: np.ndarray) -> None:
    """BFGS update of the inverse Hessians H (k, n, n), in place, from the
    steps s and gradient changes y (k, n), with sy = s . y > 0:

        H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T,  rho = 1 / sy,

    added as the rank-2 product [s, v] [v; s] with v = c/2 s - rho H y and
    c = rho (1 + rho y^T H y), so that H y = s after it.  Where ``fresh``
    (the start holds no H), H is first seeded as (sy / y . y) I; where
    ``kept`` (its H was carried from the last smoothing level), H is first
    rescaled by sy / y^T H y (Oren & Luenberger, Manage. Sci. 20, 845 (1974))."""
    if fresh.any():
        H[fresh] = (sy[fresh] / _dot(y[fresh], y[fresh]))[:, None, None] * np.eye(H.shape[-1])
    Hy = (H @ y[..., None])[..., 0]
    if kept.any():
        scale = sy[kept] / _dot(y[kept], Hy[kept])
        H[kept] *= scale[:, None, None]
        Hy[kept] *= scale[:, None]
    rho = 1.0 / sy
    v = (0.5 * rho * (1.0 + rho * _dot(y, Hy)))[:, None] * s - rho[:, None] * Hy
    H += np.stack((s, v), axis=-1) @ np.stack((v, s), axis=-2)


def _quasi_newton(H: np.ndarray, U: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The quasi-Newton direction -T_U(H g) of each start, g the real view
    of its Riemannian gradient G."""
    Hg = H @ _real(G)[..., None]
    return -_tangent(U, Hg.reshape(G.shape[0], G.shape[1], -1).view(np.complex128))


class _LockStep:
    """Annealed quasi-Newton descent of S starts, advanced together.

    Every start anneals down the one smoothing ladder ``_SCHEDULE``.  At
    each level it takes backtracking steps on the column-orthonormal
    manifold along a direction D: -G when the level opens, then the
    Riemannian BFGS direction (Huang, Gallivan & Absil, SIAM J. Optim. 25,
    1660 (2015)) D = -T_U(H g), with T_U(X) = X - U sym(U^H X) the tangent
    projection and H a dense inverse Hessian over the real view g of G, 2mr
    wide.  After each accepted step, the pair s = eta D (the step taken)
    and y = G - G_prev (the two gradients as held, with no transport)
    updates H by :func:`_bfgs` where s . y > 0, and leaves it where not.
    Where Re<G, D> is not negative, NaN included, D is -G again and H is
    dropped.  A level carries H down from the last: the H a start held
    when that level ended is kept, and its first pair with s . y > 0
    rescales it by s . y / y^T H y before the update; a start with no H
    seeds it there as (s . y / y . y) I.  The trial is the polar retraction
    of U + eta D.  Step size: a level opens at ``eta`` = min(0.2,
    |s_last| / |G|), the length of the last step s that formed a pair (0.2
    before the first), a quasi-Newton direction tries 1, and a gradient
    direction after an accepted step tries 1.4 times the last (at most 2);
    it halves on a rejection or a failed retraction.  Armijo test
    f_trial < f + 1e-4 eta Re<G, D>.  A level ends on a tiny or non-finite
    gradient, an accepted step that gains less than ``_STALL_TOL``, an
    exhausted line search or a spent step budget.  The best exact (eps = 0)
    objective seen at any level boundary is kept, so a smoothing level can
    never lose an already-good iterate.

    One tick makes one trial step for every start in a line search: one
    batched retraction and one batched ``roof_value_grad`` on the trial U.
    The accepted
    trials go straight on to the gradient projection, and a tick whose
    retractions all succeed or whose trials all pass masks nothing.
    Starts share no arithmetic, and every per-start reduction (|G|^2, s . y,
    the slope) sums one start's block in one form, so each start ends
    exactly where it would alone.  H takes S (2mr)^2 floats: 40 KB for 5
    starts at m = r = 4, 6.5 MB for 50 at m = r = 8; :func:`roof_minimize`
    runs its starts in batches of at most ``_H_BYTES`` of H.
    """

    def __init__(self, U0: np.ndarray, B: np.ndarray, use_sqrt: bool, opts: RoofOptions):
        S, m, r = U0.shape
        self.B, self.use_sqrt = B, use_sqrt
        # Det(u B) = T(u, u, u, u) and |u B|^2 = sum_k lam_k |u_k|^2
        self.T, self.lam = range_tensor(B), (B.real * B.real + B.imag * B.imag).sum(-1)
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
        self.D = np.zeros_like(self.U)            # search direction
        self.slope = np.zeros(S)                  # Re<G, D>, negative
        self.searching = np.zeros(S, dtype=bool)  # in a line search
        self.H = np.zeros((S, 2 * m * r, 2 * m * r))  # inverse Hessian, where held or kept
        self.held = np.zeros(S, dtype=bool)       # H is held
        self.kept = np.zeros(S, dtype=bool)       # H is carried from the last level, not yet rescaled
        self.s2 = np.full(S, np.inf)              # s . s of the last step that formed a pair

    def run(self):
        """Returns per start (best W, best exact value)."""
        self._begin(np.arange(len(self.U)))
        while self.searching.any():
            self._tick()
        return self.best_W, self.best_value

    def _begin(self, idx):
        """Open the current smoothing level: a fresh gradient, and the held H
        kept for the level's first positive pair."""
        if idx.size == 0:
            return
        self.steps[idx] = 0
        self.kept[idx] = self.held[idx]
        self.held[idx] = False
        U = self.U[idx]
        self.f[idx], P = kernels.roof_value_grad(U, self.use_sqrt, self.eps[idx], self.T, self.lam)
        self._project(idx, U, P)

    def _project(self, idx, U, P, eta=None):
        """Riemannian gradient G at the starts' U from their Wirtinger
        derivative P, and the next search direction D and step size.  A level
        opens (``eta`` None) on D = -G, at the length of the start's last
        step s (at most ``_ETA0``, which is also the size before the first).
        After an accepted step of size ``eta`` along the held D, the pair
        (s, y) updates H where s . y > 0, and a start that holds H goes along
        its quasi-Newton direction from step size 1, falling back to -G,
        with H dropped, where that does not descend.  A vanishing or
        non-finite gradient ends the level.  ``idx`` is an index array or,
        for every start, ``slice(None)``."""
        if len(U) == 0:
            return
        # E = 2 conj(P): conjugation and doubling are exact
        G = _tangent(U, 2.0 * np.conj(P))
        gn2 = _inner(G, G)
        D, slope = -G, -gn2
        if eta is None:
            # |s_last| / |G|: inf before the first step, NaN on a NaN gradient
            with np.errstate(divide="ignore", invalid="ignore"):
                self.eta[idx] = np.fmin(_ETA0, np.sqrt(self.s2[idx] / gn2))
        else:
            s = _real(eta[:, None, None] * self.D[idx])
            y = _real(G - self.G[idx])
            sy = _dot(s, y)
            self.s2[idx] = _dot(s, s)
            self.eta[idx] = np.minimum(eta * 1.4, _ETA_MAX)
            pair = sy > 0.0                       # False on NaN
            was = self.held[idx]
            held = was | pair                     # the starts that hold H after the update
            if held.any():
                at = idx if held.all() else _sub(idx, held)
                H = self.H[at]                    # a view under a slice
                up = pair[held]
                if up.any():
                    Hu = H if up.all() else H[up]
                    kept = self.kept[idx][pair]
                    _bfgs(Hu, s[pair], y[pair], sy[pair], ~(was[pair] | kept), kept)
                    self.kept[idx] &= ~pair
                    if Hu is not H:
                        H[up] = Hu
                    if not isinstance(at, slice):
                        self.H[at] = H
                D_qn = _quasi_newton(H, U[held], G[held])
                slope_qn = _inner(G[held], D_qn)
                qn = held.copy()
                qn[held] = slope_qn < 0.0         # False on NaN
                D[qn], slope[qn] = D_qn[qn[held]], slope_qn[qn[held]]
                self.eta[_sub(idx, qn)] = 1.0
                self.held[idx] = qn               # H is dropped where it did not descend
        self.G[idx], self.D[idx], self.slope[idx] = G, D, slope
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
        f, P = kernels.roof_value_grad(trial, self.use_sqrt, self.eps[idx], self.T, self.lam)
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
        self.steps[idx] += 1
        done |= self.steps[idx] >= self.budget
        if done.any():
            self._end(_sub(idx, done))
            idx, trial, P, eta = _sub(idx, ~done), trial[~done], P[~done], eta[~done]
        # eta, a view under a slice, is read before _project overwrites it
        self._project(idx, trial, P, eta)


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
    lp = _lp_roof(_Range(B, use_sqrt, E, q, roots))
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
    # the starts advance in batches whose inverse Hessians fit in _H_BYTES;
    # each ends where it would alone, so the batching changes no result
    per = max(1, _H_BYTES // (8 * (2 * m * r) ** 2))
    runs = [_LockStep(np.array(restarts[a:a + per]), B, use_sqrt, opts).run()
            for a in range(0, len(restarts), per)]
    W, values = (np.concatenate(part) for part in zip(*runs))
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
