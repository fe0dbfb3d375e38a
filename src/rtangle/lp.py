"""The rank-2 roof as a linear program over the range's Bloch sphere.

The roof of a rank-2 rho, for both functionals, as a linear program solved
by a revised simplex (:func:`_simplex`).  Each column is a point of the
sphere held in one coordinate, its chart point: the range vector with its
larger coordinate set to 1 (:class:`_Range`), costed by the chart's quartic
(on the grid, by tables of the quartic's monomials built at import) and
constrained by the coordinates of v v^H.  Its basic solution is a
decomposition of at most 4 members, and its dual is the best affine bound
(Osterloh, Siewert & Uhlmann, PRA 77, 032310 (2008)), so the two bracket
the roof.  It certifies the tau roof of the GHZ/W mixtures and their SLOCC
images, and the sqrt-tau roof of those the closed form does not take.  The
quartic and its roots are those of the one solve
:func:`quartic.range_roots`, on the unit eigenvectors; the program reads
each root as a chart point.

The dual bound's offset is found numerically (grid, roots of the quartic,
Newton steps from the lowest points), so the program certifies to working
precision; it is not a proof.  A program takes about one and a half
milliseconds (the counterexample pair, tau; a third of it the two least
squares steps and the simplex pivots): Newton steps on its optimality
conditions move the support before it is priced, the second solve of a
round starts from the moved support, and most programs close at their
first pricing pass.  Each Newton step evaluates its points once, for all
of their starts at a time.

The simplex and its columns (:func:`_simplex`, :func:`_feasible`,
:class:`_Columns`, :func:`_warm_start`) and the KKT refinement
(:meth:`_Range._refine`) read the number of rows from their inputs, four
here and r^2 at rank r; the chart points and the pricing are rank-2.  The
zero fit of :mod:`rtangle.roof` runs phase one of the same simplex.
"""
from __future__ import annotations

import numpy as np

# residual norm up to which a fit of b counts as exact, and weight up to
# which a fitted member is rounding, not a member
_FIT_TOL = 1e-10
_SUPPORT = 1e-12


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


def _chart_basis(z, flip, blocks=3):
    """The constraint rows a = (|v0|^2, |v1|^2, 2 Re(v0* v1), 2 Im(v0* v1))
    of the unit vectors v = _unchart(z, flip), the coordinates of v v^H, and
    their derivatives in Re z and Im z, as one (3, len(z), 4) array, or its
    first ``blocks``.  In the chart z = v1 / v0, with r = 1 / (1 + |z|^2),
    w = 2 r and u = w z, a = (r, 1 - r, Re u, Im u), whose derivative in
    x = Re z or Im z is (-x w r, x w r, w (e - x u)), e = 1 or i, as a
    complex number in its last two entries.  In the chart z = v0 / v1 the
    row is the same with its first two entries swapped and its last
    negated."""
    r = 1.0 / (1.0 + (z * z.conjugate()).real)
    w = r + r
    u = w * z
    a = np.empty((blocks, len(z), 4))
    pair = a.view(complex)  # the last two entries as one complex number
    a[0, :, 0], a[0, :, 1], pair[0, :, 1] = r, 1.0 - r, u
    if blocks > 1:
        x = np.ascontiguousarray(z).view(float).reshape(-1, 2).T  # Re z and Im z
        a[1:, :, 1] = x * (w * r)
        a[1:, :, 0] = -a[1:, :, 1]
        pair[1:, :, 1] = w * (_UNITS - x * u)
    return np.where(flip[:, None], a @ _FLIP_ROWS, a)


# a chart z = v1 / v0 row as the row of the same point in the chart z = v0 /
# v1: its first two entries swapped and its last negated
_FLIP_ROWS = np.array([[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
_UNITS = np.array([[1.0], [1j]])  # d z / d Re z and d z / d Im z
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
# e^(i phi) sin(theta/2)), and their constraint rows
_BLOCH_Z, _BLOCH_FLIP = _chart(np.stack(
    (np.cos(_BLOCH_GRID[:, 0] / 2.0), np.exp(1j * _BLOCH_GRID[:, 1]) * np.sin(_BLOCH_GRID[:, 0] / 2.0)),
    axis=-1))
_BLOCH_ROWS = np.ascontiguousarray(_chart_basis(_BLOCH_Z, _BLOCH_FLIP, 1)[0].T).T
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
        held = _Columns(len(self.b), 2 * len(_BLOCH_Z))
        mesh = (_BLOCH_POLAR * self.q) @ _BLOCH_AZIMUTH.T
        held.add(_BLOCH_Z, _BLOCH_FLIP, self._of_q(np.abs(mesh.ravel()[_BLOCH_KEPT])), _BLOCH_ROWS)
        held.add(root_z, root_flip, root_f, _chart_basis(root_z, root_flip, 1)[0])
        return held

    def on_root(self, f):
        """Whether objective values f are those of roots of q up to rounding:
        |q| below (``_ROUNDED_ROOT`` / 2)^2, so sqrt-tau below
        ``_ROUNDED_ROOT``, reads as tangle-free.  A root is tangle-free
        whatever the functional, so tau reads the same test."""
        return f < self._of_q((_ROUNDED_ROOT / 2.0) ** 2)

    def f(self, z, flip):
        """Objective at the chart points (z, flip), of |q| at their unit
        vectors: |Q(z)| / n^2, n = 1 + |z|^2, with Q the chart's quartic, its
        row of ``taylor``, evaluated by Horner: the one form off the grid,
        whose costs :meth:`columns` reads from the monomial tables of its
        angles."""
        a = np.where(flip, self.taylor[1, 0, :, None], self.taylor[0, 0, :, None])
        Q = a[4]
        for k in range(3, -1, -1):
            Q = Q * z + a[k]
        return self._of_q(np.abs(Q) / (1.0 + _abs2(z)) ** 2)

    def _of_q(self, a):
        """The objective at |q| = a."""
        return 2.0 * np.sqrt(a) if self.use_sqrt else 4.0 * a

    def bound(self, X, lowest: float) -> float:
        """The lower bound of X, given the lowest f - l found on the sphere."""
        return self.lam[0] * X[0] + self.lam[1] * X[1] - max(0.0, -lowest)

    def coefficients(self, X, flip):
        """The coefficients of f - l in the charts ``flip``, for the dual X:
        per point the rows of Q, Q' and Q'' on (1, z, .., z^4), (n, 3, 5),
        then d = x0 - x1, x1 and xi of the chart's l n = x0 + x1 |z|^2 +
        2 Re(xi z)."""
        X0, X1, X2, X3 = X.tolist()
        return (self.taylor[flip.astype(int)], np.where(flip, X1 - X0, X0 - X1),
                np.where(flip, X0, X1), np.where(flip, complex(X2, X3), complex(X2, -X3)))

    def excess(self, z, taylor, d, x1, xi):
        """One evaluation of g = f - l at chart points z, given their
        charts' coefficients (:meth:`coefficients`): the stack (z, g, g_z,
        g_zz*, g_zz), (5, len(z)) complex, of the points, g and its
        Wirtinger derivatives g_z, g_zz* (d^2 g / dz dz*, real) and g_zz.
        The gradient in (Re z, Im z) is 2 conj(g_z) as a complex number, and
        the Hessian is 2 [[g_zz* + Re g_zz, -Im g_zz], [-Im g_zz, g_zz* -
        Re g_zz]].  The derivatives hold off the roots of Q, where f is not
        smooth and they are not finite: the callers silence the warnings.
        It all comes from r = 1 / n, n = 1 + |z|^2, one evaluation of Q, Q'
        and Q'' and the chart's l: with p = l - x1 = (d + 2 Re(xi z)) r,
        l_z = (xi - p z*) r and l_zz* = (d - 2 p) r^2."""
        zc = z.conjugate()
        r = 1.0 / (1.0 + (z * zc).real)
        Q = (taylor @ (z[:, None] ** _POWERS)[..., None])[..., 0].T
        h, b = (0.25, 1.0) if self.use_sqrt else (0.5, 2.0)  # a / 2 and b
        R, rr, zr = Q[1:] / Q[0], r * r, zc * r
        f = self._of_q(np.abs(Q[0])) * (r if self.use_sqrt else rr)
        # f = K exp(phi), phi = a log|Q| - b log n, and log|Q| is harmonic
        phi_z = h * R[0] - b * zr
        p = (d + 2.0 * (xi * z).real) * r
        l_z = (xi - p * zc) * r
        return np.array((z, f - x1 - p, f * phi_z - l_z,
                         f * ((phi_z * phi_z.conjugate()).real - b * rr) - (d - 2.0 * p) * rr,
                         f * (h * (R[1] - R[0] * R[0]) + b * zr * zr + phi_z * phi_z) + 2.0 * zr * l_z))

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
        halved where it would not.  Each start's state, its point, g and
        g's derivatives, is a column of one stack (:meth:`excess`), so a
        step is taken with one ``np.where``."""
        cusp = self.on_root(cost)
        start = np.argpartition(on_grid, 8)[:8]
        roots, k = (z[cusp], flip[cusp]), np.count_nonzero(~cusp)
        z, flip = np.concatenate((z[~cusp], _BLOCH_Z[start])), np.concatenate((flip[~cusp], _BLOCH_FLIP[start]))
        if len(roots[0]):
            # f rises off a root equally in every direction, so f - l falls
            # fastest along the gradient of l, l_s + i l_t
            l_s, l_t = _chart_basis(*roots)[1:] @ X
            off = roots[0][:, None] + np.exp(1j * np.angle(l_s + 1j * l_t))[:, None] * _CUSP_RADII
            z, flip = np.insert(z, k, off.ravel()), np.insert(flip, k, np.repeat(roots[1], _CUSP_RADII.size))
        # the root, basic, has f - l = 0: a start beside it that is no lower
        # would only step back to its cusp, and does not start
        scale, beside = np.ones(len(z)), slice(k, len(z) - 8)
        # the points each step moved to, the next round's columns
        moved, taken = np.empty((_NEWTON_STEPS, len(z)), complex), np.zeros((_NEWTON_STEPS, len(z)), bool)
        coef = self.coefficients(X, flip)
        with np.errstate(divide="ignore", invalid="ignore"):
            state = self.excess(z, *coef)
            scale[beside][state[1, beside].real >= 0.0] = 0.0
            for n in range(_NEWTON_STEPS):
                z, g, g_z, g_zc, g_zz = state
                g_zc, down = g_zc.real, np.conj(g_z)
                # the Newton step d solves g_zz* d + conj(g_zz) conj(d) = -conj(g_z)
                det = g_zc * g_zc - (g_zz * np.conj(g_zz)).real
                step = np.where((g_zc > 0.0) & (det > 0.0), (np.conj(g_zz * down) - g_zc * down) / det,
                                down * (-_BLOCH_STEP / np.abs(g_z)))
                length = np.abs(step)
                step *= scale * np.minimum(1.0, _BLOCH_STEP / length)
                live = (length * scale > _NEWTON_TOL) & (scale >= 0.5 ** _NEWTON_HALVINGS)
                if not live.any():
                    break
                # a start that is not live may be evaluated, but is not moved
                new = self.excess(z + step, *coef)
                taken[n] = better = live & (new[1].real < g.real)
                state = np.where(better, new, state)
                moved[n] = state[0]
                scale = np.where(better, 1.0, 0.5 * scale)
        return min(on_grid.min(), state[1].real.min()), (moved[taken], np.broadcast_to(flip, taken.shape)[taken])

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
        z, flip = z[move], flip[move]
        d, k, m = len(X), len(w), len(z)
        # the unknowns (J's columns) and the residuals F (its rows) come in
        # one order: X and the mixing (d, the program's rows), w and the
        # complementarity, then Re z and Im z of the moving points and their
        # stationarity.  ``cells`` are where g's gradient and Hessian go in J:
        # the moving points' complementarity rows (``at``), then the 2 x 2
        # blocks of their stationarity rows (Re z at i, Im z at j)
        at, i = d + np.flatnonzero(move), d + k + np.arange(m)
        j = i + m
        cells = (np.concatenate((at, at, i, j, i, j)), np.concatenate((i, j, i, j, j, i)))
        J, moved = np.zeros((d + k + 2 * m,) * 2), False
        for _ in range(_KKT_STEPS if m else 0):  # with no point to move, none to propose
            a = _chart_basis(z, flip)
            with np.errstate(divide="ignore", invalid="ignore"):
                _, g, g_z, g_zc, g_zz = self.excess(z, *self.coefficients(X, flip))
            A[move] = a[0]
            slack = cost - A @ X
            slack[move] = g.real
            grad = 2.0 * np.conj(g_z)  # (d/d Re z, d/d Im z) of g as one complex number
            F = np.concatenate((A.T @ w - self.b, slack, grad.real, grad.imag))
            if not _KKT_TOL < np.abs(F).max() < np.inf:  # converged, or not finite
                break
            J[:d, d:d + k], J[d:d + k, :d] = A.T, -A
            J[d + k:, :d] = -a[1:].reshape(-1, d)
            J[:d, d + k:] = (w[move, None] * a[1:]).reshape(-1, d).T
            g_zc, g_zz = 2.0 * g_zc.real, 2.0 * g_zz
            J[cells] = np.concatenate((grad.real, grad.imag, g_zc + g_zz.real, g_zc - g_zz.real,
                                       -g_zz.imag, -g_zz.imag))
            if not np.isfinite(J).all():
                break
            step = np.linalg.lstsq(J, -F, rcond=_KKT_RCOND)[0]
            X, w, z = X + step[:d], w + step[d:d + k], z + step[i] + 1j * step[j]
            moved = True
        kept = np.isfinite(z) & moved
        origin = np.flatnonzero(move)[kept]
        n = _KKT_OFFSET.size
        z, flip = (z[kept, None] + _KKT_OFFSET).ravel(), np.repeat(flip[kept], n)
        a = _chart_basis(z, flip, 1)[0]
        # a point near a support point or an earlier point goes with its
        # offsets: they are near that point's
        near = ((a[::n, None] - np.concatenate((support, a[::n]))) ** 2).sum(-1) <= _KKT_SEP ** 2
        fresh = ~(near & (np.arange(near.shape[1]) < np.arange(k, near.shape[1])[:, None])).any(axis=1)
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


def _simplex(cost, columns, b, basis):
    """Revised simplex for min cost @ w, columns @ w = b, w >= 0, from the
    feasible ``basis`` (k column indices, updated in place), with
    ``columns`` the k constraint rows as the columns of a (k, n) array: the
    most negative reduced cost enters, and the ratio test's ties go to the
    lowest index.  Each pivot inverts the k x k basis once and reads the
    dual X, the basic weights and the entering direction from that inverse.
    Returns the basic weights, the dual X and the reduced costs; raises
    LinAlgError on a singular basis or after ``_LP_PIVOTS``.  The rank-2
    program calls it, and so does the zero fit's phase one
    (:func:`rtangle.roof._zero_decomposition`)."""
    for _ in range(_LP_PIVOTS + 1):
        A, c = columns[:, basis].T, cost[basis]
        inv = np.linalg.inv(A)
        # a refinement step takes the dual to rounding, as a solve would: from
        # the inverse alone a basic column's reduced cost can pass -_LP_TOL
        X = inv @ c
        X += inv @ (c - A @ X)
        reduced = X @ columns
        np.subtract(cost, reduced, out=reduced)  # one temporary of the columns' size, not two
        j = int(reduced.argmin())
        if reduced[j] >= -_LP_TOL:
            return b @ inv, X, reduced
        w, d = b @ inv, columns[:, j] @ inv
        # every cost is >= 0, so no direction is unbounded: d has a positive
        # entry.  In the program every column has trace |v|^2 = 1, so d
        # sums to 1; phase one's two off-diagonal unit columns have trace 0.
        # The test runs on k Python floats, and a tie leaves the lowest index
        ratio = [max(wk, 0.0) / dk if dk > _LP_TOL else np.inf
                 for wk, dk in zip(w.tolist(), d.tolist())]
        basis[min(zip(ratio, basis.tolist(), range(len(ratio))))[2]] = j
    raise np.linalg.LinAlgError(f"no optimal basis in {_LP_PIVOTS} pivots")


def _feasible(A, b) -> bool:
    """Whether the basis of the rows A, k x k, is a feasible start for
    :func:`_simplex`: its condition number is below ``_LP_COND`` and its
    weights, A^T w = b, are non-negative."""
    s = np.linalg.svd(A, compute_uv=False)
    return bool(s[-1] * _LP_COND > s[0] and np.linalg.solve(A.T, b).min() >= 0.0)


class _Columns:
    """The program's columns, held once and appended in place: their chart
    points, costs and ``rows`` constraint rows, the rows as the columns of
    a (rows, n) array, the layout :func:`_simplex` prices from.  It holds
    room for ``room`` columns and never grows: :meth:`_Range.columns` gives
    it twice the grid, more than a program can add (at most 4 roots, then
    per round at most 4 refined points with their offsets and one column
    per Newton step from each of at most 20 pricing starts)."""

    def __init__(self, rows: int, room: int):
        self.n = 0
        self._z, self._flip, self._cost, self._A = (np.empty(room, complex), np.empty(room, bool),
                                                    np.empty(room), np.empty((rows, room)))

    def add(self, z, flip, cost, a):
        """Append columns: chart points, costs and their constraint rows a,
        (k, rows)."""
        n, k = self.n, len(z)
        self._z[n:n + k], self._flip[n:n + k], self._cost[n:n + k] = z, flip, cost
        self._A[:, n:n + k] = a.T
        self.n = n + k

    def held(self):
        """The chart points, flips, costs and (rows, n) rows of the columns."""
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
                held.add(new_z, new_flip, sphere.f(new_z, new_flip), rows)
                z, flip, cost, A = held.held()
                _warm_start(cost, A, b, basis, at[origin], held.n - len(new_z))
                w, X, reduced = _simplex(cost, A, b, basis)
        except np.linalg.LinAlgError:
            return None
        support = basis[w > 0.0]
        lowest, visited = sphere.lowest(X, reduced[:len(_BLOCH_Z)], z[support], flip[support],
                                        cost[support])
        bound = sphere.bound(X, min(lowest, reduced.min()))
        if cost[basis] @ w - bound <= _LP_GAP:
            break
        held.add(*visited, sphere.f(*visited), _chart_basis(*visited, 1)[0])
        z, flip, cost, A = held.held()
    # the basic solution's weights, solved on its support to rounding; weights
    # that miss b, or are negative beyond rounding, decline
    A = A[:, support]
    w = np.linalg.lstsq(A, b, rcond=None)[0]
    if w.min() < -_SUPPORT or np.linalg.norm(A @ w - b) >= _FIT_TOL:
        return None
    V = _unchart(z[support], flip[support])
    return (np.sqrt(np.maximum(w, 0.0))[:, None] * V) @ sphere.E, float(bound)

