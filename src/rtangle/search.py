"""The roof search: annealed quasi-Newton descent from random starts.

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
Hessians within 8 MB (:func:`minimize`); they share one smoothing ladder,
each keeps its own step size and inverse Hessian, and each ends bit for bit
where it would if run alone.  The kernel reads the rows u of U through the
range tensor T, Det(u B) = T(u, u, u, u) (:func:`quartic.range_tensor`),
and returns df/dU; the members U B are formed only where a level ends.  It
is found through the :mod:`rtangle.kernels` module at call time, so a
wrapper there sees every call.

The search gives no bound: its value is an upper bound on the roof, by
construction.  :func:`rtangle.roof.roof_minimize` runs it at ranks 3 and
up, and at rank 2 where no certificate's decomposition fits.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .quartic import range_tensor

# the smoothing ladder every start of the search anneals down
_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-13, 0.0)
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
    starts at m = r = 4, 6.5 MB for 50 at m = r = 8; :func:`minimize` runs
    its starts in batches of at most ``_H_BYTES`` of H.
    """

    def __init__(self, U0: np.ndarray, B: np.ndarray, use_sqrt: bool, opts):
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


def minimize(B: np.ndarray, use_sqrt: bool, opts):
    """The search on rho = B^T conj(B) with the options ``opts`` (a
    :class:`rtangle.roof.RoofOptions`): ``opts.restarts`` random starts of
    size ``opts.ensemble_size``, each from its own generator of
    ``opts.seed``.  Returns the lowest start's members W and its index."""
    m, r = opts.ensemble_size, B.shape[0]
    restarts = [np.linalg.qr(g.standard_normal((m, r)) + 1j * g.standard_normal((m, r)))[0]
                for g in (np.random.default_rng([opts.seed, k]) for k in range(opts.restarts))]
    # the starts advance in batches whose inverse Hessians fit in _H_BYTES;
    # each ends where it would alone, so the batching changes no result
    per = max(1, _H_BYTES // (8 * (2 * m * r) ** 2))
    runs = [_LockStep(np.array(restarts[a:a + per]), B, use_sqrt, opts).run()
            for a in range(0, len(restarts), per)]
    W, values = (np.concatenate(part) for part in zip(*runs))
    best = int(np.argmin(values))
    return W[best], best
