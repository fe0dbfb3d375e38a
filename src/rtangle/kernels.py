"""Hot kernels of the convex-roof search (:mod:`rtangle.search`), in numpy.

Every kernel takes member rows as an ``(m, n)`` complex array, or a stack
``(S, m, n)`` of them, one decomposition per start.  For m >= 2 a stacked
call computes each start exactly as the 2-D call on that start alone
would, bit for bit, so a start's search does not depend on which other
starts share its batch.  A one-member stack ``(S, 1, n)`` rounds
differently from ``(1, n)`` calls in most of the last bits; the roof search
never stacks m = 1, because a rank-1 input needs no search.  2-D calls
return a float objective; stacked calls return one value per start and
accept one smoothing ``eps`` per start.

The hyperdeterminant D of an amplitude row (n = 8) is one gather of its 12
monomials' four factors and one contraction with their coefficients
(:func:`hyperdet_rows`).  The value-and-gradient kernel
:func:`roof_value_grad` reads D instead from a frame: rows u in C^r are
coordinates on r orthogonal rows B_k, the member is u B, and D(u B) =
T(u, u, u, u) for the symmetric r x r x r x r tensor T of the frame
(:func:`quartic.range_tensor`).  Three small contractions give T(u, u, u, .),
which is dD/du / 4, and its product with u, which is D.  The roof search
(:mod:`rtangle.search`) passes the frame of the range of rho, so its rows are the m x r factor U
itself; with no frame given the rows are amplitudes, in the identity frame,
whose tensor is built at the first such call.  The derivative ``P`` that
``roof_value_grad`` returns is C-contiguous, shaped as its rows.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# Monomials of the 2x2x2 hyperdeterminant d1 - 2 d2 + 4 d3 over the
# amplitude vector: coefficient and the four (possibly repeated) indices.
# The order is a contract: invariants.hyperdet_parts sums the first 4 as
# d1, the next 6 as d2 and the last 2 as d3.
_IDX = np.array(
    [
        (0, 0, 7, 7), (1, 1, 6, 6), (2, 2, 5, 5), (4, 4, 3, 3),
        (0, 7, 3, 4), (0, 7, 5, 2), (0, 7, 6, 1),
        (3, 4, 5, 2), (3, 4, 6, 1), (5, 2, 6, 1),
        (0, 6, 5, 3), (7, 1, 2, 4),
    ],
    dtype=np.int64,
).T
_COEF = np.array([1, 1, 1, 1, -2, -2, -2, -2, -2, -2, 4, 4], dtype=np.float64)
_COEF_C = _COEF.astype(complex)


_NORM_FLOOR = 1e-30


def hyperdet_rows(W: np.ndarray) -> np.ndarray:
    """Hyperdeterminant of each row of an (m, 8) or (S, m, 8) complex array.

    The gather of the monomials' four factors, (..., m, 12, 4), leaves each
    start's (m, 12) monomials column-major, as ``W[:, idx]`` does for one
    start; the contraction, (m, 12) @ (12,) per start as the 2-D call makes
    it, rounds differently on a row-major copy.
    """
    X = np.atleast_2d(W)[..., _IDX.T]
    return (((X[..., 0] * X[..., 1]) * X[..., 2]) * X[..., 3]) @ _COEF_C


def _row_norms_sq(W: np.ndarray) -> np.ndarray:
    rows = W.reshape(-1, 8)
    n = np.einsum("ij,ij->i", rows.real, rows.real) + np.einsum("ij,ij->i", rows.imag, rows.imag)
    return n.reshape(W.shape[:-1])


def _total(vals: np.ndarray):
    return float(np.sum(vals)) if vals.ndim == 1 else vals.sum(-1)


def _eps_sq(eps, W: np.ndarray):
    """eps^2, broadcast over the rows of each start."""
    eps = np.asarray(eps, dtype=np.float64)
    return (eps * eps)[..., None] if W.ndim > 2 else eps * eps


def roof_value(W: np.ndarray, use_sqrt: bool, eps=0.0):
    """Convex-roof objective on sub-normalized member rows.

    ``use_sqrt`` selects sum_i 2 sqrt|D_i| (degree-2 homogeneous, weights
    implicit); otherwise sum_i 4 |D_i| / n_i with n_i the squared row norm.
    ``eps > 0`` smooths the non-differentiable points for annealed descent.
    """
    D = hyperdet_rows(W)
    absD2 = (D * D.conj()).real
    e2 = _eps_sq(eps, W)
    if use_sqrt:
        return _total(2.0 * (absD2 + e2) ** 0.25)
    n = _row_norms_sq(W)
    alive = n > _NORM_FLOOR
    ns = np.where(alive, n, 1.0)
    val = 4.0 * np.sqrt(absD2 + e2 * ns ** 4) / ns
    return _total(np.where(alive, val, 0.0))


@cache
def _identity_frame() -> np.ndarray:
    """The hyperdeterminant's own tensor, the identity frame's, (8, 512)."""
    from .quartic import range_tensor  # quartic reads the monomials above

    return range_tensor(np.eye(8, dtype=np.complex128)).reshape(8, -1)


def roof_value_grad(U: np.ndarray, use_sqrt: bool, eps=0.0, T=None, lam=None):
    """Objective value and the Wirtinger derivative P = df/dU, shaped as U.

    The rows of U are coordinates in a frame of r orthogonal rows B_k with
    squared norms ``lam`` (unit where None): the members are the rows of
    U B, with D = T(u, u, u, u) for the frame's tensor ``T``, (r, r, r, r)
    (:func:`quartic.range_tensor`), and squared norms sum_k lam_k |u_k|^2.
    With no ``T`` the rows are amplitudes, r = 8.  The objective is that of
    :func:`roof_value` on the members; the steepest-descent direction in
    the coordinates is ``-conj(P)``.
    """
    r = U.shape[-1]
    T = _identity_frame() if T is None else T.reshape(r, -1)
    lead = U.shape[:-1]
    # T(u, u, u, .), contracted one index at a time, each row's own product
    X = (U @ T).reshape(*lead, r, r * r)
    X = (U[..., None, :] @ X).reshape(*lead, r, r)
    X = (U[..., None, :] @ X)[..., 0, :]
    D = (X[..., None, :] @ U[..., None])[..., 0, 0]
    Dc = D.conj()
    absD2 = (D * Dc).real
    e2 = _eps_sq(eps, U)
    if use_sqrt:
        s = absD2 + e2
        f = _total(2.0 * s ** 0.25)
        # df/du = 0.5 s^(-3/4) conj(D) dD/du, dD/du = 4 X; an exactly
        # tangle-free member sits at the cusp, and its subgradient is 0
        c = np.where(s > 0.0, 2.0 * np.maximum(s, 1e-300) ** -0.75, 0.0)
        return f, (c * Dc)[..., None] * X
    dn = U.conj() if lam is None else lam * U.conj()  # dn/du, n the squared member norm
    n = (dn * U).real.sum(-1)
    alive = n > _NORM_FLOOR
    ns = np.where(alive, n, 1.0)
    s = absD2 + e2 * ns ** 4
    sq = np.sqrt(np.maximum(s, 1e-300))
    f = _total(np.where(alive, 4.0 * sq / ns, 0.0))
    # d/du [4 sqrt(s) / n], s = |D|^2 + eps^2 n^4, is
    #   8 conj(D) X / (n sqrt(s)) + (8 eps^2 n^2 / sqrt(s) - 4 sqrt(s) / n^2) dn/du
    a = np.where(alive, 8.0 * Dc / (ns * sq), 0.0)
    b = np.where(alive, 8.0 * e2 * ns * ns / sq - 4.0 * sq / (ns * ns), 0.0)
    return f, a[..., None] * X + b[..., None] * dn


def polar_retract(A: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (polar factor of A), per start
    for a stacked input."""
    u, _, vh = np.linalg.svd(A, full_matrices=False)
    return u @ vh
