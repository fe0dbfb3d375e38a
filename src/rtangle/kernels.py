"""Hot kernels of the convex-roof search, in numpy.

Every kernel takes member rows as an ``(m, 8)`` complex array, or a stack
``(S, m, 8)`` of them, one decomposition per start.  For m >= 2 a stacked
call computes each start exactly as the 2-D call on that start alone
would, bit for bit, so a start's search does not depend on which other
starts share its batch.  A one-member stack ``(S, 1, 8)`` rounds
differently from ``(1, 8)`` calls in most of the last bits; the roof search
never stacks m = 1, because a rank-1 input needs no search.  2-D calls
return a float objective; stacked calls return one value per start and
accept one smoothing ``eps`` per start.

The hyperdeterminant D of a row is one gather of its 12 monomials' four
factors and one contraction with their coefficients.  Its derivative
dD/dpsi is one gather of a (6, 8, 3) table: for each amplitude, the six
monomial terms holding it, each as the triple of its other factors.  The
six terms are scaled by their coefficient and added in monomial order, so
the result equals a loop over the monomials bit for bit.  The derivative
``P`` that ``roof_value_grad`` returns is C-contiguous, shaped as W.
"""
from __future__ import annotations

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


def _grad_table():
    """Leave-one-out factor triples of dD/dpsi_a, (6, 8, 3), and their
    coefficients, (6, 8).

    Entry (k, a) is the k-th (monomial, position) holding amplitude a, in
    monomial order: the indices of the monomial's other three factors, in
    their order, and the monomial's coefficient.
    """
    held = _IDX.T.ravel()
    triples = np.empty((6, 8, 3), dtype=np.int64)
    coef = np.empty((6, 8))
    for a in range(8):
        for k, n in enumerate(np.flatnonzero(held == a)):
            j, pos = divmod(n, 4)
            triples[k, a] = np.delete(_IDX[:, j], pos)
            coef[k, a] = _COEF[j]
    return triples, coef


_TRIPLES, _TRIPLE_COEF = _grad_table()

_NORM_FLOOR = 1e-30


def _factors(W: np.ndarray) -> np.ndarray:
    """The four factors of every monomial, (..., m, 12, 4).

    The gather leaves each start's (m, 12) monomials column-major, as
    ``W[:, idx]`` does for one start; the BLAS contraction in
    :func:`_hyperdet` rounds differently on a row-major copy.
    """
    return W[..., _IDX.T]


def _hyperdet(X: np.ndarray) -> np.ndarray:
    # contracted per start, (m, 12) @ (12,), as the 2-D call does
    return (((X[..., 0] * X[..., 1]) * X[..., 2]) * X[..., 3]) @ _COEF_C


def hyperdet_rows(W: np.ndarray) -> np.ndarray:
    """Hyperdeterminant of each row of an (m, 8) or (S, m, 8) complex array."""
    return _hyperdet(_factors(np.atleast_2d(W)))


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


def roof_value_grad(W: np.ndarray, use_sqrt: bool, eps=0.0):
    """Objective value and the Wirtinger derivative P = df/dpsi, shaped as W.

    The steepest-descent direction in amplitude space is ``-conj(P)``.
    """
    D = _hyperdet(_factors(W))
    # dD/dpsi, one gather of the leave-one-out triples; the coefficients
    # are +-1, 2, 4, so scaling by them is exact in any order
    F = np.take(W, _TRIPLES, axis=-1)
    terms = ((F[..., 0] * F[..., 1]) * F[..., 2]) * _TRIPLE_COEF
    # summed one by one, as a loop over the monomials would; a numpy sum
    # picks its order from the memory layout
    Gd = 0.0
    for k in range(6):
        Gd = Gd + terms[..., k, :]
    absD2 = (D * D.conj()).real
    e2 = _eps_sq(eps, W)
    if use_sqrt:
        s = absD2 + e2
        f = _total(2.0 * s ** 0.25)
        # an exactly tangle-free member sits at the cusp; its subgradient is 0
        coef = np.where(s > 0.0, 0.5 * np.maximum(s, 1e-300) ** -0.75, 0.0)
        P = coef[..., None] * D.conj()[..., None] * Gd
        return f, P
    n = _row_norms_sq(W)
    alive = n > _NORM_FLOOR
    ns = np.where(alive, n, 1.0)
    s = absD2 + e2 * ns ** 4
    sq = np.sqrt(np.maximum(s, 1e-300))
    f = _total(np.where(alive, 4.0 * sq / ns, 0.0))
    # d/dpsi [4 sqrt(|D|^2 + eps^2 n^4) / n]
    #   = (2/(n sqrt(s))) (conj(D) G + 4 eps^2 n^3 conj(psi)) - 4 sqrt(s)/n^2 conj(psi)
    t1 = (2.0 / (ns * sq))[..., None] * (D.conj()[..., None] * Gd
                                         + (4.0 * e2 * ns ** 3)[..., None] * W.conj())
    t2 = (4.0 * sq / ns ** 2)[..., None] * W.conj()
    P = np.where(alive[..., None], t1 - t2, 0.0)
    return f, P


def polar_retract(A: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (polar factor of A), per start
    for a stacked input."""
    u, _, vh = np.linalg.svd(A, full_matrices=False)
    return u @ vh
