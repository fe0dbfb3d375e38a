"""The hyperdeterminant restricted to the range of a density matrix.

A density matrix rho = B^T conj(B) is factored into the rows B_k =
sqrt(lambda_k) e_k of its spectral decomposition.  On a rank-2 range the
hyperdeterminant of the range state x w1 + y w2 is a binary quartic in
(x, y), and its roots are the tangle-free range states.  The roots are
solved once per density matrix, on the unit rows e_k: on the rows B_k the
coefficients scale as lambda_0^(k/2) lambda_1^((4-k)/2), and on a nearly
rank-1 range the leading one sinks into rounding.  The convex-roof
certificates of :mod:`rtangle.roof` and the SLOCC-orbit recognition of
:mod:`rtangle.ghzw` all read that one list of roots.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .states import EIG_CUTOFF, DensityMatrix

# the five sample points (x, y) of the quartic, as columns
_QX, _QY = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j]]).T[:, :, None]
_QVINV = np.linalg.inv(_QX ** np.arange(5) * _QY ** np.arange(4, -1, -1))


def eigen_factor(rho: DensityMatrix) -> np.ndarray:
    """Rows sqrt(lambda_k) e_k of the spectral factorization, rank x 8, for
    the eigenvalues above ``EIG_CUTOFF``."""
    lam, vec = np.linalg.eigh(rho.matrix)
    keep = lam > EIG_CUTOFF
    lam, vec = lam[keep], vec[:, keep]
    return np.ascontiguousarray((vec * np.sqrt(lam)).T.astype(np.complex128))


def pair_quartic(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Coefficients q_k of Det(x w1 + y w2) = sum_k q_k x^k y^(4-k), (5,);
    for stacked rows (..., 8) one quartic per pair, (..., 5)."""
    W = _QX * w1[..., None, :] + _QY * w2[..., None, :]
    return (_QVINV @ kernels.hyperdet_rows(W)[..., None])[..., 0]


def _norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of V."""
    return np.sqrt((V.real ** 2 + V.imag ** 2).sum(-1))


def zero_directions(B: np.ndarray) -> np.ndarray:
    """Unit coefficient vectors d (rows of U) of the tangle-free range
    states d_0 B_0 + d_1 B_1, at most four, as the rows of a (k, 2) array.

    The roots v of Det(v_0 e_0 + v_1 e_1) are solved on the unit rows
    e_k = B_k / |B_k|, and each maps to the row v_k / |B_k|, normalized."""
    norms = _norms(B)
    E = B / norms[:, None]
    q = pair_quartic(E[0], E[1])
    scale = np.abs(q).max()
    if scale == 0.0:  # entire range is tangle-free
        return np.eye(2, dtype=complex)
    poly = q[::-1] / scale  # highest power of t = x/y first
    at_infinity = 0  # roots at the pure-e_0 direction
    if np.abs(poly[0]) < 1e-12:
        at_infinity, poly = 1, poly[1:]
    while len(poly) > 1 and np.abs(poly[0]) < 1e-14:
        at_infinity, poly = at_infinity + 1, poly[1:]
    # the rows (1, 0) at infinity, then (t, 1) at the roots t
    V = np.ones((at_infinity + len(poly) - 1, 2), complex)
    V[:at_infinity, 1] = 0.0
    if len(poly) > 1:
        V[at_infinity:, 0] = np.roots(poly)
    V = V / _norms(V)[:, None] / norms
    return V / _norms(V)[:, None]
