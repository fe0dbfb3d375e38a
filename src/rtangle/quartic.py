"""The hyperdeterminant restricted to the range of a density matrix.

A density matrix rho = B^T conj(B) is factored into the rows B_k =
sqrt(lambda_k) e_k of its spectral decomposition.  On a rank-2 range the
hyperdeterminant of the range state x w1 + y w2 is a binary quartic in
(x, y), and its roots are the tangle-free range states.  The convex-roof
certificates of :mod:`rtangle.roof` and the SLOCC-orbit recognition of
:mod:`rtangle.ghzw` both read these.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .states import EIG_CUTOFF, DensityMatrix

# the five sample points (x, y) of the quartic, as columns
_QX, _QY = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j]]).T[:, :, None]
_QVINV = np.linalg.inv(_QX ** np.arange(5) * _QY ** np.arange(4, -1, -1))


def eigen_factor(rho: DensityMatrix, cutoff: float = EIG_CUTOFF) -> np.ndarray:
    """Rows sqrt(lambda_k) e_k of the spectral factorization, rank x 8."""
    lam, vec = np.linalg.eigh(rho.matrix)
    keep = lam > cutoff
    lam, vec = lam[keep], vec[:, keep]
    return np.ascontiguousarray((vec * np.sqrt(lam)).T.astype(np.complex128))


def pair_quartic(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Coefficients q_k of Det(x w1 + y w2) = sum_k q_k x^k y^(4-k)."""
    return _QVINV @ kernels.hyperdet_rows(_QX * w1 + _QY * w2)


def zero_directions(B: np.ndarray) -> list:
    """Unit coefficient vectors (on rows of U) of tangle-free range states:
    the roots d of Det(d_0 B_0 + d_1 B_1), at most four."""
    q = pair_quartic(B[0], B[1])
    scale = np.abs(q).max()
    if scale == 0.0:  # entire range is tangle-free
        return [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
    q = q / scale
    dirs = []
    poly = q[::-1]  # highest power of t = x/y first
    lead = np.abs(poly[0])
    if lead < 1e-12:  # root at infinity: the pure-b1 direction
        dirs.append(np.array([1.0, 0.0], complex))
        poly = poly[1:]
    while len(poly) > 1 and np.abs(poly[0]) < 1e-14:
        dirs.append(np.array([1.0, 0.0], complex))
        poly = poly[1:]
    if len(poly) > 1:
        for t in np.roots(poly):
            v = np.array([t, 1.0], complex)
            dirs.append(v / np.linalg.norm(v))
    return dirs[:4]
