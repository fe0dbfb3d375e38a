"""The hyperdeterminant restricted to the range of a density matrix.

A density matrix rho = B^T conj(B) is factored into the rows B_k =
sqrt(lambda_k) e_k of its spectral decomposition.  On a rank-2 range the
hyperdeterminant of the range state x w1 + y w2 is a binary quartic in
(x, y), and its roots are the tangle-free range states.  The quartic is
evaluated and its roots solved once per density matrix
(:func:`range_roots`), on the unit rows e_k: on the rows B_k the
coefficients scale as lambda_0^(k/2) lambda_1^((4-k)/2), and on a nearly
rank-1 range the leading one sinks into rounding.  That one solve gives
each distinct root in both frames: as a unit row on the e_k, which the
rank-2 linear program of :mod:`rtangle.lp` reads with the quartic, and as
a row of U on the B_k, which the zero fit of :mod:`rtangle.roof` and the
SLOCC-orbit recognition of :mod:`rtangle.ghzw` read.  The recognition
reads each root frame's quartic from the same q by a linear substitution
(:func:`frame_quartic`).

At every rank, Det(x B) = T(x, x, x, x) for the symmetric tensor T of
:func:`range_tensor`, which the roof search (:mod:`rtangle.search`) builds
once per solve and reads in place of member rows.  At rank 2 the five
coefficients q and the linear program's chart tables stay, as they are
faster there.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np

from . import kernels
from .states import DensityMatrix, spectrum

# the five sample points (x, y) of the quartic, as rows, and as columns
_QPOINTS = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j]])
_QX, _QY = _QPOINTS.T[:, :, None]
_POWERS = np.arange(5)
_QVINV = np.linalg.inv(_QX ** _POWERS * _QY ** _POWERS[::-1])
# max|q| on the unit eigenvectors up to which the quartic is rounding of 0:
# 200 biseparable ranges a (x) span{phi, chi}, where it vanishes, read
# 3.6e-20 to 7.6e-17; every entangled rank-2 range measured reads 2.3e-2 or
# more
_Q_ROUNDING = 1e-15


def eigen_factor(rho: DensityMatrix) -> np.ndarray:
    """Rows sqrt(lambda_k) e_k of the spectral factorization, rank x 8, for
    the eigenvalues above ``EIG_CUTOFF`` (:func:`states.spectrum`): one
    product into a C-contiguous complex array, the layout whose BLAS
    rounding the search's products are fixed to."""
    lam, vec = spectrum(rho)
    return np.multiply(vec.T, np.sqrt(lam)[:, None], order="C")


def range_tensor(B: np.ndarray) -> np.ndarray:
    """The symmetric tensor T of the hyperdeterminant on the rows B_k, r x r
    x r x r: Det(x B) = T(x, x, x, x) for every x in C^r, and dDet(x B)/dx =
    4 T(x, x, x, .).  Each monomial c w_a w_b w_c w_d of
    ``kernels._IDX`` and ``kernels._COEF`` gives c B_a (x) B_b (x) B_c (x) B_d
    over the columns of B; the sum is averaged over the 24 orders of its
    four indices, and every entry is read from its sorted indices, so T is
    symmetric bit for bit."""
    F = B[:, kernels._IDX]
    T = np.einsum("n,in,jn,kn,ln->ijkl", kernels._COEF, *F.transpose(1, 0, 2))
    T = sum(T.transpose(order) for order in permutations(range(4))) / 24.0
    return T[tuple(np.sort(np.indices(T.shape), axis=0))]


def pair_quartic(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Coefficients q_k of Det(x w1 + y w2) = sum_k q_k x^k y^(4-k), (5,);
    for stacked rows (..., 8) one quartic per pair, (..., 5)."""
    W = _QX * w1[..., None, :] + _QY * w2[..., None, :]
    return (_QVINV @ kernels.hyperdet_rows(W)[..., None])[..., 0]


def frame_quartic(q: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The quartic q of Det(x e_0 + y e_1) read in other frames of the same
    pair, by linear substitution: for each 2 x 2 ``F`` of a stack (..., 2, 2),
    the coefficients of Det(x w_0 + y w_1), w_j = F_j0 e_0 + F_j1 e_1,
    (..., 5).  q is evaluated at the sample points of :func:`pair_quartic`
    and interpolated, with no hyperdeterminant call."""
    V = _QPOINTS @ F  # the sample points' coordinates on the e_k
    return ((V[..., :1] ** _POWERS * V[..., 1:] ** _POWERS[::-1]) @ q) @ _QVINV.T


def _norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of V."""
    return np.sqrt((V.real ** 2 + V.imag ** 2).sum(-1))


def range_roots(B: np.ndarray):
    """The range quartic of the rank-2 rho = B^T conj(B) and its roots, in
    one solve: (E, q, roots, dirs).

    E holds the unit rows e_k = B_k / |B_k|, q the coefficients of
    Det(x e_0 + y e_1) (:func:`pair_quartic`), and the distinct roots come
    twice, at most four of them: ``roots`` as unit rows v on E, the
    tangle-free range states v_0 e_0 + v_1 e_1, and ``dirs`` as unit rows d
    of U, the same states d_0 B_0 + d_1 B_1 (d is v_k / |B_k|, normalized).
    The roots t = x / y are the eigenvalues of the companion matrix that
    ``np.roots`` builds, trimmed as it trims: exact trailing zeros are roots
    t = 0, listed last, and the exact leading zeros it drops are gone with
    the near-zero ones (the largest coefficient, 1, stays).  A repeated
    root, at infinity or an exact one, is listed once.  Where the quartic is
    0 up to rounding (max|q| <= ``_Q_ROUNDING``) every range state is
    tangle-free, and both are the unit frame: its four "roots" would be
    those of rounding."""
    norms = _norms(B)
    E = B / norms[:, None]
    q = pair_quartic(E[0], E[1])
    scale = np.abs(q).max()
    if scale <= _Q_ROUNDING:  # entire range is tangle-free
        frame = np.eye(2, dtype=complex)
        return E, q, frame, frame
    poly = q[::-1] / scale  # highest power of t = x/y first
    c = poly.tolist()
    at_infinity = int(abs(c[0]) < 1e-12)  # a root at the pure-e_0 direction
    start, end = at_infinity, len(c)
    while end - start > 1 and abs(c[start]) < 1e-14:  # of a higher multiplicity
        start += 1
    while c[end - 1] == 0:  # as in np.roots, an exact trailing zero is a root t = 0
        end -= 1
    t = [0.0] * (len(c) - end)
    if end - start > 1:
        companion = np.eye(end - start - 1, k=-1, dtype=complex)
        companion[0] = -poly[start + 1:end] / poly[start]
        t = np.linalg.eigvals(companion).tolist() + t
    t = [z for k, z in enumerate(t) if z not in t[:k]]
    # the row (1, 0) at infinity, then (t, 1) at the roots t, each once
    V = np.array([(1.0, 0.0)] * at_infinity + [(z, 1.0) for z in t], complex)
    roots = V / _norms(V)[:, None]
    dirs = roots / norms
    return E, q, roots, dirs / _norms(dirs)[:, None]
