"""The convex-roof kernels: values, derivatives, guards and stacked calls."""
import itertools

import numpy as np
import pytest

from rtangle import kernels
from rtangle.quartic import range_tensor


def _random_rows(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hyperdet_grad_loop(W):
    """Reference dD/dpsi, accumulated monomial by monomial."""
    G = np.zeros_like(W)
    for coef, (a, b, c, d) in zip(kernels._COEF, kernels._IDX.T):
        pa, pb, pc, pd = W[:, a], W[:, b], W[:, c], W[:, d]
        G[:, a] += coef * pb * pc * pd
        G[:, b] += coef * pa * pc * pd
        G[:, c] += coef * pa * pb * pd
        G[:, d] += coef * pa * pb * pc
    return G


def test_hyperdet_ghz_value():
    ghz = np.zeros((1, 8), complex)
    ghz[0, 0] = ghz[0, 7] = 1 / np.sqrt(2)
    assert abs(kernels.hyperdet_rows(ghz)[0] - 0.25) < 1e-15


def _range_rows(rng, r, lam=None):
    """Rows sqrt(lam_k) e_k of a random rank-r range, e_k orthonormal."""
    lam = rng.dirichlet(np.ones(r)) if lam is None else np.asarray(lam)
    e = np.linalg.qr(_random_rows(rng, 8, r))[0].T
    return np.sqrt(lam)[:, None] * e


def _biseparable_rows(rng, r):
    """Orthogonal rows of a (x) span of r two-qubit states: Det is 0 on all of it."""
    a = _random_rows(rng, 2)
    e = np.linalg.qr(_random_rows(rng, 4, r))[0].T
    return np.linalg.qr(np.kron(a, e).T)[0].T * rng.uniform(0.2, 1.0, (r, 1))


def _frame(B):
    return range_tensor(B), (B.real ** 2 + B.imag ** 2).sum(-1)


def _det_scale(W):
    """sum_n |c_n| |w_a w_b w_c w_d| over the monomials: the rounding scale of Det(w)."""
    return np.prod(np.abs(W)[..., kernels._IDX], axis=-2) @ np.abs(kernels._COEF)


def _frames(rng, biseparable=True):
    """(label, B): random ranges at r = 2, 3, 4 and 8, a near-rank-1 one and
    biseparable ones."""
    yield from ((f"rank {r}", _range_rows(rng, r)) for r in (2, 3, 4, 8))
    yield "near rank 1", _range_rows(rng, 3, [1.0 - 2e-10, 1e-10, 1e-10])
    if biseparable:
        yield from ((f"biseparable rank {r}", _biseparable_rows(rng, r)) for r in (2, 3))


def test_range_tensor_reads_the_hyperdeterminant():
    """T(x, x, x, x) = Det(x B) to rounding, on random points of each range:
    within 4e-15 of the monomials' absolute sum at the row |x| |B| (the
    near-rank-1 range reads 1.3e-15 of it, the others at most 2.6e-16)."""
    rng = np.random.default_rng(3)
    for label, B in _frames(rng):
        T = range_tensor(B)
        x = _random_rows(rng, 20, len(B))
        Q = np.einsum("ijkl,ni,nj,nk,nl->n", T, x, x, x, x)
        scale = _det_scale(np.abs(x) @ np.abs(B))
        assert np.all(np.abs(Q - kernels.hyperdet_rows(x @ B)) <= 4e-15 * scale), label


def test_range_tensor_is_symmetric_and_its_contraction_is_the_gradient():
    """T is symmetric bit for bit, and 4 T(x, x, x, .) is dDet(x B)/dx:
    central differences of T(x, x, x, x) along each coordinate match it."""
    rng = np.random.default_rng(4)
    h = 1e-5
    for label, B in _frames(rng):
        T = range_tensor(B)
        for order in itertools.permutations(range(4)):
            assert np.array_equal(T, T.transpose(order)), label
        x = _random_rows(rng, len(B))
        grad = 4.0 * np.einsum("ijkl,i,j,k->l", T, x, x, x)
        Q = lambda y: np.einsum("ijkl,i,j,k,l->", T, y, y, y, y)  # noqa: E731
        step = h * np.eye(len(B))
        central = np.array([(Q(x + e) - Q(x - e)) / (2 * h) for e in step])
        scale = np.abs(T).sum() * np.abs(x).max() ** 3
        assert np.abs(central - grad).max() <= 1e-8 * scale, label


def test_identity_frame_gradient_matches_monomial_loop():
    """With no frame the kernel reads amplitude rows through the identity
    frame's tensor: its sqrt-tau P matches the monomial loop's dD/dpsi to
    rounding, within 1e-15 of coef |D| |w|_1^3, on one start and on a stack;
    P stays C-contiguous."""
    rng = np.random.default_rng(1)
    for m in range(1, 6):
        for W in (_random_rows(rng, m, 8), _random_rows(rng, 5, m, 8)):
            eps = 1e-3 if W.ndim == 2 else np.array([0.0, 1e-13, 1e-6, 1e-3, 1e-2])
            G = np.array([_hyperdet_grad_loop(w) for w in W.reshape(-1, m, 8)]).reshape(W.shape)
            D = kernels.hyperdet_rows(W)
            s = (D * D.conj()).real + kernels._eps_sq(eps, W)
            coef = np.where(s > 0.0, 0.5 * np.maximum(s, 1e-300) ** -0.75, 0.0)
            _, P = kernels.roof_value_grad(W, True, eps)
            scale = (coef * np.abs(D))[..., None] * np.abs(W).sum(-1, keepdims=True) ** 3
            assert np.all(np.abs(P - coef[..., None] * D.conj()[..., None] * G) <= 1e-15 * scale)
            for use_sqrt in (True, False):
                _, P = kernels.roof_value_grad(W, use_sqrt, eps)
                assert P.flags.c_contiguous and P.view(np.float64).shape[-1] == 16


def test_value_grad_consistent_with_value():
    rng = np.random.default_rng(6)
    W = _random_rows(rng, 4, 8)
    for use_sqrt in (True, False):
        f_only = kernels.roof_value(W, use_sqrt, 1e-4)
        f_pair, _ = kernels.roof_value_grad(W, use_sqrt, 1e-4)
        assert abs(f_only - f_pair) < 1e-12 * max(1.0, abs(f_only))


def test_gradient_finite_difference():
    rng = np.random.default_rng(8)
    W = _random_rows(rng, 3, 8)
    h = 1e-7
    for use_sqrt in (True, False):
        f0, P = kernels.roof_value_grad(W, use_sqrt, 1e-3)
        for i in range(3):
            for a in range(0, 8, 3):
                Wp = W.copy()
                Wp[i, a] += h
                fp, _ = kernels.roof_value_grad(Wp, use_sqrt, 1e-3)
                Wq = W.copy()
                Wq[i, a] += 1j * h
                fq, _ = kernels.roof_value_grad(Wq, use_sqrt, 1e-3)
                numeric = (fp - f0) / h + 1j * (fq - f0) / h
                assert abs(numeric - 2.0 * np.conj(P[i, a])) < 1e-5


@pytest.mark.parametrize("use_sqrt", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_stacked_call_equals_per_start_calls(use_sqrt, m):
    rng = np.random.default_rng(m)
    W = _random_rows(rng, 5, m, 8)
    W[1, 0] = 0.0                    # a zero row
    W[2, 1] = 0.0
    W[2, 1, 3] = 0.7                 # a product state: Det = 0, the cusp
    eps = np.array([0.0, 1e-13, 1e-6, 1e-2, 0.0])
    f, P = kernels.roof_value_grad(W, use_sqrt, eps)
    value = kernels.roof_value(W, use_sqrt, eps)
    D = kernels.hyperdet_rows(W)
    assert f.shape == value.shape == (5,) and P.shape == W.shape
    for s in range(5):
        f_s, P_s = kernels.roof_value_grad(W[s], use_sqrt, float(eps[s]))
        assert type(f_s) is float
        assert f[s] == f_s and np.array_equal(P[s], P_s)
        assert value[s] == kernels.roof_value(W[s], use_sqrt, float(eps[s]))
        assert np.array_equal(D[s], kernels.hyperdet_rows(W[s]))


def test_frame_kernel_reads_the_members():
    """In the frame of orthogonal rows B the kernel reads the members U B:
    its value is roof_value's on them, and its P is the amplitude P chained
    through W = U B, P_W B^T, both within 1e-14 relative (measured: at
    most 5.8e-16).  (On a biseparable range both read Det at rounding,
    where 2 sqrt|Det| is about 1e-8.)"""
    rng = np.random.default_rng(14)
    for label, B in _frames(rng, biseparable=False):
        U = _random_rows(rng, 3, 4, len(B))
        eps = np.array([0.0, 1e-6, 1e-3])
        for use_sqrt in (True, False):
            f, P = kernels.roof_value_grad(U, use_sqrt, eps, *_frame(B))
            f_W, P_W = kernels.roof_value_grad(U @ B, use_sqrt, eps)
            value = kernels.roof_value(U @ B, use_sqrt, eps)
            assert np.all(np.abs(f - value) <= 1e-14 * np.maximum(1.0, value)), label
            chained = P_W @ B.T
            assert np.abs(P - chained).max() <= 1e-14 * max(1.0, np.abs(chained).max()), label


@pytest.mark.parametrize("use_sqrt", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_stacked_frame_call_equals_per_start_calls(use_sqrt, m):
    """In a rank-3 and a rank-4 frame, a stacked call computes each start
    bit for bit as the 2-D call on it alone, a zero row included."""
    rng = np.random.default_rng(20 + m)
    for r in (3, 4):
        frame = _frame(_range_rows(rng, r))
        U = _random_rows(rng, 5, m, r)
        U[1, 0] = 0.0                    # a zero row
        eps = np.array([0.0, 1e-13, 1e-6, 1e-2, 0.0])
        f, P = kernels.roof_value_grad(U, use_sqrt, eps, *frame)
        assert f.shape == (5,) and P.shape == U.shape and P.flags.c_contiguous
        for s in range(5):
            f_s, P_s = kernels.roof_value_grad(U[s], use_sqrt, float(eps[s]), *frame)
            assert type(f_s) is float
            assert f[s] == f_s and np.array_equal(P[s], P_s)


@pytest.mark.parametrize("shape", [(4, 2), (6, 3), (8, 8), (3, 1)])
def test_polar_retract_orthonormal(shape):
    rng = np.random.default_rng(10)
    for _ in range(10):
        R = kernels.polar_retract(_random_rows(rng, *shape))
        assert np.abs(R.conj().T @ R - np.eye(shape[1])).max() < 1e-12


def test_polar_retract_stacked_equals_per_start():
    rng = np.random.default_rng(11)
    A = _random_rows(rng, 6, 4, 3)
    R = kernels.polar_retract(A)
    for s in range(6):
        assert np.array_equal(R[s], kernels.polar_retract(A[s]))


def test_polar_retract_near_rank_deficient():
    rng = np.random.default_rng(12)
    A = _random_rows(rng, 4, 2)
    A[:, 1] = A[:, 0] + 1e-9 * A[:, 1]  # nearly parallel columns
    R = kernels.polar_retract(A)
    assert np.all(np.isfinite(R.view(np.float64)))


def test_zero_row_guard_tau():
    W = np.zeros((2, 8), complex)
    W[0, 0] = W[0, 7] = 1 / np.sqrt(2)
    val = kernels.roof_value(W, False, 0.0)
    assert abs(val - 1.0) < 1e-12  # the zero row contributes nothing
    f, P = kernels.roof_value_grad(W, False, 0.0)
    assert np.all(np.isfinite(P.view(np.float64)))
    assert np.abs(P[1]).max() == 0.0


def test_cusp_subgradient_guard_sqrt():
    # a member with hyperdeterminant exactly zero must yield a finite
    # (zero) gradient row at eps = 0, not 0/0
    W = np.zeros((2, 8), complex)
    W[0, 0] = W[0, 7] = 1 / np.sqrt(2)     # GHZ: Det = 1/4
    W[1, 1] = 1.0                          # product state: Det = 0
    f, P = kernels.roof_value_grad(W, True, 0.0)
    assert abs(f - 1.0) < 1e-12
    assert np.all(np.isfinite(P.view(np.float64)))
    assert np.abs(P[1]).max() == 0.0
    assert np.abs(P[0]).max() > 0.0
