"""Frozen expected values and shared helpers for the test suite.

The decimal constants were computed independently at 40-digit precision
(direct evaluation of the closed forms / exact fractions) and frozen here;
tests compare library output against them at stated tolerances.

The one exception is the generic rank-3 roof below, which has no closed
form: it is the best value of long searches (see its comment).
"""
import numpy as np

import rtangle as rt

# standard mixture parameters a = b = 1/sqrt(2), c = d = f = 1/sqrt(3)
S_STD = 2.1773242158072694          # 8 sqrt(6) / 9
P0_STD = 0.62685101484994748
TR_STD_P08 = 0.46402105336136716    # closed form at p = 0.8
FAM_SQRT_TAU_08_0 = 0.68250572359169153

# counterexample fixture: 4/5 gGHZ(1/sqrt2) + 1/5 gW(1/sqrt3), M0 = diag(1, 1/sqrt(10))
ALPHA_OUT0 = 0.54522028623592747    # 50 / (29 sqrt(10))
ALPHA_SQ_OUT0 = 250.0 / 841.0
TR_OUT0 = 0.25299369153318118       # closed form of the outcome mixture
TAU_RHO = 0.46040157052391306       # (63 - sqrt(465)) / 90
TAU_RHO0 = 0.13847029213300192      # 160 (9 - sqrt(6)) / 7569
TAU_RATIO = 0.30075981707757843
TAU_GAP = 0.0034946565543917463     # ratio - alpha^2
S_OUT0 = 1.5164220017168009
P0_OUT0 = 0.56895015001064502

# best-known sqrt-tau roof of generic_base(3): the lowest of 200-restart,
# 20000-iteration searches in several local-unitary frames
SQRT_TAU_GENERIC_R3 = 0.3092379799536361

SQRT2 = 1.0 / np.sqrt(2.0)
SQRT3 = 1.0 / np.sqrt(3.0)


def std_mixture(p: float) -> rt.GhzWMixture:
    return rt.GhzWMixture(a=SQRT2, b=SQRT2, c=SQRT3, d=SQRT3, f=SQRT3, p=p)


def ghz_state() -> rt.PureState:
    return rt.generalized_ghz(SQRT2, SQRT2)


def w_state() -> rt.PureState:
    return rt.generalized_w(SQRT3, SQRT3, SQRT3)


def random_pure(rng) -> rt.PureState:
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return rt.PureState(v / np.linalg.norm(v))


def kron_operator(m: np.ndarray, target: str) -> np.ndarray:
    """The 8x8 matrix of m on one qubit, built as a Kronecker product: the
    reference that LocalOperator.expanded must equal bit for bit."""
    eye = np.eye(2)
    factors = {"A": (m, eye, eye), "B": (eye, m, eye), "C": (eye, eye, m)}[target]
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def random_unitary2(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mixture(rng, complex_params: bool = True) -> rt.GhzWMixture:
    def unit(n):
        if complex_params:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            v = np.abs(rng.standard_normal(n)) + 0.1
        return v / np.linalg.norm(v)

    ab = unit(2)
    cdf = unit(3)
    return rt.GhzWMixture(a=ab[0], b=ab[1], c=cdf[0], d=cdf[1], f=cdf[2],
                          p=float(rng.uniform(0.0, 1.0)))


def generic_base(rank: int) -> rt.DensityMatrix:
    """A fixed generic state of rank 2 or 3: 0.8 of one random pure state
    plus 0.2 of the others with Dirichlet weights (the base state of that
    rank of perfbench's generic-roof workload)."""
    rng = np.random.default_rng(2013)
    for r in range(2, rank + 1):  # the bases are drawn in rank order
        weights = np.concatenate(([0.8], 0.2 * rng.dirichlet(np.ones(r - 1))))
        states = [random_pure(rng).amp for _ in range(r)]
    rho = sum(w * np.outer(psi, psi.conj()) for w, psi in zip(weights, states))
    return rt.DensityMatrix((rho + rho.conj().T) / 2.0)


def biseparable(rng) -> rt.DensityMatrix:
    """a (x) sigma on a random qubit split, in a random local-unitary frame:
    a a random one-qubit state and sigma a Dirichlet mixture of two random
    two-qubit states phi, chi.  Every state of its range a (x) span{phi, chi}
    is a product across the split, so the range quartic vanishes."""
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pair = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    w = rng.dirichlet([1.0, 1.0])
    sigma = sum(wk * np.outer(v, v.conj()) / np.vdot(v, v).real for wk, v in zip(w, pair))
    rho = np.kron(np.outer(a, a.conj()) / np.vdot(a, a).real, sigma).reshape((2,) * 6)
    perm = rng.permutation(3)
    rho = rho.transpose(*perm, *(perm + 3)).reshape(8, 8)
    V = np.kron(np.kron(random_unitary2(rng), random_unitary2(rng)), random_unitary2(rng))
    rho = V @ rho @ V.conj().T
    return rt.DensityMatrix((rho + rho.conj().T) / 2.0)
