import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtangle as rt
from freeze import (
    FAM_SQRT_TAU_08_0,
    ghz_state,
    random_pure,
    random_unitary2,
    std_mixture,
    w_state,
)


def test_invariants_ghz():
    inv = rt.invariants(ghz_state())
    assert abs(inv.d1 - 0.25) < 1e-15
    assert abs(inv.d2) == 0 and abs(inv.d3) == 0
    assert abs(inv.tau - 1.0) < 1e-12
    assert abs(inv.sqrt_tau - 1.0) < 1e-12


def test_invariants_w():
    inv = rt.invariants(w_state())
    assert inv.d1 == 0 and inv.d2 == 0 and inv.d3 == 0
    assert inv.tau == 0.0


def test_invariants_family_state_cross_check():
    psi = rt.family_state(std_mixture(0.8), 0.8, 0.0)
    assert abs(rt.invariants(psi).sqrt_tau - FAM_SQRT_TAU_08_0) < 1e-12


def test_sqrt_tau_homogeneous_basics():
    doubled = rt.PureState(2.0 * ghz_state().amp, normalized=False)
    assert abs(rt.sqrt_tau(doubled) - 4.0) < 1e-12
    assert rt.sqrt_tau(rt.PureState(np.zeros(8), normalized=False)) == 0.0
    scaled = rt.PureState(np.sqrt(0.3) * ghz_state().amp, normalized=False)
    assert abs(rt.sqrt_tau(scaled) - 0.3) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sqrt_tau_homogeneity_property(re, im, seed):
    c = complex(re, im)
    psi = random_pure(np.random.default_rng(seed))
    scaled = rt.PureState(c * psi.amp, normalized=False)
    lhs = rt.sqrt_tau(scaled)
    rhs = abs(c) ** 2 * rt.sqrt_tau(psi)
    assert abs(lhs - rhs) < 1e-10


def test_alpha_values():
    assert rt.alpha(rt.LocalOperator(np.eye(2), "A"), 1.0) == 1.0
    m0 = rt.LocalOperator(np.diag([1.0, 1.0 / np.sqrt(10.0)]), "A")
    a = rt.alpha(m0, 29.0 / 50.0)
    assert abs(a ** 2 - 250.0 / 841.0) < 1e-15
    m1 = rt.LocalOperator(np.array([[0.0, 0.0], [0.0, 3.0 / np.sqrt(10.0)]]), "A")
    assert rt.alpha(m1, 0.7) == 0.0
    with pytest.raises(ValueError):
        rt.alpha(m0, 0.0)
    with pytest.raises(ValueError):
        rt.alpha(m0, -0.1)


def _random_invertible2(rng):
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) > 0.1:
            return m


def test_scaling_law_sample():
    rng = np.random.default_rng(23)
    for _ in range(300):
        psi = random_pure(rng)
        target = "ABC"[rng.integers(0, 3)]
        op = rt.LocalOperator(_random_invertible2(rng), target)
        raw, p = rt.apply_local(op, psi)
        post = raw.unit()
        lhs = rt.sqrt_tau(post)
        rhs = rt.alpha(op, p) * rt.sqrt_tau(psi)
        assert abs(lhs - rhs) < 1e-10


def test_local_unitary_invariance_sample():
    rng = np.random.default_rng(29)
    for _ in range(200):
        psi = random_pure(rng)
        t0 = rt.tau(psi)
        for target in "ABC":
            psi = rt.apply_local(rt.LocalOperator(random_unitary2(rng), target), psi)[0].unit()
        assert abs(rt.tau(psi) - t0) < 1e-10


def test_qubit_permutation_invariance_sample():
    rng = np.random.default_rng(31)
    perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for _ in range(200):
        psi = random_pure(rng)
        t0 = rt.tau(psi)
        for perm in perms:
            assert abs(rt.tau(rt.permute_qubits(psi, perm)) - t0) < 1e-10


def test_sqrt_tau_square_and_range():
    rng = np.random.default_rng(37)
    for _ in range(300):
        inv = rt.invariants(random_pure(rng))
        assert abs(inv.sqrt_tau ** 2 - inv.tau) < 1e-12
        assert -1e-12 <= inv.tau <= 1.0 + 1e-12
