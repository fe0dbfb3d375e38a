import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtangle as rt
from freeze import ghz_state, kron_operator, random_mixture, random_pure, w_state


def test_pure_state_rejects_bad_norm():
    with pytest.raises(rt.ValidationError):
        rt.PureState(np.ones(8))


def test_pure_state_renormalize():
    psi = rt.PureState.from_amplitudes(np.ones(8), renormalize=True)
    assert abs(psi.norm_sq() - 1.0) < 1e-12
    with pytest.raises(rt.ValidationError):
        rt.PureState.from_amplitudes(np.zeros(8), renormalize=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(min_value=0, max_value=7),
       st.booleans())
def test_constructors_reject_non_finite(bad, pos, imaginary):
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    amp[pos] += 1j * bad if imaginary else bad
    with pytest.raises(rt.ValidationError):
        rt.PureState(amp, normalized=False)
    with pytest.raises(rt.ValidationError):
        rt.LocalOperator(np.array([[bad, 0], [0, 1]]), "A")


def test_ensemble_to_density_pure_projector():
    ghz = ghz_state()
    rho = rt.ensemble_to_density(rt.WeightedEnsemble(((1.0, ghz),)))
    assert np.abs(rho.matrix - ghz.projector()).max() < 1e-15


def test_ensemble_to_density_counterexample_entries():
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble).matrix
    assert abs(rho[0, 0] - 2 / 5) < 1e-15
    assert abs(rho[0, 7] - 2 / 5) < 1e-15
    assert abs(rho[7, 7] - 2 / 5) < 1e-15
    for k in (1, 2, 4):
        assert abs(rho[k, k] - 1 / 15) < 1e-15
        for j in (1, 2, 4):
            if j != k:
                assert abs(rho[k, j] - 1 / 15) < 1e-15
    assert abs(rho[3, 3]) == 0 and abs(rho[0, 1]) == 0


def test_ensemble_to_density_orthogonal_mixture():
    zero = np.zeros(8, complex)
    a, b = zero.copy(), zero.copy()
    a[0] = 1.0
    b[7] = 1.0
    e = rt.WeightedEnsemble(((0.5, rt.PureState(a)), (0.5, rt.PureState(b))))
    rho = rt.ensemble_to_density(e).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.abs(rho - expected).max() < 1e-15


def test_ensemble_validation_names_offender():
    ok = rt.PureState(np.eye(8)[0])
    shrunk = rt.PureState(0.5 * np.eye(8)[0], normalized=False)
    with pytest.raises(rt.ValidationError, match="member 1"):
        rt.WeightedEnsemble(((0.7, ok), (0.3, shrunk)))
    with pytest.raises(rt.ValidationError, match="member 0"):
        rt.WeightedEnsemble(((-0.2, ok), (1.2, ok)))
    with pytest.raises(rt.ValidationError, match="sum"):
        rt.WeightedEnsemble(((0.5, ok), (0.7, ok)))


def test_eigendecomposition_rank1():
    w = w_state()
    rho = rt.ensemble_to_density(rt.WeightedEnsemble(((1.0, w),)))
    ens = rt.density_eigendecomposition(rho)
    assert len(ens) == 1
    assert abs(ens.members[0][0] - 1.0) < 1e-12
    assert ens.members[0][1].equal_up_to_phase(w)


def test_eigendecomposition_counterexample_reconstructs():
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    ens = rt.density_eigendecomposition(rho)
    assert len(ens) == 2
    back = rt.ensemble_to_density(ens)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-10


def test_eigendecomposition_maximally_mixed():
    rho = rt.DensityMatrix(np.eye(8) / 8.0)
    ens = rt.density_eigendecomposition(rho)
    assert len(ens) == 8
    assert np.abs(ens.weights() - 1 / 8).max() < 1e-12


def test_round_trip_random_mixtures():
    rng = np.random.default_rng(11)
    for _ in range(20):
        members = []
        weights = rng.dirichlet(np.ones(3))
        for wgt in weights:
            members.append((float(wgt), random_pure(rng)))
        rho = rt.ensemble_to_density(rt.WeightedEnsemble(tuple(members)))
        back = rt.ensemble_to_density(rt.density_eigendecomposition(rho))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10


def test_apply_local_identity():
    psi = random_pure(np.random.default_rng(1))
    out, nsq = rt.apply_local(rt.LocalOperator(np.eye(2), "A"), psi)
    assert abs(nsq - 1.0) < 1e-12
    assert np.abs(out.amp - psi.amp).max() < 1e-12


def test_apply_local_counterexample_outcome0():
    m0 = rt.LocalOperator(np.diag([1.0, 1.0 / np.sqrt(10.0)]), "A")
    out, nsq = rt.apply_local(m0, ghz_state())
    assert abs(nsq - 11.0 / 20.0) < 1e-15
    post = out.unit()
    assert abs(abs(post.amp[0]) - np.sqrt(10 / 11)) < 1e-12
    assert abs(abs(post.amp[7]) - np.sqrt(1 / 11)) < 1e-12


def test_apply_local_annihilating_branch():
    m1 = rt.LocalOperator(np.array([[0.0, 0.0], [0.0, 3.0 / np.sqrt(10.0)]]), "A")
    out, nsq = rt.apply_local(m1, w_state())
    assert abs(nsq - 9.0 / 30.0) < 1e-15
    # only the component with qubit A = 1 survives
    alive = np.nonzero(np.abs(out.amp) > 1e-14)[0]
    assert list(alive) == [4]


def test_apply_local_targets_b_and_c():
    rng = np.random.default_rng(5)
    psi = random_pure(rng)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # target B acts on the middle index of the (2, 2, 2) tensor
    out_b, _ = rt.apply_local(rt.LocalOperator(m, "B"), psi)
    ref = np.einsum("ab,pbr->par", m, psi.amp.reshape(2, 2, 2)).reshape(8)
    assert np.abs(out_b.amp - ref).max() < 1e-12
    out_c, _ = rt.apply_local(rt.LocalOperator(m, "C"), psi)
    ref = np.einsum("ab,pqb->pqa", m, psi.amp.reshape(2, 2, 2)).reshape(8)
    assert np.abs(out_c.amp - ref).max() < 1e-12


def test_expanded_equals_the_kronecker_product():
    rng = np.random.default_rng(31)
    signed = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5])
    for k in range(60):
        if k % 2:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        else:  # exact zeros of either sign, whose products keep their sign
            m = rng.choice(signed, (2, 2)) + 0j
            m.imag = rng.choice(signed, (2, 2))
        for target in "ABC":
            full = rt.LocalOperator(m, target).expanded()
            assert full.dtype == np.complex128 and full.shape == (8, 8)
            assert full.tobytes() == kron_operator(m, target).tobytes()


def test_apply_local_equals_the_kronecker_product():
    rng = np.random.default_rng(32)
    for _ in range(20):
        psi = random_pure(rng)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for target in "ABC":
            out, nsq = rt.apply_local(rt.LocalOperator(m, target), psi)
            ref = kron_operator(m, target) @ psi.amp
            assert out.amp.tobytes() == ref.tobytes()
            assert nsq == float(np.vdot(ref, ref).real)


def test_exact_layer_does_not_build_kronecker_products(monkeypatch):
    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    rng = np.random.default_rng(33)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rt.apply_local(rt.LocalOperator(m, "B"), random_pure(rng))
    fx = rt.counterexample_fixture()
    assert len(rt.measure(fx.ensemble, fx.measurement)) == 2
    assert len(rt.optimal_ensemble(random_mixture(rng))) >= 3


def test_norm_preservation_over_complete_set():
    ms = rt.counterexample_fixture().measurement
    rng = np.random.default_rng(7)
    for _ in range(200):
        psi = random_pure(rng)
        total = sum(rt.apply_local(op, psi)[1] for op in ms.operators)
        assert abs(total - 1.0) < 1e-10


def test_validate_measurement():
    fx = rt.counterexample_fixture()
    report = rt.validate_measurement(fx.measurement)
    assert report.passed and report.deviation < 1e-12

    identity = rt.MeasurementSet((rt.LocalOperator(np.eye(2), "A"),))
    assert rt.validate_measurement(identity).passed

    dup = rt.MeasurementSet((rt.LocalOperator(np.eye(2), "A"),
                             rt.LocalOperator(np.eye(2), "A")))
    report = rt.validate_measurement(dup)
    assert not report.passed
    assert abs(report.deviation - 1.0) < 1e-12


def test_measurement_set_requires_single_target():
    with pytest.raises(rt.ValidationError):
        rt.MeasurementSet((rt.LocalOperator(np.eye(2), "A"),
                           rt.LocalOperator(np.eye(2), "B")))


@pytest.mark.parametrize("entry", [np.eye(2), "A"])
def test_measurement_set_rejects_entries_that_are_not_operators(entry):
    with pytest.raises(rt.ValidationError, match="entries must be LocalOperator"):
        rt.MeasurementSet((entry,))
    with pytest.raises(rt.ValidationError, match="entries must be LocalOperator"):
        rt.MeasurementSet((rt.LocalOperator(np.eye(2), "A"), entry))


def test_density_matrix_validation():
    with pytest.raises(rt.ValidationError):
        rt.DensityMatrix(np.eye(8))  # trace 8
    bad = np.eye(8) / 8.0
    bad[0, 1] = 0.5
    with pytest.raises(rt.ValidationError):
        rt.DensityMatrix(bad)  # not Hermitian
    neg = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(rt.ValidationError):
        rt.DensityMatrix(neg)  # negative eigenvalue


def test_permute_qubits():
    psi = random_pure(np.random.default_rng(13))
    assert np.abs(rt.permute_qubits(psi, (0, 1, 2)).amp - psi.amp).max() == 0
    swapped = rt.permute_qubits(psi, (1, 0, 2))
    # |pqr> -> |qpr>: index 4p+2q+r -> 4q+2p+r
    assert swapped.amp[4] == psi.amp[2]
    assert swapped.amp[2] == psi.amp[4]
    with pytest.raises(rt.ValidationError):
        rt.permute_qubits(psi, (0, 0, 2))
