import dataclasses

import numpy as np
import pytest

import rtangle as rt
from rtangle.slocc import KrausError
from freeze import (
    ALPHA_OUT0,
    ALPHA_SQ_OUT0,
    TAU_GAP,
    TAU_RATIO,
    TR_OUT0,
    TR_STD_P08,
    ghz_state,
    kron_operator,
    random_mixture,
    random_pure,
    std_mixture,
)


@pytest.fixture(scope="module")
def fixture_outcomes():
    fx = rt.counterexample_fixture()
    return fx, rt.measure(fx.ensemble, fx.measurement)


def test_measure_counterexample_outcome0(fixture_outcomes):
    _, outcomes = fixture_outcomes
    out = outcomes[0]
    assert abs(out.probability - 29.0 / 50.0) < 1e-15
    weights = out.post_ensemble.weights()
    assert abs(weights[0] - 22.0 / 29.0) < 1e-14
    assert abs(weights[1] - 7.0 / 29.0) < 1e-14
    ghz_post, w_post = out.post_ensemble.states()
    assert abs(abs(ghz_post.amp[0]) - np.sqrt(10 / 11)) < 1e-14
    assert abs(abs(ghz_post.amp[7]) - np.sqrt(1 / 11)) < 1e-14
    assert abs(abs(w_post.amp[1]) - np.sqrt(10 / 21)) < 1e-14
    assert abs(abs(w_post.amp[2]) - np.sqrt(10 / 21)) < 1e-14
    assert abs(abs(w_post.amp[4]) - np.sqrt(1 / 21)) < 1e-14
    assert abs(out.alpha ** 2 - ALPHA_SQ_OUT0) < 1e-15
    assert abs(out.alpha - ALPHA_OUT0) < 1e-15


def test_measure_counterexample_outcome1(fixture_outcomes):
    _, outcomes = fixture_outcomes
    out = outcomes[1]
    assert out.alpha == 0.0
    assert abs(out.probability - 21.0 / 50.0) < 1e-15
    # qubit A collapses to |1>: every surviving amplitude has the A bit set
    for psi in out.post_ensemble.states():
        live = np.nonzero(np.abs(psi.amp) > 1e-12)[0]
        assert all(k >= 4 for k in live)
    assert rt.propagate_rtangle(0.7, out.alpha) == 0.0


def test_measure_probability_completeness(fixture_outcomes):
    _, outcomes = fixture_outcomes
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-9


def test_measure_trivial_identity():
    ens = rt.counterexample_fixture().ensemble
    ms = rt.MeasurementSet((rt.LocalOperator(np.eye(2), "A"),))
    outcomes = rt.measure(ens, ms)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert abs(out.probability - 1.0) < 1e-12
    assert abs(out.alpha - 1.0) < 1e-12
    for (w0, s0), (w1, s1) in zip(ens.members, out.post_ensemble.members):
        assert abs(w0 - w1) < 1e-12
        assert s0.equal_up_to_phase(s1)


def test_measure_rejects_incomplete_set():
    ens = rt.counterexample_fixture().ensemble
    half = rt.MeasurementSet((rt.LocalOperator(np.diag([1.0, 0.5]), "A"),))
    with pytest.raises(rt.ValidationError, match="incomplete"):
        rt.measure(ens, half)


@pytest.mark.parametrize("delta", [5e-10, 2e-9])
def test_measure_uses_the_validate_measurement_rule(delta):
    # one completeness rule: measure accepts exactly the sets that
    # validate_measurement passes
    op = rt.LocalOperator(np.diag([1.0, np.sqrt(1.0 + delta)]), "A")
    ms = rt.MeasurementSet((op,))
    try:
        rt.measure(rt.counterexample_fixture().ensemble, ms)
        accepted = True
    except KrausError:
        accepted = False
    assert accepted == rt.validate_measurement(ms).passed


def _random_two_outcome(rng, target):
    u = rng.uniform(0.3, 0.95, 2)
    m0 = np.diag(u).astype(complex)
    m1 = np.diag(np.sqrt(1.0 - u ** 2)).astype(complex)
    return rt.MeasurementSet((rt.LocalOperator(m0, target), rt.LocalOperator(m1, target)))


def _random_general_set(rng, target):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m0 = 0.5 * z / np.linalg.norm(z, 2)
    rest = np.eye(2) - m0.conj().T @ m0
    lam, vec = np.linalg.eigh(rest)
    m1 = (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.conj().T
    return rt.MeasurementSet((rt.LocalOperator(m0, target), rt.LocalOperator(m1, target)))


def test_mixture_consistency_random():
    rng = np.random.default_rng(67)
    for _ in range(40):
        members = tuple((float(w), random_pure(rng))
                        for w in rng.dirichlet(np.ones(3)))
        ens = rt.WeightedEnsemble(members)
        rho = rt.ensemble_to_density(ens).matrix
        target = "ABC"[rng.integers(0, 3)]
        ms = _random_general_set(rng, target)
        for out in rt.measure(ens, ms):
            if out.empty or out.probability < 1e-10:
                continue
            op = ms.operators[out.index].expanded()
            expected = op @ rho @ op.conj().T / out.probability
            mixed = rt.ensemble_to_density(out.post_ensemble).matrix
            assert np.abs(mixed - expected).max() < 1e-12
            assert np.abs(mixed - out.post_density.matrix).max() < 1e-12
        assert abs(sum(o.probability for o in rt.measure(ens, ms)) - 1.0) < 1e-9


def test_measure_equals_the_kronecker_products():
    """Post-states and post-densities equal M psi / sqrt(<psi|M^dag M|psi>)
    and M rho M^dag / p_j with M built by np.kron, bit for bit."""
    rng = np.random.default_rng(69)
    for k in range(30):
        if k % 2:
            ens = random_mixture(rng).ensemble()  # amplitudes with exact zeros
        else:
            ens = rt.WeightedEnsemble(tuple((float(w), random_pure(rng))
                                            for w in rng.dirichlet(np.ones(3))))
        rho = rt.ensemble_to_density(ens).matrix
        target = "ABC"[rng.integers(0, 3)]
        ms = _random_general_set(rng, target)
        for out, op in zip(rt.measure(ens, ms), ms.operators):
            full = kron_operator(op.m, target)
            expected = full @ rho @ full.conj().T / out.probability
            assert out.post_density.matrix.tobytes() == expected.tobytes()
            raws = [full @ psi.amp for _, psi in ens.members]
            nsqs = [float(np.vdot(raw, raw).real) for raw in raws]
            kept = [raw / np.sqrt(nsq) for (w, _), raw, nsq in zip(ens.members, raws, nsqs)
                    if w * nsq / out.probability > 1e-14]
            assert [psi.amp.tobytes() for psi in out.post_ensemble.states()] == \
                [amp.tobytes() for amp in kept]


def test_measure_expands_each_operator_once(monkeypatch):
    """Each Kraus operator is expanded to 8 x 8 once, not once per member,
    and the outcomes equal the apply_local route bit for bit."""
    rng = np.random.default_rng(73)
    ens = rt.WeightedEnsemble(((0.3, random_pure(rng)), (0.7, random_pure(rng))))
    ms = _random_general_set(rng, "B")
    rho = rt.ensemble_to_density(ens).matrix
    expected = []
    for op in ms.operators:
        applied = [(w, *rt.apply_local(op, psi)) for w, psi in ens.members]
        p_j = 0.0
        for w, _, nsq in applied:
            p_j += w * nsq
        members = [(w * nsq / p_j, raw.amp / np.sqrt(nsq)) for w, raw, nsq in applied]
        full = op.expanded()
        expected.append((p_j, members, full @ rho @ full.conj().T / p_j))

    calls = []
    expanded = rt.LocalOperator.expanded
    monkeypatch.setattr(rt.LocalOperator, "expanded",
                        lambda op: calls.append(op) or expanded(op))
    outcomes = rt.measure(ens, ms)
    assert [id(op) for op in calls] == [id(op) for op in ms.operators]
    for out, (p_j, members, rho_j) in zip(outcomes, expected, strict=True):
        assert out.probability == p_j
        assert [(w, psi.amp.tobytes()) for w, psi in out.post_ensemble.members] == \
            [(w, amp.tobytes()) for w, amp in members]
        assert out.post_density.matrix.tobytes() == rho_j.tobytes()


def test_covariance_diagonal_measurements_on_family():
    """Closed-form residual tangle transforms with alpha under diagonal
    measurements, which preserve the GHZ/W form, on every target qubit."""
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 100:
        mix = random_mixture(rng)
        ens = mix.ensemble()
        if len(ens) < 2:
            continue
        target = "ABC"[rng.integers(0, 3)]
        ms = _random_two_outcome(rng, target)
        tr_in = rt.analyze(mix).rtangle
        for out in rt.measure(ens, ms):
            if out.empty:
                continue
            mix_out = rt.as_mixture(out.post_ensemble)
            assert mix_out is not None
            tr_out = rt.analyze(mix_out).rtangle
            assert abs(tr_out - out.alpha * tr_in) < 1e-9
        checked += 1


def test_propagate_rtangle_contract():
    assert rt.propagate_rtangle(0.37, 1.0) == 0.37
    assert rt.propagate_rtangle(0.5, 0.0) == 0.0
    assert abs(rt.propagate_rtangle(TR_STD_P08, ALPHA_OUT0) - TR_OUT0) < 1e-12
    with pytest.raises(ValueError):
        rt.propagate_rtangle(-0.1, 1.0)
    with pytest.raises(ValueError):
        rt.propagate_rtangle(0.1, -1.0)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_propagate_rtangle_rejects_negative_and_non_finite(bad):
    with pytest.raises(rt.ValidationError, match="rtangle_in"):
        rt.propagate_rtangle(bad, 0.5)
    with pytest.raises(rt.ValidationError, match="alpha"):
        rt.propagate_rtangle(0.5, bad)


def test_rtangle_in_above_one_is_rejected():
    """A residual tangle lies in [0, 1]: measure and propagate_rtangle
    reject a larger input; alpha stays unbounded above."""
    fx = rt.counterexample_fixture()
    with pytest.raises(rt.ValidationError, match="rtangle_in"):
        rt.measure(fx.ensemble, fx.measurement, rtangle_in=5.0)
    with pytest.raises(rt.ValidationError, match="rtangle_in"):
        rt.propagate_rtangle(1.5, 0.5)
    assert rt.propagate_rtangle(1.0, 0.5) == 0.5
    assert rt.propagate_rtangle(0.5, 3.0) == 1.5


def test_propagate_matches_closed_form_on_counterexample(fixture_outcomes):
    fx, outcomes = fixture_outcomes
    out = outcomes[0]
    mix_out = rt.as_mixture(out.post_ensemble)
    tr_out_closed = rt.analyze(mix_out).rtangle
    propagated = rt.propagate_rtangle(TR_STD_P08, out.alpha)
    assert abs(propagated - tr_out_closed) < 1e-6
    assert abs(tr_out_closed - TR_OUT0) < 1e-12


def test_measure_propagates_when_requested():
    fx = rt.counterexample_fixture()
    outcomes = rt.measure(fx.ensemble, fx.measurement, rtangle_in=TR_STD_P08)
    assert abs(outcomes[0].rtangle_propagated - TR_OUT0) < 1e-12
    assert outcomes[1].rtangle_propagated == 0.0


def test_alpha_multiplicativity_composed():
    rng = np.random.default_rng(73)
    for _ in range(40):
        members = tuple((float(w), random_pure(rng)) for w in rng.dirichlet(np.ones(2)))
        ens = rt.WeightedEnsemble(members)
        target = "ABC"[rng.integers(0, 3)]
        ms1 = _random_two_outcome(rng, target)
        ms2 = _random_general_set(rng, target)
        first = rt.measure(ens, ms1)
        for out1 in first:
            if out1.empty:
                continue
            second = rt.measure(out1.post_ensemble, ms2)
            for out2 in second:
                if out2.empty:
                    continue
                m_comp = rt.LocalOperator(
                    ms2.operators[out2.index].m @ ms1.operators[out1.index].m, target)
                p_comp = out1.probability * out2.probability
                alpha_direct = rt.alpha(m_comp, p_comp)
                assert abs(alpha_direct - out1.alpha * out2.alpha) < 1e-10


def test_verify_tangle_noncovariance_default():
    report = rt.verify_tangle_noncovariance()
    assert abs(report.alpha_sq - ALPHA_SQ_OUT0) < 1e-15
    assert abs(report.tau_ratio - TAU_RATIO) < 1e-14
    assert abs(report.gap - TAU_GAP) < 1e-14
    assert report.gap > 3e-3
    assert report.noncovariant
    assert report.verdict == "non-covariant"


def test_verify_tangle_covariance_pure_analogue():
    fx = rt.counterexample_fixture()
    ghz = ghz_state()
    pure_ens = rt.WeightedEnsemble(((1.0, ghz),))
    out = rt.measure(pure_ens, fx.measurement)[0]
    post = out.post_ensemble.states()[0]
    pure_fx = rt.ScalingFixture(
        ensemble=pure_ens, measurement=fx.measurement, outcome_index=0,
        tau_input=rt.tau(ghz), tau_outcome=rt.tau(post))
    report = rt.verify_tangle_noncovariance(pure_fx)
    assert abs(report.gap) < 1e-10
    assert not report.noncovariant
    assert report.verdict == "covariant"


def test_measure_density_matches_ensemble_route():
    mix = std_mixture(0.8)
    fx = rt.counterexample_fixture()
    by_density = rt.measure_density(mix.density(), fx.measurement)
    by_ensemble = rt.measure(mix.ensemble(), fx.measurement)
    for a, b in zip(by_density, by_ensemble):
        assert abs(a.probability - b.probability) < 1e-12
        assert abs(a.alpha - b.alpha) < 1e-12
        assert np.abs(a.post_density.matrix - b.post_density.matrix).max() < 1e-12


def test_all_zero_outcome_marker():
    zero_amp = np.zeros(8, complex)
    zero_amp[0] = 1.0  # |000>, annihilated by the A = 1 projector branch
    ens = rt.WeightedEnsemble(((1.0, rt.PureState(zero_amp)),))
    ms = rt.MeasurementSet((
        rt.LocalOperator(np.diag([1.0, 0.0]), "A"),
        rt.LocalOperator(np.diag([0.0, 1.0]), "A"),
    ))
    outcomes = rt.measure(ens, ms)
    assert not outcomes[0].empty
    assert outcomes[1].empty
    assert outcomes[1].post_ensemble is None


@pytest.mark.parametrize("tau_input", [0.0, -0.25])
def test_noncovariance_needs_a_positive_input_tangle(tau_input):
    """The report divides by the input's tau, so a fixture whose tau is not
    positive is refused."""
    fx = dataclasses.replace(rt.counterexample_fixture(), tau_input=tau_input)
    with pytest.raises(rt.ValidationError, match="tau_input must be positive"):
        rt.verify_tangle_noncovariance(fx)
