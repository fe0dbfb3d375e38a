import numpy as np
import pytest

import rtangle as rt
from freeze import (
    FAM_SQRT_TAU_08_0,
    P0_STD,
    S_STD,
    SQRT2,
    SQRT3,
    TR_STD_P08,
    random_mixture,
    std_mixture,
)


def test_analyze_standard_parameters():
    ana = rt.analyze(std_mixture(0.8))
    assert abs(ana.s - S_STD) < 1e-12
    assert abs(ana.s - 8.0 * np.sqrt(6.0) / 9.0) < 1e-12
    assert abs(ana.p0 - P0_STD) < 1e-12
    assert abs(ana.rtangle - TR_STD_P08) < 1e-12
    assert ana.branch == "linear_branch"
    assert ana.limit_case is None
    assert abs(ana.tilde_phi) < 1e-12


def test_analyze_zero_branch():
    ana = rt.analyze(std_mixture(0.5))
    assert ana.rtangle == 0.0
    assert ana.branch == "zero_branch"


def test_analyze_endpoints():
    assert abs(rt.analyze(std_mixture(1.0)).rtangle - 1.0) < 1e-12  # 2|ab| = 1
    assert rt.analyze(std_mixture(0.0)).rtangle == 0.0
    mix_at_p0 = std_mixture(P0_STD)
    ana = rt.analyze(mix_at_p0)
    assert ana.branch == "zero_branch"
    assert ana.rtangle == 0.0
    # approaching from the linear side is continuous
    ana_above = rt.analyze(std_mixture(P0_STD + 1e-9))
    assert ana_above.rtangle < 1e-8


def test_family_state_endpoints():
    mix = std_mixture(0.8)
    assert rt.family_state(mix, 1.0, 0.3).equal_up_to_phase(mix.ghz_state())
    assert rt.family_state(mix, 0.0, 0.0).equal_up_to_phase(mix.w_state())


def test_family_state_zero_tangle_members():
    mix = std_mixture(0.8)
    p0 = rt.analyze(mix).p0
    for n in range(3):
        psi = rt.family_state(mix, p0, 2.0 * np.pi * n / 3.0)
        assert rt.sqrt_tau(psi) < 1e-7  # exact zero up to double-precision cancellation


def test_family_sqrt_tau_values():
    mix = std_mixture(0.8)
    assert abs(rt.family_sqrt_tau(mix, 0.8, 0.0) - FAM_SQRT_TAU_08_0) < 1e-12
    assert abs(rt.family_sqrt_tau(mix, 1.0, 1.1) - 1.0) < 1e-14  # 2|ab|
    p0 = rt.analyze(mix).p0
    for n in range(3):
        # the stable factored evaluation makes the branch-point zeros exact
        assert rt.family_sqrt_tau(mix, p0, 2.0 * np.pi * n / 3.0) < 1e-10


def test_family_closed_form_matches_invariants():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        mix = random_mixture(rng)
        p = float(rng.uniform(0, 1))
        phi = float(rng.uniform(0, 2 * np.pi))
        closed = rt.family_sqrt_tau(mix, p, phi)
        direct = rt.invariants(rt.family_state(mix, p, phi)).sqrt_tau
        assert abs(closed - direct) < 1e-12


def test_lower_bound_property():
    rng = np.random.default_rng(43)
    for _ in range(300):
        mix = random_mixture(rng)
        phi = float(rng.uniform(0, 2 * np.pi))
        bound = rt.analyze(mix).rtangle
        assert bound <= rt.family_sqrt_tau(mix, mix.p, phi) + 1e-10


def test_optimal_ensemble_boundary():
    mix = std_mixture(P0_STD)
    ens = rt.optimal_ensemble(mix)
    assert len(ens) == 3
    assert np.abs(ens.weights() - 1.0 / 3.0).max() < 1e-9
    objective = sum(w * rt.sqrt_tau(psi) for w, psi in ens.members)
    assert objective < 1e-7


def test_optimal_ensemble_pure_ghz():
    ens = rt.optimal_ensemble(std_mixture(1.0))
    assert len(ens) == 1
    assert ens.members[0][1].equal_up_to_phase(std_mixture(1.0).ghz_state())


def test_optimal_ensemble_objective_matches_closed_form():
    mix = std_mixture(0.8)
    # closed-form member values: agreement at roundoff level
    assert abs(rt.optimal_objective(mix) - TR_STD_P08) < 1e-12
    # amplitude-level route: limited by sqrt of the double-precision
    # cancellation in the tangle-free members, not by the construction
    ens = rt.optimal_ensemble(mix)
    objective = sum(w * rt.sqrt_tau(psi) for w, psi in ens.members)
    assert abs(objective - TR_STD_P08) < 1e-7


def test_optimal_objective_random_mixtures():
    rng = np.random.default_rng(97)
    for _ in range(200):
        mix = random_mixture(rng)
        assert abs(rt.optimal_objective(mix) - rt.analyze(mix).rtangle) < 1e-10


def test_optimal_ensemble_reconstructs_both_branches():
    rng = np.random.default_rng(47)
    for _ in range(60):
        mix = random_mixture(rng)
        ens = rt.optimal_ensemble(mix)
        rho = rt.ensemble_to_density(ens)
        assert np.abs(rho.matrix - mix.density().matrix).max() < 1e-12
        objective = sum(w * rt.sqrt_tau(psi) for w, psi in ens.members)
        # up to double-precision cancellation in the zero-tangle members
        assert abs(objective - rt.analyze(mix).rtangle) < 1e-7


def test_objective_equality_tight_on_linear_branch():
    rng = np.random.default_rng(53)
    count = 0
    while count < 40:
        mix = random_mixture(rng)
        ana = rt.analyze(mix)
        if ana.branch != "linear_branch" or ana.limit_case:
            continue
        count += 1
        ens = rt.optimal_ensemble(mix)
        objective = sum(w * rt.sqrt_tau(psi) for w, psi in ens.members)
        assert abs(objective - ana.rtangle) < 1e-7


def test_parameter_symmetry_cdf_permutations():
    from itertools import permutations

    rng = np.random.default_rng(59)
    for _ in range(30):
        mix = random_mixture(rng)
        ref = rt.analyze(mix)
        for perm in permutations((mix.c, mix.d, mix.f)):
            other = rt.GhzWMixture(a=mix.a, b=mix.b, c=perm[0], d=perm[1], f=perm[2], p=mix.p)
            ana = rt.analyze(other)
            assert abs(ana.s - ref.s) < 1e-12 * max(1.0, ref.s)
            assert abs(ana.p0 - ref.p0) < 1e-12
            assert abs(ana.rtangle - ref.rtangle) < 1e-12


def test_parameter_symmetry_phases():
    rng = np.random.default_rng(61)
    for _ in range(30):
        mix = random_mixture(rng, complex_params=False)
        ref = rt.analyze(mix)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        other = rt.GhzWMixture(a=mix.a * phases[0], b=mix.b * phases[1],
                               c=mix.c * phases[2], d=mix.d * phases[3],
                               f=mix.f * phases[4], p=mix.p)
        ana = rt.analyze(other)
        assert abs(ana.s - ref.s) < 1e-12 * max(1.0, ref.s)
        assert abs(ana.rtangle - ref.rtangle) < 1e-12


def test_degenerate_w_parameters():
    # c d f = 0 gives D/A = 0/(a^2 b), a negative zero for b = -1/sqrt2
    # whose phase is -pi; the limit must keep phi~ = 0.
    cases = [(SQRT2, SQRT2, SQRT2, 0.4)] + [
        (b, 1.0, 0.0, p)
        for b in (SQRT2, -SQRT2, 1j * SQRT2, -1j * SQRT2) for p in (0.0, 0.4, 0.6, 1.0)]
    for b, c, d, p in cases:
        mix = rt.GhzWMixture(a=SQRT2, b=b, c=c, d=d, f=0.0, p=p)
        ana = rt.analyze(mix)
        assert ana.limit_case == "degenerate_w"
        assert ana.tilde_phi == 0.0
        assert ana.s == 0.0 and ana.p0 == 0.0
        assert abs(ana.rtangle - 2.0 * abs(mix.a * mix.b) * p) < 1e-12
        rho = rt.ensemble_to_density(rt.optimal_ensemble(mix))
        assert np.abs(rho.matrix - mix.density().matrix).max() < 1e-12
        if 0.0 < p < 1.0:  # at p = 0.6 a fourfold root at infinity, listed once
            assert abs(rt.orbit_analysis(rho).analysis.rtangle - ana.rtangle) < 1e-14
        # the closed form still matches the invariants route in the limit
        for fp, phi in ((0.3, 0.0), (0.7, 1.0)):
            closed = rt.family_sqrt_tau(mix, fp, phi)
            direct = rt.invariants(rt.family_state(mix, fp, phi)).sqrt_tau
            assert abs(closed - direct) < 1e-12


def test_degenerate_ghz_parameters():
    # a = 0 makes gGHZ a product state; the mixture roof vanishes, but
    # intermediate family states keep a nonzero tangle, which the A = 0
    # closed form must reproduce.
    mix = rt.GhzWMixture(a=0.0, b=1.0, c=SQRT3, d=SQRT3, f=SQRT3, p=0.6)
    ana = rt.analyze(mix)
    assert ana.limit_case == "degenerate_ghz"
    assert ana.rtangle == 0.0
    closed = rt.family_sqrt_tau(mix, 0.5, 0.2)
    direct = rt.invariants(rt.family_state(mix, 0.5, 0.2)).sqrt_tau
    assert closed > 0.1
    assert abs(closed - direct) < 1e-12
    # b = 0 makes D vanish too: every family state is tangle-free
    mix = rt.GhzWMixture(a=1.0, b=0.0, c=SQRT3, d=SQRT3, f=SQRT3, p=0.6)
    ana = rt.analyze(mix)
    assert ana.limit_case == "degenerate_ghz"
    assert ana.rtangle == 0.0
    closed = rt.family_sqrt_tau(mix, 0.5, 0.2)
    direct = rt.invariants(rt.family_state(mix, 0.5, 0.2)).sqrt_tau
    assert abs(closed - direct) < 1e-12


def test_subnormal_parameter_takes_the_p0_limit():
    """At a = 1e-160, a^2 b is subnormal and D/A overflows to inf; the core
    takes its limit p0 = 1, roof 0, and a = 1e-100 keeps its finite s.
    Neither analyze nor orbit_analysis returns NaN."""
    for a, s in ((1e-160, float("inf")), (1e-100, 7.698003589195014e+199)):
        mix = rt.GhzWMixture(a=a, b=1.0, c=SQRT3, d=SQRT3, f=SQRT3, p=0.9)
        assert rt.analyze(mix) == rt.MixtureAnalysis(s=s, tilde_phi=0.0, p0=1.0, rtangle=0.0,
                                                     branch="zero_branch")
        orbit = rt.orbit_analysis(mix.density())
        assert orbit.analysis.p0 == 1.0 and orbit.analysis.rtangle == 0.0
        assert np.isfinite(orbit.analysis.tilde_phi) and np.isfinite(orbit.rows()).all()
        assert abs(orbit.p - 0.9) <= 1e-12


@pytest.mark.parametrize("a", [1e-160, 1e-100])
def test_subnormal_parameter_family_values_stay_finite(a):
    """s = |D/A| overflows (a = 1e-160) or overflows the factored form
    (a = 1e-100); the family value then comes from the unfactored modulus
    and still matches the invariants route."""
    mix = rt.GhzWMixture(a=a, b=1.0, c=SQRT3, d=SQRT3, f=SQRT3, p=0.9)
    for p in (0.0, 0.1, 0.5, 0.9, 0.999):
        for phi in (0.0, 0.3, 2.0 * np.pi / 3.0, 2.5):
            closed = rt.family_sqrt_tau(mix, p, phi)
            direct = rt.invariants(rt.family_state(mix, p, phi)).sqrt_tau
            assert abs(closed - direct) <= 1e-12 * direct
    assert abs(rt.family_sqrt_tau(mix, 0.5, 0.0) - 0.8773826753016618) < 1e-12
    assert rt.analyze(mix).rtangle == 0.0
    assert abs(rt.optimal_objective(mix) - rt.analyze(mix).rtangle) < 1e-12


def test_concavity_certificate():
    report = rt.concavity_certificate(std_mixture(0.8))
    assert report.quartic_positive and report.quartic_min > 0
    assert report.concave_on_linear_branch
    assert report.passed
    # endpoint sanity of the quartic
    q = lambda p: -4 * p ** 4 + 20 * p ** 3 - 3 * p ** 2 - 2 * p + 1
    assert q(0.0) == 1.0 and q(1.0) == 12.0
    assert report.quartic_min <= q(0.35) + 1e-9


def test_family_tau_direct_hook_consistency():
    mix = std_mixture(0.8)
    tau = rt.invariants(rt.family_state(mix, 0.8, 0.0)).tau
    assert abs(tau - FAM_SQRT_TAU_08_0 ** 2) < 1e-12


def test_as_mixture_roundtrip():
    mix = std_mixture(0.8)
    rebuilt = rt.as_mixture(mix.ensemble())
    assert rebuilt is not None
    assert abs(rebuilt.p - 0.8) < 1e-15
    assert abs(rebuilt.a - mix.a) < 1e-15 and abs(rebuilt.f - mix.f) < 1e-15
    # not a family ensemble
    plus = rt.PureState(np.full(8, np.sqrt(1 / 8), dtype=complex))
    assert rt.as_mixture(rt.WeightedEnsemble(((1.0, plus),))) is None


def test_mixture_validation():
    with pytest.raises(rt.ValidationError):
        rt.GhzWMixture(a=1.0, b=0.5, c=SQRT3, d=SQRT3, f=SQRT3, p=0.5)
    with pytest.raises(rt.ValidationError):
        rt.GhzWMixture(a=SQRT2, b=SQRT2, c=SQRT3, d=SQRT3, f=SQRT3, p=1.5)
