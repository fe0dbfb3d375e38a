from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

import rtangle as rt
from rtangle import kernels
from rtangle import roof
from rtangle.quartic import eigen_factor, pair_quartic, zero_directions
from freeze import (SQRT_TAU_GENERIC_R3, TAU_RHO, TAU_RHO0, TR_STD_P08, biseparable,
                    generic_base, ghz_state, random_mixture, random_pure, random_unitary2,
                    std_mixture)

FAST = rt.RoofOptions(restarts=6)


def _pure_density(psi):
    return rt.ensemble_to_density(rt.WeightedEnsemble(((1.0, psi),)))


def _without_orbit(monkeypatch):
    """Switch the closed form of recognized GHZ/W images off, so the linear
    program runs on them."""
    monkeypatch.setattr(roof, "range_orbit", lambda B, dirs: None)


def _without_lp(monkeypatch):
    """Switch the orbit closed form and the rank-2 linear program off, so the
    search runs alone."""
    _without_orbit(monkeypatch)
    monkeypatch.setattr(roof, "_lp_roof", lambda B, use_sqrt, dirs: None)


def test_rank1_is_exact():
    rho = _pure_density(ghz_state())
    res = rt.roof_minimize(rho, "sqrt_tau", FAST)
    assert abs(res.value - 1.0) < 1e-12
    assert res.converged
    assert res.restarts_used == 0
    assert len(res.ensemble) == 1
    res_tau = rt.roof_minimize(rho, "tau", FAST)
    assert abs(res_tau.value - 1.0) < 1e-12


@pytest.mark.parametrize("field, value", [
    ("ensemble_size", 4.5), ("ensemble_size", True), ("restarts", 2.5),
    ("restarts", True), ("max_iterations", 300.7), ("max_iterations", np.float64(300.0)),
    ("seed", 1.5), ("seed", float("nan")), ("seed", np.bool_(False))])
def test_options_must_be_integers(field, value):
    """A bool, a float or NaN is refused when the options are made, before
    any input is read, so no certificate can answer with it; a numpy
    integer is an integer."""
    with pytest.raises(roof.OptionsError, match=field):
        rt.RoofOptions(**{field: value})
    opts = rt.RoofOptions(**{field: np.int64(getattr(rt.RoofOptions(), field))})
    assert rt.roof_minimize(std_mixture(0.3).density(), "sqrt_tau", opts).restarts_used == 0


def test_rank_above_size_rejected():
    rho = rt.DensityMatrix(np.eye(8) / 8.0)
    with pytest.raises(roof.RankError, match="rank"):
        rt.roof_minimize(rho, "sqrt_tau", rt.RoofOptions(ensemble_size=4, restarts=1))


def test_unknown_functional_rejected():
    with pytest.raises(rt.ValidationError):
        rt.roof_minimize(std_mixture(0.5).density(), "negativity", FAST)


def test_determinism_bit_for_bit():
    rho = std_mixture(0.8).density()
    opts = rt.RoofOptions(restarts=4, seed=123)
    v1 = rt.roof_minimize(rho, "sqrt_tau", opts).value
    v2 = rt.roof_minimize(rho, "sqrt_tau", opts).value
    assert v1 == v2


def test_monotonicity_in_restarts(monkeypatch):
    _without_lp(monkeypatch)
    rho = std_mixture(0.75).density()
    results = [rt.roof_minimize(rho, "sqrt_tau", rt.RoofOptions(restarts=k, seed=5))
               for k in (1, 3, 6)]
    assert [res.restarts_used for res in results] == [1, 3, 6]
    vals = [res.value for res in results]
    assert vals[1] <= vals[0] + 1e-15
    assert vals[2] <= vals[1] + 1e-15


def test_result_ensemble_reconstructs_input():
    rho = std_mixture(0.8).density()
    res = rt.roof_minimize(rho, "sqrt_tau", FAST)
    back = rt.ensemble_to_density(res.ensemble)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-8
    recomputed = sum(w * rt.sqrt_tau(psi) for w, psi in res.ensemble.members)
    assert abs(recomputed - res.value) < 1e-10


def test_matches_closed_form_linear_branch():
    mix = std_mixture(0.8)
    res = rt.roof_minimize(mix.density(), "sqrt_tau", FAST)
    assert res.value >= TR_STD_P08 - 1e-9  # never below the true roof
    assert abs(res.value - TR_STD_P08) <= 5e-3
    assert res.restarts_used == 0


def test_finds_zero_on_zero_branch():
    mix = std_mixture(0.3)
    res = rt.roof_minimize(mix.density(), "sqrt_tau", FAST)
    assert 0.0 <= res.value <= 1e-4


def test_tau_functional_reproduces_reference_constants():
    fx = rt.counterexample_fixture()
    rho = rt.ensemble_to_density(fx.ensemble)
    res = rt.roof_minimize(rho, "tau", FAST)
    assert abs(res.value - TAU_RHO) < 5e-3
    out0 = rt.measure(fx.ensemble, fx.measurement)[0]
    res0 = rt.roof_minimize(out0.post_density, "tau", FAST)
    assert abs(res0.value - TAU_RHO0) < 5e-3


def test_larger_ensemble_size():
    mix = std_mixture(0.8)
    res6 = rt.roof_minimize(mix.density(), "sqrt_tau",
                            rt.RoofOptions(ensemble_size=6, restarts=4))
    assert res6.value >= TR_STD_P08 - 1e-9
    assert abs(res6.value - TR_STD_P08) <= 5e-3


def test_full_rank_input_runs():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    rho = z @ z.conj().T
    rho = rt.DensityMatrix(rho / np.trace(rho))
    res = rt.roof_minimize(rho, "sqrt_tau",
                           rt.RoofOptions(ensemble_size=5, restarts=2, max_iterations=300))
    eigen = rt.density_eigendecomposition(rho)
    assert res.value <= rt.objective_at(rho, eigen, "sqrt_tau") + 1e-12


def test_objective_at_contract():
    mix = std_mixture(0.8)
    rho = mix.density()
    opt = rt.optimal_ensemble(mix)
    # amplitude-route evaluation: the tangle-free members contribute
    # sqrt(double-precision cancellation) ~ 1e-8
    assert abs(rt.objective_at(rho, opt, "sqrt_tau") - TR_STD_P08) < 1e-7
    eigen = rt.density_eigendecomposition(rho)
    assert rt.objective_at(rho, eigen, "sqrt_tau") >= TR_STD_P08 - 1e-12
    psi = random_pure(np.random.default_rng(9))
    single = rt.WeightedEnsemble(((1.0, psi),))
    assert abs(rt.objective_at(_pure_density(psi), single, "sqrt_tau")
               - rt.sqrt_tau(psi)) < 1e-12
    with pytest.raises(rt.ValidationError, match="deviation"):
        rt.objective_at(std_mixture(0.2).density(), opt, "sqrt_tau")


def test_general_measurement_covariance_at_oracle_level():
    """For a non-diagonal Kraus operator the outcome leaves the GHZ/W
    family, so the closed form no longer applies; the roof values
    themselves must still scale with alpha."""
    rng = np.random.default_rng(21)
    mix = std_mixture(0.8)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m0 = 0.6 * z / np.linalg.norm(z, 2)
    rest = np.eye(2) - m0.conj().T @ m0
    lam, vec = np.linalg.eigh(rest)
    m1 = (vec * np.sqrt(np.maximum(lam, 0))) @ vec.conj().T
    ms = rt.MeasurementSet((rt.LocalOperator(m0, "A"), rt.LocalOperator(m1, "A")))
    roof_in = rt.roof_minimize(mix.density(), "sqrt_tau", rt.RoofOptions(restarts=8)).value
    for out in rt.measure(mix.ensemble(), ms):
        if out.empty:
            continue
        roof_out = rt.roof_minimize(out.post_density, "sqrt_tau",
                                    rt.RoofOptions(restarts=8)).value
        assert abs(roof_out - out.alpha * roof_in) <= 1e-2


def test_generic_rank3_lands_near_the_best_known_roof():
    """A default-budget 5-restart solve of a generic rank-3 state, posed in
    three random local-unitary frames, lands within 1e-4 of the best value
    long searches found; with no lower bound it is not converged."""
    rho = generic_base(3).matrix
    rng = np.random.default_rng(31)
    for _ in range(3):
        V = np.kron(np.kron(random_unitary2(rng), random_unitary2(rng)), random_unitary2(rng))
        res = rt.roof_minimize(rt.DensityMatrix(V @ rho @ V.conj().T), "sqrt_tau",
                               rt.RoofOptions(restarts=5))
        assert abs(res.value - SQRT_TAU_GENERIC_R3) <= 1e-4
        assert res.converged is False and res.lower_bound is None


def test_gradient_matches_finite_differences_complex_rho():
    """U-space directional derivative check with genuinely complex factors."""
    rng = np.random.default_rng(17)
    z = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    rho = z @ z.conj().T
    rho = rt.DensityMatrix(rho / np.trace(rho))
    B = eigen_factor(rho)
    m, r = 4, B.shape[0]
    zu = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    U, _ = np.linalg.qr(zu)
    for use_sqrt in (True, False):
        f0, P = kernels.roof_value_grad(U @ B, use_sqrt, 1e-3)
        E = 2.0 * np.conj(P @ B.T)
        h = 1e-7
        delta = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        f1, _ = kernels.roof_value_grad((U + h * delta) @ B, use_sqrt, 1e-3)
        numeric = (f1 - f0) / h
        analytic = float(np.sum(E.conj() * delta).real)
        assert abs(numeric - analytic) < 1e-5 * max(1.0, abs(analytic))


# ------------------------------------------------- the lock-step batched search

def _tangent(U, X):
    A = U.conj().T @ X
    return X - U @ ((A + A.conj().T) / 2.0)


def _inner(X, Y):
    return float(np.sum(X.real * Y.real + X.imag * Y.imag))


def _stage_reference(U, B, use_sqrt, eps, max_steps):
    """One smoothing level of the search, one start at a time: Polak-Ribiere+
    conjugate directions, restarted at -G where they do not descend.
    Returns where the level ends."""
    eta, steps = 0.2, 0
    f, P = kernels.roof_value_grad(U @ B, use_sqrt, eps)
    G_prev = D = None
    while steps < max_steps:
        G = _tangent(U, 2.0 * np.conj(P @ B.T))
        gn2 = float(np.sum(G.real ** 2 + G.imag ** 2))
        if not np.isfinite(gn2) or gn2 < 1e-26:
            return U
        if G_prev is None:
            D, slope = -G, -gn2
        else:
            beta = max(0.0, (gn2 - _inner(G, G_prev)) / gn2_prev)
            D = -G + beta * _tangent(U, D)
            slope = _inner(G, D)
            if not slope < 0.0:
                D, slope = -G, -gn2
        G_prev, gn2_prev = G, gn2
        while eta > 1e-15:
            try:
                U2 = kernels.polar_retract(U + eta * D)
            except np.linalg.LinAlgError:
                eta *= 0.5
                continue
            f2, P2 = kernels.roof_value_grad(U2 @ B, use_sqrt, eps)
            if f2 < f + 1e-4 * eta * slope:
                improvement = f - f2
                U, f, P = U2, f2, P2
                eta = min(eta * 1.4, 2.0)
                steps += 1
                if improvement < roof._STALL_TOL:
                    return U
                break
            eta *= 0.5
        else:
            return U
    return U


def _search_reference(U0, B, use_sqrt, opts):
    """The annealed search of one start, alone: (best W, best value)."""
    per_stage = max(opts.max_iterations // len(roof._SCHEDULE), 10)
    U, best_W = U0, U0 @ B
    best_value = kernels.roof_value(best_W, use_sqrt, 0.0)
    for eps in roof._SCHEDULE:
        U = _stage_reference(U, B, use_sqrt, eps, per_stage)
        value = kernels.roof_value(U @ B, use_sqrt, 0.0)
        if value < best_value:
            best_value, best_W = value, U @ B
    return best_W, best_value


def _generic_starts(rank, n, seed=5):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    B = eigen_factor(rt.DensityMatrix(z @ z.conj().T / np.trace(z @ z.conj().T).real))
    U0 = [np.linalg.qr(rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank)))[0]
          for _ in range(n)]
    return B, np.array(U0)


@pytest.mark.parametrize("use_sqrt", [True, False])
def test_lock_step_equals_one_start_at_a_time(use_sqrt):
    """Each start of a batch ends bit for bit where the search of that start
    alone ends."""
    B, U0 = _generic_starts(3, 4)
    opts = rt.RoofOptions(max_iterations=300)
    W, values = roof._LockStep(U0, B, use_sqrt, opts).run()
    for s in range(len(U0)):
        W_ref, value_ref = _search_reference(U0[s], B, use_sqrt, opts)
        assert np.array_equal(W[s], W_ref) and values[s] == value_ref


def test_start_result_independent_of_batch():
    B, U0 = _generic_starts(2, 5, seed=8)
    opts = rt.RoofOptions(max_iterations=400)
    W, values = roof._LockStep(U0, B, True, opts).run()
    for s in (0, 3):
        W1, value1 = roof._LockStep(U0[s:s + 1], B, True, opts).run()
        assert np.array_equal(W1[0], W[s]) and value1[0] == values[s]
    W2, values2 = roof._LockStep(U0[[4, 1]], B, True, opts).run()
    assert np.array_equal(W2[0], W[4]) and np.array_equal(W2[1], W[1])
    assert values2[0] == values[4] and values2[1] == values[1]


def test_direction_is_a_tangent_descent_direction():
    """A level opens on D = -G; after every tick each searching start's D is
    tangent at its U and descends, and some ticks take a conjugate step."""
    B, U0 = _generic_starts(3, 4)
    batch = roof._LockStep(U0, B, True, rt.RoofOptions(max_iterations=300))
    batch._begin(np.arange(4))
    assert np.array_equal(batch.D, -batch.G) and np.array_equal(batch.slope, -batch.gn2)
    conjugate = 0
    while batch.searching.any():
        batch._tick()
        for s in np.flatnonzero(batch.searching):
            U, G, D = batch.U[s], batch.G[s], batch.D[s]
            # relative: |D| reaches 1e4 on the fine levels
            tangency = np.linalg.norm(U.conj().T @ D + D.conj().T @ U)
            assert tangency <= 1e-12 * max(1.0, np.linalg.norm(D))
            assert _inner(G, D) < 0.0
            if batch.steps[s] == 0:  # a level has just opened
                assert np.array_equal(D, -G)
            conjugate += not np.array_equal(D, -G)
    assert conjugate > 0


def test_direction_falls_back_to_the_gradient():
    """Where the conjugate direction's slope is NaN or not negative, the
    direction is -G."""
    B, U0 = _generic_starts(3, 3)
    batch = roof._LockStep(U0, B, True, rt.RoofOptions())
    batch._begin(np.arange(3))
    G = batch.G.copy()
    batch.D[0] = np.nan                      # NaN slope
    batch.G[1], batch.gn2[1], batch.D[1] = 0.0, 1e-20, G[1]  # huge beta along +G
    batch.G[2] *= 0.5                        # beta = 1/2 along D = -G: a descent
    _, P = kernels.roof_value_grad(batch.U @ B, True, batch.eps)
    batch._project(np.arange(3), batch.U.copy(), P)
    assert np.array_equal(batch.G, G)
    for s in (0, 1):
        assert np.array_equal(batch.D[s], -G[s]) and batch.slope[s] == -batch.gn2[s]
    assert np.allclose(batch.D[2], -1.5 * G[2], rtol=0.0, atol=1e-12 * np.abs(G[2]).max())
    assert batch.slope[2] < 0.0


def test_retract_flags_a_failed_start_only():
    rng = np.random.default_rng(13)
    Y = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    Y[1, 0, 0] = np.nan  # LAPACK does not converge on this start
    trial, ok = roof._retract(Y)
    assert ok.tolist() == [True, False, True]
    for s in (0, 2):
        assert np.array_equal(trial[s], kernels.polar_retract(Y[s]))


def test_failed_retraction_does_not_abort_the_batch(monkeypatch):
    """An SVD that fails on one near-rank-deficient start halves that
    start's step, as it would alone, and leaves the other starts as they are."""
    B, U0 = _generic_starts(2, 3, seed=9)
    bad = U0[1].copy()
    bad[:, 1] = bad[:, 0] + 1e-10 * bad[:, 1]  # nearly parallel columns
    U0[1] = bad
    svd, failures = kernels.polar_retract, []

    def fails_when_ill_conditioned(A):
        sv = np.linalg.svd(A, compute_uv=False)
        if np.any(sv[..., -1] < 0.05 * sv[..., 0]):
            failures.append(A.ndim)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(A)

    monkeypatch.setattr(kernels, "polar_retract", fails_when_ill_conditioned)
    opts = rt.RoofOptions(max_iterations=300)
    W, values = roof._LockStep(U0, B, True, opts).run()
    for s in range(3):
        W_ref, value_ref = _search_reference(U0[s], B, True, opts)
        assert np.array_equal(W[s], W_ref) and values[s] == value_ref
    assert 3 in failures and 2 in failures  # the batch failed, then the start alone
    assert np.array_equal(W[1], bad @ B)      # no trial of it was ever retracted


def test_non_finite_gradient_ends_the_level(monkeypatch):
    """A NaN gradient cuts the level short; each start's values stay those
    of the one-start search, and a search with no bound is not converged."""
    grad = kernels.roof_value_grad

    def nan_at_eps0(W, use_sqrt, eps=0.0):
        f, P = grad(W, use_sqrt, eps)
        return f, np.where((np.asarray(eps) == 0.0)[..., None, None], np.nan, P)

    monkeypatch.setattr(kernels, "roof_value_grad", nan_at_eps0)
    B, U0 = _generic_starts(3, 2, seed=6)
    opts = rt.RoofOptions(max_iterations=300)
    W, values = roof._LockStep(U0, B, True, opts).run()
    for s in range(2):
        W_ref, value_ref = _search_reference(U0[s], B, True, opts)
        assert np.array_equal(W[s], W_ref) and values[s] == value_ref
    rho = rt.DensityMatrix(B.T @ B.conj())
    res = rt.roof_minimize(rho, "sqrt_tau", rt.RoofOptions(restarts=1, max_iterations=300))
    assert not res.converged


# ------------------------------------------ the certified tangle-free decomposition

def _zero_branch_cases():
    rng = np.random.default_rng(41)
    cases = [std_mixture(p) for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
    for _ in range(4):
        mix = random_mixture(rng)
        p = rt.analyze(mix).p0 * rng.uniform(0.25, 0.75)
        cases.append(rt.GhzWMixture(a=mix.a, b=mix.b, c=mix.c, d=mix.d, f=mix.f, p=p))
    return cases


def _mixes_back(res, rho):
    return np.abs(rt.ensemble_to_density(res.ensemble).matrix - rho.matrix).max() < 1e-8


def test_zero_branch_returns_the_certified_decomposition():
    for mix in _zero_branch_cases():
        assert rt.analyze(mix).branch == "zero_branch"
        res = rt.roof_minimize(mix.density(), "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.best_restart_index == -1 and res.converged
        assert res.lower_bound == 0.0  # the zero certificate, not the program
        assert 0.0 <= res.value <= 1e-7
        assert _mixes_back(res, mix.density())


def test_search_never_undercuts_the_certificate(monkeypatch):
    opts = rt.RoofOptions(restarts=3)
    cases = _zero_branch_cases()
    certified = [rt.roof_minimize(mix.density(), "sqrt_tau", opts) for mix in cases]
    # without the tangle-free decomposition the orbit closed form or the
    # linear program would certify instead
    _without_lp(monkeypatch)
    monkeypatch.setattr(roof, "_zero_decomposition", lambda dirs: None)
    for mix, cert in zip(cases, certified):
        res = rt.roof_minimize(mix.density(), "sqrt_tau", opts)
        assert res.restarts_used == opts.restarts
        assert res.value >= cert.value - 1e-9


def _linear_branch_cases():
    rng = np.random.default_rng(43)
    cases = [std_mixture(0.7), std_mixture(0.9)]
    while len(cases) < 4:
        mix = random_mixture(rng)
        ana = rt.analyze(mix)
        if ana.branch == "linear_branch" and not ana.limit_case:
            cases.append(mix)
    return cases


def test_linear_branch_returns_the_lp_decomposition(monkeypatch):
    """The linear program's decomposition is returned without a search, and
    a search without the program never undercuts it."""
    _without_orbit(monkeypatch)
    cases = _linear_branch_cases()
    certified = [rt.roof_minimize(mix.density(), "sqrt_tau", FAST) for mix in cases]
    _without_lp(monkeypatch)
    opts = rt.RoofOptions(restarts=3)
    for mix, cert in zip(cases, certified):
        closed = rt.analyze(mix).rtangle
        assert cert.restarts_used == 0 and cert.best_restart_index < 0 and cert.converged
        assert closed - 1e-9 <= cert.value <= closed + 1e-7
        assert _mixes_back(cert, mix.density())
        res = rt.roof_minimize(mix.density(), "sqrt_tau", opts)
        assert res.restarts_used == opts.restarts
        assert res.value >= cert.value - 1e-9


def _ghzw_both_branches():
    """Twelve drawn GHZ/W mixtures: four on the zero branch, four just above
    the branch point, p in (p0, 1.1 p0], and four further up."""
    rng = np.random.default_rng(47)
    cases = []
    for k in range(12):
        ana = None
        while ana is None or ana.limit_case or not 0.05 < ana.p0 < 0.9:
            mix = random_mixture(rng)
            ana = rt.analyze(mix)
        low, high = ((0.25, 0.95), (1.0001, 1.1), (1.1, 1.0 / ana.p0))[k % 3]
        p = ana.p0 * rng.uniform(low, high)
        cases.append(rt.GhzWMixture(a=mix.a, b=mix.b, c=mix.c, d=mix.d, f=mix.f, p=p))
    return cases


def test_uncertified_inputs_run_the_full_search(monkeypatch):
    """Without the linear program, tau and sqrt-tau on a linear-branch input
    and a generic rank-3 input all search, and the search never undercuts
    the closed form."""
    _without_lp(monkeypatch)
    mix = std_mixture(0.8)
    res = rt.roof_minimize(mix.density(), "tau", FAST)
    assert res.restarts_used == FAST.restarts
    B, _ = _generic_starts(3, 0)
    opts = rt.RoofOptions(restarts=2, max_iterations=300)
    res = rt.roof_minimize(rt.DensityMatrix(B.T @ B.conj()), "sqrt_tau", opts)
    assert res.restarts_used == opts.restarts
    res = rt.roof_minimize(mix.density(), "sqrt_tau", FAST)
    assert res.restarts_used == FAST.restarts
    assert res.value >= TR_STD_P08 - 1e-9


@pytest.mark.parametrize("size", [2, 3])
def test_decomposition_larger_than_the_ensemble_is_not_truncated(size):
    """The zero-branch fit of the standard mixture needs four members; with
    fewer, the fit is dropped, not cut, and the search runs from the
    restarts and still mixes back.  The certificates' bounds are kept where
    their decompositions do not fit."""
    for p in (0.1, 0.3, 0.6):
        rho = std_mixture(p).density()
        assert len(roof._zero_decomposition(zero_directions(eigen_factor(rho)))) > size
        res = rt.roof_minimize(rho, "sqrt_tau", rt.RoofOptions(ensemble_size=size, restarts=2))
        assert res.restarts_used == 2 and len(res.ensemble) <= size
        assert _mixes_back(res, rho)
        assert res.lower_bound is not None and res.lower_bound <= res.value + 1e-9


def _zero_fit_reference(dirs, m):
    """The zero fit on scipy's NNLS: the fit of the identity over the root
    projectors, its weights above 1e-12 the members, accepted when its
    residual is below 1e-10 and it has 2..m members."""
    if len(dirs) < 2:
        return None
    A = np.array([[abs(d[0]) ** 2, abs(d[1]) ** 2, (d[0].conj() * d[1]).real,
                   (d[0].conj() * d[1]).imag] for d in dirs]).T
    u, _ = nnls(A, np.array([1.0, 1.0, 0.0, 0.0]))
    support = np.flatnonzero(u > 1e-12)
    if (not 2 <= len(support) <= m
            or np.linalg.norm(A[:, support] @ u[support] - [1.0, 1.0, 0.0, 0.0]) >= 1e-10):
        return None
    return np.sqrt(u[support])[:, None] * np.array(dirs)[support]


def _zero_fit_corpus():
    """Rank-2 inputs for the zero fit: the twelve GHZ/W mixtures of both
    branches, a random SLOCC image of each, twelve random rank-2 states,
    and the degenerate-W fourfold root and the degenerate-GHZ pairs of
    repeated roots."""
    rng = np.random.default_rng(53)
    mixtures = _ghzw_both_branches()
    states = [mix.density() for mix in mixtures]
    for mix in mixtures:
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        states.append(_slocc_image(mix.density(), ops)[0])
    states += [_random_rank2_gram(rng) for _ in range(6)] + [_random_rank2(rng) for _ in range(6)]
    s2, s3 = 2 ** -0.5, 3 ** -0.5
    states += [rt.GhzWMixture(a=s2, b=s2, c=1.0, d=0.0, f=0.0, p=0.6).density(),
               rt.GhzWMixture(a=0.0, b=1.0, c=s3, d=s3, f=s3, p=0.6).density()]
    return [zero_directions(eigen_factor(rho)) for rho in states]


@pytest.mark.parametrize("size", [3, 4])
def test_zero_fit_matches_the_scipy_reference(monkeypatch, size):
    """Same decision as the fit on scipy's NNLS, and the same U within
    1e-12; both decisions occur, and the repeated roots reach phase one of
    the simplex."""
    calls = []
    simplex = roof._simplex
    monkeypatch.setattr(roof, "_simplex", lambda *args: calls.append(1) or simplex(*args))
    decisions = set()
    for dirs in _zero_fit_corpus():
        U, ref = roof._zero_decomposition(dirs), _zero_fit_reference(dirs, size)
        if U is not None and len(U) > size:  # roof_minimize's size rule
            U = None
        assert (U is None) == (ref is None)
        if U is not None:
            assert np.abs(U - ref).max() <= 1e-12
        decisions.add(U is None)
    assert decisions == {True, False} and len(calls) >= 2


def test_zero_fit_near_the_branch_point(monkeypatch):
    """Just above p0 the unique fit has a weight of about -(p - p0): from
    rounding up to -1e-10 ||A^-1|| an exact fit may still exist, and phase
    one of the simplex decides; beyond it the one solve declines.  Both
    sides of p0 match the scipy reference."""
    calls = []
    simplex = roof._simplex
    monkeypatch.setattr(roof, "_simplex", lambda *args: calls.append(1) or simplex(*args))
    for mix in (std_mixture(0.5), random_mixture(np.random.default_rng(67))):
        p0 = rt.analyze(mix).p0
        for t, accepted, phase_one in ((-1e-9, True, False), (1e-13, True, False),
                                       (1e-11, True, True), (1e-9, False, False)):
            mix_t = rt.GhzWMixture(a=mix.a, b=mix.b, c=mix.c, d=mix.d, f=mix.f, p=p0 * (1 + t))
            dirs = zero_directions(eigen_factor(mix_t.density()))
            calls.clear()
            U, ref = roof._zero_decomposition(dirs), _zero_fit_reference(dirs, 4)
            assert (U is not None) == (ref is not None) == accepted
            assert bool(calls) == phase_one
            if accepted:
                assert np.abs(U - ref).max() <= 1e-12


def test_zero_fit_declines_when_phase_one_fails(monkeypatch):
    """The degenerate-GHZ pair has repeated roots, so phase one of the
    simplex fits it, with two members.  Where the simplex fails (no pivots
    allowed), the fit declines rather than raises, and the result still
    mixes back: the orbit closed form's for sqrt-tau, the search's for tau
    (the program fails too)."""
    rho = rt.GhzWMixture(a=0.0, b=1.0, c=3 ** -0.5, d=3 ** -0.5, f=3 ** -0.5, p=0.6).density()
    dirs = zero_directions(eigen_factor(rho))
    assert len(roof._zero_decomposition(dirs)) == 2
    monkeypatch.setattr(roof, "_LP_PIVOTS", 0)
    assert roof._zero_decomposition(dirs) is None
    for functional, restarts_used in (("sqrt_tau", 0), ("tau", 2)):
        res = rt.roof_minimize(rho, functional, rt.RoofOptions(restarts=2, max_iterations=300))
        assert res.restarts_used == restarts_used and _mixes_back(res, rho)


def test_zero_directions_on_near_rank1_states():
    """The roots of the range quartic are solved on unit eigenvectors: on
    (1 - w) |a><a| + w |b><b| down to w = 1e-10, where the quartic of the
    rows sqrt(lambda_k) e_k has a leading coefficient below rounding, every
    root is a tangle-free range state."""
    for w in (1e-4, 1e-6, 1e-8, 1e-10):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_pure(rng).amp, random_pure(rng).amp
            rho = rt.DensityMatrix((1 - w) * np.outer(a, a.conj()) + w * np.outer(b, b.conj()))
            B = eigen_factor(rho)
            dirs = zero_directions(B)
            assert len(dirs) == 4
            for d in dirs:
                psi = d @ B
                assert rt.invariants(rt.PureState(psi / np.linalg.norm(psi))).tau <= 1e-12


def test_rounding_level_weights_are_not_members():
    """Two orthogonal roots fit the identity alone: the other two roots'
    weights are rounding, not members, so the fit holds in two members."""
    rng = np.random.default_rng(59)
    for _ in range(20):
        q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        others = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        dirs = [q[:, 0], others[0] / np.linalg.norm(others[0]), q[:, 1],
                others[1] / np.linalg.norm(others[1])]
        U = roof._zero_decomposition(dirs)
        assert U is not None and len(U) == 2
        assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-12


# ------------------------------------------------------- the rank-2 linear program

def _slocc_image(rho, ops):
    """(A x B x C) rho (A x B x C)^dag / p and alpha = |det A det B det C| / p."""
    M = np.kron(ops[0], np.kron(ops[1], ops[2]))
    image = M @ rho.matrix @ M.conj().T
    p = np.trace(image).real
    alpha = abs(np.prod([np.linalg.det(op) for op in ops])) / p
    image = image / p
    return rt.DensityMatrix((image + image.conj().T) / 2.0), alpha


def test_lp_brackets_the_roof_on_slocc_orbits(monkeypatch):
    """t_r is covariant on the whole SLOCC orbit of a GHZ/W mixture: the
    bracket of an image under random complex local operators contains
    alpha t_r, and the linear program certifies it without a search."""
    _without_orbit(monkeypatch)
    rng = np.random.default_rng(5)
    for p in (0.8, 0.95):
        mix = std_mixture(p)
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        image, alpha = _slocc_image(mix.density(), ops)
        want = alpha * rt.analyze(mix).rtangle
        res = rt.roof_minimize(image, "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound - 1e-9 <= want <= res.value + 1e-9
        assert res.value - want <= 1e-6
        assert _mixes_back(res, image)


def test_lp_certified_solve_solves_the_quartic_once(monkeypatch):
    """The zero fit and the linear program read one list of roots: an
    LP-certified tau solve solves the range quartic once."""
    calls = []
    zero_directions_ = roof.zero_directions
    monkeypatch.setattr(roof, "zero_directions", lambda B: calls.append(B) or zero_directions_(B))
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    res = rt.roof_minimize(rho, "tau", FAST)
    assert res.restarts_used == 0 and res.converged and res.lower_bound > 0.0
    assert len(calls) == 1


def test_lp_brackets_the_counterexample_tau_constants():
    fx = rt.counterexample_fixture()
    rho = rt.ensemble_to_density(fx.ensemble)
    rho0 = rt.measure(fx.ensemble, fx.measurement)[0].post_density
    for state, want in ((rho, TAU_RHO), (rho0, TAU_RHO0)):
        res = rt.roof_minimize(state, "tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound - 1e-9 <= want <= res.value + 1e-9
        assert res.value - res.lower_bound <= roof._CERT_GAP
        again = rt.roof_minimize(state, "tau", FAST)
        assert again.value == res.value and again.lower_bound == res.lower_bound


def test_affine_bound_never_exceeds_the_closed_form():
    """The linear program's dual is an affine lower bound on the roof: it
    lies below the closed form, below random decompositions and below the
    program's own decomposition; and the default path certifies the result."""
    rng = np.random.default_rng(53)
    for mix in _ghzw_both_branches():
        rho = mix.density()
        closed = rt.analyze(mix).rtangle
        B = eigen_factor(rho)
        W, bound = roof._lp_roof(B, True, zero_directions(B))
        assert bound <= closed + 1e-9
        rows = [W]
        rows += [np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0] @ B
                 for _ in range(2)]
        for W in rows:
            assert bound <= kernels.roof_value(W, True, 0.0) + 1e-9
        res = rt.roof_minimize(rho, "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound <= closed + 1e-9
        assert closed - 1e-9 <= res.value <= closed + roof._CERT_GAP


def test_lp_brackets_the_closed_form_on_both_branches(monkeypatch):
    """With the zero certificate off, the linear program alone returns a
    decomposition within _CERT_GAP of the closed form without a search, on
    the zero branch, just above the branch point and further up, with a
    bound never above the closed form."""
    _without_orbit(monkeypatch)
    monkeypatch.setattr(roof, "_zero_decomposition", lambda dirs: None)
    for mix in _ghzw_both_branches():
        closed = rt.analyze(mix).rtangle
        res = rt.roof_minimize(mix.density(), "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound <= closed + 1e-9
        assert closed - 1e-9 <= res.value <= closed + roof._CERT_GAP
        assert _mixes_back(res, mix.density())


def test_lower_bound_only_at_rank_2():
    assert rt.roof_minimize(_pure_density(ghz_state()), "tau", FAST).lower_bound is None
    B, _ = _generic_starts(3, 0)
    opts = rt.RoofOptions(restarts=1, max_iterations=100)
    assert rt.roof_minimize(rt.DensityMatrix(B.T @ B.conj()), "tau", opts).lower_bound is None
    for p in (0.3, 0.8):  # the zero certificate and the orbit closed form
        res = rt.roof_minimize(std_mixture(p).density(), "sqrt_tau", FAST)
        assert isinstance(res.lower_bound, float)
        assert res.lower_bound <= res.value + 1e-9 and res.value - res.lower_bound <= roof._CERT_GAP


def _random_rank2(rng):
    """Two random pure states mixed with Dirichlet weights."""
    w = rng.dirichlet([1.0, 1.0])
    rows = [random_pure(rng).amp for _ in range(2)]
    return rt.DensityMatrix(sum(wk * np.outer(v, v.conj()) for wk, v in zip(w, rows)))


def _random_rank2_gram(rng):
    """X diag(w) X^dag / tr, X a complex normal 8 x 2 matrix, w Dirichlet."""
    X = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    w = rng.dirichlet([1.0, 1.0])
    rho = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w, X.T))
    return rt.DensityMatrix(rho / np.trace(rho).real)


def _cap_lp_rounds(monkeypatch):
    """State 2 of `_random_rank2` rng 12, tau: stopped after four rounds, the
    program's bound is within _CERT_GAP of the roof, its decomposition not."""
    monkeypatch.setattr(roof, "_LP_ROUNDS", 4)
    rng = np.random.default_rng(12)
    return [_random_rank2(rng) for _ in range(3)][2], "tau"


def _lower_orbit_bound(monkeypatch):
    """The standard mixture at p = 0.8, sqrt-tau, with the orbit's t_r
    lowered by 1e-3 and the program off."""
    range_orbit = roof.range_orbit

    def loose(B, dirs):
        orbit = range_orbit(B, dirs)
        return replace(orbit, analysis=replace(orbit.analysis, rtangle=orbit.analysis.rtangle - 1e-3))

    monkeypatch.setattr(roof, "range_orbit", loose)
    monkeypatch.setattr(roof, "_lp_roof", lambda B, use_sqrt, dirs: None)
    return std_mixture(0.8).density(), "sqrt_tau"


def _raise_lp_bound(monkeypatch):
    """The counterexample rho, tau, with the program's bound forced to 1.0,
    above its own decomposition: pricing missed a point."""
    lp_roof = roof._lp_roof
    monkeypatch.setattr(roof, "_lp_roof",
                        lambda B, use_sqrt, dirs: (lp_roof(B, use_sqrt, dirs)[0], 1.0))
    return rt.ensemble_to_density(rt.counterexample_fixture().ensemble), "tau"


@pytest.mark.parametrize("open_bracket, sound", [(_cap_lp_rounds, True), (_lower_orbit_bound, True),
                                                 (_raise_lp_bound, False)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_open_bracket_returns_the_certificate_decomposition(monkeypatch, open_bracket, sound):
    """A certificate whose decomposition fits but whose bracket is open
    answers without a search: its decomposition is returned, not converged,
    with its bound where that is sound and none where it lies above the
    value."""
    rho, functional = open_bracket(monkeypatch)
    made, certificates = [], roof._certificates
    monkeypatch.setattr(roof, "_certificates",
                        lambda B, use_sqrt: (made.append(c) or c for c in certificates(B, use_sqrt)))
    res = rt.roof_minimize(rho, functional, rt.RoofOptions(restarts=2, max_iterations=300))
    assert len(made) == 1
    W, bound = made[0]
    assert res.restarts_used == 0 and res.best_restart_index == -1 and res.converged is False
    assert res.value == rt.objective_at(rho, roof._ensemble_from_rows(W), functional)
    assert _mixes_back(res, rho)
    assert res.lower_bound == (bound if sound else None)


@pytest.mark.parametrize("draw, seed", [(_random_rank2, 2026), (_random_rank2, 7),
                                        (_random_rank2, 11), (_random_rank2, 12),
                                        (_random_rank2_gram, 2026), (_random_rank2_gram, 7),
                                        (biseparable, 4242)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_lp_corpus_is_bracketed_and_beats_the_search(monkeypatch, draw, seed):
    """The gate of the rank-2 certificates: thirty random rank-2 states per
    entangled set and 200 biseparable ones, both functionals.  Every result
    mixes back and is certified with no search, its bound no higher than its
    value beyond rounding, and -1 labels exactly the solves that did not
    search.  Only the biseparable ranges read as tangle-free, certified with
    bound 0; on six states of the first set the value is no worse than the
    search's."""
    rng = np.random.default_rng(seed)
    states = [draw(rng) for _ in range(200 if draw is biseparable else 30)]
    results = {}
    for k, rho in enumerate(states):
        frame = np.array_equal(zero_directions(eigen_factor(rho)), np.eye(2))
        assert frame == (draw is biseparable)
        for functional in roof.FUNCTIONALS:
            res = rt.roof_minimize(rho, functional)
            assert _mixes_back(res, rho)
            assert res.converged and res.restarts_used == 0
            assert (res.best_restart_index == -1) == (res.restarts_used == 0)
            assert res.lower_bound <= res.value + roof._BOUND_SLACK
            if frame:
                assert res.lower_bound == 0.0
            results[k, functional] = res.value
    if (draw, seed) != (_random_rank2, 2026):
        return
    _without_lp(monkeypatch)
    checked = [(k, f) for k, f in results if results[k, f] > 1e-6][:6]
    assert len(checked) == 6
    for k, functional in checked:
        search = rt.roof_minimize(states[k], functional, rt.RoofOptions(restarts=5))
        assert results[k, functional] <= search.value + 1e-7


def _lp_columns(B, use_sqrt):
    """The simplex's first costs, constraint rows and right-hand side."""
    return roof._Range(B, use_sqrt, zero_directions(B)).columns()[2:]


def test_simplex_matches_highs_on_the_same_columns():
    """The revised simplex reaches HiGHS's optimum over the grid and the
    roots: the counterexample rho (tau) and two random states (sqrt-tau)."""
    rng = np.random.default_rng(2026)
    cases = [(rt.ensemble_to_density(rt.counterexample_fixture().ensemble), False),
             (_random_rank2(rng), True), (_random_rank2(rng), True)]
    for rho, use_sqrt in cases:
        B = eigen_factor(rho)
        cost, rows, b = _lp_columns(B, use_sqrt)
        basis = roof._LP_BASIS.copy()
        w, X, reduced = roof._simplex(cost, rows, b, basis)
        highs = linprog(cost, A_eq=rows.T, b_eq=b, bounds=(0.0, None), method="highs",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
        assert highs.status == 0
        assert abs(cost[basis] @ w - highs.fun) <= 1e-9
        assert abs(b @ X - highs.fun) <= 1e-9
        assert w.min() >= -1e-12 and np.abs(rows[basis].T @ w - b).max() <= 1e-12
        assert reduced.min() >= -roof._LP_TOL


@pytest.mark.parametrize("patch", [("_LP_BASIS", np.arange(4)), ("_LP_PIVOTS", 0)],
                         ids=["singular-basis", "pivot-cap"])
def test_failed_simplex_falls_back_to_the_search(monkeypatch, patch):
    """Four copies of e0 make a singular start basis, and no pivot at all
    leaves the start basis unsolved: the program returns None and the
    search runs, with no bound and so not converged."""
    monkeypatch.setattr(roof, *patch)
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    B = eigen_factor(rho)
    assert roof._lp_roof(B, False, zero_directions(B)) is None
    opts = rt.RoofOptions(restarts=2, max_iterations=300)
    res = rt.roof_minimize(rho, "tau", opts)
    assert res.restarts_used == 2 and res.lower_bound is None and res.converged is False
    assert _mixes_back(res, rho)


def test_lp_closes_the_bracket_where_pricing_tails_off(monkeypatch):
    """State 27 of rng 7, sqrt-tau: the roof is affine on a face there, and
    the gap shrinks slowly from round to round; the program still closes
    its own gap within _LP_ROUNDS and certifies its decomposition."""
    rng = np.random.default_rng(7)
    rho = [_random_rank2(rng) for _ in range(28)][27]
    rounds = []
    simplex = roof._simplex
    monkeypatch.setattr(roof, "_simplex", lambda *args: rounds.append(1) or simplex(*args))
    res = rt.roof_minimize(rho, "sqrt_tau", FAST)
    assert 0 < len(rounds) < roof._LP_ROUNDS
    assert res.restarts_used == 0 and res.converged
    assert res.lower_bound <= res.value + 1e-9 and res.value - res.lower_bound <= roof._CERT_GAP
    assert _mixes_back(res, rho)


def _first_round(rho, use_sqrt):
    """The range, the dual X, the grid's reduced costs and the support of
    the program's first round, as :func:`roof._lp_roof` prices them."""
    B = eigen_factor(rho)
    sphere = roof._Range(B, use_sqrt, zero_directions(B))
    c, y, cost, rows, b = sphere.columns()
    basis = roof._LP_BASIS.copy()
    w, X, reduced = roof._simplex(cost, rows, b, basis)
    support = basis[w > 0.0]
    return sphere, X, reduced[:len(roof._BLOCH_C)], c[support], y[support]


def test_pricing_reaches_the_fine_grid_minimum():
    """Newton pricing from the support and the 8 lowest grid points finds
    f - l at or below its minimum over a grid four times finer in both
    angles (241 x 480), on 40 random rank-2 states and both functionals,
    with the dual X of the first simplex round."""
    theta, phi = np.meshgrid(np.arange(241) * np.pi / 240, np.arange(480) * np.pi / 240,
                             indexing="ij")
    fine_c, fine_y = np.cos(theta / 2).ravel(), (np.exp(1j * phi) * np.sin(theta / 2)).ravel()
    rng = np.random.default_rng(61)
    states = [_random_rank2(rng) for _ in range(20)] + [_random_rank2_gram(rng) for _ in range(20)]
    for rho in states:
        for use_sqrt in (True, False):
            sphere, X, on_grid, c, y = _first_round(rho, use_sqrt)
            lowest, (new_c, new_y) = sphere.lowest(X, on_grid, c, y)
            fine = (sphere.f(fine_c, fine_y) - roof._basis(fine_c, fine_y) @ X).min()
            assert lowest <= fine + 1e-12
            assert np.allclose(new_c ** 2 + np.abs(new_y) ** 2, 1.0) and new_c.min() >= 0.0


def test_pricing_derivatives_match_central_differences():
    """The analytic gradient and Hessian of f - l in both charts agree with
    central differences at random points away from the roots of q."""
    rng = np.random.default_rng(62)
    h = 1e-4
    for rho in [_random_rank2(rng) for _ in range(3)] + [_random_rank2_gram(rng) for _ in range(3)]:
        for use_sqrt in (True, False):
            B = eigen_factor(rho)
            sphere = roof._Range(B, use_sqrt, zero_directions(B))
            X = rng.standard_normal(4)
            theta, phi = rng.uniform(0.0, np.pi, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
            c, y = np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)
            overlap = np.abs(np.stack((c, y), axis=-1) @ sphere.roots.conj().T)
            away = (overlap < 0.95).all(axis=1)
            assert away.sum() >= 10
            z, flip = sphere.chart(c[away], y[away])
            assert flip.any() and not flip.all()
            coef = sphere.coefficients(X, flip)
            g, g_z, g_zc, g_zz = sphere.excess(z, *coef)

            def G(dz):
                return sphere.excess(z + dz, *coef)[0]

            grad = (G(h) - G(-h) + 1j * (G(1j * h) - G(-1j * h))) / (2.0 * h)
            hess_ss = (G(h) - 2.0 * g + G(-h)) / h ** 2
            hess_tt = (G(1j * h) - 2.0 * g + G(-1j * h)) / h ** 2
            hess_st = (G(h + 1j * h) - G(h - 1j * h) - G(-h + 1j * h) + G(-h - 1j * h)) / (4 * h * h)
            scale = 1.0 + np.abs(g_zc) + np.abs(g_zz)
            assert np.abs(grad - 2.0 * np.conj(g_z)).max() <= 1e-6 * scale.max()
            assert np.abs(hess_ss - 2.0 * (g_zc + g_zz.real)).max() <= 1e-4 * scale.max()
            assert np.abs(hess_tt - 2.0 * (g_zc - g_zz.real)).max() <= 1e-4 * scale.max()
            assert np.abs(hess_st + 2.0 * g_zz.imag).max() <= 1e-4 * scale.max()


def test_simplex_dual_prices_its_basis_at_zero():
    """The dual X is refined to rounding: every basic column's reduced cost
    is zero to a few ulps of the costs, so rounding cannot make a basic or
    duplicate column enter and the pivots cycle."""
    rng = np.random.default_rng(11)
    states = [_random_rank2(rng) for _ in range(20)] + [_random_rank2_gram(rng) for _ in range(20)]
    for rho in states:
        for use_sqrt in (True, False):
            B = eigen_factor(rho)
            cost, rows, b = _lp_columns(B, use_sqrt)
            basis = roof._LP_BASIS.copy()
            _, _, reduced = roof._simplex(cost, rows, b, basis)
            assert np.abs(reduced[basis]).max() <= 8 * np.finfo(float).eps * np.abs(cost).max()


def test_rings_let_the_support_move_on_the_counterexample(monkeypatch):
    """On rho0 (tau) the three support points must move to where the mixing
    rows put them, off the minima of f - l; the rings of columns around
    them let the program close its bracket in three rounds, against five
    from the Newton points alone."""
    fx = rt.counterexample_fixture()
    B = eigen_factor(rt.measure(fx.ensemble, fx.measurement)[0].post_density)
    rounds = []
    simplex = roof._simplex
    monkeypatch.setattr(roof, "_simplex", lambda *args: rounds.append(1) or simplex(*args))
    dirs = zero_directions(B)
    _, bound = roof._lp_roof(B, False, dirs)
    with_rings = len(rounds)
    monkeypatch.setattr(roof, "_RING", np.zeros(0, dtype=complex))
    rounds.clear()
    _, bound_without = roof._lp_roof(B, False, dirs)
    assert with_rings <= 3 < len(rounds) < roof._LP_ROUNDS
    assert abs(bound - TAU_RHO0) <= 1e-7 and abs(bound_without - TAU_RHO0) <= 1e-7


@pytest.mark.parametrize("seed, index, restarts", [(120, 19, 50), (125, 11, 5)])
def test_exact_pricing_keeps_the_bound_below_the_search(monkeypatch, seed, index, restarts):
    """Tau, `_random_rank2` states where pricing missed the lowest f - l:
    at rng 120 state 19 the pattern search priced a bound 1.25e-6 above
    the value restart 33 of the search finds; at rng 125 state 11 the
    minimum lies beside a root in the support, where f - l falls off the
    cusp, 2e-4 below the lowest Newton point from the grid.  The program
    certifies a value no higher than the search's, and the search stays
    above its bound."""
    rng = np.random.default_rng(seed)
    rho = [_random_rank2(rng) for _ in range(index + 1)][index]
    res = rt.roof_minimize(rho, "tau")
    assert res.restarts_used == 0 and res.converged
    assert res.lower_bound <= res.value + roof._BOUND_SLACK
    _without_lp(monkeypatch)
    search = rt.roof_minimize(rho, "tau", rt.RoofOptions(restarts=restarts))
    assert res.lower_bound <= search.value + roof._BOUND_SLACK
    assert res.value <= search.value


# ------------------------------------------------ the closed form of GHZ/W images

def _orbit_images():
    """Forty SLOCC images (rng 5): twenty of GHZ/W mixtures with random
    complex parameters and twenty of the standard mixture, p ~ U(0.05, 0.98),
    under random complex local operators; (image, alpha t_r, mixture)."""
    rng = np.random.default_rng(5)
    cases = []
    for k in range(40):
        mix = random_mixture(rng) if k < 20 else std_mixture(0.5)
        mix = rt.GhzWMixture(a=mix.a, b=mix.b, c=mix.c, d=mix.d, f=mix.f,
                             p=rng.uniform(0.05, 0.98))
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        image, alpha = _slocc_image(mix.density(), ops)
        cases.append((image, alpha * rt.analyze(mix).rtangle, mix))
    return cases


def test_orbit_closed_form_on_slocc_images(monkeypatch):
    """Every image is certified without a search at alpha t_r, with alpha t_r
    as its bound; with the closed form and the zero certificate off, the
    linear program's bracket contains alpha t_r."""
    cases = _orbit_images()
    assert sum(rt.analyze(mix).branch == "linear_branch" for _, _, mix in cases) >= 10
    for image, want, _ in cases:
        res = rt.roof_minimize(image, "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert abs(res.value - want) <= roof._CERT_GAP
        assert abs(res.lower_bound - want) <= 1e-12
        assert _mixes_back(res, image)
    _without_orbit(monkeypatch)
    monkeypatch.setattr(roof, "_zero_decomposition", lambda dirs: None)
    for image, want, _ in cases:
        res = rt.roof_minimize(image, "sqrt_tau", FAST)
        assert res.lower_bound - 1e-9 <= want <= res.value + 1e-9


def test_default_path_returns_the_orbit_closed_form(monkeypatch):
    """On a linear-branch image the default path returns the orbit's own
    members and closed form, ahead of the linear program; on the zero
    branch the zero certificate still answers first; below four members
    the orbit's bound is kept, though its members do not fit, and for tau
    the orbit is not tried."""
    for image, want, mix in _orbit_images():
        orbit = rt.orbit_analysis(image)
        assert orbit.analysis.branch == rt.analyze(mix).branch
        res = rt.roof_minimize(image, "sqrt_tau", FAST)
        if orbit.analysis.branch == "zero_branch":
            assert res.lower_bound == 0.0
            continue
        assert res.best_restart_index == -1 and res.lower_bound == orbit.analysis.rtangle
        linear = image, orbit.analysis.rtangle
        members = roof._ensemble_from_rows(orbit.rows()).members
        assert len(res.ensemble) == len(members) == 4
        for (w, psi), (w_ref, psi_ref) in zip(res.ensemble.members, members):
            assert w == w_ref and np.array_equal(psi.amp, psi_ref.amp)
        assert res.value == rt.objective_at(image, res.ensemble, "sqrt_tau")
    small = rt.RoofOptions(ensemble_size=3, restarts=1, max_iterations=50)
    res = rt.roof_minimize(linear[0], "sqrt_tau", small)
    assert res.lower_bound >= linear[1] > 0.0 and len(res.ensemble) <= 3
    calls = []
    monkeypatch.setattr(roof, "range_orbit", lambda B, dirs: calls.append(B))
    rt.roof_minimize(image, "tau", FAST)
    assert calls == []


@pytest.mark.parametrize("w_weight", [1e-5, 1e-6])
def test_orbit_reads_a_small_branch_point_beside_a_light_w(w_weight):
    """A mixture with s = 1.13e-3 (p0 = 0.0107) and a W weight 1 - p of
    1e-5 and 1e-6, and three random complex SLOCC images of it: the orbit
    recognizes every one of them and reads D/A off the unit frame, so p0 is
    not rounded to 0 and the certified bound does not rise above alpha t_r."""
    mix = rt.GhzWMixture(a=2 ** -0.5, b=2 ** -0.5, c=(1 - 2e-4) ** 0.5, d=0.01, f=0.01,
                         p=1 - w_weight)
    ana = rt.analyze(mix)
    orbit = rt.orbit_analysis(mix.density())
    assert abs(orbit.analysis.p0 - ana.p0) <= 1e-4 * ana.p0
    rng = np.random.default_rng(31)
    cases = [(mix.density(), 1.0)]
    for _ in range(3):
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        cases.append(_slocc_image(mix.density(), ops))
    for rho, alpha in cases:
        assert rt.orbit_analysis(rho) is not None
        res = rt.roof_minimize(rho, "sqrt_tau")
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound <= alpha * ana.rtangle + roof._BOUND_SLACK
        assert _mixes_back(res, rho)


def test_orbit_reads_a_tiny_branch_point():
    """s = |D/A| from 1e-13 to 1e-11 is D != 0, not rounding: read as D = 0,
    p0 would fall from s^(2/3) / (1 + s^(2/3)) to 0 and the certified bound
    would rise above t_r by about 2 |ab| (1 - p) s^(2/3)."""
    a = 2 ** -0.5
    for s in (1e-13, 1e-12, 1e-11):
        d = (s * a ** 3 / 4) ** 0.5
        for p in (0.3, 0.5, 0.9):
            mix = rt.GhzWMixture(a=a, b=a, c=(1 - 2 * d * d) ** 0.5, d=d, f=d, p=p)
            res = rt.roof_minimize(mix.density(), "sqrt_tau", rt.RoofOptions(restarts=5))
            assert res.lower_bound <= rt.analyze(mix).rtangle + 1e-10


def test_orbit_recognizes_general_measurement_outcomes():
    """A non-diagonal invertible Kraus operator on any qubit takes the
    mixture out of the GHZ/W family but keeps it on its SLOCC orbit: the
    outcome's density is recognized, and the oracle returns alpha t_r
    without a search."""
    rng = np.random.default_rng(21)
    mixes = [std_mixture(0.8)] + _linear_branch_cases()[2:]
    for mix, target in zip(mixes * 3, "AAABBBCCC"):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m0 = 0.6 * z / np.linalg.norm(z, 2)
        rest = np.eye(2) - m0.conj().T @ m0
        lam, vec = np.linalg.eigh(rest)
        m1 = (vec * np.sqrt(np.maximum(lam, 0))) @ vec.conj().T
        ms = rt.MeasurementSet((rt.LocalOperator(m0, target), rt.LocalOperator(m1, target)))
        roof_in = rt.analyze(mix).rtangle
        for out in rt.measure(mix.ensemble(), ms):
            assert rt.orbit_analysis(out.post_density) is not None
            res = rt.roof_minimize(out.post_density, "sqrt_tau", FAST)
            assert res.restarts_used == 0 and res.converged
            assert abs(res.value - out.alpha * roof_in) <= roof._CERT_GAP
            assert abs(res.lower_bound - out.alpha * roof_in) <= 1e-12


def test_orbit_analysis_rejects_non_orbit_states():
    """Random rank-2 states, the generic-roof rank-2 base state, a GHZ/W
    pair with an off-diagonal coherence, which keeps I = 0 but has no
    diagonal root frame, and a diagonal pair whose quartic lacks only the
    x^3 y term, not the x^2 y^2 one (I != 0), are not recognized;
    nor is any rank but 2."""
    rng = np.random.default_rng(2026)
    states = [_random_rank2(rng) for _ in range(30)] + [generic_base(2)]
    g, w = std_mixture(1.0).ghz_state().amp, std_mixture(0.0).w_state().amp
    rho = 0.6 * np.outer(g, g.conj()) + 0.4 * np.outer(w, w.conj())
    states.append(rt.DensityMatrix(rho + 0.1 * (np.outer(g, w.conj()) + np.outer(w, g.conj()))))
    # g0 + t w, with t a root of the x^3 y coefficient of Det(x (g0 + t w) + y w)
    g0 = random_pure(rng).amp
    q = pair_quartic(g0, w)
    g = g0 + np.roots([3.0 * q[1], 2.0 * q[2], q[3]])[0] * w
    q = pair_quartic(g, w)
    assert abs(q[0]) + abs(q[3]) <= 1e-14 and abs(q[2]) >= 0.1 * np.abs(q).max()
    rho = 0.6 * np.outer(g, g.conj()) / np.vdot(g, g).real + 0.4 * np.outer(w, w.conj())
    states.append(rt.DensityMatrix(rho))
    states += [_pure_density(ghz_state()), generic_base(3)]
    for rho in states:
        assert rt.orbit_analysis(rho) is None
    assert rt.orbit_analysis(std_mixture(0.6).density()) is not None


def test_tau_is_not_covariant_on_the_orbit(monkeypatch):
    """On ten linear-branch images (rng 17) the linear program's tau
    bracket of the image excludes alpha^2 times the mixture's tau bracket by
    more than its own width, though t_r is covariant there; the orbit closed
    form, which holds for t_r alone, is never tried on tau."""
    calls = []
    orbit = roof.range_orbit
    monkeypatch.setattr(roof, "range_orbit", lambda B, dirs: calls.append(B) or orbit(B, dirs))
    rng = np.random.default_rng(17)
    opts = rt.RoofOptions(restarts=2)
    cases = 0
    while cases < 10:
        mix = random_mixture(rng)
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        ana = rt.analyze(mix)
        if ana.branch != "linear_branch" or ana.limit_case:
            continue
        cases += 1
        image, alpha = _slocc_image(mix.density(), ops)
        tau_in = rt.roof_minimize(mix.density(), "tau", opts)
        tau_out = rt.roof_minimize(image, "tau", opts)
        for res in (tau_in, tau_out):
            assert res.restarts_used == 0 and res.converged
        width = tau_out.value - tau_out.lower_bound
        apart = max(alpha ** 2 * tau_in.lower_bound - tau_out.value,
                    tau_out.lower_bound - alpha ** 2 * tau_in.value)
        assert apart > width
    assert calls == []
