import cmath
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

import rtangle as rt
from rtangle import kernels
from rtangle import ghzw, lp, quartic, roof, search
from rtangle.quartic import eigen_factor, pair_quartic, range_roots, range_tensor
from freeze import (GENERIC_ROOFS, TAU_RHO, TAU_RHO0, TR_STD_P08, _local_operator, _orbit_images,
                    _random_rank2, _random_rank2_gram, _slocc_image, _std_images, biseparable,
                    generic_base, ghz_state, local_frames, random_mixture, random_pure,
                    std_mixture)

FAST = rt.RoofOptions(restarts=6)


def _pure_density(psi):
    return rt.ensemble_to_density(rt.WeightedEnsemble(((1.0, psi),)))


def _dirs(rho):
    """The roots of rho's range quartic as rows of U, as the zero fit and the
    orbit read them."""
    return range_roots(eigen_factor(rho))[3]


def _range(B, use_sqrt):
    """The range of rho = B^T conj(B), as the linear program reads it."""
    return lp._Range(B, use_sqrt, *range_roots(B)[:3])


def _bloch(angles):
    """The unit vectors (c, y) = (cos(theta/2), e^(i phi) sin(theta/2)) of
    (..., 2) angles (theta, phi): c real, y complex.  The reference for the
    program's grid."""
    half = angles[..., 0] / 2.0
    return np.cos(half), np.exp(1j * angles[..., 1]) * np.sin(half)


def _phase_off(V):
    """(c, y) of the unit rows V, (n, 2), with the phase of V[:, 0] taken off."""
    return np.abs(V[:, 0]), V[:, 1] * np.exp(-1j * np.angle(V[:, 0]))


def _basis(c, y):
    """The rows (c^2, |y|^2, 2 c Re y, 2 c Im y) of v v^H at unit (c, y), c
    real: the reference for the program's constraint rows."""
    return np.stack((c * c, y.real ** 2 + y.imag ** 2, 2.0 * c * y.real, 2.0 * c * y.imag),
                    axis=-1)


def _chart_basis_ref(z, flip):
    """The constraint rows of the chart points (z, flip) and their
    derivatives in Re z and Im z, (3, n, 4), in the form the program held
    before its evaluation was stacked: the reference for
    :func:`lp._chart_basis`."""
    s, t = z.real, z.imag
    n = 1.0 + s * s + t * t
    u, a0 = 2.0 * np.where(flip, np.conj(z), z) / n, np.where(flip, n - 1.0, 1.0) / n
    d0 = np.where(flip, 2.0, -2.0) / (n * n)
    u_s, u_t = (2.0 - 2.0 * s * u) / n, (np.where(flip, -2j, 2j) - 2.0 * t * u) / n
    a = np.stack((a0, 1.0 - a0, u.real, u.imag, d0 * s, -d0 * s, u_s.real, u_s.imag,
                  d0 * t, -d0 * t, u_t.real, u_t.imag), axis=-1)
    return a.reshape(-1, 3, 4).swapaxes(0, 1)


def _excess_ref(sphere, X, z, flip):
    """g = f - l at the chart points (z, flip) and its Wirtinger derivatives
    (g_z, g_zz*, g_zz), in the form the program held before its evaluation
    was stacked: the reference for :meth:`lp._Range.excess`."""
    xi = X[2] - 1j * X[3]
    taylor = sphere.taylor[flip.astype(int)]
    x0, x1, xi = np.where(flip, X[1], X[0]), np.where(flip, X[0], X[1]), np.where(flip, np.conj(xi), xi)
    zz = z.real ** 2 + z.imag ** 2
    n = 1.0 + zz
    Q, Q1, Q2 = (taylor @ (z[:, None] ** np.arange(5))[..., None])[..., 0].T
    a, b = (0.5, 1.0) if sphere.use_sqrt else (1.0, 2.0)
    f = sphere._of_q(np.abs(Q)) / n ** b
    l = (x0 + x1 * zz + 2.0 * (xi * z).real) / n
    l_z = ((x1 - l) * np.conj(z) + xi) / n
    R, zc = Q1 / Q, np.conj(z)
    phi_z = 0.5 * a * R - b * zc / n
    f_zz = f * (0.5 * a * (Q2 / Q - R * R) + b * zc * zc / n ** 2 + phi_z * phi_z)
    g_z = f * phi_z - l_z
    g_zc = f * (np.abs(phi_z) ** 2 - b / n ** 2) - (x1 - l - 2.0 * (z * l_z).real) / n
    return f - l, g_z, g_zc, f_zz + 2.0 * zc * l_z / n


def _range_roots_ref(B):
    """The range quartic and its roots, (E, q, roots, dirs), solved by
    ``np.roots``: the reference for :func:`quartic.range_roots`, which
    builds ``np.roots``' companion matrix itself."""
    norms = np.sqrt((B.real ** 2 + B.imag ** 2).sum(-1))
    E = B / norms[:, None]
    q = quartic.pair_quartic(E[0], E[1])
    scale = np.abs(q).max()
    if scale <= quartic._Q_ROUNDING:
        frame = np.eye(2, dtype=complex)
        return E, q, frame, frame
    poly = q[::-1] / scale
    at_infinity = int(np.abs(poly[0]) < 1e-12)
    poly = poly[at_infinity:]
    while len(poly) > 1 and np.abs(poly[0]) < 1e-14:
        poly = poly[1:]
    t = np.roots(poly).tolist()
    t = [z for k, z in enumerate(t) if z not in t[:k]]
    V = np.ones((at_infinity + len(t), 2), complex)
    V[:at_infinity, 1] = 0.0
    V[at_infinity:, 0] = t
    roots = V / np.sqrt((V.real ** 2 + V.imag ** 2).sum(-1))[:, None]
    dirs = roots / norms
    return E, q, roots, dirs / np.sqrt((dirs.real ** 2 + dirs.imag ** 2).sum(-1))[:, None]


def _superposition_ref(g, w, p, phi, tilde_phi):
    """sqrt(p) g - sqrt(1-p) e^{i(phi - phi~/3)} w, one family state's
    amplitudes in numpy scalars: the reference for
    :func:`ghzw._superposition`."""
    w_coef = -np.sqrt(1.0 - p) * cmath.exp(1j * (phi - tilde_phi / 3.0))
    return np.sqrt(p) * g + w_coef * w


def _orbit_rows_ref(orbit):
    """The orbit's members as rows, one superposition per member: the
    reference for :meth:`OrbitAnalysis.rows`."""
    return np.array([np.sqrt(wt) * _superposition_ref(orbit.g, orbit.w, pv, phi,
                                                      orbit.analysis.tilde_phi)
                     for wt, pv, phi in ghzw._members(orbit.p, orbit.analysis)])


def _ensemble_from_rows_ref(W):
    """The ensemble of the rows W, one member at a time: the reference for
    the members of :func:`roof._result`."""
    members = []
    for row in W:
        w = float(np.vdot(row, row).real)
        if w > roof._WEIGHT_FLOOR:
            members.append((w, rt.PureState(row / np.sqrt(w))))
    return rt.WeightedEnsemble(tuple(members))


def _ensemble_value_ref(members, use_sqrt):
    """The objective of ``members`` read back from their states: the
    reference for the value of :func:`roof._result`."""
    X = np.array([psi.amp for _, psi in members]).reshape(-1, 8)[:, kernels._IDX]
    m = (((X[:, 0] * X[:, 1]) * X[:, 2]) * X[:, 3]).T
    det = np.add.accumulate(m[:4])[-1] - 2.0 * np.add.accumulate(m[4:10])[-1] + 4.0 * (m[10] + m[11])
    tau = 4.0 * np.hypot(det.real, det.imag)
    return float(sum((np.array([w for w, _ in members]) * (np.sqrt(tau) if use_sqrt else tau)).tolist()))


def _without_orbit(monkeypatch):
    """Switch the closed form of recognized GHZ/W images off, so the linear
    program runs on them."""
    monkeypatch.setattr(roof, "range_orbit", lambda B, E, q, dirs: None)


def _without_orbit_or_zero_fit(monkeypatch):
    """Switch the orbit closed form and the zero certificate off, so the
    linear program answers."""
    _without_orbit(monkeypatch)
    monkeypatch.setattr(roof, "_zero_decomposition", lambda dirs: None)


def _without_lp(monkeypatch):
    """Switch the orbit closed form and the rank-2 linear program off, so the
    search runs alone."""
    _without_orbit(monkeypatch)
    monkeypatch.setattr(lp, "_lp_roof", lambda sphere: None)


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


@pytest.mark.parametrize("field, value, rule", [
    ("ensemble_size", 0, "in 1..8"), ("ensemble_size", 9, "in 1..8"), ("restarts", 0, ">= 1"),
    ("max_iterations", 0, ">= 1"), ("seed", -1, ">= 0")])
def test_options_must_be_in_range(field, value, rule):
    """Each option's range is checked when the options are made, in the
    library as well as behind the CLI flags (``max_iterations`` has none)."""
    with pytest.raises(roof.OptionsError, match=f"{field} must be {re.escape(rule)}"):
        rt.RoofOptions(**{field: value})


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


@pytest.mark.parametrize("rank, functional", list(GENERIC_ROOFS))
def test_generic_roof_lands_near_the_best_known_roof(rank, functional):
    """A default-budget 5-restart solve of a generic rank-3 or rank-4 state,
    posed in three random local-unitary frames (the first three of the
    search gate's eight), lands within 1e-4 of the best value long searches
    found (``GENERIC_ROOFS``), and within 1e-3 for sqrt-tau at rank 4, where
    a search that stops short of the roof shows most, by up to 2e-2 in these
    frames; with no lower bound it is not converged."""
    tol = 1e-3 if (rank, functional) == (4, "sqrt_tau") else 1e-4
    for rho in local_frames(generic_base(rank), 3):
        res = rt.roof_minimize(rho, functional, rt.RoofOptions(restarts=5))
        assert abs(res.value - GENERIC_ROOFS[rank, functional]) <= tol
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


def _frame(B):
    """The search's frame of the rows B: their range tensor and squared norms."""
    return range_tensor(B), (B.real ** 2 + B.imag ** 2).sum(-1)


def _stage_reference(U, frame, use_sqrt, eps, max_steps, carried):
    """One smoothing level of the search, one start at a time: BFGS
    directions, by the search's own update and direction helpers called on a
    batch of one, as the search calls them, and -G where they do not descend.
    The kernel reads each U in the ``frame`` of the range, so the gradient
    in U is 2 conj(P).  ``carried`` holds what the start brings from the last
    level: its H, whether that H was held when the level ended, and s . s of
    its last step that formed a pair.  Returns where the level ends, and
    updates ``carried``."""
    steps, H, s2 = 0, carried["H"], carried["s2"]
    held, kept = False, carried["held"]
    f, P = kernels.roof_value_grad(U, use_sqrt, eps, *frame)
    step = None
    while steps < max_steps:
        G = _tangent(U, 2.0 * np.conj(P))
        gn2 = float(np.sum(G.real ** 2 + G.imag ** 2))
        D, slope = -G, -gn2
        if step is None:  # the level opens at the length of the last step
            with np.errstate(divide="ignore", invalid="ignore"):
                eta = float(np.fmin(0.2, np.sqrt(s2 / gn2)))
        else:  # after an accepted step: the pair (s, y) updates H
            s, y = search._real(step[None]), search._real((G - G_prev)[None])
            sy = search._dot(s, y)
            s2 = float(search._dot(s, s)[0])
            if sy[0] > 0.0:
                search._bfgs(H, s, y, sy, np.array([not (held or kept)]), np.array([kept]))
                held, kept = True, False
            if held:
                D_qn = search._quasi_newton(H, U[None], G[None])[0]
                slope_qn = _inner(G, D_qn)
                if slope_qn < 0.0:
                    D, slope, eta = D_qn, slope_qn, 1.0
                else:
                    held = False
        if not np.isfinite(gn2) or gn2 < 1e-26:
            break
        G_prev = G
        while eta > 1e-15:
            try:
                U2 = kernels.polar_retract(U + eta * D)
            except np.linalg.LinAlgError:
                eta *= 0.5
                continue
            f2, P2 = kernels.roof_value_grad(U2, use_sqrt, eps, *frame)
            if f2 < f + 1e-4 * eta * slope:
                improvement = f - f2
                U, f, P, step = U2, f2, P2, eta * D
                eta = min(eta * 1.4, 2.0)
                steps += 1
                break
            eta *= 0.5
        else:
            break
        if improvement < search._STALL_TOL:
            break
    carried.update(held=held, s2=s2)
    return U


def _search_reference(U0, B, use_sqrt, opts):
    """The annealed search of one start, alone: (best W, best value)."""
    per_stage = max(opts.max_iterations // len(search._SCHEDULE), 10)
    U, best_W = U0, U0 @ B
    best_value = kernels.roof_value(best_W, use_sqrt, 0.0)
    carried = {"H": np.zeros((1, 2 * U.size, 2 * U.size)), "held": False, "s2": np.inf}
    frame = _frame(B)
    for eps in search._SCHEDULE:
        U = _stage_reference(U, frame, use_sqrt, eps, per_stage, carried)
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
    W, values = search._LockStep(U0, B, use_sqrt, opts).run()
    for s in range(len(U0)):
        W_ref, value_ref = _search_reference(U0[s], B, use_sqrt, opts)
        assert np.array_equal(W[s], W_ref) and values[s] == value_ref


def test_start_result_independent_of_batch():
    B, U0 = _generic_starts(2, 5, seed=8)
    opts = rt.RoofOptions(max_iterations=400)
    W, values = search._LockStep(U0, B, True, opts).run()
    for s in (0, 3):
        W1, value1 = search._LockStep(U0[s:s + 1], B, True, opts).run()
        assert np.array_equal(W1[0], W[s]) and value1[0] == values[s]
    W2, values2 = search._LockStep(U0[[4, 1]], B, True, opts).run()
    assert np.array_equal(W2[0], W[4]) and np.array_equal(W2[1], W[1])
    assert values2[0] == values[4] and values2[1] == values[1]


def test_search_batches_keep_h_within_the_budget(monkeypatch):
    """roof_minimize runs its starts in batches whose inverse Hessians fit in
    ``_H_BYTES``: with the budget cut to three starts' worth, 8 restarts run
    as batches of 3, 3 and 2, and the solve ends bit for bit as in one batch."""
    rho = generic_base(3)
    opts = rt.RoofOptions(restarts=8, max_iterations=300)
    one = rt.roof_minimize(rho, "sqrt_tau", opts)
    sizes, LockStep = [], search._LockStep

    class Recorded(LockStep):
        def run(self):
            sizes.append((len(self.U), self.H.nbytes))
            return super().run()

    monkeypatch.setattr(search, "_LockStep", Recorded)
    monkeypatch.setattr(search, "_H_BYTES", 3 * 8 * (2 * 4 * 3) ** 2)
    res = rt.roof_minimize(rho, "sqrt_tau", opts)
    assert [n for n, _ in sizes] == [3, 3, 2]
    assert all(nbytes <= search._H_BYTES for _, nbytes in sizes)
    assert res.value == one.value and res.best_restart_index == one.best_restart_index
    for (w, psi), (w1, psi1) in zip(res.ensemble.members, one.ensemble.members):
        assert w == w1 and np.array_equal(psi.amp, psi1.amp)


def test_direction_is_a_tangent_descent_direction():
    """A level opens on D = -G; after every tick each searching start's D is
    tangent at its U and descends, and some ticks take a quasi-Newton step."""
    B, U0 = _generic_starts(3, 4)
    batch = search._LockStep(U0, B, True, rt.RoofOptions(max_iterations=300))
    batch._begin(np.arange(4))
    assert np.array_equal(batch.D, -batch.G)
    assert np.array_equal(batch.slope, -search._inner(batch.G, batch.G))
    quasi_newton = 0
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
            quasi_newton += not np.array_equal(D, -G)
    assert quasi_newton > 0


def test_direction_falls_back_to_the_gradient():
    """Where the quasi-Newton direction is NaN or does not descend, the
    direction is -G and H is dropped; where it descends it is taken, from
    step size 1."""
    B, U0 = _generic_starts(3, 3)
    batch = search._LockStep(U0, B, True, rt.RoofOptions())
    batch._begin(np.arange(3))
    G, n = batch.G.copy(), batch.H.shape[-1]
    batch.H[0] = np.nan                      # NaN slope
    batch.H[1] = -np.eye(n)                  # D = +G: ascent
    batch.H[2] = 0.5 * np.eye(n)             # D = -G/2: a descent
    batch.held[:] = True
    _, P = kernels.roof_value_grad(batch.U, True, batch.eps, *_frame(B))
    # the same U and P: y = 0, so s . y = 0 and no H is updated
    batch._project(np.arange(3), batch.U.copy(), P, np.full(3, 0.1))
    assert np.array_equal(batch.G, G)
    assert batch.held.tolist() == [False, False, True]
    for s in (0, 1):
        assert np.array_equal(batch.D[s], -G[s]) and batch.slope[s] == -search._inner(G, G)[s]
        assert batch.eta[s] == 0.1 * 1.4
    assert np.array_equal(batch.H[2], 0.5 * np.eye(n))
    assert np.allclose(batch.D[2], -0.5 * G[2], rtol=0.0, atol=1e-12 * np.abs(G[2]).max())
    assert batch.slope[2] < 0.0 and batch.eta[2] == 1.0


def _bfgs_reference(H, s, y):
    """(I - rho s y^T) H (I - rho y s^T) + rho s s^T, rho = 1 / s.y."""
    rho = 1.0 / (s @ y)
    V = np.eye(len(s)) - rho * np.outer(y, s)
    return V.T @ H @ V + rho * np.outer(s, s)


def test_bfgs_update_is_positive_definite_and_secant():
    """After a pair with s.y > 0 each H is symmetric and positive definite,
    equals the product form of the update, and maps y to s; a fresh start is
    seeded as (s.y / y.y) I first, and a kept H is first rescaled by
    s.y / y^T H y."""
    rng = np.random.default_rng(41)
    k, n = 5, 24
    A = rng.standard_normal((k, n, n))
    H = A @ A.transpose(0, 2, 1) / n + 0.1 * np.eye(n)
    s, y = rng.standard_normal((k, n)), rng.standard_normal((k, n))
    y[np.einsum("kn,kn->k", s, y) <= 0.0] *= -1.0
    sy = np.einsum("kn,kn->k", s, y)
    fresh = np.array([True, False, False, True, False])
    kept = np.array([False, False, True, False, True])
    start = np.where(fresh[:, None, None], (sy / np.einsum("kn,kn->k", y, y))[:, None, None]
                     * np.eye(n), H)
    yHy = np.einsum("kn,knm,km->k", y, H, y)
    start = np.where(kept[:, None, None], (sy / yHy)[:, None, None] * H, start)
    search._bfgs(H, s, y, sy, fresh, kept)
    for i in range(k):
        scale = np.abs(H[i]).max()
        assert np.abs(H[i] - H[i].T).max() <= 1e-14 * scale
        assert np.linalg.eigvalsh(H[i]).min() > 0.0
        assert np.abs(H[i] - _bfgs_reference(start[i], s[i], y[i])).max() <= 1e-13 * scale
        assert np.linalg.norm(H[i] @ y[i] - s[i]) <= 1e-12 * np.linalg.norm(s[i])


def test_search_updates_h_only_on_a_positive_pair():
    """In the search a pair with s.y > 0 seeds and updates H, so that H y = s;
    a pair with s.y <= 0 leaves H as it is.  Opening a level keeps the held H,
    not held: it is rescaled at the level's first positive pair."""
    B, U0 = _generic_starts(3, 3)
    batch = search._LockStep(U0, B, True, rt.RoofOptions())
    batch._begin(np.arange(3))
    assert not batch.held.any() and not batch.kept.any()
    U, G, D = batch.U.copy(), batch.G.copy(), batch.D.copy()
    _, P = kernels.roof_value_grad(U, True, batch.eps, *_frame(B))
    # the gradient recomputed at the same U and P is G, so y = G - G_prev is
    # about +D (s.y > 0) for start 0, -D (s.y < 0) for start 1 and 0 for start 2
    batch.G[0], batch.G[1] = G[0] - D[0], G[1] + D[1]
    prev, H = batch.G.copy(), batch.H.copy()
    eta = np.full(3, 0.3)
    batch._project(np.arange(3), U, P, eta)
    assert batch.held.tolist() == [True, False, False]
    assert np.array_equal(batch.H[1:], H[1:])
    s, y = search._real(0.3 * D[:1]), search._real(G[:1] - prev[:1])
    assert np.linalg.norm(batch.H[0] @ y[0] - s[0]) <= 1e-12 * np.linalg.norm(s[0])
    assert np.linalg.eigvalsh(batch.H[0]).min() > 0.0
    # a held H meets a pair with s.y < 0: unchanged, and still held
    held_H, D0 = batch.H[0].copy(), batch.D[:1].copy()
    batch.G[0] = G[0] + D0[0]
    batch._project(np.array([0]), U[:1], P[:1], eta[:1])
    assert batch.held[0] and np.array_equal(batch.H[0], held_H)
    # a new level keeps start 0's H, not held, and opens on -G
    batch._begin(np.arange(3))
    assert not batch.held.any() and batch.kept.tolist() == [True, False, False]
    assert np.array_equal(batch.H[0], held_H) and np.array_equal(batch.D, -batch.G)
    # its first positive pair rescales the kept H, then updates it
    U, G, D = batch.U.copy(), batch.G.copy(), batch.D.copy()
    _, P = kernels.roof_value_grad(U, True, batch.eps, *_frame(B))
    batch.G[0] = G[0] - D[0]
    s, y = search._real(0.3 * D[:1]), search._real(G[:1] - batch.G[:1])
    sy = float(s[0] @ y[0])
    rescaled = sy / (y[0] @ held_H @ y[0]) * held_H
    batch._project(np.arange(3), U, P, eta)
    assert batch.held.tolist() == [True, False, False] and not batch.kept.any()
    scale = np.abs(batch.H[0]).max()
    assert np.abs(batch.H[0] - _bfgs_reference(rescaled, s[0], y[0])).max() <= 1e-13 * scale
    assert np.linalg.norm(batch.H[0] @ y[0] - s[0]) <= 1e-12 * np.linalg.norm(s[0])


def test_level_opens_at_the_last_step_length():
    """A level opens at eta = min(0.2, |s_last| / |G|), s_last the start's
    last accepted step, and at 0.2 before any step was accepted."""
    B, U0 = _generic_starts(3, 3)
    batch = search._LockStep(U0, B, True, rt.RoofOptions(max_iterations=300))
    begin, opened = batch._begin, []

    def recorded(idx):
        if idx.size == 0:
            return
        s2 = batch.s2[idx].copy()
        begin(idx)
        opened.append((s2, search._inner(batch.G[idx], batch.G[idx]), batch.eta[idx].copy()))

    batch._begin = recorded
    batch.run()
    s2, gn2, eta = (np.concatenate(part) for part in zip(*opened))
    assert len(eta) == 3 * len(search._SCHEDULE)
    assert np.array_equal(eta[:3], [0.2, 0.2, 0.2]) and np.isinf(s2[:3]).all()
    assert np.isfinite(s2[3:]).all()
    assert np.array_equal(eta, np.fmin(0.2, np.sqrt(s2 / gn2)))
    assert (eta < 1e-3).any()  # the fine levels open far below 0.2
    # s2 is s . s of the step taken, eta D, as _project forms it
    D, eta0 = batch.D.copy(), np.full(3, 0.1)
    trial = kernels.polar_retract(batch.U + eta0[:, None, None] * D)
    _, P = kernels.roof_value_grad(trial, True, batch.eps, *_frame(B))
    batch._project(np.arange(3), trial, P, eta0)
    s = search._real(eta0[:, None, None] * D)
    assert np.array_equal(batch.s2, search._dot(s, s))


def test_retract_flags_a_failed_start_only():
    rng = np.random.default_rng(13)
    Y = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    Y[1, 0, 0] = np.nan  # LAPACK does not converge on this start
    trial, ok = search._retract(Y)
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
    W, values = search._LockStep(U0, B, True, opts).run()
    for s in range(3):
        W_ref, value_ref = _search_reference(U0[s], B, True, opts)
        assert np.array_equal(W[s], W_ref) and values[s] == value_ref
    assert 3 in failures and 2 in failures  # the batch failed, then the start alone
    assert np.array_equal(W[1], bad @ B)      # no trial of it was ever retracted


def test_non_finite_gradient_ends_the_level(monkeypatch):
    """A NaN gradient cuts the level short; each start's values stay those
    of the one-start search, and a search with no bound is not converged."""
    grad = kernels.roof_value_grad

    def nan_at_eps0(U, use_sqrt, eps=0.0, *frame):
        f, P = grad(U, use_sqrt, eps, *frame)
        return f, np.where((np.asarray(eps) == 0.0)[..., None, None], np.nan, P)

    monkeypatch.setattr(kernels, "roof_value_grad", nan_at_eps0)
    B, U0 = _generic_starts(3, 2, seed=6)
    opts = rt.RoofOptions(max_iterations=300)
    W, values = search._LockStep(U0, B, True, opts).run()
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
        assert len(roof._zero_decomposition(_dirs(rho))) > size
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
        states.append(_slocc_image(mix.density(), [_local_operator(rng) for _ in range(3)])[0])
    states += [_random_rank2_gram(rng) for _ in range(6)] + [_random_rank2(rng) for _ in range(6)]
    s2, s3 = 2 ** -0.5, 3 ** -0.5
    states += [rt.GhzWMixture(a=s2, b=s2, c=1.0, d=0.0, f=0.0, p=0.6).density(),
               rt.GhzWMixture(a=0.0, b=1.0, c=s3, d=s3, f=s3, p=0.6).density()]
    return [_dirs(rho) for rho in states]


@pytest.mark.parametrize("size", [3, 4])
def test_zero_fit_matches_the_scipy_reference(monkeypatch, size):
    """Same decision as the fit on scipy's NNLS, and the same U within
    1e-12; both decisions occur, and the repeated roots reach phase one of
    the simplex.  The degenerate-W fourfold root at infinity and the
    degenerate-GHZ triple root at 0 are each listed once."""
    calls = []
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: calls.append(1) or simplex(*args))
    decisions = set()
    corpus = _zero_fit_corpus()
    assert len(corpus[-2]) == 1 and len(corpus[-1]) == 2
    for dirs in corpus:
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
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: calls.append(1) or simplex(*args))
    for mix in (std_mixture(0.5), random_mixture(np.random.default_rng(67))):
        p0 = rt.analyze(mix).p0
        for t, accepted, phase_one in ((-1e-9, True, False), (1e-13, True, False),
                                       (1e-11, True, True), (1e-9, False, False)):
            mix_t = rt.GhzWMixture(a=mix.a, b=mix.b, c=mix.c, d=mix.d, f=mix.f, p=p0 * (1 + t))
            dirs = _dirs(mix_t.density())
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
    dirs = _dirs(rho)
    assert len(roof._zero_decomposition(dirs)) == 2
    monkeypatch.setattr(lp, "_LP_PIVOTS", 0)
    assert roof._zero_decomposition(dirs) is None
    for functional, restarts_used in (("sqrt_tau", 0), ("tau", 2)):
        res = rt.roof_minimize(rho, functional, rt.RoofOptions(restarts=2, max_iterations=300))
        assert res.restarts_used == restarts_used and _mixes_back(res, rho)


def test_zero_directions_on_near_rank1_states():
    """The roots of the range quartic are solved on unit eigenvectors: on
    (1 - w) |a><a| + w |b><b| down to w = 1e-10, where the quartic of the
    rows sqrt(lambda_k) e_k has a leading coefficient below rounding, every
    root is a tangle-free range state, as a row of U and as a unit row on
    the eigenvectors."""
    for w in (1e-4, 1e-6, 1e-8, 1e-10):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_pure(rng).amp, random_pure(rng).amp
            rho = rt.DensityMatrix((1 - w) * np.outer(a, a.conj()) + w * np.outer(b, b.conj()))
            B = eigen_factor(rho)
            E, _, roots, dirs = range_roots(B)
            assert len(dirs) == len(roots) == 4
            for psi in np.concatenate((dirs @ B, roots @ E)):
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

def test_lp_certified_solve_solves_the_quartic_once(monkeypatch):
    """The zero fit and the linear program read one list of roots: an
    LP-certified tau solve solves the range quartic once, and evaluates it
    once (one ``hyperdet_rows`` call)."""
    calls, evaluations = [], []
    solve, hyperdet_rows = roof.range_roots, kernels.hyperdet_rows
    monkeypatch.setattr(roof, "range_roots", lambda B: calls.append(B) or solve(B))
    monkeypatch.setattr(kernels, "hyperdet_rows",
                        lambda W: evaluations.append(W.shape) or hyperdet_rows(W))
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    res = rt.roof_minimize(rho, "tau", FAST)
    assert res.restarts_used == 0 and res.converged and res.lower_bound > 0.0
    assert len(calls) == 1 and evaluations == [(5, 8)]


def test_orbit_solve_evaluates_the_quartic_once(monkeypatch):
    """A linear-branch sqrt-tau solve of an SLOCC image is answered by the
    orbit, which reads each root frame's quartic from the range quartic by
    substitution: one ``hyperdet_rows`` call, the range quartic's."""
    image, want, _ = _std_images()[0]
    evaluations, hyperdet_rows = [], kernels.hyperdet_rows
    monkeypatch.setattr(kernels, "hyperdet_rows",
                        lambda W: evaluations.append(W.shape) or hyperdet_rows(W))
    res = rt.roof_minimize(image, "sqrt_tau", FAST)
    assert res.restarts_used == 0 and res.converged
    assert abs(res.lower_bound - want) <= 1e-12
    assert evaluations == [(5, 8)]


def test_lp_brackets_the_counterexample_tau_constants():
    fx = rt.counterexample_fixture()
    rho = rt.ensemble_to_density(fx.ensemble)
    rho0 = rt.measure(fx.ensemble, fx.measurement)[0].post_density
    for state, want in ((rho, TAU_RHO), (rho0, TAU_RHO0)):
        res = rt.roof_minimize(state, "tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound - 1e-9 <= want <= res.value + 1e-9
        assert res.value - res.lower_bound <= lp._CERT_GAP
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
        W, bound = lp._lp_roof(_range(B, True))
        assert bound <= closed + 1e-9
        rows = [W]
        rows += [np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0] @ B
                 for _ in range(2)]
        for W in rows:
            assert bound <= kernels.roof_value(W, True, 0.0) + 1e-9
        res = rt.roof_minimize(rho, "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound <= closed + 1e-9
        assert closed - 1e-9 <= res.value <= closed + lp._CERT_GAP


def test_lp_brackets_the_closed_form_on_both_branches(monkeypatch):
    """With the zero certificate off, the linear program alone returns a
    decomposition within _CERT_GAP of the closed form without a search, on
    the zero branch, just above the branch point and further up, with a
    bound never above the closed form."""
    _without_orbit_or_zero_fit(monkeypatch)
    for mix in _ghzw_both_branches():
        closed = rt.analyze(mix).rtangle
        res = rt.roof_minimize(mix.density(), "sqrt_tau", FAST)
        assert res.restarts_used == 0 and res.converged
        assert res.lower_bound <= closed + 1e-9
        assert closed - 1e-9 <= res.value <= closed + lp._CERT_GAP
        assert _mixes_back(res, mix.density())


def test_lower_bound_only_at_rank_2():
    assert rt.roof_minimize(_pure_density(ghz_state()), "tau", FAST).lower_bound is None
    B, _ = _generic_starts(3, 0)
    opts = rt.RoofOptions(restarts=1, max_iterations=100)
    assert rt.roof_minimize(rt.DensityMatrix(B.T @ B.conj()), "tau", opts).lower_bound is None
    for p in (0.3, 0.8):  # the zero certificate and the orbit closed form
        res = rt.roof_minimize(std_mixture(p).density(), "sqrt_tau", FAST)
        assert isinstance(res.lower_bound, float)
        assert res.lower_bound <= res.value + 1e-9 and res.value - res.lower_bound <= lp._CERT_GAP


# the absolute rounding floor of sqrt-tau, 2 sqrt|Det| read near a product
# state (RoofResult's docstring): brackets of near-product images may miss
# alpha times their preimage's by up to it
_SQRT_TAU_FLOOR = 1e-8


def _bracket(res):
    """(lower, upper) of a result; a roof is never below 0."""
    return (0.0 if res.lower_bound is None else res.lower_bound), res.value


def _apart(outer, inner, scale):
    """How far the bracket ``outer`` lies from ``scale`` times ``inner``:
    positive where they are disjoint."""
    (lo, hi), (lo_in, hi_in) = _bracket(outer), _bracket(inner)
    return max(lo - scale * hi_in, scale * lo_in - hi)


def _every_certificate(monkeypatch):
    """The default path: every certificate on."""


@pytest.mark.parametrize("row", [None, 1e1, 1e2, 1e3, 1e4, _every_certificate, _without_orbit,
                                 _without_orbit_or_zero_fit],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_sqrt_tau_is_covariant_on_slocc_images(monkeypatch, row):
    """The paper's covariance, t_r(rho') = alpha t_r(rho), on SLOCC images.

    A generic row, a condition number kappa of the local operators (None:
    complex Gaussian ones), solves 20 generic rank-2 states
    (`_random_rank2` and `_random_rank2_gram`, rng 77) and their images.  Up
    to condition number 1e2 every sqrt-tau solve is certified without a
    search and each image's bracket meets alpha times its preimage's, to the
    library's bound slack, while the tau brackets, scaled by alpha^2, are
    disjoint on some images: tau is not covariant.  At 1e3 and 1e4 the
    images are near product states, and the brackets meet only to the
    sqrt-tau rounding floor, 1e-8 (measured: disjoint on 3 and 15 of 20
    images, by up to 3.0e-9 and 6.4e-9).

    A GHZ/W row, a certificate configuration (every certificate, the orbit
    closed form off, or the orbit and the zero certificate off), solves the
    40 `_orbit_images` and the two `_std_images`, at least 12 of them on the
    linear branch, whose roof alpha t_r the closed form gives.  Each image
    is certified without a search, alpha t_r lies in its bracket to 1e-9 and
    its value at most 1e-6 above it, and it mixes back; on the default path
    its value is within _CERT_GAP of alpha t_r and its bound, the orbit's,
    within 1e-12."""
    if callable(row):
        row(monkeypatch)
        images = _orbit_images() + _std_images()
        assert sum(rt.analyze(mix).branch == "linear_branch" for _, _, mix in images) >= 12
        for image, want, _ in images:
            res = rt.roof_minimize(image, "sqrt_tau", FAST)
            assert res.restarts_used == 0 and res.converged
            assert res.lower_bound - 1e-9 <= want <= res.value + 1e-9
            assert res.value - want <= 1e-6
            assert _mixes_back(res, image)
            if row is _every_certificate:
                assert abs(res.value - want) <= lp._CERT_GAP
                assert abs(res.lower_bound - want) <= 1e-12
        return
    rng = np.random.default_rng(77)
    tol = roof._BOUND_SLACK if row is None or row <= 1e2 else _SQRT_TAU_FLOOR
    separated = 0
    for k in range(20):
        rho = _random_rank2(rng) if k % 2 else _random_rank2_gram(rng)
        image, alpha = _slocc_image(rho, [_local_operator(rng, row) for _ in range(3)])
        pre, post = (rt.roof_minimize(state, "sqrt_tau") for state in (rho, image))
        assert _apart(post, pre, alpha) <= tol
        if tol == _SQRT_TAU_FLOOR:
            continue
        assert all(res.restarts_used == 0 and res.converged for res in (pre, post))
        tau_in, tau_out = (rt.roof_minimize(state, "tau") for state in (rho, image))
        separated += _apart(tau_out, tau_in, alpha ** 2) > 0.0
    assert separated >= {None: 10, 1e1: 10, 1e2: 1, 1e3: 0, 1e4: 0}[row]


def _cap_lp_rounds(monkeypatch):
    """State 12 of `_random_rank2` rng 12, tau: stopped after two rounds, the
    program's bracket is still open by about 1e-5, with a sound bound."""
    monkeypatch.setattr(lp, "_LP_ROUNDS", 2)
    rng = np.random.default_rng(12)
    return [_random_rank2(rng) for _ in range(13)][12], "tau"


def _lower_orbit_bound(monkeypatch):
    """The standard mixture at p = 0.8, sqrt-tau, with the orbit's t_r
    lowered by 1e-3 and the program off."""
    range_orbit = roof.range_orbit

    def loose(B, E, q, dirs):
        orbit = range_orbit(B, E, q, dirs)
        return replace(orbit, analysis=replace(orbit.analysis, rtangle=orbit.analysis.rtangle - 1e-3))

    monkeypatch.setattr(roof, "range_orbit", loose)
    monkeypatch.setattr(lp, "_lp_roof", lambda sphere: None)
    return std_mixture(0.8).density(), "sqrt_tau"


def _raise_lp_bound(monkeypatch):
    """The counterexample rho, tau, with the program's bound forced to 1.0,
    above its own decomposition: pricing missed a point."""
    lp_roof = lp._lp_roof
    monkeypatch.setattr(lp, "_lp_roof", lambda sphere: (lp_roof(sphere)[0], 1.0))
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
    assert res.value == rt.objective_at(rho, _ensemble_from_rows_ref(W), functional)
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
        frame = np.array_equal(_dirs(rho), np.eye(2))
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
    """The simplex's first costs, constraint rows (as the columns of a
    (4, n) array) and right-hand side."""
    sphere = _range(B, use_sqrt)
    return (*sphere.columns().held()[2:], sphere.b)


def test_simplex_matches_highs_on_the_same_columns():
    """The revised simplex reaches HiGHS's optimum over the grid and the
    roots: the counterexample rho (tau) and two random states (sqrt-tau)."""
    rng = np.random.default_rng(2026)
    cases = [(rt.ensemble_to_density(rt.counterexample_fixture().ensemble), False),
             (_random_rank2(rng), True), (_random_rank2(rng), True)]
    for rho, use_sqrt in cases:
        B = eigen_factor(rho)
        cost, A, b = _lp_columns(B, use_sqrt)
        basis = lp._LP_BASIS.copy()
        w, X, reduced = lp._simplex(cost, A, b, basis)
        highs = linprog(cost, A_eq=A, b_eq=b, bounds=(0.0, None), method="highs",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
        assert highs.status == 0
        assert abs(cost[basis] @ w - highs.fun) <= 1e-9
        assert abs(b @ X - highs.fun) <= 1e-9
        assert w.min() >= -1e-12 and np.abs(A[:, basis] @ w - b).max() <= 1e-12
        assert reduced.min() >= -lp._LP_TOL


def _hermitian_rows(V):
    """The r^2 real coordinates of v v^H for the rows v of V, (n, r): the
    diagonal, then 2 Re and 2 Im of v_i* v_j over the upper triangle, i < j.
    At r = 2 these are the program's rows."""
    i, j = np.triu_indices(V.shape[1], 1)
    off = 2.0 * V[:, i].conj() * V[:, j]
    return np.concatenate((np.abs(V) ** 2, np.stack((off.real, off.imag), -1).reshape(len(V), -1)),
                          axis=1)


def test_simplex_takes_nine_rows():
    """The simplex reads its row count from its basis: on a 9-row program,
    a random rank-3 range, it reaches HiGHS's optimum with every reduced
    cost at least -_LP_TOL.  The columns are unit v in C^3, costed
    2 sqrt|Det(v E)| on the unit eigenrows E, with the rows of v v^H, and b
    those of diag(lambda); the start basis holds e_i at weight lambda_i and
    the six (e_i + e_j)/sqrt 2 and (e_i + i e_j)/sqrt 2 at weight 0."""
    rng = np.random.default_rng(9)
    w = rng.dirichlet(np.ones(3))
    rows = [random_pure(rng).amp for _ in range(3)]
    B = eigen_factor(rt.DensityMatrix(sum(wk * np.outer(v, v.conj()) for wk, v in zip(w, rows))))
    lam = (np.abs(B) ** 2).sum(-1)
    T = range_tensor(B / np.sqrt(lam)[:, None])
    e, (i, j) = np.eye(3), np.triu_indices(3, 1)
    V = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
    V = np.concatenate((e, (e[i] + e[j]) / np.sqrt(2), (e[i] + 1j * e[j]) / np.sqrt(2),
                        V / np.linalg.norm(V, axis=1)[:, None]))
    cost = 2.0 * np.sqrt(np.abs(np.einsum("ijkl,ni,nj,nk,nl->n", T, V, V, V, V)))
    A, b = _hermitian_rows(V).T, np.concatenate((lam, np.zeros(6)))
    basis = np.arange(9)
    w, X, reduced = lp._simplex(cost, A, b, basis)
    highs = linprog(cost, A_eq=A, b_eq=b, bounds=(0.0, None), method="highs",
                    options={"primal_feasibility_tolerance": 1e-10,
                             "dual_feasibility_tolerance": 1e-10})
    assert highs.status == 0
    assert abs(cost[basis] @ w - highs.fun) <= 1e-10
    assert w.min() >= -1e-12 and np.abs(A[:, basis] @ w - b).max() <= 1e-12
    assert reduced.min() >= -lp._LP_TOL


@pytest.mark.parametrize("patch", [("_LP_BASIS", np.zeros(4, dtype=int)), ("_LP_PIVOTS", 0)],
                         ids=["singular-basis", "pivot-cap"])
def test_failed_simplex_falls_back_to_the_search(monkeypatch, patch):
    """Four copies of e0 make a singular start basis, and no pivot at all
    leaves the start basis unsolved: the program returns None and the
    search runs, with no bound and so not converged."""
    monkeypatch.setattr(lp, *patch)
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    B = eigen_factor(rho)
    assert lp._lp_roof(_range(B, False)) is None
    opts = rt.RoofOptions(restarts=2, max_iterations=300)
    res = rt.roof_minimize(rho, "tau", opts)
    assert res.restarts_used == 2 and res.lower_bound is None and res.converged is False
    assert _mixes_back(res, rho)


def test_second_solve_starts_from_the_refined_support(monkeypatch):
    """Rho0, tau: the refinement drops the support point that the grid split
    off one of the three optimal points, so the trial basis of the three
    refined points leaves a weight of about -7e-6 in that point's place.
    One ratio test puts an offset column of a refined point there: the
    second simplex solve starts from a feasible basis that holds the three
    refined points and makes at most two basis inverses, where from the
    last basis it made eleven."""
    simplex, inv, solves = lp._simplex, np.linalg.inv, []

    def counted(cost, A, b, basis):
        inverses, start = [], basis.copy()
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverses.append(1) or inv(M))
        try:
            return simplex(cost, A, b, basis)
        finally:
            monkeypatch.setattr(np.linalg, "inv", inv)
            solves.append((len(cost), start, len(inverses), A[:, start].T, b))

    monkeypatch.setattr(lp, "_simplex", counted)
    B = eigen_factor(_counterexample_pair()[1][0])
    _, bound = lp._lp_roof(_range(B, False))
    assert abs(bound - TAU_RHO0) <= 1e-7
    (n, _, _, _, _), (_, start, inverses, A, b) = solves[:2]
    new = start[start >= n] - n
    assert len(new) == 4 and np.count_nonzero(new % lp._KKT_OFFSET.size == 0) == 3
    assert lp._feasible(A, b)
    assert inverses <= 2


def test_lp_declines_weights_that_miss_b(monkeypatch):
    """The decomposition's weights are solved on the program's final
    support; weights that miss b (here moved by 1e-6) make the program
    decline, so the search runs, rather than an invalid ensemble raising
    out of the solve.  The counterexample rho, tau."""
    lstsq = np.linalg.lstsq

    def off(A, y, rcond):  # the final solve is the one least-squares call with rcond None
        x, *rest = lstsq(A, y, rcond=rcond)
        return (x + 1e-6 if rcond is None else x, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", off)
    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    assert lp._lp_roof(_range(eigen_factor(rho), False)) is None
    res = rt.roof_minimize(rho, "tau", rt.RoofOptions(restarts=2, max_iterations=300))
    assert res.restarts_used == 2 and res.lower_bound is None and res.converged is False
    assert _mixes_back(res, rho)


def test_bloch_rows_are_the_chart_basis_rows():
    """The grid's constraint rows, built with no derivative rows, are the
    first of :func:`lp._chart_basis` bit for bit, and held as the rows view
    of a (4, n) array, the layout of the program's columns."""
    ref = lp._chart_basis(lp._BLOCH_Z, lp._BLOCH_FLIP)[0]
    assert lp._BLOCH_ROWS.shape == ref.shape == (7082, 4)
    assert np.ascontiguousarray(lp._BLOCH_ROWS).tobytes() == np.ascontiguousarray(ref).tobytes()
    assert lp._BLOCH_ROWS.T.flags.c_contiguous


def test_columns_never_outgrow_their_room():
    """`lp._Columns` holds the room it is given and never grows, so that room
    must hold every column a program can add: the grid and at most 4 roots
    of q; then, in each of ``_LP_ROUNDS`` rounds, at most 4 refined support
    points (a basis of the 4 rows), each with its ``_KKT_OFFSET`` points,
    and one column per Newton step from each pricing start: at most 4
    support points, each a root with the ``_CUSP_RADII`` starts beside it,
    and the 8 lowest grid points.  Today that is 10686 of the 14164 columns
    of room that `_Range.columns` gives."""
    support = 4
    starts = support * lp._CUSP_RADII.size + 8
    per_round = support * lp._KKT_OFFSET.size + starts * lp._NEWTON_STEPS
    most = len(lp._BLOCH_Z) + 4 + lp._LP_ROUNDS * per_round
    held = _range(eigen_factor(std_mixture(0.8).density()), True).columns()
    assert most <= len(held._z) == held._A.shape[1]


def test_refined_start_basis_must_be_feasible_and_well_conditioned():
    """The refined points replace the support in the simplex's start basis
    only where that basis solves b with non-negative weights and is not
    near-singular: on random rank-2 programs, feasible such bases reach
    condition numbers of 4e7.  The first start basis is e0, e1,
    (e0 + e1)/sqrt 2 and (e0 + i e1)/sqrt 2, from a grid that holds each
    point once."""
    angles = np.array([[0.0, 0.0], [np.pi, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]])
    A = _basis(*_bloch(angles))
    assert np.abs(lp._BLOCH_ROWS[lp._LP_BASIS] - A).max() <= 1e-15
    assert np.abs(lp._BLOCH_ROWS - _basis(*_bloch(lp._BLOCH_GRID))).max() <= 1e-15
    grid = np.round(lp._BLOCH_ROWS, 12) + 0.0  # + 0.0 makes -0.0 equal 0.0
    assert len(np.unique(grid, axis=0)) == len(grid) == 7082
    assert lp._feasible(A, A.T @ [0.1, 0.2, 0.3, 0.4])
    assert not lp._feasible(A, A.T @ [0.5, 0.5, 0.3, -0.3])
    near = angles.copy()
    near[3] = near[2] + [1e-8, 0.0]
    A = _basis(*_bloch(near))
    assert not lp._feasible(A, A.T @ [0.1, 0.2, 0.3, 0.4])


def test_lp_closes_the_bracket_where_pricing_tails_off(monkeypatch):
    """State 27 of rng 7, sqrt-tau: the roof is affine on a face there, and
    with pricing alone the gap shrank slowly from round to round (six
    pricing passes with rings of columns around the support); the refined
    support closes the program's gap at its first pricing pass, and the
    program certifies its decomposition."""
    rng = np.random.default_rng(7)
    rho = [_random_rank2(rng) for _ in range(28)][27]
    passes = []
    lowest = lp._Range.lowest
    monkeypatch.setattr(lp._Range, "lowest",
                        lambda self, *args: passes.append(1) or lowest(self, *args))
    res = rt.roof_minimize(rho, "sqrt_tau", FAST)
    assert len(passes) == 1
    assert res.restarts_used == 0 and res.converged
    assert res.lower_bound <= res.value + 1e-9 and res.value - res.lower_bound <= lp._CERT_GAP
    assert _mixes_back(res, rho)


def _first_round(rho, use_sqrt):
    """The range, the dual X, the grid's reduced costs and the support of
    the program's first round, as :func:`lp._lp_roof` prices them."""
    B = eigen_factor(rho)
    sphere = _range(B, use_sqrt)
    z, flip, cost, A = sphere.columns().held()
    basis = lp._LP_BASIS.copy()
    w, X, reduced = lp._simplex(cost, A, sphere.b, basis)
    support = basis[w > 0.0]
    return sphere, X, reduced[:len(lp._BLOCH_Z)], z[support], flip[support], cost[support]


def test_pricing_reaches_the_fine_grid_minimum():
    """Newton pricing from the support and the 8 lowest grid points finds
    f - l at or below its minimum over a grid four times finer in both
    angles (241 x 480), on 40 random rank-2 states and both functionals,
    with the dual X of the first simplex round; the points it returns read
    back as unit vectors."""
    angles = np.stack(np.meshgrid(np.arange(241) * np.pi / 240, np.arange(480) * np.pi / 240,
                                  indexing="ij"), axis=-1).reshape(-1, 2)
    fine_c, fine_y = _bloch(angles)
    fine_rows = _basis(fine_c, fine_y)
    fine_z, fine_flip = lp._chart(np.stack((fine_c + 0j, fine_y), axis=-1))
    rng = np.random.default_rng(61)
    states = [_random_rank2(rng) for _ in range(20)] + [_random_rank2_gram(rng) for _ in range(20)]
    for rho in states:
        for use_sqrt in (True, False):
            sphere, X, on_grid, z, flip, cost = _first_round(rho, use_sqrt)
            lowest, (new_z, new_flip) = sphere.lowest(X, on_grid, z, flip, cost)
            fine = (sphere.f(fine_z, fine_flip) - fine_rows @ X).min()
            assert lowest <= fine + 1e-12
            V = lp._unchart(new_z, new_flip)
            assert np.isfinite(V).all() and np.allclose((np.abs(V) ** 2).sum(-1), 1.0)


def test_pricing_derivatives_match_central_differences():
    """The analytic gradient and Hessian of f - l in both charts agree with
    central differences at random points away from the roots of q."""
    rng = np.random.default_rng(62)
    h = 1e-4
    for rho in [_random_rank2(rng) for _ in range(3)] + [_random_rank2_gram(rng) for _ in range(3)]:
        for use_sqrt in (True, False):
            B = eigen_factor(rho)
            sphere = _range(B, use_sqrt)
            X = rng.standard_normal(4)
            theta, phi = rng.uniform(0.0, np.pi, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
            V = np.stack(_bloch(np.stack((theta, phi), axis=-1)), axis=-1)
            overlap = np.abs(V @ sphere.roots.conj().T)
            away = (overlap < 0.95).all(axis=1)
            assert away.sum() >= 10
            z, flip = lp._chart(V[away])
            assert flip.any() and not flip.all()
            coef = sphere.coefficients(X, flip)
            _, g, g_z, g_zc, g_zz = sphere.excess(z, *coef)
            g, g_zc = g.real, g_zc.real

            def G(dz):
                return sphere.excess(z + dz, *coef)[1].real

            grad = (G(h) - G(-h) + 1j * (G(1j * h) - G(-1j * h))) / (2.0 * h)
            hess_ss = (G(h) - 2.0 * g + G(-h)) / h ** 2
            hess_tt = (G(1j * h) - 2.0 * g + G(-1j * h)) / h ** 2
            hess_st = (G(h + 1j * h) - G(h - 1j * h) - G(-h + 1j * h) + G(-h - 1j * h)) / (4 * h * h)
            scale = 1.0 + np.abs(g_zc) + np.abs(g_zz)
            assert np.abs(grad - 2.0 * np.conj(g_z)).max() <= 1e-6 * scale.max()
            assert np.abs(hess_ss - 2.0 * (g_zc + g_zz.real)).max() <= 1e-4 * scale.max()
            assert np.abs(hess_tt - 2.0 * (g_zc - g_zz.real)).max() <= 1e-4 * scale.max()
            assert np.abs(hess_st + 2.0 * g_zz.imag).max() <= 1e-4 * scale.max()


def test_one_pass_evaluation_matches_the_reference_forms():
    """The stacked evaluation of the program's points, `lp._chart_basis`
    (rows and their derivatives) and `lp._Range.excess` (g and its
    Wirtinger derivatives), matches the forms it replaced to 1e-12 of each
    quantity's largest value, at random chart points off the roots of q in
    both charts, on random rank-2 states and both functionals."""
    rng = np.random.default_rng(65)
    for rho in [_random_rank2(rng) for _ in range(3)] + [_random_rank2_gram(rng) for _ in range(3)]:
        B = eigen_factor(rho)
        for use_sqrt in (True, False):
            sphere = _range(B, use_sqrt)
            X = rng.standard_normal(4)
            z = rng.uniform(0.0, 1.2, 40) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 40))
            flip = np.arange(40) >= 20
            root_z, root_flip = lp._chart(sphere.roots)
            away = (np.abs(z[:, None] - root_z[None]) > 0.05).all(axis=1)
            z, flip = z[away], flip[away]
            assert flip.any() and not flip.all()
            rows, want = lp._chart_basis(z, flip), _chart_basis_ref(z, flip)
            assert np.abs(rows - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(lp._chart_basis(z, flip, 1), rows[:1])
            G = sphere.excess(z, *sphere.coefficients(X, flip))
            assert np.array_equal(G[0], z)
            for got, ref in zip(G[1:], _excess_ref(sphere, X, z, flip)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_refinement_matches_the_reference_path_on_rho0(monkeypatch):
    """`_Range._refine` from rho0's first simplex solve (tau) proposes the
    same points, rows and origins as the same steps taken on the reference
    forms of the rows and of f - l (`_chart_basis_ref`, `_excess_ref`), to
    1e-12."""
    B = eigen_factor(_counterexample_pair()[1][0])
    sphere = _range(B, False)
    z, flip, cost, A = sphere.columns().held()
    basis = lp._LP_BASIS.copy()
    w, X, _ = lp._simplex(cost, A, sphere.b, basis)
    at = np.flatnonzero(w > 0.0)
    support = basis[at]
    args = (X, w[at], z[support], flip[support], A[:, support].T, cost[support])
    (z, flip, a), origin = sphere._refine(*args)
    assert len(z) == 3 * lp._KKT_OFFSET.size  # the fourth point meets one of them
    monkeypatch.setattr(lp, "_chart_basis", lambda z, flip, blocks=3: _chart_basis_ref(z, flip)[:blocks])
    monkeypatch.setattr(sphere, "coefficients", lambda X, flip: (X, flip))
    monkeypatch.setattr(sphere, "excess",
                        lambda z, X, flip: np.array((z, *_excess_ref(sphere, X, z, flip))))
    (z_ref, flip_ref, a_ref), origin_ref = sphere._refine(*args)
    assert np.array_equal(flip, flip_ref) and np.array_equal(origin, origin_ref)
    assert np.abs(z - z_ref).max() <= 1e-12 and np.abs(a - a_ref).max() <= 1e-12


def test_simplex_dual_prices_its_basis_at_zero():
    """The dual X is refined to rounding: every basic column's reduced cost
    is zero to a few ulps of the costs, so rounding cannot make a basic or
    duplicate column enter and the pivots cycle."""
    rng = np.random.default_rng(11)
    states = [_random_rank2(rng) for _ in range(20)] + [_random_rank2_gram(rng) for _ in range(20)]
    for rho in states:
        for use_sqrt in (True, False):
            B = eigen_factor(rho)
            cost, A, b = _lp_columns(B, use_sqrt)
            basis = lp._LP_BASIS.copy()
            _, _, reduced = lp._simplex(cost, A, b, basis)
            assert np.abs(reduced[basis]).max() <= 8 * np.finfo(float).eps * np.abs(cost).max()


def _counterexample_pair():
    """(rho, TAU_RHO) and (rho0, TAU_RHO0) of the counterexample fixture."""
    fx = rt.counterexample_fixture()
    return ((rt.ensemble_to_density(fx.ensemble), TAU_RHO),
            (rt.measure(fx.ensemble, fx.measurement)[0].post_density, TAU_RHO0))


def test_refinement_closes_the_counterexample_in_one_pricing_pass(monkeypatch):
    """Tau, the counterexample pair: Newton steps on the program's KKT system
    carry the first round's support to the optimum, and each program closes
    its bracket at its first pricing pass (rho0 took three with rings of
    columns around the support, rho two); with refinement proposing
    nothing, rho0 takes more."""
    passes = []
    lowest = lp._Range.lowest
    monkeypatch.setattr(lp._Range, "lowest",
                        lambda self, *args: passes.append(1) or lowest(self, *args))
    for state, want in _counterexample_pair():
        B = eigen_factor(state)
        passes.clear()
        _, bound = lp._lp_roof(_range(B, False))
        assert len(passes) == 1
        assert abs(bound - want) <= 1e-7
    monkeypatch.setattr(lp._Range, "_refine", lambda self, X, w, z, flip, a, cost:
                        ((z[:0], flip[:0], a[:0]), np.arange(0)))
    passes.clear()
    _, bound = lp._lp_roof(_range(B, False))  # rho0
    assert 1 < len(passes) < lp._LP_ROUNDS
    assert abs(bound - TAU_RHO0) <= 1e-7


def test_chart_columns_and_derivatives_match_central_differences():
    """The columns a(z) of chart points, in both charts, are the reference
    rows of their unit vectors with the phase of the first entry taken off,
    and their derivatives in Re z and Im z agree with central differences;
    a point with |z| < 1 reads back in its own chart."""
    rng = np.random.default_rng(63)
    h = 1e-6
    z = rng.uniform(0.0, 1.0, 40) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 40))
    for flip in (np.zeros(40, dtype=bool), np.ones(40, dtype=bool)):
        def column(z):
            return _basis(*_phase_off(lp._unchart(z, flip)))

        a, a_s, a_t = lp._chart_basis(z, flip)
        assert np.abs(a - column(z)).max() <= 1e-15
        assert np.abs((column(z + h) - column(z - h)) / (2.0 * h) - a_s).max() <= 1e-8
        assert np.abs((column(z + 1j * h) - column(z - 1j * h)) / (2.0 * h) - a_t).max() <= 1e-8
        back, chart = lp._chart(lp._unchart(z, flip))
        assert np.array_equal(chart, flip) and np.abs(back - z).max() <= 1e-15


def test_column_costs_are_the_functionals_of_their_range_states():
    """A column's cost is the functional of the range state it stands for:
    at every 20th grid point, 50 random points in each chart (|z| up to
    1.5, past the unit disc where pricing steps leave points) and the roots
    of q, f(z, flip) is sqrt-tau or tau of the unit state
    _unchart(z, flip) @ E, on 20 random rank-2 states; every root reads as
    one.  At a root sqrt-tau is the square root of rounding, about 1e-8 in
    either form, so it is compared off the roots, and tau everywhere.  On
    every grid point the costs of the program's first columns, read from the
    monomial tables of the grid's angles, equal f(z, flip) to 1e-14 of the
    largest."""
    rng = np.random.default_rng(64)
    states = [_random_rank2(rng) for _ in range(10)] + [_random_rank2_gram(rng) for _ in range(10)]
    for rho in states:
        B = eigen_factor(rho)
        sphere = _range(B, True)
        root_z, root_flip = lp._chart(sphere.roots)
        disc = rng.uniform(0.0, 1.5, 100) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 100))
        z = np.concatenate((lp._BLOCH_Z[::20], disc, root_z))
        flip = np.concatenate((lp._BLOCH_FLIP[::20], np.arange(100) >= 50, root_flip))
        invs = [rt.invariants(rt.PureState(u / np.linalg.norm(u)))
                for u in lp._unchart(z, flip) @ sphere.E]
        for use_sqrt in (True, False):
            sphere = _range(B, use_sqrt)
            want = np.array([inv.sqrt_tau if use_sqrt else inv.tau for inv in invs])
            compared = len(z) - len(root_z) if use_sqrt else len(z)
            assert np.abs(sphere.f(z, flip) - want)[:compared].max() <= 1e-12
            assert sphere.on_root(sphere.f(root_z, root_flip)).all()
            grid = sphere.f(lp._BLOCH_Z, lp._BLOCH_FLIP)
            cost = sphere.columns().held()[2][:len(grid)]
            assert np.abs(cost - grid).max() <= 1e-14 * grid.max()


def test_refinement_reaches_the_kkt_point_of_rho0(monkeypatch):
    """Run to convergence from rho0's first simplex round (tau), the
    refinement proposes the three points of the optimal decomposition, each
    with its four offsets: the fourth support point, which the grid split
    off one of them, meets it and is dropped.  Weights solved on the three
    mix back to b, one X makes f - l and its gradient vanish at all three to
    rounding, and b @ X is the frozen roof."""
    monkeypatch.setattr(lp, "_KKT_STEPS", 8)
    B = eigen_factor(_counterexample_pair()[1][0])
    sphere = _range(B, False)
    z, flip, cost, A = sphere.columns().held()
    b = sphere.b
    basis = lp._LP_BASIS.copy()
    w, X, _ = lp._simplex(cost, A, b, basis)
    support = basis[w > 0.0]
    assert len(support) == 4
    (z, flip, _), _ = sphere._refine(X, w[w > 0.0], z[support], flip[support],
                                     A[:, support].T, cost[support])
    assert len(z) == 3 * lp._KKT_OFFSET.size
    z, flip = z[::lp._KKT_OFFSET.size], flip[::lp._KKT_OFFSET.size]
    a, a_s, a_t = lp._chart_basis(z, flip)
    weights = np.linalg.lstsq(a.T, b, rcond=None)[0]
    assert weights.min() > 0.0 and np.abs(a.T @ weights - b).max() <= 1e-13
    # f - l and its gradient are linear in X: (f, f_s, f_t) - (a, a_s, a_t) @ X
    f, f_z = sphere.excess(z, *sphere.coefficients(np.zeros(4), flip))[1:3]
    f = f.real
    rows = np.concatenate((a, a_s, a_t))
    values = np.concatenate((f, 2.0 * f_z.real, -2.0 * f_z.imag))
    X = np.linalg.lstsq(rows, values, rcond=None)[0]
    assert np.abs(rows @ X - values).max() <= 1e-13
    assert abs(b @ X - TAU_RHO0) <= 1e-13


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
        members = _ensemble_from_rows_ref(orbit.rows()).members
        assert len(res.ensemble) == len(members) == 4
        for (w, psi), (w_ref, psi_ref) in zip(res.ensemble.members, members):
            assert w == w_ref and np.array_equal(psi.amp, psi_ref.amp)
        assert res.value == rt.objective_at(image, res.ensemble, "sqrt_tau")
    small = rt.RoofOptions(ensemble_size=3, restarts=1, max_iterations=50)
    res = rt.roof_minimize(linear[0], "sqrt_tau", small)
    assert res.lower_bound >= linear[1] > 0.0 and len(res.ensemble) <= 3
    calls = []
    monkeypatch.setattr(roof, "range_orbit", lambda B, E, q, dirs: calls.append(B))
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
        cases.append(_slocc_image(mix.density(), [_local_operator(rng) for _ in range(3)]))
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
            assert abs(res.value - out.alpha * roof_in) <= lp._CERT_GAP
            assert abs(res.lower_bound - out.alpha * roof_in) <= 1e-12


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
    monkeypatch.setattr(roof, "range_orbit",
                        lambda B, E, q, dirs: calls.append(B) or orbit(B, E, q, dirs))
    rng = np.random.default_rng(17)
    opts = rt.RoofOptions(restarts=2)
    cases = 0
    while cases < 10:
        mix = random_mixture(rng)
        ops = [_local_operator(rng) for _ in range(3)]
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


# ------------------------------------ the closed path against its reference forms

def _same(a, b) -> bool:
    """Equal bit for bit: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _gate_slice():
    """The first eight states of each set of the rank-2 gate."""
    states = []
    for draw, seed in ((_random_rank2, 2026), (_random_rank2, 7), (_random_rank2, 11),
                       (_random_rank2, 12), (_random_rank2_gram, 2026), (_random_rank2_gram, 7),
                       (biseparable, 4242)):
        rng = np.random.default_rng(seed)
        states += [draw(rng) for _ in range(8)]
    return states


def test_eigen_factor_is_one_c_contiguous_product():
    """The factor is C-contiguous complex128 at every rank, and equal bit for
    bit to the reference form: the product, transposed, cast and copied to
    C order."""
    for rho in (_pure_density(ghz_state()), std_mixture(0.8).density(), generic_base(3),
                generic_base(4)):
        B = eigen_factor(rho)
        lam, vec = rt.states.spectrum(rho)
        assert B.dtype == np.complex128 and B.flags.c_contiguous
        assert _same(B, np.ascontiguousarray((vec * np.sqrt(lam)).T.astype(np.complex128)))


def test_range_roots_match_np_roots_bit_for_bit(monkeypatch):
    """The companion-matrix solve returns what ``np.roots`` returned, bit for
    bit, on the 42 GHZ/W images, a slice of the gate corpus and the standard
    mixture at p = 0.2 and 0.8; and, on quartics with exact zero
    coefficients, trims as ``np.roots`` trims: a trailing zero is a root 0,
    listed last, and a lone nonzero coefficient leaves only roots 0."""
    images = [image for image, _, _ in _orbit_images() + _std_images()]
    for rho in images + _gate_slice() + [std_mixture(p).density() for p in (0.2, 0.8)]:
        B = eigen_factor(rho)
        assert all(_same(a, b) for a, b in zip(range_roots(B), _range_roots_ref(B)))
    B = eigen_factor(std_mixture(0.8).density())
    for q in ([0.0, 0.5, 0.25j, 1.0, -0.3], [0.0, 0.0, 1.0, 0.5, 0.2], [1.0, 0.0, 0.3, 0.0, 0.0],
              [0.2, 1.0, 0.0, 0.0, 1e-13], [0.0, 0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0],
              [0.0, 1.0, 0.0, 0.0, 0.0]):
        monkeypatch.setattr(quartic, "pair_quartic", lambda w1, w2, q=q: np.array(q, complex))
        got, want = range_roots(B), _range_roots_ref(B)
        assert all(_same(a, b) for a, b in zip(got, want))
        if q[0] == 0.0 and q[4] != 0.0:  # t = 0 is a root, the last one
            assert got[2][-1, 0] == 0.0


def test_orbit_rows_match_the_per_member_superpositions():
    """One broadcast over the member table gives the rows of one
    superposition per member, bit for bit, on the 42 GHZ/W images, and
    ``_superposition`` the reference's amplitudes at the members' (p, phi)."""
    for image, _, _ in _orbit_images() + _std_images():
        orbit = rt.orbit_analysis(image)
        assert orbit is not None and _same(orbit.rows(), _orbit_rows_ref(orbit))
        for _, pv, phi in ghzw._members(orbit.p, orbit.analysis):
            args = orbit.g, orbit.w, pv, phi, orbit.analysis.tilde_phi
            assert _same(ghzw._superposition(*args), _superposition_ref(*args))


def test_result_reads_the_member_by_member_ensemble():
    """``_result`` reads its weights, members and value from one stack of
    unit rows; each is what the member-by-member ensemble and its value read
    back gave, bit for bit: on the orbit's and the zero fit's rows of the 42
    GHZ/W images and a slice of the gate corpus, and with a row below
    ``_WEIGHT_FLOOR`` and a zero row left out as before."""
    cases = []
    for rho in [image for image, _, _ in _orbit_images() + _std_images()] + _gate_slice():
        B = eigen_factor(rho)
        E, q, _, dirs = range_roots(B)
        exact = roof._zero_decomposition(dirs)
        orbit = ghzw.range_orbit(B, E, q, dirs)
        cases += [(rho, W) for W in (exact @ B if exact is not None else None,
                                     orbit.rows() if orbit is not None else None) if W is not None]
    rho, W = cases[0]
    floor = np.sqrt(roof._WEIGHT_FLOOR) / 10.0 * W[0] / np.linalg.norm(W[0])
    padded = np.vstack((W[:1], floor, W[1:], np.zeros(8)))
    assert len(roof._result(padded, True, 0, -1).ensemble) == len(W)
    cases.append((rho, padded))
    for rho, W in cases:
        ref = _ensemble_from_rows_ref(W)
        for functional in roof.FUNCTIONALS:
            res = roof._result(W, functional == "sqrt_tau", 0, -1)
            assert len(res.ensemble) == len(ref)
            for (w, psi), (w_ref, psi_ref) in zip(res.ensemble.members, ref.members):
                assert w == w_ref and _same(psi.amp, psi_ref.amp)
            assert res.value == _ensemble_value_ref(ref.members, functional == "sqrt_tau")
            assert res.value == rt.objective_at(rho, res.ensemble, functional)
    assert len(cases) > 60
