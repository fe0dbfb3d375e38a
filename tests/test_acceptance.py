"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the same condition, including the runtime budget.  The convex-roof
criteria run with the default optimizer options.
"""
import time

import numpy as np
import pytest

import rtangle as rt
from freeze import (
    P0_STD,
    TAU_RHO,
    TAU_RHO0,
    TR_OUT0,
    TR_STD_P08,
    ghz_state,
    random_mixture,
    random_pure,
    random_unitary2,
    std_mixture,
    w_state,
)

DEFAULTS = rt.RoofOptions()  # ensemble_size=4, restarts=50, max_iterations=2000, seed=0


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def roof_sweep():
    """Criterion-5 workload, shared with criterion 8: default-option roof
    values across the p grid, with elapsed wall time."""
    t0 = time.perf_counter()
    rows = []
    for k in range(11):
        p = k / 10.0
        mix = std_mixture(p)
        closed = rt.analyze(mix).rtangle
        value = rt.roof_minimize(mix.density(), "sqrt_tau", DEFAULTS).value
        rows.append((p, closed, value))
    return rows, time.perf_counter() - t0


def test_criterion_1_pure_invariants():
    t0 = time.perf_counter()
    ok = abs(rt.tau(ghz_state()) - 1.0) < 1e-12 and abs(rt.tau(w_state())) < 1e-12
    rng = np.random.default_rng(101)
    worst_sq = worst_lu = worst_perm = 0.0
    perms = [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    for i in range(1000):
        psi = random_pure(rng)
        inv = rt.invariants(psi)
        worst_sq = max(worst_sq, abs(inv.sqrt_tau ** 2 - inv.tau))
        rotated = psi
        for target in "ABC":
            rotated = rt.apply_local(
                rt.LocalOperator(random_unitary2(rng), target), rotated)[0].unit()
        worst_lu = max(worst_lu, abs(rt.tau(rotated) - inv.tau))
        worst_perm = max(worst_perm, abs(rt.tau(rt.permute_qubits(psi, perms[i % 5])) - inv.tau))
    elapsed = time.perf_counter() - t0
    ok = ok and worst_sq < 1e-12 and worst_lu < 1e-10 and worst_perm < 1e-10 and elapsed < 1.0
    _report("criterion 1: pure-state invariants",
            ok, f"sq={worst_sq:.1e} lu={worst_lu:.1e} perm={worst_perm:.1e} t={elapsed:.2f}s")


def test_criterion_2_scaling_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        psi = random_pure(rng)
        while True:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(m)) > 0.1:
                break
        op = rt.LocalOperator(m, "ABC"[rng.integers(0, 3)])
        raw, p = rt.apply_local(op, psi)
        worst = max(worst, abs(rt.sqrt_tau(raw.unit()) - rt.alpha(op, p) * rt.sqrt_tau(psi)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report("criterion 2: measurement scaling law", ok, f"worst={worst:.1e} t={elapsed:.2f}s")


def test_criterion_3_exact_pipeline():
    t0 = time.perf_counter()
    fx = rt.counterexample_fixture()
    out = rt.measure(fx.ensemble, fx.measurement)[0]
    weights = out.post_ensemble.weights()
    ghz_post, w_post = out.post_ensemble.states()
    checks = [
        abs(out.probability - 29 / 50),
        abs(weights[0] - 22 / 29),
        abs(weights[1] - 7 / 29),
        abs(abs(ghz_post.amp[0]) - np.sqrt(10 / 11)),
        abs(abs(ghz_post.amp[7]) - np.sqrt(1 / 11)),
        abs(abs(w_post.amp[1]) - np.sqrt(10 / 21)),
        abs(abs(w_post.amp[2]) - np.sqrt(10 / 21)),
        abs(abs(w_post.amp[4]) - np.sqrt(1 / 21)),
        abs(out.alpha ** 2 - 250 / 841),
    ]
    elapsed = time.perf_counter() - t0
    ok = max(checks) < 1e-12 and elapsed < 1.0
    _report("criterion 3: exact measurement pipeline", ok,
            f"worst={max(checks):.1e} t={elapsed:.2f}s")


def test_criterion_4_tangle_counterexample():
    t0 = time.perf_counter()
    report = rt.verify_tangle_noncovariance()
    gap_ok = report.gap > 3e-3 and abs(report.gap - 3.5e-3) < 1e-4
    fx = rt.counterexample_fixture()
    rho = rt.ensemble_to_density(fx.ensemble)
    roof_in = rt.roof_minimize(rho, "tau", DEFAULTS).value
    out0 = rt.measure(fx.ensemble, fx.measurement)[0]
    roof_out = rt.roof_minimize(out0.post_density, "tau", DEFAULTS).value
    elapsed = time.perf_counter() - t0
    roof_ok = abs(roof_in - TAU_RHO) <= 5e-3 and abs(roof_out - TAU_RHO0) <= 5e-3
    ok = gap_ok and roof_ok and elapsed < 60.0
    _report("criterion 4: tangle non-covariance counterexample", ok,
            f"gap={report.gap:.2e} roof_in_err={abs(roof_in - TAU_RHO):.1e} "
            f"roof_out_err={abs(roof_out - TAU_RHO0):.1e} t={elapsed:.1f}s")


def test_criterion_5_closed_form_vs_oracle(roof_sweep):
    rows, elapsed = roof_sweep
    worst = max(abs(value - closed) for _, closed, value in rows)
    p0_ok = abs(rt.analyze(std_mixture(0.5)).p0 - P0_STD) < 1e-12
    v08 = [closed for p, closed, _ in rows if p == 0.8][0]
    v08_ok = abs(v08 - TR_STD_P08) < 1e-12 and abs(v08 - 0.464021) < 1e-6
    ok = worst <= 5e-3 and p0_ok and v08_ok and elapsed < 600.0
    _report("criterion 5: closed form vs convex-roof oracle", ok,
            f"worst_gap={worst:.1e} t={elapsed:.1f}s")


def test_criterion_6_rtangle_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for target in "ABC":
        done = 0
        while done < 100:
            mix = random_mixture(rng)
            if mix.p in (0.0, 1.0):
                continue
            u = rng.uniform(0.3, 0.95, 2)
            ms = rt.MeasurementSet((
                rt.LocalOperator(np.diag(u).astype(complex), target),
                rt.LocalOperator(np.diag(np.sqrt(1 - u ** 2)).astype(complex), target),
            ))
            tr_in = rt.analyze(mix).rtangle
            for out in rt.measure(mix.ensemble(), ms):
                if out.empty:
                    continue
                mix_out = rt.as_mixture(out.post_ensemble)
                tr_out = rt.analyze(mix_out).rtangle
                worst = max(worst, abs(tr_out - out.alpha * tr_in))
            done += 1
    # the fixed instance: propagated vs closed-form route
    fx = rt.counterexample_fixture()
    out0 = rt.measure(fx.ensemble, fx.measurement)[0]
    route_a = rt.propagate_rtangle(rt.analyze(std_mixture(0.8)).rtangle, out0.alpha)
    route_b = rt.analyze(rt.as_mixture(out0.post_ensemble)).rtangle
    elapsed = time.perf_counter() - t0
    instance_ok = (abs(route_a - route_b) <= 1e-6
                   and abs(route_a - 0.253) < 1e-4
                   and abs(out0.alpha - 0.545220) < 1e-6
                   and abs(route_b - TR_OUT0) < 1e-12)
    ok = worst < 1e-9 and instance_ok and elapsed < 5.0
    _report("criterion 6: residual-tangle covariance", ok,
            f"worst={worst:.1e} routes={route_a:.6f}/{route_b:.6f} t={elapsed:.1f}s")


def test_criterion_7_optimal_ensemble_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_mix = worst_obj = worst_closed = 0.0
    for _ in range(200):
        mix = random_mixture(rng)
        ens = rt.optimal_ensemble(mix)
        dev = np.abs(rt.ensemble_to_density(ens).matrix - mix.density().matrix).max()
        worst_mix = max(worst_mix, dev)
        worst_obj = max(worst_obj, abs(rt.optimal_objective(mix) - rt.analyze(mix).rtangle))
    for _ in range(1000):
        mix = random_mixture(rng)
        p, phi = float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi))
        closed = rt.family_sqrt_tau(mix, p, phi)
        direct = rt.invariants(rt.family_state(mix, p, phi)).sqrt_tau
        worst_closed = max(worst_closed, abs(closed - direct))
    cert = rt.concavity_certificate(std_mixture(0.8))
    elapsed = time.perf_counter() - t0
    ok = (worst_mix < 1e-12 and worst_obj < 1e-10 and worst_closed < 1e-12
          and cert.quartic_positive and elapsed < 5.0)
    _report("criterion 7: optimal-ensemble structure", ok,
            f"mix={worst_mix:.1e} obj={worst_obj:.1e} closed={worst_closed:.1e} "
            f"quartic_min={cert.quartic_min:.3f} t={elapsed:.1f}s")


def test_criterion_8_optimizer_soundness(roof_sweep):
    rows, _ = roof_sweep
    lower_ok = all(value >= closed - 1e-9 for _, closed, value in rows)
    mix = std_mixture(0.8)
    v1 = rt.roof_minimize(mix.density(), "sqrt_tau", DEFAULTS).value
    v08 = [value for p, _, value in rows if p == 0.8][0]
    deterministic = abs(v1 - v08) < 1e-15
    ok = lower_ok and deterministic
    _report("criterion 8: optimizer soundness and determinism", ok,
            f"upper_bound={'ok' if lower_ok else 'VIOLATED'} repeat_diff={abs(v1 - v08):.1e}")
