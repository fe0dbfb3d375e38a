"""Reference computations and correctness checks, made apart from rtangle.

Nothing here imports the package under test.  The hyperdeterminant is
computed as the discriminant of det(x M0 + y M1), with M0 and M1 the two
2x2 slices of the amplitude tensor, which is a different formula from the
monomial table the package uses.  The GHZ/W closed form is recoded from the
paper.  Every check compares against one of these references or against a
property the method must have, never against recorded output.

``self_test`` feeds each check a correct input and one perturbed beyond its
tolerance, and fails unless the first passes and the second is rejected.
"""
from __future__ import annotations

import math

import numpy as np

MIX_TOL = 1e-8            # an oracle ensemble must mix back to rho this closely
ORACLE_TOL = 5e-3         # oracle value vs closed form (acceptance criterion 5)
UPPER_BOUND_TOL = 1e-9    # how far an upper bound may dip below the exact value
EXACT_TOL = 1e-12         # exact fractions, closed forms, reconstruction
INVARIANCE_TOL = 1e-10    # LU / permutation invariance, scaling law
COVARIANCE_TOL = 1e-9     # t_r(out) = alpha t_r(in)
# sqrt-tau summed over members from their amplitudes: near a tangle-free
# member sqrt|Det| amplifies roundoff, since an error d in Det (a few ulp of
# unit-scale products, d <= 1e-14) moves 2 sqrt|Det| by up to 2 sqrt(d) = 2e-7
CUSP_TOL = 1e-6

TAU_RHO = (63.0 - math.sqrt(465.0)) / 90.0
TAU_RHO0 = 160.0 * (9.0 - math.sqrt(6.0)) / 7569.0
EXACT_FRACTIONS = {"probability": 29 / 50, "weight_ghz": 22 / 29,
                   "weight_w": 7 / 29, "alpha_sq": 250 / 841}


# --------------------------------------------------------------------------
# references

def hyperdet(amp) -> complex:
    """Cayley hyperdeterminant of 8 amplitudes (qubit A most significant)."""
    t = np.asarray(amp, dtype=complex).reshape(2, 2, 2)
    m0, m1 = t[0], t[1]
    a = m0[0, 0] * m0[1, 1] - m0[0, 1] * m0[1, 0]
    c = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    s = m0 + m1
    b = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0] - a - c
    return complex(b * b - 4.0 * a * c)


def tau(amp) -> float:
    return 4.0 * abs(hyperdet(amp))


def member_value(row, use_sqrt: bool) -> float:
    """Weighted objective summand of a sub-normalized member row."""
    d = abs(hyperdet(row))
    if use_sqrt:
        return 2.0 * math.sqrt(d)
    n = float(np.vdot(row, row).real)
    return 4.0 * d / n if n > 1e-30 else 0.0


def spectral_objective(rho: np.ndarray, use_sqrt: bool) -> float:
    """Objective of rho's own eigen-decomposition, an upper bound on its roof."""
    lam, vec = np.linalg.eigh(rho)
    return sum(member_value(math.sqrt(l) * vec[:, k], use_sqrt)
               for k, l in enumerate(lam) if l > 1e-12)


def mix(weights, states) -> np.ndarray:
    rho = np.zeros((8, 8), dtype=complex)
    for w, psi in zip(weights, states):
        psi = np.asarray(psi, dtype=complex)
        rho += w * np.outer(psi, psi.conj())
    return rho


def ghzw_members(a, b, c, d, f, p) -> tuple:
    """(weight, amplitudes) of p gGHZ(a, b) and (1-p) gW(c, d, f)."""
    ghz = np.zeros(8, complex)
    ghz[0], ghz[7] = a, b
    w = np.zeros(8, complex)
    w[1], w[2], w[4] = c, d, f
    return ((p, ghz), (1.0 - p, w))


def ghzw_density(a, b, c, d, f, p) -> np.ndarray:
    return mix(*zip(*ghzw_members(a, b, c, d, f, p)))


def ghzw_p0(a, b, c, d, f) -> float:
    """Branch point p0 = s^(2/3) / (1 + s^(2/3)), s = |4 c d f / (a^2 b)|."""
    u = abs(4.0 * c * d * f / (a * a * b)) ** (2.0 / 3.0)
    return u / (1.0 + u)


def ghzw_rtangle(a, b, c, d, f, p) -> float:
    """Residual tangle of p gGHZ + (1-p) gW: 0 up to p0, then linear."""
    p0 = ghzw_p0(a, b, c, d, f)
    return 0.0 if p <= p0 else 2.0 * abs(a * b) * (p - p0) / (1.0 - p0)


# --------------------------------------------------------------------------
# checks

class Checks:
    """Counts checks and keeps the first few failures."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []
        self._failed = 0

    @property
    def ok(self) -> bool:
        return self._failed == 0

    def _record(self, passed: bool, message: str) -> None:
        self.count += 1
        if not passed:
            self._failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def close(self, what, got, want, tol):
        self._record(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol:g}")

    def at_least(self, what, got, floor, tol):
        self._record(got >= floor - tol, f"{what}: {got!r} below {floor!r} by more than {tol:g}")

    def at_most(self, what, got, ceiling, tol):
        self._record(got <= ceiling + tol, f"{what}: {got!r} above {ceiling!r} by more than {tol:g}")

    def equal(self, what, got, want):
        self._record(got == want, f"{what}: got {got!r}, want {want!r}")


def check_oracle_vs_exact(chk, label, value, exact):
    """An oracle value is an upper bound within the acceptance gap."""
    chk.close(f"{label} gap to exact", value, exact, ORACLE_TOL)
    chk.at_least(f"{label} upper bound", value, exact, UPPER_BOUND_TOL)


def check_decomposition(chk, label, rho, weights, states, value, use_sqrt):
    """A returned ensemble is a decomposition of rho whose objective is value,
    and it does at least as well as rho's spectral decomposition."""
    dev = float(np.abs(mix(weights, states) - rho).max())
    chk.at_most(f"{label} mixes back to rho", dev, 0.0, MIX_TOL)
    recomputed = sum(w * member_value(np.asarray(s, complex), use_sqrt)
                     for w, s in zip(weights, states))
    tol = CUSP_TOL if use_sqrt else INVARIANCE_TOL
    chk.close(f"{label} value from member invariants", value, recomputed, tol)
    chk.at_most(f"{label} not above spectral objective", value,
                spectral_objective(rho, use_sqrt), tol)


def check_pure_invariants(chk, label, amp, tau_lib, sqrt_tau_lib):
    ref = tau(amp)
    chk.close(f"{label} tau", tau_lib, ref, EXACT_TOL)
    chk.close(f"{label} sqrt_tau^2 = tau", sqrt_tau_lib ** 2, ref, EXACT_TOL)


def check_invariant_under(chk, label, tau_before, tau_after):
    chk.close(f"{label} invariance", tau_after, tau_before, INVARIANCE_TOL)


def check_scaling_law(chk, label, sqrt_tau_out, alpha, sqrt_tau_in):
    chk.close(f"{label} scaling law", sqrt_tau_out, alpha * sqrt_tau_in, INVARIANCE_TOL)


def check_exact_fractions(chk, label, probability, weight_ghz, weight_w, alpha_sq):
    got = {"probability": probability, "weight_ghz": weight_ghz,
           "weight_w": weight_w, "alpha_sq": alpha_sq}
    for key, want in EXACT_FRACTIONS.items():
        chk.close(f"{label} {key}", got[key], want, EXACT_TOL)


def check_covariance(chk, label, tr_out, alpha, tr_in):
    chk.close(f"{label} t_r covariance", tr_out, alpha * tr_in, COVARIANCE_TOL)


def check_optimal_ensemble(chk, label, rho, weights, states, rtangle):
    dev = float(np.abs(mix(weights, states) - rho).max())
    chk.at_most(f"{label} reconstructs rho", dev, 0.0, EXACT_TOL)
    objective = sum(w * math.sqrt(tau(s)) for w, s in zip(weights, states))
    chk.close(f"{label} objective = t_r", objective, rtangle, CUSP_TOL)


# --------------------------------------------------------------------------
# self-test: every check must accept a correct input and reject a perturbed one

def _self_test_cases():
    """(check, good args, bad args, words of the failure the bad args must raise)."""
    s2, s3 = 2 ** -0.5, 3 ** -0.5
    ghz = np.array([s2, 0, 0, 0, 0, 0, 0, s2], complex)
    w = np.array([0, s3, s3, 0, s3, 0, 0, 0], complex)
    std = mix((0.8, 0.2), (ghz, w))
    exact = ghzw_rtangle(s2, s2, s3, s3, s3, 0.8)
    # 1/2 |000><000| + 1/2 |111><111|: tangle-free as the spectral ensemble,
    # tangle 1 as the equal mixture of GHZ+ and GHZ-
    basis = np.eye(8, dtype=complex)
    ghz_minus = np.array([s2, 0, 0, 0, 0, 0, 0, -s2], complex)
    diag = mix((0.5, 0.5), (basis[0], basis[7]))
    half = [0.5, 0.5]
    # zero-branch optimal ensemble of the standard mixture at p = p0
    p0 = ghzw_p0(s2, s2, s3, s3, s3)
    fam = [math.sqrt(p0) * ghz - math.sqrt(1 - p0) * np.exp(2j * math.pi * n / 3) * w
           for n in range(3)]
    rho0 = ghzw_density(s2, s2, s3, s3, s3, p0)
    third = [1 / 3] * 3
    amp = np.array([0.3, 0.1j, -0.2, 0.4, 0.5, 0.1, -0.3j, 0.2], complex)
    amp /= np.linalg.norm(amp)
    t = tau(amp)
    k = 2.0  # perturbations are k times the tolerance
    return [
        (check_oracle_vs_exact, ("x", exact + 1e-4, exact),
         ("x", exact + k * ORACLE_TOL, exact), "gap to exact"),
        (check_oracle_vs_exact, ("x", exact, exact),
         ("x", exact - k * UPPER_BOUND_TOL, exact), "upper bound"),
        (check_decomposition, ("x", std, (0.8, 0.2), (ghz, w), 0.8, True),
         # GHZ entries are 1/2, so the weight moves rho by half as much
         ("x", std, (0.8 + 2 * k * MIX_TOL, 0.2), (ghz, w), 0.8, True), "mixes back"),
        (check_decomposition, ("x", std, (0.8, 0.2), (ghz, w), 0.8, True),
         ("x", std, (0.8, 0.2), (ghz, w), 0.8 + k * CUSP_TOL, True), "member invariants"),
        (check_decomposition, ("x", std, (0.8, 0.2), (ghz, w), 0.8, False),
         ("x", std, (0.8, 0.2), (ghz, w), 0.8 + k * INVARIANCE_TOL, False), "member invariants"),
        (check_decomposition, ("x", diag, half, (basis[0], basis[7]), 0.0, False),
         ("x", diag, half, (ghz, ghz_minus), 1.0, False), "spectral objective"),
        (check_pure_invariants, ("x", amp, t, math.sqrt(t)),
         ("x", amp, t + k * EXACT_TOL, math.sqrt(t + k * EXACT_TOL)), "tau"),
        (check_pure_invariants, ("x", amp, t, math.sqrt(t)),
         ("x", amp, t, math.sqrt(t) + k * EXACT_TOL), "sqrt_tau^2"),
        (check_invariant_under, ("x", t, t), ("x", t, t + k * INVARIANCE_TOL), "invariance"),
        (check_scaling_law, ("x", 0.5, 0.5, 1.0),
         ("x", 0.5 + k * INVARIANCE_TOL, 0.5, 1.0), "scaling law"),
        (check_exact_fractions, ("x", 29 / 50, 22 / 29, 7 / 29, 250 / 841),
         ("x", 29 / 50 + k * EXACT_TOL, 22 / 29, 7 / 29, 250 / 841), "probability"),
        (check_exact_fractions, ("x", 29 / 50, 22 / 29, 7 / 29, 250 / 841),
         ("x", 29 / 50, 22 / 29 + k * EXACT_TOL, 7 / 29, 250 / 841), "weight_ghz"),
        (check_exact_fractions, ("x", 29 / 50, 22 / 29, 7 / 29, 250 / 841),
         ("x", 29 / 50, 22 / 29, 7 / 29 + k * EXACT_TOL, 250 / 841), "weight_w"),
        (check_exact_fractions, ("x", 29 / 50, 22 / 29, 7 / 29, 250 / 841),
         ("x", 29 / 50, 22 / 29, 7 / 29, 250 / 841 + k * EXACT_TOL), "alpha_sq"),
        (check_covariance, ("x", 0.25, 0.5, 0.5),
         ("x", 0.25 + k * COVARIANCE_TOL, 0.5, 0.5), "covariance"),
        (check_optimal_ensemble, ("x", rho0, third, fam, 0.0),
         ("x", rho0 + k * EXACT_TOL, third, fam, 0.0), "reconstructs"),
        (check_optimal_ensemble, ("x", rho0, third, fam, 0.0),
         ("x", rho0, third, fam, k * CUSP_TOL), "objective"),
    ]


def self_test() -> list[str]:
    """Descriptions of the checks that reject a correct input or fail to
    reject one perturbed beyond their tolerance; empty when all are sound."""
    broken = []
    for fn, good, bad, words in _self_test_cases():
        on_good, on_bad = Checks(), Checks()
        fn(on_good, *good)
        fn(on_bad, *bad)
        if not on_good.ok:
            broken.append(f"{fn.__name__}: rejects a correct input: {on_good.failures}")
        if not any(words in msg for msg in on_bad.failures):
            broken.append(f"{fn.__name__}: accepts a {words!r} perturbed beyond its tolerance")
    return broken
