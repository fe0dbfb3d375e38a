"""The three workloads: seeded inputs, the operations run on them, and checks.

Each workload has a *pass*: a fixed list of operations drawn from the seed.
A run always completes one pass, then keeps going until ``seconds`` have
passed.  The roof workloads repeat the pass's solves in order and may stop
between two solves; ``exact-pipeline`` runs whole rounds only, so its
failed share is the same in every run.  Per-layer figures are taken at the
end of the first pass, so call counts repeat exactly for a given seed.

The package is reached only through attributes looked up at call time
(``rt.roof_minimize``, ``rt_cli.main``), so the tracer's wrappers see every
call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import monotonic

import numpy as np

import checks as ref

ROOF_RESTARTS = 5            # stated input size of both roof workloads
SMOKE_RESTARTS = 1

STD = (2 ** -0.5, 2 ** -0.5, 3 ** -0.5, 3 ** -0.5, 3 ** -0.5)  # the paper's mixture
# linear-branch points are placed where the closed form equals these values,
# so the sum of exact values of a pass does not depend on the seed
GHZW_TARGETS = (0.2, 0.35, 0.5)
EXACT_TARGETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

# the drawn GHZ/W moduli and branch points, and the three generic base
# states, are the same in every run; the run's seed picks the frame they are
# posed in (see ghzw_cases and generic_cases)
BASE_SEED = 2013
GENERIC_NOISE = 0.2          # weight of the random admixture
GENERIC_RANKS = (2, 3, 4)

EXACT_PASS_ROUNDS = 10
N_INVARIANCE, N_SCALING, N_MIXTURE = 24, 24, 12


@dataclass
class Outcome:
    times: dict          # operation kind -> (monotonic start, wall seconds) of each call
    mix: dict            # operation kind -> occurrences in one pass or round
    attempted: int
    failed: int
    failures: list       # descriptions of the first failed operations
    values: list         # residual-tangle values of the first pass, in order
    seed_wins: int
    trace: dict | None   # tracer snapshot at the end of the first pass


# --------------------------------------------------------------------------
# input generators

def random_pure(rng) -> np.ndarray:
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return v / np.linalg.norm(v)


def haar_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_op(m, target: str) -> np.ndarray:
    """A single-qubit operator as an 8x8 matrix (qubit A most significant)."""
    eye = np.eye(2)
    factors = [m if q == target else eye for q in "ABC"]
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def qubit_permutation(order) -> np.ndarray:
    """8x8 matrix that relabels qubits: position i takes qubit order[i]."""
    basis = np.eye(8)
    return np.stack([basis[k].reshape(2, 2, 2).transpose(order).reshape(8)
                     for k in range(8)], axis=1)


def random_frame(rng) -> np.ndarray:
    """Random local unitary times a random qubit relabelling; tau-invariant."""
    v = np.kron(np.kron(haar_unitary(rng), haar_unitary(rng)), haar_unitary(rng))
    return v @ qubit_permutation(tuple(rng.permutation(3)))


def draw_moduli(rng, concentration: float) -> np.ndarray:
    """|a|^2 uniform in [0.2, 0.8], so 2|ab| >= 0.8; (|c|^2, |d|^2, |f|^2) Dirichlet."""
    x = rng.uniform(0.2, 0.8)
    return np.sqrt(np.concatenate(([x, 1.0 - x], rng.dirichlet([concentration] * 3))))


def with_phases(rng, moduli) -> tuple:
    """Complex (a, b, c, d, f) with the given moduli and uniform phases."""
    return tuple(complex(z) for z in moduli * np.exp(2j * np.pi * rng.uniform(size=5)))


def draw_ghzw(rng, concentration: float) -> tuple:
    return with_phases(rng, draw_moduli(rng, concentration))


def linear_point(params, value: float) -> float:
    """The p > p0 at which the closed form equals ``value``."""
    a, b = params[0], params[1]
    p0 = ref.ghzw_p0(*params)
    return p0 + value * (1.0 - p0) / (2.0 * abs(a * b))


def hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


# --------------------------------------------------------------------------
# roof workloads

@dataclass
class RoofCase:
    label: str
    matrix: np.ndarray       # rho, built by the benchmark
    functional: str
    exact: float | None      # known residual tangle, when there is one


def ghzw_cases(rng, smoke: bool) -> list:
    """Rank-2 GHZ/W mixtures (sqrt-tau) and the counterexample pair (tau).

    The drawn mixtures take their moduli and zero-branch points from the
    fixed base seed and their five phases from the run's seed.  The phases
    are a local diagonal unitary away from real parameters, so every seed
    poses the same problems in another frame, and the cost of a pass does
    not hang on which mixtures the seed happened to draw.
    """
    cases = [RoofCase(f"std p={p}", ref.ghzw_density(*STD, p), "sqrt_tau",
                      ref.ghzw_rtangle(*STD, p)) for p in ((0.8,) if smoke else (0.3, 0.8))]
    base_rng = np.random.default_rng(BASE_SEED + 1)
    for k, target in enumerate(() if smoke else GHZW_TARGETS):
        params = with_phases(rng, draw_moduli(base_rng, 4.0))
        p0 = ref.ghzw_p0(*params)
        for branch, p in (("zero", p0 * base_rng.uniform(0.25, 0.75)),
                          ("linear", linear_point(params, target))):
            cases.append(RoofCase(f"drawn{k} {branch} p={p:.4f}", ref.ghzw_density(*params, p),
                                  "sqrt_tau", ref.ghzw_rtangle(*params, p)))
    rho = ref.ghzw_density(*STD, 0.8)
    m0 = local_op(np.diag([1.0, 10 ** -0.5]), "A")
    rho0 = m0 @ rho @ m0.conj().T
    rho0 /= rho0.trace().real
    if not smoke:
        cases.append(RoofCase("counterexample rho", rho, "tau", ref.TAU_RHO))
    cases.append(RoofCase("counterexample rho0", hermitian(rho0), "tau", ref.TAU_RHO0))
    return cases


def generic_cases(rng, smoke: bool) -> list:
    """One dominant random pure state plus random noise, at ranks 2-4.

    The base states come from a fixed seed; the run's seed puts each case
    in its own random local-unitary frame and qubit order.  The residual
    tangle is invariant under both, so every seed poses the same problems
    in another basis, and the value differences across seeds are the
    search's own.
    """
    base_rng = np.random.default_rng(BASE_SEED)
    bases = {}
    for r in GENERIC_RANKS:
        weights = np.concatenate(([1.0 - GENERIC_NOISE],
                                  GENERIC_NOISE * base_rng.dirichlet(np.ones(r - 1))))
        bases[r] = ref.mix(weights, [random_pure(base_rng) for _ in range(r)])
    cases = []
    for r in GENERIC_RANKS[:1] if smoke else GENERIC_RANKS:
        for functional in ("sqrt_tau",) if smoke else ("sqrt_tau", "tau"):
            v = random_frame(rng)
            cases.append(RoofCase(f"rank{r} {functional}", hermitian(v @ bases[r] @ v.conj().T),
                                  functional, None))
    return cases


def run_roof(rt, cases, smoke, seconds, tracer, chk) -> Outcome:
    opts = rt.RoofOptions(restarts=SMOKE_RESTARTS if smoke else ROOF_RESTARTS)
    densities = [rt.DensityMatrix(c.matrix) for c in cases]
    times = {c.label: [] for c in cases}
    first, seed_wins, snapshot = [], 0, None
    n = len(cases)
    start = monotonic()
    k = 0
    while k < n or monotonic() - start < seconds:
        case = cases[k % n]
        t0 = monotonic()
        res = rt.roof_minimize(densities[k % n], case.functional, opts)
        times[case.label].append((t0, monotonic() - t0))
        if k < n:
            first.append(res.value)
            seed_wins += res.best_restart_index < 0
            if case.exact is not None:
                ref.check_oracle_vs_exact(chk, case.label, res.value, case.exact)
            members = res.ensemble.members
            ref.check_decomposition(chk, case.label, case.matrix, [w for w, _ in members],
                                    [psi.amp for _, psi in members], res.value,
                                    case.functional == "sqrt_tau")
        else:
            chk.equal(f"{case.label} repeated solve", res.value, first[k % n])
        k += 1
        if k == n and tracer is not None:
            snapshot = tracer.snapshot()
    return Outcome(times=times, mix=dict.fromkeys(times, 1), attempted=k, failed=0,
                   failures=[], values=first, seed_wins=seed_wins, trace=snapshot)


def ghzw_oracle(rt, rng, smoke, seconds, tracer, chk, tmp) -> Outcome:
    return run_roof(rt, ghzw_cases(rng, smoke), smoke, seconds, tracer, chk)


def generic_roof(rt, rng, smoke, seconds, tracer, chk, tmp) -> Outcome:
    return run_roof(rt, generic_cases(rng, smoke), smoke, seconds, tracer, chk)


# --------------------------------------------------------------------------
# exact pipeline

PERMUTATIONS = ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1))


def _pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _pure_doc(amp) -> dict:
    return {"amplitudes": [_pair(z) for z in amp]}


def _ensemble_doc(members) -> dict:
    return {"members": [{"weight": float(q), "amplitudes": [_pair(z) for z in amp]}
                        for q, amp in members]}


def _kraus_doc(target, mats) -> dict:
    return {"target": target,
            "operators": [[[_pair(m[i, j]) for j in range(2)] for i in range(2)] for m in mats]}


def _diagonal_kraus(rng):
    u = rng.uniform(0.3, 0.95, 2)
    return "ABC"[rng.integers(0, 3)], (np.diag(u).astype(complex),
                                       np.diag(np.sqrt(1.0 - u ** 2)).astype(complex))


def _parse_lines(text: str) -> list:
    """``key = value`` lines of CLI output, in order."""
    out = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.append((key.strip(), value.strip()))
    return out


def _cli(rt_cli, argv):
    """Run the CLI in process; return (exit code, stdout), or the escaped exception."""
    buf_out, buf_err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
            code = rt_cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # an escaped exception is a traceback for a user
        return exc, buf_out.getvalue()
    return code, buf_out.getvalue()


class ExactPipeline:
    """One round: invariance and scaling checks on random pure states, the
    GHZ/W closed form, optimal ensembles and measurement covariance on random
    mixtures, the exact counterexample pipeline, three well-formed CLI calls
    and a fixed set of malformed ones with documented exit codes."""

    def __init__(self, rt, rng, chk, tmp):
        self.rt, self.rng, self.chk, self.tmp = rt, rng, chk, tmp
        self.times: dict = {}
        self.attempted = self.failed = 0
        self.failures: list = []
        self.values: list = []
        self.rt_cli = __import__(rt.__name__ + ".cli", fromlist=["main"])
        s2, s3 = repr(STD[0]), repr(STD[2])
        os.makedirs(os.path.join(tmp, "normal"), exist_ok=True)
        _write_json(os.path.join(tmp, "unnormalized.json"), _pure_doc([1, 1, 0, 0, 0, 0, 0, 0]))
        with open(os.path.join(tmp, "broken.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        _write_json(os.path.join(tmp, "ghz.json"), _pure_doc([STD[0], 0, 0, 0, 0, 0, 0, STD[1]]))
        _write_json(os.path.join(tmp, "rank2.json"), _ensemble_doc(ref.ghzw_members(*STD, 0.8)))
        _write_json(os.path.join(tmp, "incomplete.json"), _kraus_doc("A", [np.diag([1.0, 0.5])]))
        t = tmp + os.sep
        codes = set(range(2, 7))
        # (kind, argv, accepted exit codes); inputs do not depend on the seed
        self.malformed = (
            ("cli-pure-missing", ["pure", t + "missing.json"], {2}),
            ("cli-pure-missing-in-normal-dir", ["pure", t + "normal/missing.json"], {2}),
            ("cli-pure-unnormalized", ["pure", t + "unnormalized.json"], {3}),
            ("cli-pure-broken-json", ["pure", t + "broken.json"], {2}),
            ("cli-roof-size-9", ["roof", t + "ghz.json", "--size", "9"], codes),
            ("cli-roof-restarts-0", ["roof", t + "ghz.json", "--restarts", "0"], codes),
            ("cli-roof-size-below-rank", ["roof", t + "rank2.json", "--size", "1"], {4}),
            ("cli-slocc-incomplete-kraus", ["slocc", t + "rank2.json", t + "incomplete.json"], {5}),
            ("cli-mixture-unnormalized", ["mixture", "--a", "2", "--b", "0", "--c", "1",
                                          "--d", "0", "--f", "0", "--p", "0.5"], {3}),
            ("cli-sweep-one-step", ["sweep", "--a", s2, "--b", s2, "--c", s3, "--d", s3,
                                    "--f", s3, "--steps", "1", "--out", t + "sweep.csv"], {2}),
        )
        self.mix = {"invariance": N_INVARIANCE, "scaling": N_SCALING, "mixture": N_MIXTURE,
                    "counterexample": 1, "cli-pure": 1, "cli-mixture": 1, "cli-slocc": 1}
        self.mix.update((kind, 1) for kind, _, _ in self.malformed)

    def _timed(self, kind, fn):
        t0 = monotonic()
        out = fn()
        self.times.setdefault(kind, []).append((t0, monotonic() - t0))
        self.attempted += 1
        return out

    def _fail(self, kind, what):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {what}")

    def round(self, record_values: bool) -> None:
        for i in range(N_INVARIANCE):
            self.invariance(PERMUTATIONS[i % len(PERMUTATIONS)])
        for _ in range(N_SCALING):
            self.scaling()
        for i in range(N_MIXTURE):
            self.mixture(None if i % 2 == 0 else EXACT_TARGETS[i // 2], record_values)
        self.counterexample()
        self.cli_pure()
        self.cli_mixture()
        self.cli_slocc()
        for kind, argv, accepted in self.malformed:
            result, _ = self._timed(kind, lambda: _cli(self.rt_cli, argv))
            if isinstance(result, Exception):
                self._fail(kind, f"escaped as {type(result).__name__}: {result}")
            elif result not in accepted:
                self._fail(kind, f"exit {result}, documented {sorted(accepted)}")

    def invariance(self, order):
        rt, rng, chk = self.rt, self.rng, self.chk
        amp = random_pure(rng)
        unitaries = [haar_unitary(rng) for _ in range(3)]

        def op():
            psi = rt.PureState(amp)
            inv = rt.invariants(psi)
            rotated = psi
            for target, u in zip("ABC", unitaries):
                rotated = rt.apply_local(rt.LocalOperator(u, target), rotated)[0].unit()
            return inv, rt.tau(rotated), rt.tau(rt.permute_qubits(psi, order))

        inv, tau_lu, tau_perm = self._timed("invariance", op)
        ref.check_pure_invariants(chk, "invariants", amp, inv.tau, inv.sqrt_tau)
        ref.check_invariant_under(chk, "local unitary", inv.tau, tau_lu)
        ref.check_invariant_under(chk, f"permutation {order}", inv.tau, tau_perm)

    def scaling(self):
        rt, rng, chk = self.rt, self.rng, self.chk
        amp = random_pure(rng)
        while True:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(m)) > 0.1:
                break
        target = "ABC"[rng.integers(0, 3)]

        def op():
            psi = rt.PureState(amp)
            op_ = rt.LocalOperator(m, target)
            raw, p = rt.apply_local(op_, psi)
            return rt.sqrt_tau(raw.unit()), p

        sqrt_tau_out, p = self._timed("scaling", op)
        out = local_op(m, target) @ amp
        p_ref = float(np.vdot(out, out).real)
        chk.close("outcome probability", p, p_ref, ref.EXACT_TOL)
        alpha = abs(np.linalg.det(m)) / p_ref
        ref.check_scaling_law(chk, "pure state", sqrt_tau_out, alpha, math.sqrt(ref.tau(amp)))

    def mixture(self, target_value, record_values):
        rt, rng, chk = self.rt, self.rng, self.chk
        params = draw_ghzw(rng, 1.0)
        if target_value is None:
            p = ref.ghzw_p0(*params) * rng.uniform(0.1, 0.9)
        else:
            p = linear_point(params, target_value)
        qubit, kraus = _diagonal_kraus(rng)

        def op():
            mix = rt.GhzWMixture(*params, p=p)
            ana = rt.analyze(mix)
            ens = rt.optimal_ensemble(mix)
            ms = rt.MeasurementSet(tuple(rt.LocalOperator(k, qubit) for k in kraus))
            outs = [(o.probability, o.alpha, rt.analyze(rt.as_mixture(o.post_ensemble)).rtangle)
                    for o in rt.measure(mix.ensemble(), ms)]
            return ana, ens, outs

        ana, ens, outs = self._timed("mixture", op)
        tr = ref.ghzw_rtangle(*params, p)
        chk.close("closed form t_r", ana.rtangle, tr, ref.EXACT_TOL)
        chk.close("closed form p0", ana.p0, ref.ghzw_p0(*params), ref.EXACT_TOL)
        ref.check_optimal_ensemble(chk, "optimal ensemble", ref.ghzw_density(*params, p),
                                   ens.weights(), [s.amp for s in ens.states()], tr)
        chk.equal("measurement outcomes", len(outs), len(kraus))
        members = ref.ghzw_members(*params, p)
        for (prob, alpha, tr_out), k in zip(outs, kraus):
            m = local_op(k, qubit)
            p_ref = sum(q * float(np.linalg.norm(m @ amp) ** 2) for q, amp in members)
            chk.close("outcome probability", prob, p_ref, ref.EXACT_TOL)
            chk.close("alpha", alpha, abs(np.linalg.det(k)) / p_ref, ref.EXACT_TOL)
            ref.check_covariance(chk, "measured mixture", tr_out, alpha, tr)
        if record_values:
            self.values.append(ana.rtangle)

    def counterexample(self):
        rt = self.rt

        def op():
            fx = rt.counterexample_fixture()
            return rt.measure(fx.ensemble, fx.measurement)[fx.outcome_index]

        out = self._timed("counterexample", op)
        w = out.post_ensemble.weights()
        ref.check_exact_fractions(self.chk, "counterexample outcome 0", out.probability,
                                  float(w[0]), float(w[1]), out.alpha ** 2)

    def _cli_ok(self, kind, argv):
        result, text = self._timed(kind, lambda: _cli(self.rt_cli, argv))
        if result != 0:
            self._fail(kind, f"exit {result!r}")
            return None
        return _parse_lines(text)

    def cli_pure(self):
        amp = random_pure(self.rng)
        path = os.path.join(self.tmp, "pure.json")
        _write_json(path, _pure_doc(amp))
        lines = self._cli_ok("cli-pure", ["pure", path])
        if lines is not None:
            got = dict(lines)
            ref.check_pure_invariants(self.chk, "cli pure", amp, float(got["tau"]),
                                      float(got["sqrt_tau"]))

    def cli_mixture(self):
        params = draw_ghzw(self.rng, 1.0)
        p = float(self.rng.uniform(0.05, 0.95))
        argv = ["mixture"]
        for name, z in zip("abcdf", params):
            argv += [f"--{name}", repr(z)]
        lines = self._cli_ok("cli-mixture", argv + ["--p", repr(p)])
        if lines is not None:
            got = dict(lines)
            self.chk.close("cli mixture t_r", float(got["rtangle"]),
                           ref.ghzw_rtangle(*params, p), ref.EXACT_TOL)
            self.chk.close("cli mixture p0", float(got["p0"]), ref.ghzw_p0(*params), ref.EXACT_TOL)

    def cli_slocc(self):
        params = draw_ghzw(self.rng, 1.0)
        p = float(self.rng.uniform(0.05, 0.95))
        qubit, kraus = _diagonal_kraus(self.rng)
        members = ref.ghzw_members(*params, p)
        ens_path = os.path.join(self.tmp, "ensemble.json")
        kraus_path = os.path.join(self.tmp, "kraus.json")
        _write_json(ens_path, _ensemble_doc(members))
        _write_json(kraus_path, _kraus_doc(qubit, kraus))
        tr = ref.ghzw_rtangle(*params, p)
        lines = self._cli_ok("cli-slocc", ["slocc", ens_path, kraus_path, "--rtangle-in", repr(tr)])
        if lines is None:
            return
        probs = [float(v) for k, v in lines if k == "probability"]
        alphas = [float(v) for k, v in lines if k == "alpha"]
        outs = [float(v) for k, v in lines if k == "rtangle_out"]
        self.chk.equal("cli slocc outcomes", (len(probs), len(alphas), len(outs)), (2, 2, 2))
        for prob, alpha, tr_out, k in zip(probs, alphas, outs, kraus):
            m = local_op(k, qubit)
            p_ref = sum(q * float(np.linalg.norm(m @ amp) ** 2) for q, amp in members)
            alpha_ref = abs(np.linalg.det(k)) / p_ref
            self.chk.close("cli slocc probability", prob, p_ref, ref.EXACT_TOL)
            self.chk.close("cli slocc alpha", alpha, alpha_ref, ref.EXACT_TOL)
            ref.check_covariance(self.chk, "cli slocc", tr_out, alpha_ref, tr)


def exact_pipeline(rt, rng, smoke, seconds, tracer, chk, tmp) -> Outcome:
    pipe = ExactPipeline(rt, rng, chk, tmp)
    pass_rounds = 1 if smoke else EXACT_PASS_ROUNDS
    snapshot = None
    start = monotonic()
    rounds = 0
    while rounds < pass_rounds or monotonic() - start < seconds:
        pipe.round(record_values=rounds < pass_rounds)
        rounds += 1
        if rounds == pass_rounds and tracer is not None:
            snapshot = tracer.snapshot()
    return Outcome(times=pipe.times, mix=pipe.mix, attempted=pipe.attempted, failed=pipe.failed,
                   failures=pipe.failures, values=pipe.values, seed_wins=0, trace=snapshot)


WORKLOADS = {
    "ghzw-oracle": ghzw_oracle,
    "generic-roof": generic_roof,
    "exact-pipeline": exact_pipeline,
}
