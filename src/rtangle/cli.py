"""Command-line interface.

Subcommands:

* ``pure``     invariants of a pure-state file
* ``mixture``  closed-form residual tangle of a GHZ/W mixture
* ``roof``     numerical convex-roof minimization of a state file
* ``slocc``    apply a Kraus measurement to an ensemble file
* ``verify``   self-contained check of the built-in counterexample pipeline
* ``sweep``    CSV of closed-form vs numerical values over p in [0, 1]

The search flags ``--restarts`` and ``--seed`` (and ``roof``'s ``--size``)
take their defaults from ``RoofOptions``; ``RTANGLE_SEED`` stands in for
an absent ``--seed``.

Exit codes: 0 success, 1 verification failure, 2 malformed input file or
out-of-range option, 3 normalization violation, 4 ensemble size below
rank, 5 incomplete Kraus set, 6 unwritable output path.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import io as stateio
from .ghzw import GhzWMixture, MixtureNormalizationError, analyze, as_mixture
from .invariants import invariants
from .roof import RankError, RoofOptions, roof_minimize
from .slocc import KrausError, counterexample_fixture, measure, verify_tangle_noncovariance
from .states import ValidationError, WeightedEnsemble, ensemble_to_density

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NORMALIZATION = 3
EXIT_RANK = 4
EXIT_KRAUS = 5
EXIT_UNWRITABLE = 6


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmtc(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _options(args, **fields) -> RoofOptions:
    """RoofOptions from the search flags that were given, the seed from
    --seed, else RTANGLE_SEED; every field left unset keeps its default."""
    fields.update(restarts=args.restarts, seed=args.seed)
    env = os.environ.get("RTANGLE_SEED")
    if args.seed is None and env:
        try:
            fields["seed"] = int(env)
        except ValueError:
            raise ValidationError(f"RTANGLE_SEED: cannot parse {env!r} as an integer") from None
    return RoofOptions(**{k: v for k, v in fields.items() if v is not None})


def _parse_param(text: str, name: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ValidationError(f"--{name}: cannot parse {text!r} as a complex number")


def _mixture_from_args(args, p: float) -> GhzWMixture:
    return GhzWMixture(
        a=_parse_param(args.a, "a"), b=_parse_param(args.b, "b"),
        c=_parse_param(args.c, "c"), d=_parse_param(args.d, "d"),
        f=_parse_param(args.f, "f"), p=p,
    )


def cmd_pure(args) -> int:
    psi = stateio.parse_pure(stateio.load_document(args.state_file), renormalize=args.renormalize)
    inv = invariants(psi)
    print(f"d1       = {_fmtc(inv.d1)}")
    print(f"d2       = {_fmtc(inv.d2)}")
    print(f"d3       = {_fmtc(inv.d3)}")
    print(f"tau      = {_fmt(inv.tau)}")
    print(f"sqrt_tau = {_fmt(inv.sqrt_tau)}")
    return EXIT_OK


def cmd_mixture(args) -> int:
    opts = _options(args) if args.numeric else None
    mix = _mixture_from_args(args, args.p)
    ana = analyze(mix)
    print(f"s         = {_fmt(ana.s)}")
    print(f"tilde_phi = {_fmt(ana.tilde_phi)}")
    print(f"p0        = {_fmt(ana.p0)}")
    print(f"branch    = {ana.branch}")
    if ana.limit_case:
        print(f"limit     = {ana.limit_case}")
    print(f"rtangle   = {_fmt(ana.rtangle)}")
    if args.numeric:
        result = roof_minimize(mix.density(), "sqrt_tau", opts)
        print(f"numeric   = {_fmt(result.value)}")
        print(f"gap       = {_fmt(result.value - ana.rtangle)}")
    return EXIT_OK


def _roof_input(path: str):
    """The density matrix of a pure, ensemble or density file.  A pure state
    that is not normalized is malformed here, as an ensemble member is."""
    doc = stateio.load_document(path)
    kind = stateio.sniff_kind(doc)
    if kind == "density":
        return stateio.parse_density(doc)
    if kind == "ensemble":
        return ensemble_to_density(stateio.parse_ensemble(doc))
    if kind != "pure":
        raise stateio.StateFileError("roof expects a pure, ensemble or density file")
    try:
        psi = stateio.parse_pure(doc)
    except stateio.StateNormalizationError as exc:
        raise stateio.StateFileError(str(exc)) from exc
    return ensemble_to_density(WeightedEnsemble(((1.0, psi),)))


def cmd_roof(args) -> int:
    rho = _roof_input(args.state_file)
    functional = "sqrt_tau" if args.functional == "sqrt-tau" else "tau"
    result = roof_minimize(rho, functional, _options(args, ensemble_size=args.size))
    print(f"functional    = {functional}")
    print(f"value         = {_fmt(result.value)}")
    bound = "none" if result.lower_bound is None else _fmt(result.lower_bound)
    print(f"lower_bound   = {bound}")
    print(f"restarts_used = {result.restarts_used}")
    print(f"converged     = {result.converged}")
    print(f"members       = {len(result.ensemble)}")
    if args.out:
        stateio.write_document(args.out, stateio.ensemble_to_doc(result.ensemble))
        print(f"ensemble written to {args.out}")
    return EXIT_OK


def cmd_slocc(args) -> int:
    if args.rtangle_in is not None and not 0.0 <= args.rtangle_in <= 1.0:
        raise ValidationError("--rtangle-in must be in [0, 1]")
    ens = stateio.parse_ensemble(stateio.load_document(args.ensemble_file))
    ms = stateio.parse_kraus(stateio.load_document(args.kraus_file))
    outcomes = measure(ens, ms, rtangle_in=args.rtangle_in)
    stem = Path(args.ensemble_file)
    for out in outcomes:
        print(f"outcome {out.index}:")
        print(f"  probability = {_fmt(out.probability)}")
        if out.empty:
            print("  empty outcome (probability below threshold)")
            continue
        print(f"  alpha       = {_fmt(out.alpha)}")
        print(f"  alpha^2     = {_fmt(out.alpha ** 2)}")
        if out.rtangle_propagated is not None:
            print(f"  rtangle_out = {_fmt(out.rtangle_propagated)}")
        path = stem.with_name(f"{stem.stem}_out{out.index}.json")
        stateio.write_document(str(path), stateio.ensemble_to_doc(out.post_ensemble))
        print(f"  ensemble    -> {path}")
    return EXIT_OK


def _verify_rows(opts: RoofOptions, tol_override: float | None):
    """All expected-vs-computed rows of the built-in verification."""
    fx = counterexample_fixture()
    outcomes = measure(fx.ensemble, fx.measurement)
    out0 = outcomes[fx.outcome_index]

    def tol(default: float) -> float:
        return tol_override if tol_override is not None else default

    rows = []

    def add(name, expected, computed, t, note=""):
        rows.append((name, expected, computed, t,
                     abs(expected - computed) <= t, note))

    add("outcome-0 probability", 29.0 / 50.0, out0.probability, tol(1e-12), "29/50")
    weights = out0.post_ensemble.weights()
    states = out0.post_ensemble.states()
    add("gGHZ' weight", 22.0 / 29.0, float(weights[0]), tol(1e-12), "22/29")
    add("gW' weight", 7.0 / 29.0, float(weights[1]), tol(1e-12), "7/29")
    add("gGHZ' |a|", np.sqrt(10.0 / 11.0), abs(states[0].amp[0]), tol(1e-12), "sqrt(10/11)")
    add("gGHZ' |b|", np.sqrt(1.0 / 11.0), abs(states[0].amp[7]), tol(1e-12), "sqrt(1/11)")
    add("gW' |c|", np.sqrt(10.0 / 21.0), abs(states[1].amp[1]), tol(1e-12), "sqrt(10/21)")
    add("gW' |d|", np.sqrt(10.0 / 21.0), abs(states[1].amp[2]), tol(1e-12), "sqrt(10/21)")
    add("gW' |f|", np.sqrt(1.0 / 21.0), abs(states[1].amp[4]), tol(1e-12), "sqrt(1/21)")
    add("alpha^2", 250.0 / 841.0, out0.alpha ** 2, tol(1e-12), "250/841")

    report = verify_tangle_noncovariance(fx)
    exact_gap = fx.tau_outcome / fx.tau_input - 250.0 / 841.0
    add("tau ratio - alpha^2", exact_gap, report.gap, tol(1e-12), "~3.5e-3")
    rows.append(("gap exceeds 3e-3", 1.0, float(report.noncovariant), 0.5,
                 report.noncovariant, "tangle is not covariant"))

    # residual-tangle covariance: closed form on both sides of the measurement
    mix_in = as_mixture(fx.ensemble)
    mix_out = as_mixture(out0.post_ensemble)
    tr_in = analyze(mix_in).rtangle
    tr_out = analyze(mix_out).rtangle
    add("t_r covariance", out0.alpha * tr_in, tr_out, tol(1e-6),
        f"alpha*t_r(in)={out0.alpha * tr_in:.6f}")

    # pure-state analogue: tau ratio equals alpha^2 for a pure input
    ghz = fx.ensemble.members[0][1]
    pure_out = measure(WeightedEnsemble(((1.0, ghz),)), fx.measurement)[0]
    tau_in_pure = invariants(ghz).tau
    tau_out_pure = invariants(pure_out.post_ensemble.states()[0]).tau
    add("pure-state tau ratio = alpha^2", pure_out.alpha ** 2,
        tau_out_pure / tau_in_pure, tol(1e-10))

    # numerical roof reproduces both tangle constants
    rho_in = ensemble_to_density(fx.ensemble)
    roof_in = roof_minimize(rho_in, "tau", opts)
    add("numeric roof tau(rho)", fx.tau_input, roof_in.value, tol(5e-3),
        "(63-sqrt(465))/90")
    roof_out = roof_minimize(out0.post_density, "tau", opts)
    add("numeric roof tau(rho_0)", fx.tau_outcome, roof_out.value, tol(5e-3),
        "160(9-sqrt(6))/7569")
    return rows


def cmd_verify(args) -> int:
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError("--tol must be a finite number >= 0")
    rows = _verify_rows(_options(args), args.tol)
    width = max(len(r[0]) for r in rows)
    failures = 0
    for name, expected, computed, t, ok, note in rows:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        extra = f"  ({note})" if note else ""
        print(f"[{status}] {name:<{width}}  expected={_fmt(expected):<22} "
              f"computed={_fmt(computed):<22} tol={t:g}{extra}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    mix0 = _mixture_from_args(args, 0.0)
    if args.steps < 2:
        raise ValidationError("--steps must be >= 2")
    opts = _options(args)
    rows = []
    for k in range(args.steps + 1):
        p = k / args.steps
        mix = dataclasses.replace(mix0, p=p)
        ana = analyze(mix)
        result = roof_minimize(mix.density(), "sqrt_tau", opts)
        rows.append({"p": p, "rtangle_analytic": ana.rtangle,
                     "rtangle_numeric": result.value, "p0": ana.p0,
                     "branch": ana.branch})
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["p", "rtangle_analytic", "rtangle_numeric", "p0", "branch"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _add_mixture_params(p: argparse.ArgumentParser):
    p.add_argument("--a", required=True, help="gGHZ amplitude a (complex, e.g. 0.5+0.5j)")
    p.add_argument("--b", required=True, help="gGHZ amplitude b")
    p.add_argument("--c", required=True, help="gW amplitude c")
    p.add_argument("--d", required=True, help="gW amplitude d")
    p.add_argument("--f", required=True, help="gW amplitude f")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (building it costs far
    more than a parse).  Callers share it, so they must not modify it."""
    ap = argparse.ArgumentParser(prog="rtangle", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    # the search flags of every command that runs roof_minimize; an absent
    # flag leaves RoofOptions's default in place
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--restarts", type=int, help="random restarts of the search")
    search.add_argument("--seed", type=int, help="search seed (else RTANGLE_SEED)")

    p = sub.add_parser("pure", help="invariants of a pure-state JSON file")
    p.add_argument("state_file")
    p.add_argument("--renormalize", action="store_true",
                   help="rescale instead of rejecting a non-normalized state")
    p.set_defaults(func=cmd_pure)

    p = sub.add_parser("mixture", parents=[search],
                       help="closed-form residual tangle of a GHZ/W mixture")
    _add_mixture_params(p)
    p.add_argument("--p", required=True, type=float, help="GHZ weight p in [0, 1]")
    p.add_argument("--numeric", action="store_true",
                   help="also run the convex-roof minimizer and print the gap")
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("roof", parents=[search], help="convex-roof minimization of a state file")
    p.add_argument("state_file", help="pure, ensemble or density JSON file")
    p.add_argument("--functional", choices=("sqrt-tau", "tau"), default="sqrt-tau")
    p.add_argument("--size", type=int, help="decomposition size m")
    p.add_argument("--out", help="write the best ensemble to this JSON file")
    p.set_defaults(func=cmd_roof)

    p = sub.add_parser("slocc", help="apply a Kraus measurement to an ensemble file")
    p.add_argument("ensemble_file")
    p.add_argument("kraus_file")
    p.add_argument("--rtangle-in", type=float, default=None,
                   help="propagate this input residual tangle through each outcome")
    p.set_defaults(func=cmd_slocc)

    p = sub.add_parser("verify", parents=[search],
                       help="run the built-in measurement-scaling verification pipeline")
    p.add_argument("--tol", type=float, default=None,
                   help="override every row tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[search], help="CSV sweep of rho(p) over p = 0..1")
    _add_mixture_params(p)
    p.add_argument("--steps", type=int, required=True, help="number of intervals (>= 2)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)
    return ap


# the exit code of each error a command lets out, subclasses before their
# bases; input files are read through stateio, which turns a failed read into
# a StateFileError, so an OSError that gets here is a failed write
EXIT_CODES = (
    (stateio.StateNormalizationError, EXIT_NORMALIZATION),
    (MixtureNormalizationError, EXIT_NORMALIZATION),
    (RankError, EXIT_RANK),
    (stateio.StateFileError, EXIT_PARSE),
    (KrausError, EXIT_KRAUS),
    (ValidationError, EXIT_PARSE),
    (OSError, EXIT_UNWRITABLE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        # one error line, never a traceback
        what = f"cannot write output: {exc}" if isinstance(exc, OSError) else exc
        print(f"error: {what}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
