import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rtangle as rt
from rtangle import cli
from rtangle import io as stateio
from rtangle.cli import main
from freeze import (FAM_SQRT_TAU_08_0, P0_STD, TR_STD_P08, biseparable, generic_base, ghz_state,
                    std_mixture, w_state)


# ---------------------------------------------------------------- state files

def test_pure_round_trip_bit_exact(tmp_path):
    psi = rt.family_state(std_mixture(0.8), 0.8, 1.234)
    path = tmp_path / "state.json"
    stateio.write_document(str(path), stateio.pure_to_doc(psi))
    back = stateio.parse_pure(stateio.load_document(str(path)))
    assert np.array_equal(back.amp, psi.amp)


def test_ensemble_round_trip_bit_exact(tmp_path):
    ens = rt.optimal_ensemble(std_mixture(0.8))
    path = tmp_path / "ens.json"
    stateio.write_document(str(path), stateio.ensemble_to_doc(ens))
    back = stateio.parse_ensemble(stateio.load_document(str(path)))
    assert len(back) == len(ens)
    for (w0, s0), (w1, s1) in zip(ens.members, back.members):
        assert w0 == w1
        assert np.array_equal(s0.amp, s1.amp)


def test_density_and_kraus_round_trip(tmp_path):
    rho = std_mixture(0.6).density()
    path = tmp_path / "rho.json"
    stateio.write_document(str(path), stateio.density_to_doc(rho))
    back = stateio.parse_density(stateio.load_document(str(path)))
    assert np.array_equal(back.matrix, rho.matrix)

    ms = rt.counterexample_fixture().measurement
    path = tmp_path / "kraus.json"
    stateio.write_document(str(path), stateio.kraus_to_doc(ms))
    back = stateio.parse_kraus(stateio.load_document(str(path)))
    assert back.target == "A"
    for op0, op1 in zip(ms.operators, back.operators):
        assert np.array_equal(op0.m, op1.m)


def test_parse_errors_are_field_addressed():
    with pytest.raises(stateio.StateFileError, match=r"amplitudes\[3\]"):
        stateio.parse_pure({"amplitudes": [[1.0, 0.0]] * 3 + ["bad"] + [[0.0, 0.0]] * 4})
    with pytest.raises(stateio.StateFileError, match=r"members\[1\]\.weight"):
        stateio.parse_ensemble({"members": [
            {"weight": 1.0, "amplitudes": [[1, 0]] + [[0, 0]] * 7},
            {"weight": "x", "amplitudes": [[1, 0]] + [[0, 0]] * 7},
        ]})
    with pytest.raises(stateio.StateFileError, match=r"matrix\[2\]"):
        stateio.parse_density({"matrix": [[[0, 0]] * 8, [[0, 0]] * 8, [[0, 0]] * 7] + [[[0, 0]] * 8] * 5})
    with pytest.raises(stateio.StateFileError, match=r"matrix\[5\]: "):
        stateio.parse_density({"matrix": [[[0, 0]] * 8] * 5 + [[[0, 0]] * 9] + [[[0, 0]] * 8] * 2})
    with pytest.raises(stateio.StateFileError, match="target"):
        stateio.parse_kraus({"target": "Q", "operators": []})
    with pytest.raises(stateio.StateFileError, match=r"operators\[0\]: "):
        stateio.parse_kraus({"operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]]})
    with pytest.raises(stateio.StateFileError, match=r"operators\[0\]\[1\]\[0\]: "):
        stateio.parse_kraus({"operators": [[[[1, 0], [0, 0]], [[0], [1, 0]]]]})
    with pytest.raises(stateio.StateFileError, match=r"^amplitudes: "):
        stateio.parse_pure({"amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 6})
    with pytest.raises(stateio.StateFileError, match=r"^members\[0\]\.amplitudes: "):
        stateio.parse_ensemble({"members": [{"weight": 1.0, "amplitudes": [[1, 0]] * 3}]})
    with pytest.raises(stateio.StateFileError, match="unrecognized"):
        stateio.sniff_kind({"something": 1})


@pytest.mark.parametrize("parse, doc, match", [
    (stateio.parse_ensemble, {"members": [{"weight": 10 ** 400, "amplitudes": [[1, 0]] + [[0, 0]] * 7}]},
     r"^members\[0\]\.weight: expected a finite number"),
    (stateio.parse_ensemble, {"members": [{"weight": 1.0}]},
     r"^members\[0\]: expected weight and amplitudes"),
    (stateio.parse_density, {"amplitudes": []}, "^matrix: missing field"),
    (stateio.parse_kraus, {"operators": []}, "^operators: expected a non-empty list"),
], ids=["integer-beyond-float", "member-without-amplitudes", "no-matrix", "no-operators"])
def test_parse_errors_name_the_missing_or_unreadable_field(parse, doc, match):
    """An integer beyond the float range reads as no number, and a missing
    member field, density matrix or operator list is named, each as a
    StateFileError."""
    with pytest.raises(stateio.StateFileError, match=match):
        parse(doc)


# ------------------------------------------------------------------ CLI: pure

def _write(path, doc):
    stateio.write_document(str(path), doc)
    return str(path)


def test_cli_pure_ghz(tmp_path, capsys):
    path = _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state()))
    assert main(["pure", path]) == 0
    out = capsys.readouterr().out
    assert "tau      = 1" in out


def test_cli_pure_w(tmp_path, capsys):
    path = _write(tmp_path / "w.json", stateio.pure_to_doc(w_state()))
    assert main(["pure", path]) == 0
    assert "tau      = 0" in capsys.readouterr().out


def test_cli_pure_family_state(tmp_path, capsys):
    psi = rt.family_state(std_mixture(0.8), 0.8, 0.0)
    path = _write(tmp_path / "fam.json", stateio.pure_to_doc(psi))
    assert main(["pure", path]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("sqrt_tau")][0]
    assert abs(float(line.split("=")[1]) - FAM_SQRT_TAU_08_0) < 1e-12


def test_cli_pure_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pure", str(bad)]) == 2
    short = _write(tmp_path / "short.json", {"amplitudes": [[1.0, 0.0]] * 4})
    assert main(["pure", short]) == 2
    unnorm = _write(tmp_path / "un.json",
                    {"amplitudes": [[0.5, 0.0]] + [[0.0, 0.0]] * 7})
    assert main(["pure", unnorm]) == 3
    assert main(["pure", unnorm, "--renormalize"]) == 0
    out = capsys.readouterr().out
    assert "tau      = 0" in out


def test_cli_pure_exit_code_ignores_path_text(tmp_path, capsys):
    """The exit code follows the error's type, not words in the file path."""
    (tmp_path / "normal").mkdir()
    assert main(["pure", str(tmp_path / "normal" / "missing.json")]) == 2
    unnorm = _write(tmp_path / "normal" / "un.json",
                    {"amplitudes": [[0.5, 0.0]] + [[0.0, 0.0]] * 7})
    assert main(["pure", unnorm]) == 3
    nan = tmp_path / "normal" / "nan.json"
    nan.write_text('{"amplitudes": [[NaN, 0.0]' + ', [0.0, 0.0]' * 7 + ']}')
    assert main(["pure", str(nan)]) == 2


# --------------------------------------------------------------- CLI: mixture

STD_ARGS = ["--a", repr(float(1 / np.sqrt(2))), "--b", repr(float(1 / np.sqrt(2))),
            "--c", repr(float(1 / np.sqrt(3))), "--d", repr(float(1 / np.sqrt(3))),
            "--f", repr(float(1 / np.sqrt(3)))]


def _value(out, key):
    line = [l for l in out.splitlines() if l.startswith(key)][0]
    return float(line.split("=")[1])


def test_cli_mixture_linear_branch(capsys):
    assert main(["mixture", *STD_ARGS, "--p", "0.8"]) == 0
    out = capsys.readouterr().out
    assert abs(_value(out, "rtangle") - TR_STD_P08) < 1e-10
    assert abs(_value(out, "p0") - P0_STD) < 1e-10
    assert "linear_branch" in out


def test_cli_mixture_zero_branch(capsys):
    assert main(["mixture", *STD_ARGS, "--p", "0.3"]) == 0
    out = capsys.readouterr().out
    assert _value(out, "rtangle") == 0.0
    assert "zero_branch" in out


def test_cli_mixture_pure_ghz(capsys):
    assert main(["mixture", *STD_ARGS, "--p", "1"]) == 0
    assert abs(_value(capsys.readouterr().out, "rtangle") - 1.0) < 1e-12


def test_cli_mixture_numeric(capsys):
    assert main(["mixture", *STD_ARGS, "--p", "0.8", "--numeric",
                 "--restarts", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert abs(_value(out, "numeric") - TR_STD_P08) < 5e-3
    assert abs(_value(out, "gap")) < 5e-3


def test_cli_mixture_rejects_bad_normalization(capsys):
    assert main(["mixture", "--a", "1", "--b", "1", "--c", "0.5", "--d", "0.5",
                 "--f", repr(float(np.sqrt(0.5))), "--p", "0.5"]) == 3


@pytest.mark.parametrize("p", ["2", "nan", "-0.5"])
def test_cli_mixture_out_of_range_p_exits_2(p, capsys):
    assert main(["mixture", *STD_ARGS, "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: GhzWMixture: p") and captured.err.count("\n") == 1


def test_cli_mixture_and_sweep_exit_codes(tmp_path, capsys):
    unnormalized = ["--a", "1", "--b", "1", *STD_ARGS[4:]]
    assert main(["sweep", *unnormalized, "--steps", "2", "--out", str(tmp_path / "x.csv")]) == 3
    # an unparsable amplitude is a malformed option, not a normalization
    assert main(["mixture", *STD_ARGS[:-1], "zz", "--p", "0.5"]) == 2
    assert main(["sweep", *STD_ARGS[:-1], "zz", "--steps", "2",
                 "--out", str(tmp_path / "x.csv")]) == 2


# ------------------------------------------------------------------ CLI: roof

def test_cli_roof_rank1(tmp_path, capsys):
    path = _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state()))
    assert main(["roof", path, "--restarts", "2"]) == 0
    out = capsys.readouterr().out
    assert abs(_value(out, "value") - 1.0) < 1e-12
    assert "converged     = True" in out


def test_cli_roof_density_and_out(tmp_path, capsys):
    rho = std_mixture(0.8).density()
    path = _write(tmp_path / "rho.json", stateio.density_to_doc(rho))
    out_path = tmp_path / "best.json"
    assert main(["roof", path, "--restarts", "4", "--seed", "0",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert abs(_value(out, "value") - TR_STD_P08) < 5e-3
    best = stateio.parse_ensemble(stateio.load_document(str(out_path)))
    mixed = rt.ensemble_to_density(best)
    assert np.abs(mixed.matrix - rho.matrix).max() < 1e-8


def test_cli_roof_rank3_is_not_converged(tmp_path, capsys):
    """A rank-3 input has no lower bound, so its search is not certified."""
    path = _write(tmp_path / "rho3.json", stateio.density_to_doc(generic_base(3)))
    assert main(["roof", path, "--restarts", "1"]) == 0
    out = capsys.readouterr().out
    assert "lower_bound   = none" in out and "converged     = False" in out


def test_cli_roof_size_below_rank(tmp_path, capsys):
    path = _write(tmp_path / "rho8.json",
                  stateio.density_to_doc(rt.DensityMatrix(np.eye(8) / 8)))
    assert main(["roof", path, "--size", "4", "--restarts", "1"]) == 4
    assert "increase --size" in capsys.readouterr().err


def test_cli_roof_zero_branch_certified(tmp_path, capsys):
    path = _write(tmp_path / "rho.json", stateio.density_to_doc(std_mixture(0.3).density()))
    assert main(["roof", path, "--restarts", "4"]) == 0
    out = capsys.readouterr().out
    assert "restarts_used = 0" in out and "converged     = True" in out
    assert 0.0 <= _value(out, "value") <= 1e-7


def test_cli_roof_linear_branch_certified(tmp_path, capsys):
    path = _write(tmp_path / "rho.json", stateio.density_to_doc(std_mixture(0.8).density()))
    assert main(["roof", path, "--restarts", "4"]) == 0
    out = capsys.readouterr().out
    assert "restarts_used = 0" in out and "converged     = True" in out
    assert abs(_value(out, "value") - TR_STD_P08) <= 1e-7


def test_cli_roof_zero_branch_below_fit_size(tmp_path, capsys):
    """The zero-branch fit needs four members; --size 2 searches instead
    and writes an ensemble that mixes back."""
    rho = std_mixture(0.3).density()
    path = _write(tmp_path / "rho.json", stateio.density_to_doc(rho))
    out_path = tmp_path / "best.json"
    assert main(["roof", path, "--size", "2", "--restarts", "2", "--out", str(out_path)]) == 0
    assert "restarts_used = 2" in capsys.readouterr().out
    best = stateio.parse_ensemble(stateio.load_document(str(out_path)))
    assert len(best) <= 2
    assert np.abs(rt.ensemble_to_density(best).matrix - rho.matrix).max() < 1e-8


def test_cli_roof_biseparable_at_size_2(tmp_path, capsys):
    """A biseparable range is tangle-free: at --size 2 its spectral
    decomposition is certified with bound 0, without a search."""
    rho = biseparable(np.random.default_rng(4242))
    path = _write(tmp_path / "rho.json", stateio.density_to_doc(rho))
    out_path = tmp_path / "best.json"
    assert main(["roof", path, "--size", "2", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "lower_bound   = 0\n" in out and "restarts_used = 0\n" in out
    assert "converged     = True\n" in out
    best = stateio.parse_ensemble(stateio.load_document(str(out_path)))
    assert len(best) <= 2
    assert np.abs(rt.ensemble_to_density(best).matrix - rho.matrix).max() < 1e-8


def test_cli_roof_unwritable_out_exits_6(tmp_path, capsys):
    path = _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state()))
    out_path = tmp_path / "missing" / "x.json"
    assert main(["roof", path, "--restarts", "1", "--out", str(out_path)]) == 6
    captured = capsys.readouterr()
    assert "value" in captured.out
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


def test_cli_roof_unnormalized_pure_file_exits_2(tmp_path, capsys):
    """roof reads every state's normalization as part of the file's form,
    as for ensemble and density files; only ``pure`` exits 3 on it."""
    unnorm = _write(tmp_path / "un.json", {"amplitudes": [[0.5, 0.0]] + [[0.0, 0.0]] * 7})
    assert main(["roof", unnorm, "--restarts", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: amplitudes:")


def test_cli_validation_error_is_one_error_line(tmp_path, monkeypatch, capsys):
    def fails(*args):
        raise rt.ValidationError("WeightedEnsemble: weights sum to 0.32")

    monkeypatch.setattr(cli, "roof_minimize", fails)
    path = _write(tmp_path / "rho.json", stateio.density_to_doc(std_mixture(0.3).density()))
    assert main(["roof", path, "--restarts", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: WeightedEnsemble: weights sum to 0.32\n"


def test_cli_roof_tau_functional(tmp_path, capsys):
    fx = rt.counterexample_fixture()
    path = _write(tmp_path / "ens.json", stateio.ensemble_to_doc(fx.ensemble))
    assert main(["roof", path, "--functional", "tau", "--restarts", "4"]) == 0
    assert abs(_value(capsys.readouterr().out, "value") - fx.tau_input) < 5e-3


def test_cli_roof_prints_the_lp_bracket(tmp_path, capsys):
    """A rank-2 tau input is certified by the linear program: no search, and
    a lower bound within 1e-7 of the value; other ranks print none."""
    fx = rt.counterexample_fixture()
    path = _write(tmp_path / "ens.json", stateio.ensemble_to_doc(fx.ensemble))
    assert main(["roof", path, "--functional", "tau"]) == 0
    out = capsys.readouterr().out
    assert "restarts_used = 0" in out and "converged     = True" in out
    keys = [line.split("=")[0].strip() for line in out.splitlines()]
    assert keys == ["functional", "value", "lower_bound", "restarts_used", "converged", "members"]
    assert abs(_value(out, "value") - _value(out, "lower_bound")) <= 1e-7
    ghz = _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state()))
    assert main(["roof", ghz, "--restarts", "1"]) == 0
    assert "lower_bound   = none" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["roof", "{ghz}", "--size", "9"],
    ["roof", "{ghz}", "--restarts", "0"],
    ["mixture", *STD_ARGS, "--p", "0.8", "--numeric", "--restarts", "0"],
    ["sweep", *STD_ARGS, "--steps", "2", "--out", "{csv}", "--restarts", "0"],
    ["verify", "--restarts", "0"],
    ["slocc", "{ens}", "{kraus}", "--rtangle-in", "2"],
    ["verify", "--tol", "-1"],
])
def test_cli_out_of_range_search_flags(argv, tmp_path, capsys):
    """Exit 2 with one error line, before any output: a search flag's line
    names the RoofOptions check, any other flag's line names the flag."""
    fx = rt.counterexample_fixture()
    paths = {"ghz": _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state())),
             "ens": _write(tmp_path / "ens.json", stateio.ensemble_to_doc(fx.ensemble)),
             "kraus": _write(tmp_path / "kraus.json", stateio.kraus_to_doc(fx.measurement)),
             "csv": tmp_path / "x.csv"}
    flag = argv[-2]
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = "error: RoofOptions:" if flag in ("--size", "--restarts") else f"error: {flag} "
    assert captured.err.startswith(want) and captured.err.count("\n") == 1


# ----------------------------------------------------------------- CLI: slocc

def test_cli_slocc_counterexample(tmp_path, capsys):
    fx = rt.counterexample_fixture()
    ens_path = _write(tmp_path / "input.json", stateio.ensemble_to_doc(fx.ensemble))
    kraus_path = _write(tmp_path / "kraus.json", stateio.kraus_to_doc(fx.measurement))
    assert main(["slocc", ens_path, kraus_path, "--rtangle-in", repr(TR_STD_P08)]) == 0
    out = capsys.readouterr().out
    assert "outcome 0:" in out and "outcome 1:" in out
    prob_line = [l for l in out.splitlines() if "probability" in l][0]
    assert abs(float(prob_line.split("=")[1]) - 0.58) < 1e-12
    a2_line = [l for l in out.splitlines() if "alpha^2" in l][0]
    assert abs(float(a2_line.split("=")[1]) - 250 / 841) < 1e-12
    out0 = stateio.parse_ensemble(stateio.load_document(str(tmp_path / "input_out0.json")))
    assert abs(out0.weights()[0] - 22 / 29) < 1e-12
    out1 = stateio.parse_ensemble(stateio.load_document(str(tmp_path / "input_out1.json")))
    assert len(out1) >= 1


def test_cli_slocc_identity(tmp_path, capsys):
    fx = rt.counterexample_fixture()
    ens_path = _write(tmp_path / "in.json", stateio.ensemble_to_doc(fx.ensemble))
    ident = rt.MeasurementSet((rt.LocalOperator(np.eye(2), "A"),))
    kraus_path = _write(tmp_path / "id.json", stateio.kraus_to_doc(ident))
    assert main(["slocc", ens_path, kraus_path]) == 0
    out = capsys.readouterr().out
    alpha_line = [l for l in out.splitlines() if l.strip().startswith("alpha ")][0]
    assert abs(float(alpha_line.split("=")[1]) - 1.0) < 1e-12


def test_cli_slocc_incomplete_kraus(tmp_path, capsys):
    fx = rt.counterexample_fixture()
    ens_path = _write(tmp_path / "in.json", stateio.ensemble_to_doc(fx.ensemble))
    half = rt.MeasurementSet((rt.LocalOperator(np.diag([1.0, 0.5]), "A"),))
    kraus_path = _write(tmp_path / "half.json", stateio.kraus_to_doc(half))
    assert main(["slocc", ens_path, kraus_path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: measure: Kraus set incomplete")
    assert captured.err.count("\n") == 1


def test_cli_slocc_unwritable_outcome_exits_6(tmp_path, capsys):
    """An outcome path taken by a directory cannot be written (a directory,
    not permissions, since a root user may write anywhere)."""
    fx = rt.counterexample_fixture()
    ens_path = _write(tmp_path / "in.json", stateio.ensemble_to_doc(fx.ensemble))
    kraus_path = _write(tmp_path / "kraus.json", stateio.kraus_to_doc(fx.measurement))
    (tmp_path / "in_out0.json").mkdir()
    assert main(["slocc", ens_path, kraus_path]) == 6
    captured = capsys.readouterr()
    assert "outcome 0:" in captured.out and "outcome 1:" not in captured.out
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


# ---------------------------------------------------------------- CLI: verify

def test_cli_verify_passes(capsys):
    assert main(["verify", "--restarts", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_cli_verify_loose_tolerance(capsys):
    assert main(["verify", "--restarts", "1", "--seed", "0", "--tol", "1e-1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, code, shown", [
    (["mixture", *STD_ARGS[:4], "--c", "1", "--d", "0", "--f", "0", "--p", "0.5"], 0,
     "limit     = degenerate_w"),
    (["roof", "{kraus}"], 2, "error: roof expects a pure, ensemble or density file"),
    (["slocc", "{product}", "{kraus}"], 0,
     "outcome 1:\n  probability = 0\n  empty outcome (probability below threshold)\n"),
    (["verify", "--restarts", "1", "--seed", "0", "--tol", "0"], 1, "[FAIL] "),
], ids=["mixture-limit", "roof-of-kraus", "slocc-empty", "verify-fails"])
def test_cli_rare_outputs(argv, code, shown, tmp_path, capsys):
    """A degenerate-W mixture prints its limit case; ``roof`` of a Kraus file
    exits 2; |000> measured by the projectors |0><0| and |1><1| on A prints
    the second outcome as empty; ``verify`` at tolerance 0 exits 1 with FAIL
    rows."""
    product = rt.PureState(np.eye(8)[0])
    projectors = rt.MeasurementSet((rt.LocalOperator(np.diag([1.0, 0.0]), "A"),
                                    rt.LocalOperator(np.diag([0.0, 1.0]), "A")))
    paths = {"kraus": _write(tmp_path / "kraus.json", stateio.kraus_to_doc(projectors)),
             "product": _write(tmp_path / "product.json",
                               stateio.ensemble_to_doc(rt.WeightedEnsemble(((1.0, product),))))}
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert shown in captured.out + captured.err


# ----------------------------------------------------------------- CLI: sweep

def test_cli_sweep(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", *STD_ARGS, "--steps", "5", "--out", str(out_csv),
                 "--restarts", "2", "--seed", "0"]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert list(rows[0].keys()) == ["p", "rtangle_analytic", "rtangle_numeric", "p0", "branch"]
    for row in rows:
        p = float(row["p"])
        ana = float(row["rtangle_analytic"])
        num = float(row["rtangle_numeric"])
        if p <= P0_STD:
            assert ana == 0.0
            assert row["branch"] == "zero_branch"
        assert num >= ana - 1e-9
        assert abs(num - ana) < 5e-3


def test_cli_sweep_analytic_column_piecewise_linear(tmp_path):
    out_csv = tmp_path / "sweep10.csv"
    assert main(["sweep", *STD_ARGS, "--steps", "10", "--out", str(out_csv),
                 "--restarts", "1", "--seed", "0"]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ps = np.array([float(r["p"]) for r in rows])
    vals = np.array([float(r["rtangle_analytic"]) for r in rows])
    p0 = float(rows[0]["p0"])
    for k in range(1, len(rows) - 1):
        if ps[k + 1] <= p0 or ps[k - 1] >= p0:  # strictly inside one branch
            second = vals[k - 1] - 2 * vals[k] + vals[k + 1]
            assert abs(second) <= 1e-12


def test_cli_sweep_rejects_bad_steps(tmp_path, capsys):
    assert main(["sweep", *STD_ARGS, "--steps", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --steps must be >= 2\n"
    assert not (tmp_path / "x.csv").exists()


def test_cli_sweep_unwritable_path(capsys):
    assert main(["sweep", *STD_ARGS, "--steps", "2",
                 "--out", "/nonexistent-dir/x.csv", "--restarts", "1"]) == 6


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RTANGLE_SEED", "7")
    assert main(["mixture", *STD_ARGS, "--p", "0.8", "--numeric",
                 "--restarts", "2"]) == 0
    v1 = _value(capsys.readouterr().out, "numeric")
    assert main(["mixture", *STD_ARGS, "--p", "0.8", "--numeric",
                 "--restarts", "2", "--seed", "7"]) == 0
    v2 = _value(capsys.readouterr().out, "numeric")
    assert v1 == v2


@dataclasses.dataclass(frozen=True)
class _OtherDefaults(rt.RoofOptions):
    ensemble_size: int = 5
    restarts: int = 3
    seed: int = 2


class _Searched(Exception):
    """Raised by the stand-in for roof_minimize once it has seen the options."""


def test_cli_search_flags_follow_the_library_defaults(tmp_path, monkeypatch, capsys):
    """Every command that searches passes RoofOptions's own defaults where no
    flag is given, the flags where they are, and RTANGLE_SEED for --seed."""
    seen = []

    def search(rho, functional, opts):
        seen.append(opts)
        raise _Searched

    monkeypatch.setattr(cli, "RoofOptions", _OtherDefaults)
    monkeypatch.setattr(cli, "roof_minimize", search)
    monkeypatch.delenv("RTANGLE_SEED", raising=False)

    def options(argv):
        seen.clear()
        with pytest.raises(_Searched):
            main(argv)
        return seen[0]

    ghz = _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state()))
    commands = {"roof": ["roof", ghz], "verify": ["verify"],
                "mixture": ["mixture", *STD_ARGS, "--p", "0.8", "--numeric"],
                "sweep": ["sweep", *STD_ARGS, "--steps", "2", "--out", str(tmp_path / "x.csv")]}
    for command, argv in commands.items():
        assert options(argv) == _OtherDefaults()
        size = ["--size", "6"] if command == "roof" else []
        assert options([*argv, "--restarts", "7", "--seed", "1", *size]) == \
            _OtherDefaults(restarts=7, seed=1, ensemble_size=6 if size else 5)
        monkeypatch.setenv("RTANGLE_SEED", "9")
        assert options(argv) == _OtherDefaults(seed=9)
        monkeypatch.delenv("RTANGLE_SEED")


# ------------------------------------------------- CLI: malformed input, fuzzed

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2.0, 2.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=9)
    | st.dictionaries(st.sampled_from(["amplitudes", "members", "weight", "matrix",
                                       "operators", "target"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=20)
# numbers no state file may hold: non-finite, or integers beyond the float range
_BAD_NUMBERS = (st.sampled_from([math.nan, math.inf, -math.inf])
                | st.integers(10 ** 309, 10 ** 400) | st.integers(-10 ** 400, -10 ** 309))


def _json_kind(x):
    return "number" if isinstance(x, (int, float)) and not isinstance(x, bool) else type(x)


_VALID_DOCS = (stateio.pure_to_doc(ghz_state()),
               stateio.ensemble_to_doc(rt.counterexample_fixture().ensemble),
               stateio.density_to_doc(std_mixture(0.3).density()),
               stateio.kraus_to_doc(rt.counterexample_fixture().measurement))


@st.composite
def _malformed_documents(draw):
    """A valid document with one node replaced by a value of another JSON
    kind, or a number replaced by one out of range; the result is JSON text."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCS)))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                 else range(len(node))))
        node = parent[key]
    other = _JSON.filter(lambda v: _json_kind(v) != _json_kind(node))
    new = draw(other | _BAD_NUMBERS if _json_kind(node) == "number" else other)
    if parent is None:
        return json.dumps(new)
    parent[key] = new
    return json.dumps(doc)


_MALFORMED_FILES = (
    _malformed_documents().map(str.encode)
    | st.binary(max_size=40)
    | st.integers(1, 20).map(lambda n: json.dumps(_VALID_DOCS[n % 4])[:-n].encode())
    | st.integers(10 ** 3, 10 ** 5).map(lambda n: b"[" * n + b"]" * n))


def _no_traceback(argv, capsys):
    """Exit code and stderr of main(argv).  An argparse error counts as its
    exit 2; any other exception escapes and fails the test."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(content=_MALFORMED_FILES, command=st.sampled_from(["pure", "roof", "slocc-ensemble",
                                                          "slocc-kraus"]))
def test_cli_malformed_file_exits_2_to_6(content, command, tmp_path, capsys):
    """Any malformed file gives an exit code in 2..6 and one error line."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    fx = rt.counterexample_fixture()
    ens = _write(tmp_path / "ens.json", stateio.ensemble_to_doc(fx.ensemble))
    kraus = _write(tmp_path / "kraus.json", stateio.kraus_to_doc(fx.measurement))
    argv = {"pure": ["pure", str(bad)], "roof": ["roof", str(bad), "--restarts", "1"],
            "slocc-ensemble": ["slocc", str(bad), kraus],
            "slocc-kraus": ["slocc", ens, str(bad)]}[command]
    code, err = _no_traceback(argv, capsys)
    assert 2 <= code <= 6
    assert err.startswith("error: ") and err.count("\n") == 1


def _outside(low, high):
    return st.floats(allow_nan=True).filter(lambda x: not low <= x <= high)


_OUT_OF_RANGE = st.one_of(
    st.builds(lambda v: ["roof", "{ghz}", "--size", str(v)],
              st.integers(max_value=0) | st.integers(min_value=9)),
    st.builds(lambda flag, v: [*flag, str(v)],
              st.sampled_from([["roof", "{ghz}", "--restarts"], ["verify", "--restarts"],
                               ["mixture", *STD_ARGS, "--p", "0.8", "--numeric", "--restarts"],
                               ["sweep", *STD_ARGS, "--steps", "2", "--out", "{csv}",
                                "--restarts"]]),
              st.integers(max_value=0)),
    st.builds(lambda flag, v: [*flag, str(v)],
              st.sampled_from([["roof", "{ghz}", "--seed"], ["verify", "--seed"],
                               ["mixture", *STD_ARGS, "--p", "0.8", "--numeric", "--seed"],
                               ["sweep", *STD_ARGS, "--steps", "2", "--out", "{csv}", "--seed"]]),
              st.integers(max_value=-1)),
    st.builds(lambda v: ["sweep", *STD_ARGS, "--out", "{csv}", "--steps", str(v)],
              st.integers(max_value=1)),
    st.builds(lambda v: ["mixture", *STD_ARGS, "--p", repr(v)], _outside(0.0, 1.0)),
    st.builds(lambda v: ["verify", "--tol", repr(v)], _outside(0.0, math.inf)),
    st.builds(lambda v: ["slocc", "{ens}", "{kraus}", "--rtangle-in", repr(v)],
              _outside(0.0, 1.0)),
    st.builds(lambda t: ["roof", "{ghz}", "--functional", t],
              st.text(min_size=1, max_size=6).filter(lambda t: t not in ("tau", "sqrt-tau")
                                                      and not t.startswith("-"))),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_OUT_OF_RANGE)
def test_cli_out_of_range_flag_exits_2_to_6(argv, tmp_path, capsys):
    fx = rt.counterexample_fixture()
    paths = {"ghz": _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state())),
             "ens": _write(tmp_path / "ens.json", stateio.ensemble_to_doc(fx.ensemble)),
             "kraus": _write(tmp_path / "kraus.json", stateio.kraus_to_doc(fx.measurement)),
             "csv": str(tmp_path / "x.csv")}
    code, _ = _no_traceback([a.format(**paths) for a in argv], capsys)
    assert 2 <= code <= 6


@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
def test_cli_rejects_a_malformed_seed_variable(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RTANGLE_SEED", value)
    ghz = _write(tmp_path / "ghz.json", stateio.pure_to_doc(ghz_state()))
    assert main(["roof", ghz, "--restarts", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------- README

def test_readme_quick_start_runs():
    """The README's library quick start runs with warnings as errors, and
    its first line prints the residual tangle its comment shows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    shown = re.search(r"print\(ana.rtangle, roof.value\)\s+# (\S+)", block).group(1)
    assert out.getvalue().split()[0] == shown
