"""JSON state files used by the command-line interface.

All complex numbers are stored as two-element ``[re, im]`` arrays so that
doubles round-trip losslessly.  Four document shapes are understood:

* pure state:  ``{"amplitudes": [[re, im] x8]}``
* ensemble:    ``{"members": [{"weight": w, "amplitudes": [...]}, ...]}``
* density:     ``{"matrix": [[[re, im] x8] x8]}``
* Kraus set:   ``{"target": "A"|"B"|"C", "operators": [[[...], [...]], ...]}``

Parse failures raise :class:`StateFileError` carrying the JSON path of the
offending field; a well-formed pure state that is not normalized raises its
subclass :class:`StateNormalizationError`.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .states import (
    DensityMatrix,
    LocalOperator,
    MeasurementSet,
    PureState,
    ValidationError,
    WeightedEnsemble,
)


class StateFileError(ValueError):
    """A state file could not be parsed; the message is field-addressed."""


class StateNormalizationError(StateFileError):
    """A well-formed pure-state file whose state is not normalized."""


def _finite(x) -> float | None:
    """x as a float when it is a finite JSON number, else None."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return None
    try:
        x = float(x)
    except OverflowError:  # an integer beyond the float range
        return None
    return x if math.isfinite(x) else None


def _complex_at(node, path: str) -> complex:
    parts = [_finite(x) for x in node] if isinstance(node, (list, tuple)) else []
    if len(parts) != 2 or None in parts:
        raise StateFileError(f"{path}: expected a [re, im] pair of finite numbers, got {node!r}")
    return complex(parts[0], parts[1])


def _amplitudes_at(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != 8:
        raise StateFileError(f"{path}: expected 8 amplitude pairs")
    return np.array([_complex_at(v, f"{path}[{k}]") for k, v in enumerate(node)])


def parse_pure(doc, renormalize: bool = False) -> PureState:
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise StateFileError("amplitudes: missing field")
    amp = _amplitudes_at(doc["amplitudes"], "amplitudes")
    try:
        return PureState.from_amplitudes(amp, renormalize=renormalize)
    except ValidationError as exc:  # shape and finiteness are checked above
        raise StateNormalizationError(f"amplitudes: {exc}") from exc


def parse_ensemble(doc) -> WeightedEnsemble:
    if not isinstance(doc, dict) or "members" not in doc or not isinstance(doc["members"], list):
        raise StateFileError("members: missing or not a list")
    members = []
    for k, entry in enumerate(doc["members"]):
        path = f"members[{k}]"
        if not isinstance(entry, dict) or "weight" not in entry or "amplitudes" not in entry:
            raise StateFileError(f"{path}: expected weight and amplitudes fields")
        w = _finite(entry["weight"])
        if w is None:
            raise StateFileError(f"{path}.weight: expected a finite number, got {entry['weight']!r}")
        amp = _amplitudes_at(entry["amplitudes"], f"{path}.amplitudes")
        try:
            members.append((w, PureState(amp)))
        except ValidationError as exc:
            raise StateFileError(f"{path}: {exc}") from exc
    try:
        return WeightedEnsemble(tuple(members))
    except ValidationError as exc:
        raise StateFileError(f"members: {exc}") from exc


def parse_density(doc) -> DensityMatrix:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise StateFileError("matrix: missing field")
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != 8:
        raise StateFileError("matrix: expected 8 rows")
    mat = np.zeros((8, 8), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 8:
            raise StateFileError(f"matrix[{i}]: expected 8 entries")
        for j, v in enumerate(row):
            mat[i, j] = _complex_at(v, f"matrix[{i}][{j}]")
    try:
        return DensityMatrix(mat)
    except ValidationError as exc:
        raise StateFileError(f"matrix: {exc}") from exc


def parse_kraus(doc) -> MeasurementSet:
    if not isinstance(doc, dict) or "operators" not in doc:
        raise StateFileError("operators: missing field")
    target = doc.get("target", "A")
    if target not in ("A", "B", "C"):
        raise StateFileError(f"target: expected A, B or C, got {target!r}")
    ops = doc["operators"]
    if not isinstance(ops, list) or not ops:
        raise StateFileError("operators: expected a non-empty list")
    parsed = []
    for k, op in enumerate(ops):
        path = f"operators[{k}]"
        if not isinstance(op, list) or len(op) != 2:
            raise StateFileError(f"{path}: expected a 2x2 matrix")
        mat = np.zeros((2, 2), dtype=np.complex128)
        for i in range(2):
            if not isinstance(op[i], list) or len(op[i]) != 2:
                raise StateFileError(f"{path}[{i}]: expected 2 entries")
            for j in range(2):
                mat[i, j] = _complex_at(op[i][j], f"{path}[{i}][{j}]")
        try:
            parsed.append(LocalOperator(mat, target))
        except ValidationError as exc:
            raise StateFileError(f"{path}: {exc}") from exc
    try:
        return MeasurementSet(tuple(parsed))
    except ValidationError as exc:
        raise StateFileError(f"operators: {exc}") from exc


def load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StateFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise StateFileError(f"{path}: JSON nested too deeply") from None


def sniff_kind(doc) -> str:
    """Which document shape a parsed JSON object is ('pure', 'ensemble', ...)."""
    if isinstance(doc, dict):
        for key, kind in (("amplitudes", "pure"), ("members", "ensemble"),
                          ("matrix", "density"), ("operators", "kraus")):
            if key in doc:
                return kind
    raise StateFileError("unrecognized document: expected amplitudes, members, matrix or operators")


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def pure_to_doc(psi: PureState) -> dict:
    return {"amplitudes": [_pair(z) for z in psi.amp]}


def ensemble_to_doc(e: WeightedEnsemble) -> dict:
    return {"members": [{"weight": w, "amplitudes": [_pair(z) for z in psi.amp]}
                        for w, psi in e.members]}


def density_to_doc(rho: DensityMatrix) -> dict:
    return {"matrix": [[_pair(z) for z in row] for row in rho.matrix]}


def kraus_to_doc(ms: MeasurementSet) -> dict:
    return {"target": ms.target,
            "operators": [[[_pair(op.m[i, j]) for j in range(2)] for i in range(2)]
                          for op in ms.operators]}


def write_document(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
