"""JSON state files used by the command-line interface.

All complex numbers are stored as two-element ``[re, im]`` arrays so that
doubles round-trip losslessly.  Four document shapes are understood:

* pure state:  ``{"amplitudes": [[re, im] x8]}``
* ensemble:    ``{"members": [{"weight": w, "amplitudes": [...]}, ...]}``
* density:     ``{"matrix": [[[re, im] x8] x8]}``
* Kraus set:   ``{"target": "A"|"B"|"C", "operators": [[[...], [...]], ...]}``

Every array (the amplitudes, the density matrix, each Kraus operator) is
read by one walker, ``_array_at``, and written by one, ``_pairs``.  Parse
failures raise :class:`StateFileError` carrying the JSON path of the
offending field, including a value type's own check; a well-formed pure
state that is not normalized raises its subclass
:class:`StateNormalizationError`.
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


def _array_at(node, shape: tuple, path: str) -> np.ndarray:
    """The complex array of ``shape`` held by nested lists of [re, im] pairs;
    an error names the first list or pair that does not fit."""
    if not isinstance(node, list) or len(node) != shape[0]:
        raise StateFileError(f"{path}: expected {shape[0]} entries")
    if len(shape) == 1:
        return np.array([_complex_at(v, f"{path}[{k}]") for k, v in enumerate(node)])
    return np.array([_array_at(v, shape[1:], f"{path}[{k}]") for k, v in enumerate(node)])


def _valid(path: str, make, *args, error=StateFileError, **kwargs):
    """``make(*args, **kwargs)``, a value type's ValidationError raised as
    ``error`` at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise error(f"{path}: {exc}") from exc


def parse_pure(doc, renormalize: bool = False) -> PureState:
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise StateFileError("amplitudes: missing field")
    amp = _array_at(doc["amplitudes"], (8,), "amplitudes")
    # shape and finiteness are checked above, so only the norm can fail here
    return _valid("amplitudes", PureState.from_amplitudes, amp, renormalize=renormalize,
                  error=StateNormalizationError)


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
        amp = _array_at(entry["amplitudes"], (8,), f"{path}.amplitudes")
        members.append((w, _valid(path, PureState, amp)))
    return _valid("members", WeightedEnsemble, tuple(members))


def parse_density(doc) -> DensityMatrix:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise StateFileError("matrix: missing field")
    return _valid("matrix", DensityMatrix, _array_at(doc["matrix"], (8, 8), "matrix"))


def parse_kraus(doc) -> MeasurementSet:
    if not isinstance(doc, dict) or "operators" not in doc:
        raise StateFileError("operators: missing field")
    target = doc.get("target", "A")
    if target not in ("A", "B", "C"):
        raise StateFileError(f"target: expected A, B or C, got {target!r}")
    ops = doc["operators"]
    if not isinstance(ops, list) or not ops:
        raise StateFileError("operators: expected a non-empty list")
    parsed = tuple(_valid(f"operators[{k}]", LocalOperator,
                          _array_at(op, (2, 2), f"operators[{k}]"), target)
                   for k, op in enumerate(ops))
    return _valid("operators", MeasurementSet, parsed)


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


def _pairs(array: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs, as _array_at reads them."""
    return np.stack((array.real, array.imag), axis=-1).tolist()


def pure_to_doc(psi: PureState) -> dict:
    return {"amplitudes": _pairs(psi.amp)}


def ensemble_to_doc(e: WeightedEnsemble) -> dict:
    return {"members": [{"weight": w, "amplitudes": _pairs(psi.amp)}
                        for w, psi in e.members]}


def density_to_doc(rho: DensityMatrix) -> dict:
    return {"matrix": _pairs(rho.matrix)}


def kraus_to_doc(ms: MeasurementSet) -> dict:
    return {"target": ms.target, "operators": [_pairs(op.m) for op in ms.operators]}


def write_document(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
