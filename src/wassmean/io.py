"""JSON interchange for matrices, ensembles, suite plans and reports.

Matrix files are ``{"dim": m, "re": [[...]], "im": [[...]]}`` with ``im``
optional (zero when absent), row-major, IEEE-754 doubles. The loader checks
only the format of each grid; the library's one validation rule then runs
once per file (on an ensemble file's whole stack, by ``Ensemble``), so a file
matrix is Hermitian to within 1e-12 * max(1, ||a||_F), symmetrized and
positive definite. Failures raise :class:`FormatError` naming the field.
"""

import json

import numpy as np

from .barycenter import Ensemble
from .checks import DEFAULT_CHECKS, SuitePlan
from .hermitian import is_integer, require_spd


class FormatError(ValueError):
    """A JSON document violates the interchange contract."""


def dumps_canonical(payload):
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _real_grid(value, dim, name):
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{name}: not a numeric grid ({exc})") from None
    if arr.shape != (dim, dim):
        raise FormatError(f"{name}: expected {dim}x{dim} rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{name}: entries must be finite")
    return arr


def _matrix_grid(doc, name):
    """The complex matrix of one matrix document, checked for format only."""
    if not isinstance(doc, dict):
        raise FormatError(f"{name}: expected an object, got {type(doc).__name__}")
    if "dim" not in doc:
        raise FormatError(f"{name}.dim: missing")
    dim = doc["dim"]
    if not is_integer(dim) or dim < 1:
        raise FormatError(f"{name}.dim: expected a positive integer, got {dim!r}")
    if "re" not in doc:
        raise FormatError(f"{name}.re: missing")
    re = _real_grid(doc["re"], dim, f"{name}.re")
    if "im" in doc and doc["im"] is not None:
        im = _real_grid(doc["im"], dim, f"{name}.im")
    else:
        im = np.zeros((dim, dim))
    return re + 1j * im


def matrix_from_json_dict(doc, name="matrix"):
    """Parse one positive definite matrix document."""
    try:
        return require_spd(_matrix_grid(doc, name), name=name)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def matrix_to_json_dict(mat):
    arr = np.asarray(mat, dtype=np.complex128)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def ensemble_from_json_dict(doc, name="ensemble"):
    if not isinstance(doc, dict):
        raise FormatError(f"{name}: expected an object, got {type(doc).__name__}")
    for key in ("weights", "matrices"):
        if key not in doc:
            raise FormatError(f"{name}.{key}: missing")
    weights = doc["weights"]
    mats_doc = doc["matrices"]
    if not isinstance(mats_doc, list) or not mats_doc:
        raise FormatError(f"{name}.matrices: expected a non-empty array")
    # Only the format is checked here; Ensemble validates the whole stack once.
    mats = [_matrix_grid(m, f"{name}.matrices[{j}]") for j, m in enumerate(mats_doc)]
    try:
        return Ensemble(weights=weights, matrices=mats)
    except ValueError as exc:
        raise FormatError(f"{name}.{exc}") from None


def ensemble_to_json_dict(ensemble):
    return {
        "weights": [float(w) for w in ensemble.weights],
        "matrices": [matrix_to_json_dict(ensemble.matrices[j])
                     for j in range(ensemble.size)],
    }


def plan_from_json_dict(doc, name="plan"):
    if not isinstance(doc, dict):
        raise FormatError(f"{name}: expected an object")
    checks = doc.get("checks", "all")
    kwargs = {"checks": DEFAULT_CHECKS if checks == "all" else checks}
    kwargs.update((key, doc[key]) for key in ("seeds", "dims", "tol") if key in doc)
    try:
        return SuitePlan(**kwargs)
    except ValueError as exc:
        raise FormatError(f"{name}.{exc}") from None


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def load_matrix(path):
    return matrix_from_json_dict(_load_json(path), name=str(path))


def load_ensemble(path):
    return ensemble_from_json_dict(_load_json(path), name=str(path))


def load_plan(path):
    return plan_from_json_dict(_load_json(path), name=str(path))
