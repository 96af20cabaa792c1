"""JSON interchange for matrices, ensembles, suite plans and reports.

Matrix files are ``{"dim": m, "re": [[...]], "im": [[...]]}`` with ``im``
optional (zero when absent), row-major, IEEE-754 doubles. The loader checks
the JSON structure: objects, keys, ``dim``, rows of ``dim`` entries, and no
NaN or Infinity. Whether a grid entry or a weight is a number is decided by
the package's one rule (``hermitian._as_array``), which names a string, a
bool, an object or a number too large for a float by its index. The library's
one validation rule then runs once per file (on an ensemble file's whole
stack, by ``Ensemble``), so a file matrix is Hermitian to within
1e-12 * max(1, ||a||_F), symmetrized and positive definite. Failures raise
:class:`FormatError` naming the field.

``plan_from_json_dict`` imports ``checks`` when it is called, so loading
this module (for ``wassmean mean``, ``distance`` or ``geodesic``) does not
load the verification suite.
"""

import json

import numpy as np

from .barycenter import Ensemble
from .hermitian import _as_array, is_integer, require_spd


class FormatError(ValueError):
    """A JSON document violates the interchange contract."""


def dumps_canonical(payload):
    """Stable serialization: sorted keys, fixed separators, trailing newline.
    A NaN or infinite number, which JSON cannot hold, raises a ValueError."""
    return json.dumps(
        payload, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False
    ) + "\n"


def _real_grid(value, dim, name):
    """A grid of ``dim`` rows of ``dim`` JSON numbers, by the package's one
    rule for numbers (``hermitian._as_array``), as a float64 array."""
    if not isinstance(value, list):
        raise FormatError(f"{name}: expected an array of rows, got {type(value).__name__}")
    for r, row in enumerate(value):
        if not isinstance(row, list):
            kind = type(row).__name__
            raise FormatError(f"{name}[{r}]: expected an array of numbers, got {kind}")
    if len(value) != dim or any(len(row) != dim for row in value):
        lengths = [len(row) for row in value]
        raise FormatError(f"{name}: expected shape ({dim}, {dim}), got rows of lengths {lengths}")
    arr = _as_array(value, name, 2, real=True)
    if not np.all(np.isfinite(arr)):  # JSON's NaN and Infinity
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
    arr = _as_array(mat, "matrix", 2)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix: expected square matrix, got shape {arr.shape}")
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
    mats_doc = doc["matrices"]
    if not isinstance(mats_doc, list) or not mats_doc:
        raise FormatError(f"{name}.matrices: expected a non-empty array")
    try:
        # Only the format is checked here; Ensemble validates the whole stack once.
        mats = [_matrix_grid(m, f"matrices[{j}]") for j, m in enumerate(mats_doc)]
        return Ensemble(weights=doc["weights"], matrices=mats)
    except ValueError as exc:
        raise FormatError(f"{name}.{exc}") from None


def ensemble_to_json_dict(ensemble):
    return {
        "weights": [float(w) for w in ensemble.weights],
        "matrices": [matrix_to_json_dict(ensemble.matrices[j])
                     for j in range(ensemble.size)],
    }


def plan_from_json_dict(doc, name="plan"):
    from .checks import SuitePlan

    if not isinstance(doc, dict):
        raise FormatError(f"{name}: expected an object")
    kwargs = {"checks": doc.get("checks", "all")}
    kwargs.update((key, doc[key]) for key in ("seeds", "dims", "tol") if key in doc)
    try:
        return SuitePlan(**kwargs)
    except ValueError as exc:
        raise FormatError(f"{name}.{exc}") from None


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        # Besides malformed JSON: bytes that are not UTF-8, and an integer
        # longer than Python's int-string conversion limit.
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def load_matrix(path):
    return matrix_from_json_dict(_load_json(path), name=str(path))


def load_ensemble(path):
    return ensemble_from_json_dict(_load_json(path), name=str(path))


def load_plan(path):
    return plan_from_json_dict(_load_json(path), name=str(path))
