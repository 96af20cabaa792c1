"""JSON interchange for matrices, ensembles, suite plans and reports.

Matrix files are ``{"dim": m, "re": [[...]], "im": [[...]]}`` with ``im``
optional (zero when absent), row-major, IEEE-754 doubles. Every grid entry and
every weight is a JSON number, an int or a float: a string, a bool or an
object is refused, as is a number too large for a float. The loader checks
only the format of each grid; the library's one validation rule then runs
once per file (on an ensemble file's whole stack, by ``Ensemble``), so a file
matrix is Hermitian to within 1e-12 * max(1, ||a||_F), symmetrized and
positive definite. Failures raise :class:`FormatError` naming the field.

``plan_from_json_dict`` imports ``checks`` when it is called, so loading
this module (for ``wassmean mean``, ``distance`` or ``geodesic``) does not
load the verification suite.
"""

import json

import numpy as np

from .barycenter import Ensemble
from .hermitian import _as_complex, is_integer, require_spd


class FormatError(ValueError):
    """A JSON document violates the interchange contract."""


def dumps_canonical(payload):
    """Stable serialization: sorted keys, fixed separators, trailing newline.
    A NaN or infinite number, which JSON cannot hold, raises a ValueError."""
    return json.dumps(
        payload, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False
    ) + "\n"


# The Python types of a JSON number; a bool, an int to Python, is none.
_NUMBER_TYPES = frozenset((int, float))


def _require_numbers(value, name):
    """``value`` when it is a JSON array of numbers; otherwise a FormatError
    naming ``name`` or its first entry that is not a number."""
    if not isinstance(value, list):
        raise FormatError(f"{name}: expected an array of numbers, got {type(value).__name__}")
    if not _NUMBER_TYPES.issuperset(map(type, value)):
        j = next(j for j, x in enumerate(value) if type(x) not in _NUMBER_TYPES)
        raise FormatError(f"{name}[{j}]: expected a number, got {value[j]!r}")
    return value


def _floats(value, name):
    """JSON numbers, in an array or an array of rows, as a float64 array; a
    number too large for a float is not finite."""
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise FormatError(f"{name}: entries must be finite") from None


def _real_grid(value, dim, name):
    if not isinstance(value, list):
        raise FormatError(f"{name}: expected an array of rows, got {type(value).__name__}")
    for r, row in enumerate(value):
        _require_numbers(row, f"{name}[{r}]")
    if len(value) != dim or any(len(row) != dim for row in value):
        lengths = [len(row) for row in value]
        raise FormatError(f"{name}: expected shape ({dim}, {dim}), got rows of lengths {lengths}")
    arr = _floats(value, name)
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
    arr = _as_complex(mat, "matrix")
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
    weights = _floats(_require_numbers(doc["weights"], f"{name}.weights"), f"{name}.weights")
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
