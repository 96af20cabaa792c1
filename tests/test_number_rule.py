"""One rule for what counts as a number: every array entry point of the
package gives one input one verdict, and a refusal one message."""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from wassmean.barycenter import Ensemble
from wassmean.bures import bw_distance
from wassmean.checks import check
from wassmean.hermitian import require_spd, require_spd_pair, require_spd_stack
from wassmean.io import ensemble_from_json_dict, matrix_from_json_dict
from wassmean.means import validate_weights
from wassmean.products import PositiveMapSpec

_EYE = np.eye(2)
_EYE_DOC = {"dim": 2, "re": _EYE.tolist()}

# Each input, as a matrix and as a weight vector, with the end of its refusal
# after the argument's name, or None when it is accepted (as the identity,
# and as the weights [0.5, 0.5]).
_ROWS = {
    "bool_among_floats": (
        [[2.0, False], [False, 2.0]], "[0][1]: expected a number, got False",
        [0.5, False], "[1]: expected a number, got False",
    ),
    "too_large": (
        [[10**400, 0], [0, 1]], "[0][0]: expected a number, got one too large for a float",
        [10**400, 1], "[0]: expected a number, got one too large for a float",
    ),
    "fractions": (
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], None,
        [Fraction(1, 2)] * 2, None,
    ),
    "decimals": (
        np.array([[Decimal(1), Decimal(0)], [Decimal(0), Decimal(1)]], dtype=object), None,
        np.array([Decimal("0.5")] * 2, dtype=object), None,
    ),
}


def _json(value):
    """``value`` as JSON reads it back, or None when JSON cannot hold it."""
    try:
        return json.loads(json.dumps(value))
    except TypeError:  # Fractions, Decimals and arrays
        return None


def _refusal(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _matrix_entry_points(x):
    """(name, call) of each entry point that takes ``x`` as a matrix."""
    points = [
        ("matrix", lambda: require_spd(x)),
        ("first matrix", lambda: require_spd_pair(x, _EYE)),
        ("second matrix", lambda: require_spd_pair(_EYE, x)),
        ("first matrix", lambda: bw_distance(x, 2 * _EYE)),
        ("matrices[1]", lambda: require_spd_stack([_EYE, x])),
        ("matrices[1]", lambda: Ensemble(weights=[0.5, 0.5], matrices=[_EYE, x])),
        ("isometry", lambda: PositiveMapSpec("isometry", x)),
        ("x", lambda: check("jensen_contraction", _EYE, x, 0.5)),
    ]
    grid = _json(x)
    if grid is not None:
        points += [
            ("m.re", lambda: matrix_from_json_dict({"dim": 2, "re": grid}, name="m")),
            ("f.matrices[1].re", lambda: ensemble_from_json_dict(
                {"weights": [0.5, 0.5], "matrices": [_EYE_DOC, {"dim": 2, "re": grid}]}, name="f")),
        ]
    return points


def _weight_entry_points(w):
    """(name, call) of each entry point that takes ``w`` as weights."""
    points = [
        ("weights", lambda: validate_weights(w)),
        ("weights", lambda: Ensemble(weights=w, matrices=[_EYE, _EYE])),
    ]
    weights = _json(w)
    if weights is not None:
        points.append(("f.weights", lambda: ensemble_from_json_dict(
            {"weights": weights, "matrices": [_EYE_DOC] * 2}, name="f")))
    return points


@pytest.mark.parametrize("row", sorted(_ROWS))
def test_each_input_has_one_verdict_at_every_entry_point(row):
    matrix, matrix_tail, weights, weights_tail = _ROWS[row]
    for points, tail in ((_matrix_entry_points(matrix), matrix_tail),
                         (_weight_entry_points(weights), weights_tail)):
        expected = [None if tail is None else name + tail for name, _ in points]
        assert [_refusal(call) for _, call in points] == expected
    if matrix_tail is None:
        assert np.array_equal(require_spd(matrix), _EYE)
        assert np.array_equal(validate_weights(weights), [0.5, 0.5])


def test_a_bool_in_a_tall_isometry_is_named():
    # [[1.0], [False]] used to be accepted as the isometry e_1.
    with pytest.raises(ValueError) as info:
        PositiveMapSpec("isometry", [[1.0], [False]])
    assert str(info.value) == "isometry[1][0]: expected a number, got False"
