import json
import re

import numpy as np
import pytest

from wassmean import hermitian
from wassmean.barycenter import Ensemble
from wassmean.checks import SuitePlan
from wassmean.hermitian import require_spd
from wassmean.io import (
    FormatError,
    dumps_canonical,
    ensemble_from_json_dict,
    ensemble_to_json_dict,
    load_ensemble,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    plan_from_json_dict,
)
from wassmean.seeded import random_spd


def _write(path, doc):
    path.write_text(dumps_canonical(doc), encoding="utf-8")


def test_matrix_round_trip_complex(tmp_path):
    a = random_spd(3, seed=1, eig_lo=0.5, eig_hi=2.0)
    path = tmp_path / "a.json"
    _write(path, matrix_to_json_dict(a))
    back = load_matrix(path)
    assert np.allclose(back, a, atol=1e-15)


def test_matrix_im_defaults_to_zero():
    got = matrix_from_json_dict({"dim": 2, "re": [[2.0, 0.5], [0.5, 1.0]]})
    assert got.dtype == np.complex128
    assert np.allclose(got.imag, 0.0)


def test_matrix_symmetrized_within_tolerance():
    doc = {"dim": 2, "re": [[2.0, 0.5 + 4e-13], [0.5, 1.0]]}
    got = matrix_from_json_dict(doc)
    assert got[0, 1] == got[1, 0].conjugate()


def test_matrix_rejects_asymmetry_beyond_tolerance():
    doc = {"dim": 2, "re": [[2.0, 0.6], [0.5, 1.0]]}
    with pytest.raises(FormatError, match="not Hermitian"):
        matrix_from_json_dict(doc, name="matrices[0]")


def test_matrix_rejects_shape_and_field_errors():
    with pytest.raises(FormatError, match=r"\.dim"):
        matrix_from_json_dict({"re": [[1.0]]})
    with pytest.raises(FormatError, match=r"\.re"):
        matrix_from_json_dict({"dim": 2})
    with pytest.raises(FormatError, match="shape"):
        matrix_from_json_dict({"dim": 2, "re": [[1.0, 0.0]]})
    with pytest.raises(FormatError, match=r"\.im"):
        matrix_from_json_dict({"dim": 1, "re": [[1.0]], "im": [[0.0, 0.0]]})
    with pytest.raises(FormatError, match=r"^matrix: expected an object, got list$"):
        matrix_from_json_dict([1])
    # Python's json module reads the non-standard literal NaN as a float.
    with pytest.raises(FormatError, match=r"^matrix\.re: entries must be finite$"):
        matrix_from_json_dict(json.loads('{"dim": 1, "re": [[NaN]]}'))


@pytest.mark.parametrize("dim", [True, 2.0, "2"])
@pytest.mark.parametrize("with_im", [False, True])
def test_matrix_rejects_non_integer_dim(dim, with_im):
    # JSON true loads as bool, which Python counts as the int 1.
    doc = {"dim": dim, "re": [[1.0]]}
    if with_im:
        doc["im"] = [[0.0]]
    with pytest.raises(FormatError, match=r"^m\.dim: expected a positive integer"):
        matrix_from_json_dict(doc, name="m")


def test_matrix_rejects_non_spd_when_required():
    doc = {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}
    with pytest.raises(FormatError, match="positive definite"):
        matrix_from_json_dict(doc)


def test_ensemble_round_trip(tmp_path):
    mats = [random_spd(2, seed=s, eig_lo=0.5, eig_hi=2.0) for s in (1, 2, 3)]
    e = Ensemble(weights=[0.2, 0.3, 0.5], matrices=mats)
    path = tmp_path / "e.json"
    _write(path, ensemble_to_json_dict(e))
    back = load_ensemble(path)
    assert np.allclose(back.weights, e.weights)
    assert np.allclose(back.matrices, e.matrices, atol=1e-15)


def test_ensemble_rejects_weight_sum():
    doc = {
        "weights": [0.5, 0.48],
        "matrices": [matrix_to_json_dict(np.eye(2))] * 2,
    }
    with pytest.raises(FormatError, match="sum to 0.98"):
        ensemble_from_json_dict(doc)


def test_ensemble_rejects_missing_fields_and_naming():
    with pytest.raises(FormatError, match="weights"):
        ensemble_from_json_dict({"matrices": []})
    with pytest.raises(FormatError, match=r"^ensemble: expected an object, got list$"):
        ensemble_from_json_dict([1])
    with pytest.raises(FormatError, match=r"^ensemble\.matrices: expected a non-empty array$"):
        ensemble_from_json_dict({"weights": [1.0], "matrices": []})
    with pytest.raises(FormatError, match=r"matrices\[1\]"):
        ensemble_from_json_dict({
            "weights": [0.5, 0.5],
            "matrices": [
                matrix_to_json_dict(np.eye(2)),
                {"dim": 2, "re": [[1.0, 0.3], [0.0, 1.0]]},
            ],
        })
    with pytest.raises(FormatError, match=r"^f\.json\.matrices\[1\]: not positive definite"):
        ensemble_from_json_dict({
            "weights": [0.5, 0.5],
            "matrices": [
                matrix_to_json_dict(np.eye(2)),
                {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]},
            ],
        }, name="f.json")


def test_ensemble_load_proves_definiteness_with_one_cholesky(tmp_path, linalg_calls):
    # The loader checks each matrix for symmetry only; Ensemble proves
    # positive definiteness once, in one batched Cholesky factorisation over
    # the stack, and takes no eigenvalues when the proof succeeds.
    mats = [random_spd(3, seed=s, eig_lo=0.5, eig_hi=2.0) for s in (1, 2, 3)]
    path = tmp_path / "e.json"
    _write(path, ensemble_to_json_dict(Ensemble(weights=[0.2, 0.3, 0.5], matrices=mats)))
    linalg_calls.clear()
    load_ensemble(path)
    assert linalg_calls == [("cholesky", (3, 3, 3))]


def test_ensemble_reports_bad_weights_before_a_bad_matrix():
    # Ensemble checks its weights first, and the loader leaves every matrix
    # rule to Ensemble.
    doc = {
        "weights": [0.5, 0.48],
        "matrices": [
            matrix_to_json_dict(np.eye(2)),
            {"dim": 2, "re": [[1.0, 0.3], [0.0, 1.0]]},
        ],
    }
    with pytest.raises(FormatError, match=r"^f\.json\.weights: sum to 0\.98"):
        ensemble_from_json_dict(doc, name="f.json")


@pytest.mark.parametrize("n", [1, 4])
def test_ensemble_load_validates_the_stack_once(tmp_path, monkeypatch, n):
    mats = [random_spd(3, seed=s, eig_lo=0.5, eig_hi=2.0) for s in range(n)]
    path = tmp_path / "e.json"
    _write(path, ensemble_to_json_dict(Ensemble(weights=np.full(n, 1 / n), matrices=mats)))
    shapes = []
    require_stack = hermitian._require_stack

    def counted(arr, *args, **kwargs):
        shapes.append(arr.shape)
        return require_stack(arr, *args, **kwargs)

    monkeypatch.setattr(hermitian, "_require_stack", counted)
    load_ensemble(path)
    assert shapes == [(n, 3, 3)]


def test_large_scale_file_matrix_meets_the_relative_hermitian_rule(tmp_path):
    # Entries of order 2e7 with an asymmetry of 1.09e-11, about 3e-19 of the
    # norm: the library accepts it, and so must the files.
    a = np.array([[2e7, 1e4, 0.0], [1e4, 2e7, 0.0], [0.0, 0.0, 2e7]], dtype=complex)
    a[0, 1] += 1.09e-11
    assert abs(a[0, 1] - a[1, 0]) > 1e-11
    expected = require_spd(a)
    _write(tmp_path / "a.json", matrix_to_json_dict(a))
    _write(tmp_path / "e.json", {
        "weights": [0.5, 0.5],
        "matrices": [matrix_to_json_dict(np.eye(3)), matrix_to_json_dict(a)],
    })
    assert np.array_equal(load_matrix(tmp_path / "a.json"), expected)
    assert np.array_equal(load_ensemble(tmp_path / "e.json").matrices[1], expected)


def test_ensemble_dimension_mismatch_named():
    doc = {
        "weights": [0.5, 0.5],
        "matrices": [matrix_to_json_dict(np.eye(2)), matrix_to_json_dict(np.eye(3))],
    }
    with pytest.raises(FormatError, match="mixed dimensions"):
        ensemble_from_json_dict(doc)


def test_plan_round_trip_and_all_expansion():
    plan = plan_from_json_dict({"checks": "all", "seeds": [0, 10], "tol": 1e-7})
    assert plan.seeds == (0, 10)
    assert plan.tol == 1e-7
    assert "bounds" in plan.checks
    doc = json.loads(dumps_canonical({"checks": list(plan.checks), **plan.provenance()}))
    again = plan_from_json_dict(doc)
    assert again == SuitePlan(**{
        "checks": plan.checks, "seeds": plan.seeds,
        "dims": plan.dims, "tol": plan.tol,
    })


def test_plan_rejects_malformed():
    with pytest.raises(FormatError, match=r"^plan: expected an object$"):
        plan_from_json_dict([1])
    with pytest.raises(FormatError, match="seeds"):
        plan_from_json_dict({"checks": "all", "seeds": [3]})
    with pytest.raises(FormatError, match="unknown"):
        plan_from_json_dict({"checks": ["nope"]})
    with pytest.raises(FormatError, match="checks"):
        plan_from_json_dict({"checks": 7})
    with pytest.raises(FormatError, match=r"\.tol"):
        plan_from_json_dict({"checks": "all", "tol": "loose"})


@pytest.mark.parametrize("field, value", [
    ("seeds", [0.9, 3.7]),
    ("seeds", [0, True]),
    ("seeds", ["0", "3"]),
    ("dims", [2.9]),
    ("dims", [2, False]),
    ("tol", True),
    ("tol", "1e-8"),
    ("tol", float("nan")),
    ("tol", float("inf")),
])
def test_plan_rejects_non_integer_ranges_and_non_number_tol(field, value):
    with pytest.raises(FormatError, match=rf"^p\.{field}: expected"):
        plan_from_json_dict({"checks": ["bounds"], field: value}, name="p")


@pytest.mark.parametrize("grid,where,got", [
    ([["2", True], [1, "3"]], "re[0][0]", "'2'"),
    ([[2, True], [1, 3]], "re[0][1]", "True"),
    ([[2, 1], [1, None]], "re[1][1]", "None"),
    ([[2, 1], {"a": 1}], "re[1]", None),
    ("2", "re", None),
])
def test_matrix_grid_entries_must_be_json_numbers(grid, where, got):
    # Strings and bools used to load as numbers: "2" as 2.0, true as 1.0.
    message = f"expected a number, got {got}" if got else "expected an array of"
    with pytest.raises(FormatError, match=rf"^m\.{re.escape(where)}: {re.escape(message)}"):
        matrix_from_json_dict({"dim": 2, "re": grid}, name="m")
    with pytest.raises(FormatError, match=rf"^m\.im{re.escape(where[2:])}: "):
        matrix_from_json_dict({"dim": 2, "re": [[2, 1], [1, 3]], "im": grid}, name="m")


def test_matrix_grid_entry_too_large_for_a_float_is_not_finite():
    doc = {"dim": 1, "re": [[10**400]]}
    message = r"^m\.re\[0\]\[0\]: expected a number, got one too large for a float$"
    with pytest.raises(FormatError, match=message):
        matrix_from_json_dict(doc, name="m")


@pytest.mark.parametrize("weights,message", [
    (["0.5", "0.5"], "weights[0]: expected a number, got '0.5'"),
    ([0.5, False], "weights[1]: expected a number, got False"),
    ({"a": 1}, "weights: expected a number, got {'a': 1}"),
    (0.5, "weights: expected a 1-d array, got ndim=0"),
    ([10**400, 1], "weights[0]: expected a number, got one too large for a float"),
])
def test_ensemble_weights_must_be_json_numbers(weights, message):
    doc = {"weights": weights, "matrices": [matrix_to_json_dict(np.eye(2))] * 2}
    with pytest.raises(FormatError) as info:
        ensemble_from_json_dict(doc, name="f.json")
    assert str(info.value) == f"f.json.{message}"


@pytest.mark.parametrize("mat,message", [
    ([1.0, 2.0], "matrix: expected a 2-d array, got ndim=1"),
    (np.ones((2, 3)), "matrix: expected square matrix, got shape (2, 3)"),
    ([[1.0, True], [True, 1.0]], "matrix[0][1]: expected a number, got True"),
])
def test_matrix_to_json_dict_refuses_what_its_reader_refuses(mat, message):
    # [1.0, 2.0] used to be written with dim 2 and a 2 x 3 matrix with dim 2
    # and rows of 3: documents that matrix_from_json_dict refuses.
    with pytest.raises(ValueError) as info:
        matrix_to_json_dict(mat)
    assert str(info.value) == message


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_matrix(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_canonical_refuses_a_number_json_cannot_hold(value):
    # It used to write NaN, Infinity or -Infinity, which no JSON parser reads.
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps_canonical({"margin": value})


def test_dumps_canonical_is_stable():
    payload = {"b": 1.5, "a": [1, 2, 3]}
    assert dumps_canonical(payload) == dumps_canonical(json.loads(dumps_canonical(payload)))
    assert dumps_canonical(payload).startswith("{\n")


def test_ensemble_json_shape():
    e = Ensemble(weights=[1.0], matrices=[np.eye(2)])
    doc = ensemble_to_json_dict(e)
    assert set(doc) == {"weights", "matrices"}
    assert set(doc["matrices"][0]) == {"dim", "re", "im"}
