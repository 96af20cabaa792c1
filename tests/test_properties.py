"""Property tests of the validation boundary.

Every matrix that enters the package meets one rule, whose tolerances are
relative to the scale of the data. So scaling an input by an exact power of
two, t = 2^k, changes no verdict, and every entry point gives the same one.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wassmean.barycenter import Ensemble
from wassmean.hermitian import _haar_unitary, hermitianize, require_hermitian, require_spd
from wassmean.io import dumps_canonical, load_ensemble, load_matrix, matrix_to_json_dict


@st.composite
def near_hermitian(draw):
    """An m x m matrix with spectrum in [1, 4] (so ||a||_F >= sqrt(2), far
    above the positive definite floor), one off-diagonal entry of which is
    moved by ratio * 1e-12 * ||a||_F: Hermitian under the relative rule when
    ratio < 1. Ratios near 1 are left out, where round-off decides."""
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = _haar_unitary(rng, m)
    a = hermitianize((u * rng.uniform(1.0, 4.0, m)) @ u.conj().T)
    r, c = draw(st.sampled_from([(r, c) for r in range(m) for c in range(m) if r != c]))
    ratio = draw(st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 10.0)))
    a[r, c] += ratio * 1e-12 * np.linalg.norm(a)
    return a


def _accepted(validate):
    try:
        validate()
    except ValueError:
        return False
    return True


def _verdicts(a, directory):
    """Whether each entry point accepts ``a``; the ensembles pair it with a
    multiple of the identity."""
    partner = np.linalg.norm(a) * np.eye(a.shape[0])
    matrix_file = directory / "a.json"
    ensemble_file = directory / "e.json"
    matrix_file.write_text(dumps_canonical(matrix_to_json_dict(a)))
    ensemble_file.write_text(dumps_canonical({
        "weights": [0.5, 0.5],
        "matrices": [matrix_to_json_dict(partner), matrix_to_json_dict(a)],
    }))
    return {
        "require_hermitian": _accepted(lambda: require_hermitian(a)),
        "require_spd": _accepted(lambda: require_spd(a)),
        "Ensemble": _accepted(lambda: Ensemble(weights=[0.5, 0.5], matrices=[partner, a])),
        "load_matrix": _accepted(lambda: load_matrix(matrix_file)),
        "load_ensemble": _accepted(lambda: load_ensemble(ensemble_file)),
    }


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("scaled")


@given(a=near_hermitian(), k=st.integers(0, 40))
def test_validation_verdicts_do_not_change_under_power_of_two_scaling(directory, a, k):
    base = _verdicts(a, directory)
    assert len(set(base.values())) == 1, base
    assert _verdicts(2.0**k * a, directory) == base
