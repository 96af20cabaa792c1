"""Property tests of the validation boundary and of the mean's invariances.

Every matrix that enters the package meets one rule, whose tolerances are
relative to the scale of the data. So scaling an input by an exact power of
two, t = 2^k, changes no verdict, and every entry point gives the same one.

The Wasserstein mean is equivariant under a permutation of the ensemble,
positively homogeneous, and unitarily covariant: Omega(2^k A) = 2^k Omega(A)
and Omega(U A U*) = U Omega(A) U*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassmean.barycenter import Ensemble, wasserstein_mean
from wassmean.hermitian import (
    _haar_unitary,
    _random_spds,
    hermitianize,
    random_unitary,
    require_hermitian,
    require_spd,
)
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


# ---------------------------------------------------------------------------
# invariances of the mean
# ---------------------------------------------------------------------------

MEAN_RTOL = 1e-10


@st.composite
def ensembles(draw):
    """Weights and an (n, m, m) stack, m in 2..5 and n in 2..4, each matrix of
    spectrum uniform in [0.1, 10]."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    w = np.random.default_rng(seed).uniform(0.2, 1.0, n)
    return w / w.sum(), _random_spds(m, [seed + 1 + j for j in range(n)], 0.1, 10.0)


def _mean(weights, mats):
    report = wasserstein_mean(Ensemble(weights=weights, matrices=mats))
    assert report.converged
    return report.mean


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= MEAN_RTOL * np.linalg.norm(want)


@settings(max_examples=15)
@given(ensemble=ensembles(), data=st.data())
def test_mean_is_permutation_equivariant(ensemble, data):
    w, mats = ensemble
    order = data.draw(st.permutations(range(w.size)))
    _assert_close(_mean(w[order], mats[order]), _mean(w, mats))


@settings(max_examples=15)
@given(ensemble=ensembles(), k=st.integers(-8, 8))
def test_mean_is_homogeneous_under_powers_of_two(ensemble, k):
    w, mats = ensemble
    _assert_close(_mean(w, 2.0**k * mats), 2.0**k * _mean(w, mats))


@settings(max_examples=15)
@given(ensemble=ensembles(), seed=st.integers(0, 2**32 - 1))
def test_mean_is_unitarily_covariant(ensemble, seed):
    w, mats = ensemble
    u = random_unitary(mats.shape[1], seed)
    conjugated = hermitianize(u @ mats @ u.conj().T)
    _assert_close(_mean(w, conjugated), u @ _mean(w, mats) @ u.conj().T)
