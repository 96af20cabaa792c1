"""Property tests of the validation boundary and of the mean's invariances.

Every matrix that enters the package meets one rule, whose tolerances are
relative to the scale of the data. So scaling an input by an exact power of
two, t = 2^k, changes no verdict, and every entry point gives the same one.

The Wasserstein mean is equivariant under a permutation of the ensemble,
positively homogeneous, and unitarily covariant: Omega(2^k A) = 2^k Omega(A)
and Omega(U A U*) = U Omega(A) U*. It also meets the paper's tensor identity
Omega(w (x) u; A (x) B) = Omega(w; A) (x) Omega(u; B).

The distance is a metric that unitary congruence preserves: symmetric,
invariant under A -> U A U*, and subject to the triangle inequality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassmean.barycenter import Ensemble, wasserstein_mean
from wassmean.bures import bw_distance
from wassmean.hermitian import (
    hermitianize,
    require_hermitian,
    require_spd,
)
from wassmean.io import dumps_canonical, load_ensemble, load_matrix, matrix_to_json_dict
from wassmean.products import ensemble_tensor
from wassmean.seeded import _Draw, _ginibre, _haar_unitaries, _seeded_draws, random_unitary


@st.composite
def near_hermitian(draw):
    """An m x m matrix with spectrum in [1, 4] (so ||a||_F >= sqrt(2), far
    above the positive definite floor), one off-diagonal entry of which is
    moved by ratio * 1e-12 * ||a||_F: Hermitian under the relative rule when
    ratio < 1. Ratios near 1 are left out, where round-off decides."""
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = _haar_unitaries(_ginibre(rng.standard_normal((2, m, m))))
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


def _spd_stack(m, seeds, eig_lo, eig_hi):
    """The (len(seeds), m, m) stack of ``random_spd(m, seed, eig_lo, eig_hi)``
    for each seed, drawn in one call."""
    return np.stack(_seeded_draws([_Draw(m, seed, (eig_lo, eig_hi)) for seed in seeds]))


@st.composite
def ensembles(draw, dims=(2, 5), sizes=(2, 4)):
    """Weights and an (n, m, m) stack, m in ``dims`` and n in ``sizes`` (both
    inclusive), each matrix of spectrum uniform in [0.1, 10]."""
    m = draw(st.integers(*dims))
    n = draw(st.integers(*sizes))
    seed = draw(st.integers(0, 2**32 - 1))
    w = np.random.default_rng(seed).uniform(0.2, 1.0, n)
    return w / w.sum(), _spd_stack(m, [seed + 1 + j for j in range(n)], 0.1, 10.0)


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


# Worst relative error seen over this test's examples: 5.6e-12.
TENSOR_RTOL = 1e-9


@settings(max_examples=15)
@given(first=ensembles(dims=(1, 3), sizes=(1, 3)), second=ensembles(dims=(1, 3), sizes=(1, 3)))
def test_mean_of_the_kronecker_pairs_is_the_kronecker_product_of_the_means(first, second):
    a, b = (Ensemble(weights=w, matrices=mats) for w, mats in (first, second))
    product = np.kron(_mean(a.weights, a.matrices), _mean(b.weights, b.matrices))
    tensored = ensemble_tensor(a, b)
    got = _mean(tensored.weights, tensored.matrices)
    assert np.linalg.norm(got - product) <= TENSOR_RTOL * np.linalg.norm(product)


# ---------------------------------------------------------------------------
# the distance is a unitarily invariant metric
# ---------------------------------------------------------------------------

# The distance is the square root of a gap, tr((a+b)/2) - tr(a^1/2 b a^1/2)^1/2,
# that cancels: the gap is known to within about GAP_RTOL * tr((a+b)/2).
GAP_RTOL = 1e-14


@st.composite
def spd_triples(draw):
    """Three m x m matrices, m in 1..5, each of spectrum uniform in [0.1, 10]."""
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 3))
    return _spd_stack(m, [seed, seed + 1, seed + 2], 0.1, 10.0)


def _resolution(a, b, d):
    """A bound on the error of d = d(a, b) that a gap error e, |e| <= delta,
    causes: |sqrt(d^2 + e) - d| <= delta / max(d, sqrt(delta))."""
    delta = GAP_RTOL * 0.5 * float(np.trace(a + b).real)
    return delta / max(d, np.sqrt(delta))


@given(mats=spd_triples())
def test_distance_is_symmetric(mats):
    # Worst seen: 5.6e-11 relative (at a small distance), 3% of the bound.
    a, b, _ = mats
    d = bw_distance(a, b)
    assert abs(bw_distance(b, a) - d) <= 2 * _resolution(a, b, d)


@given(mats=spd_triples(), seed=st.integers(0, 2**32 - 1))
def test_distance_is_unitarily_invariant(mats, seed):
    # Worst seen: 2.1e-14 relative, 4% of the bound.
    a, b, _ = mats
    u = random_unitary(a.shape[0], seed)
    d = bw_distance(a, b)
    conjugated = bw_distance(hermitianize(u @ a @ u.conj().T), hermitianize(u @ b @ u.conj().T))
    assert abs(conjugated - d) <= 2 * _resolution(a, b, d)


@given(mats=spd_triples())
def test_distance_meets_the_triangle_inequality(mats):
    # Equality holds on scalars ordered a <= b <= c, where round-off alone
    # decides. Worst excess seen: 1.9e-15, 0.4% of the bound.
    a, b, c = mats
    pairs = ((a, b), (b, c), (a, c))
    ab, bc, ac = distances = [bw_distance(x, y) for x, y in pairs]
    slack = sum(_resolution(x, y, d) for (x, y), d in zip(pairs, distances))
    assert ac <= ab + bc + slack
