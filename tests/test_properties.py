"""Property tests of the validation boundary and of the mean's invariances.

Every matrix that enters the package meets one rule, whose tolerances are
relative to the scale of the data. So scaling an input by an exact power of
two, t = 2^k, changes no verdict, and every entry point gives the same one.

The Wasserstein mean is equivariant under a permutation of the ensemble,
positively homogeneous, and unitarily covariant: Omega(2^k A) = 2^k Omega(A)
and Omega(U A U*) = U Omega(A) U*. It also meets the paper's tensor identity
Omega(w (x) u; A (x) B) = Omega(w; A) (x) Omega(u; B).

The mean's certificate, the residual of its defining equation at a
candidate x, is unchanged when x and the A_j are scaled by 2^k or conjugated
by one unitary; the objective scales by 2^k.

The distance is a metric that unitary congruence preserves: symmetric,
invariant under A -> U A U*, and subject to the triangle inequality.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wassmean._kernels import _from_spectrum
from wassmean.barycenter import Ensemble, objective, residual, wasserstein_mean
from wassmean.bures import bw_distance
from wassmean.hermitian import (
    hermitianize,
    loewner_leq,
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


@st.composite
def hermitian_pairs(draw):
    """Hermitian A and B = A + D, m <= 4, D a Hermitian draw shifted by a
    multiple of I, so that both verdicts of A <= B occur."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, d = (hermitianize(x + 1j * y) for x, y in rng.standard_normal((2, 2, m, m)))
    return a, a + d + draw(st.floats(-3.0, 3.0)) * np.eye(m)


@given(pair=hermitian_pairs(), k=st.integers(-60, 60))
def test_loewner_verdict_and_relative_margin_do_not_change_under_power_of_two_scaling(pair, k):
    # The tolerance is loewner_tol times the larger norm, with no absolute
    # floor, so A <= B keeps its verdict at every scale. Margins within 1e-6
    # of the threshold -loewner_tol * scale or of 0 are left out: there
    # round-off decides.
    a, b = pair
    base = loewner_leq(a, b)
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    assume(abs(base.margin) > 1e-6 * scale)
    scaled = loewner_leq(2.0**k * a, 2.0**k * b)
    assert scaled.holds is base.holds
    assert abs(scaled.margin * 2.0**-k - base.margin) <= 1e-12 * abs(base.margin)


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
# invariances of the certificate
# ---------------------------------------------------------------------------

# Worst relative errors measured over 200 instances of this family: 3.8e-14
# (residual under scaling), 1.1e-13 (residual under unitary congruence) and
# 4.9e-15 (objective under scaling). The direct geometric-mean route that the
# residual took before read 3.4e-12 and 1.7e-12.
CERTIFICATE_RTOL = 1e-10


@st.composite
def candidates(draw):
    """(x, ensemble): m <= 5, n <= 4 matrices and Dirichlet weights, x and the
    matrices log-uniform in [10^-d, 10^d] for d <= 2. x is a random candidate,
    not the mean, so its residual is of order 1."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.floats(0.5, 2.0))
    x, *mats = _log_uniform_stack(m, seed, n + 1, 10.0**-d, 10.0**d)
    return x, Ensemble(weights=np.random.default_rng(seed).dirichlet(np.ones(n)), matrices=mats)


def _residual(x, ensemble):
    """The residual at x, which the draw keeps of order 1: below 1e-3, relative
    round-off would decide."""
    value = residual(x, ensemble)
    assume(value > 1e-3)
    return value


@given(candidate=candidates(), k=st.integers(-30, 40))
def test_residual_is_unchanged_under_power_of_two_scaling(candidate, k):
    x, e = candidate
    base = _residual(x, e)
    scaled = residual(2.0**k * x, Ensemble(weights=e.weights, matrices=2.0**k * e.matrices))
    assert abs(scaled - base) <= CERTIFICATE_RTOL * base


@given(candidate=candidates(), seed=st.integers(0, 2**32 - 1))
def test_residual_is_unitarily_invariant(candidate, seed):
    x, e = candidate
    base = _residual(x, e)
    u = random_unitary(x.shape[0], seed)
    conjugated = Ensemble(weights=e.weights, matrices=hermitianize(u @ e.matrices @ u.conj().T))
    got = residual(hermitianize(u @ x @ u.conj().T), conjugated)
    assert abs(got - base) <= CERTIFICATE_RTOL * base


@given(candidate=candidates(), k=st.integers(-30, 40))
def test_objective_is_homogeneous_under_powers_of_two(candidate, k):
    x, e = candidate
    base = objective(x, e)
    scaled = objective(2.0**k * x, Ensemble(weights=e.weights, matrices=2.0**k * e.matrices))
    assert abs(scaled * 2.0**-k - base) <= CERTIFICATE_RTOL * base


# ---------------------------------------------------------------------------
# the distance is a unitarily invariant metric
# ---------------------------------------------------------------------------

# The distance is ||M - L||_F / sqrt(2) through the transport map, with no
# difference of traces to cancel, so its error is linear in the scale
# sqrt(tr((a+b)/2)) of the pair. Worst |error| / scale measured over 4,000
# triples of each family, a quarter of them with no near-equal pair and a
# quarter for each c - 1: uniform 3.7e-15 (symmetry), 3.4e-15 (unitary
# invariance), 1.3e-16 (triangle excess); log-uniform 2.7e-11, 8.1e-11 and
# 2.2e-16. The difference of traces read 6.6e-8 on uniform triples and
# raised on 223 of the log-uniform ones.
DISTANCE_RTOL = {"uniform": 5e-14, "log-uniform": 1e-9}


def _log_uniform_stack(m, seed, count, lo=1e-3, hi=1e3):
    """``count`` m x m matrices U diag(exp(u)) U*, U Haar and u uniform in
    [log lo, log hi], from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    u = _haar_unitaries(_ginibre(rng.standard_normal((count, 2, m, m))))
    return _from_spectrum(u, np.exp(rng.uniform(np.log(lo), np.log(hi), (count, m))))


@st.composite
def spd_triples(draw):
    """(family, three m x m matrices), m in 1..5, of spectrum uniform in
    [0.1, 10] or log-uniform in [1e-3, 1e3]; in a near-equal triple the
    second matrix is c times the first, c - 1 in {1e-3, 1e-6, 1e-9}."""
    family = draw(st.sampled_from(sorted(DISTANCE_RTOL)))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 3))
    if family == "uniform":
        mats = _spd_stack(m, [seed, seed + 1, seed + 2], 0.1, 10.0)
    else:
        mats = _log_uniform_stack(m, seed, 3)
    step = draw(st.sampled_from([None, 1e-3, 1e-6, 1e-9]))
    if step is not None:
        mats[1] = (1 + step) * mats[0]
    return family, mats


def _allowance(family, a, b):
    """The distance's error allowance: linear in sqrt(tr((a+b)/2))."""
    return DISTANCE_RTOL[family] * np.sqrt(0.5 * float(np.trace(a + b).real))


@given(triple=spd_triples())
def test_distance_is_symmetric(triple):
    family, (a, b, _) = triple
    assert abs(bw_distance(b, a) - bw_distance(a, b)) <= _allowance(family, a, b)


@given(triple=spd_triples(), seed=st.integers(0, 2**32 - 1))
def test_distance_is_unitarily_invariant(triple, seed):
    family, (a, b, _) = triple
    u = random_unitary(a.shape[0], seed)
    d = bw_distance(a, b)
    conjugated = bw_distance(hermitianize(u @ a @ u.conj().T), hermitianize(u @ b @ u.conj().T))
    assert abs(conjugated - d) <= _allowance(family, a, b)


@given(triple=spd_triples())
def test_distance_meets_the_triangle_inequality(triple):
    # Equality holds on scalars ordered a <= b <= c, where round-off alone
    # decides.
    family, (a, b, c) = triple
    pairs = ((a, b), (b, c), (a, c))
    ab, bc, ac = (bw_distance(x, y) for x, y in pairs)
    assert ac <= ab + bc + sum(_allowance(family, x, y) for x, y in pairs)
