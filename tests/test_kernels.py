import numpy as np
import pytest

from wassmean import _kernels as k
from wassmean.means import validate_weights
from wassmean.seeded import random_spd


def _stack(seeds, m=3, lo=0.5, hi=2.0):
    return np.stack([random_spd(m, seed=s, eig_lo=lo, eig_hi=hi) for s in seeds])


def _solve_one(mats, weights, max_iter, tol):
    """The kernel's solve of one ensemble: a batch of one, unbatched."""
    x, iters, res, status, traces = k.wasserstein_solve(mats[None], weights[None], max_iter, tol)
    return x[0], int(iters[0]), res[0], int(status[0]), traces[0]


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# ---------------------------------------------------------------------------
# Loop reference: the per-matrix solver and residual the stacked kernels
# replaced, one eigh per matrix, kept here as the reference they must match.
# ---------------------------------------------------------------------------

def _sym(a):
    return (a + a.conj().T) * 0.5


def _fro(a):
    return np.sqrt(np.sum(np.abs(a) ** 2))


def _spd_power(a, t):
    w, v = np.linalg.eigh(a)
    return _sym((v * w**t) @ v.conj().T)


def _gm_pair(a, b):
    w, v = np.linalg.eigh(a)
    sw = np.sqrt(w)
    rs = _sym((v * sw) @ v.conj().T)
    ris = _sym((v * (1.0 / sw)) @ v.conj().T)
    mid = _spd_power(_sym(ris @ b @ ris), 0.5)
    return _sym(rs @ mid @ rs)


def loop_residual(x, mats, weights):
    m = x.shape[0]
    xinv = _spd_power(x, -1.0)
    acc = np.zeros((m, m), dtype=np.complex128)
    for j in range(mats.shape[0]):
        acc = acc + weights[j] * _gm_pair(mats[j], xinv)
    return _fro(np.eye(m).astype(np.complex128) - acc)


def _start(mats, weights):
    # The solver's start: the Hermitian part of the weighted arithmetic mean.
    return _sym(k.weighted_sum(weights, mats))


def loop_solve(mats, weights, x0, max_iter, tol):
    n = mats.shape[0]
    m = mats.shape[1]
    eye = np.eye(m).astype(np.complex128)
    x = x0.copy()
    best_x = x0.copy()
    best_traces = None
    best_res = np.inf
    status = k.SOLVE_MAX_ITER
    iters = 0
    for it in range(max_iter + 1):
        w, v = np.linalg.eigh(x)
        if w[0] <= 0.0:
            status = k.SOLVE_BREAKDOWN
            break
        sw = np.sqrt(w)
        rs = _sym((v * sw) @ v.conj().T)
        ris = _sym((v * (1.0 / sw)) @ v.conj().T)
        s = np.zeros((m, m), dtype=np.complex128)
        traces = np.zeros(n)
        for j in range(n):
            root = _spd_power(_sym(rs @ mats[j] @ rs), 0.5)
            traces[j] = np.trace(root).real
            s = s + weights[j] * root
        k_ = _sym(ris @ s @ ris)
        res = _fro(eye - k_)
        if res < best_res:
            best_res = res
            best_x = x.copy()
            best_traces = traces
        if res <= tol:
            status = k.SOLVE_CONVERGED
            break
        if it == max_iter:
            break
        x = _sym(k_ @ x @ k_)
        iters += 1
    return best_x, iters, best_res, status, best_traces


# Fixed seed set: dimensions, ensemble sizes and spectra from well to badly
# conditioned.
CASES = [
    (m, n, lo, hi, seed)
    for m, n in ((3, 3), (5, 16), (16, 4))
    for lo, hi in ((0.5, 2.0), (0.05, 20.0), (1e-3, 1e3))
    for seed in (0, 1)
]


def _case(m, n, lo, hi, seed):
    mats = _stack(range(100 * seed, 100 * seed + n), m=m, lo=lo, hi=hi)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, n)
    return mats, validate_weights(w / w.sum())


@pytest.mark.parametrize("m,n,lo,hi,seed", CASES)
def test_stacked_solver_matches_loop_reference(m, n, lo, hi, seed):
    mats, w = _case(m, n, lo, hi, seed)
    got = _solve_one(mats, w, 200, 1e-11)
    want = loop_solve(mats, w, _start(mats, w), 200, 1e-11)
    assert _rel(got[0], want[0]) <= 1e-13
    assert got[1] == want[1]
    assert got[3] == want[3] == k.SOLVE_CONVERGED
    assert got[2] == pytest.approx(want[2], abs=1e-13)


@pytest.mark.parametrize("m,n,lo,hi,seed", CASES)
def test_solver_root_traces_match_loop_reference(m, n, lo, hi, seed):
    # t_j = tr (x^{1/2} A_j x^{1/2})^{1/2} at the returned best iterate, here
    # as the trace of each per-matrix root rather than a sum of eigenvalues.
    mats, w = _case(m, n, lo, hi, seed)
    got = _solve_one(mats, w, 200, 1e-11)[4]
    want = loop_solve(mats, w, _start(mats, w), 200, 1e-11)[4]
    assert got.shape == (n,)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_solver_root_traces_belong_to_best_iterate():
    # An unconverged solve returns its best iterate; the traces must be
    # those of that iterate.
    mats, w = _case(5, 16, 1e-3, 1e3, 0)
    x, _, _, status, traces = _solve_one(mats, w, 3, 1e-11)
    assert status == k.SOLVE_MAX_ITER
    rs = _spd_power(x, 0.5)
    want = [np.trace(_spd_power(_sym(rs @ a @ rs), 0.5)).real for a in mats]
    assert np.max(np.abs(traces - want) / want) <= 1e-13


@pytest.mark.parametrize("m,n,lo,hi,seed", CASES[::3])
def test_stacked_residual_matches_loop_reference(m, n, lo, hi, seed):
    mats, w = _case(m, n, lo, hi, seed)
    x = random_spd(m, seed=seed + 50, eig_lo=lo, eig_hi=hi)
    got = k.mean_equation_residual(x, mats, w)
    want = loop_residual(x, mats, w)
    assert got == pytest.approx(want, rel=1e-12)


def test_stacked_kernels_equal_per_matrix_calls():
    a = _stack(range(20, 25), m=4, lo=0.1, hi=10.0)
    b = _stack(range(30, 35), m=4, lo=0.1, hi=10.0)
    x = random_spd(4, seed=40, eig_lo=0.1, eig_hi=10.0)
    for t in (0.5, -0.5, -1.0, 2.0):
        stacked = k.spd_power(a, t)
        for j in range(a.shape[0]):
            assert _rel(stacked[j], k.spd_power(a[j], t)) <= 1e-14
    for got, per_pair in (
        (k.geometric_mean(a, b), lambda j: k.geometric_mean(a[j], b[j])),
        (k.geometric_mean(a, x), lambda j: k.geometric_mean(a[j], x)),
        (k.geometric_mean(x, b), lambda j: k.geometric_mean(x, b[j])),
    ):
        assert got.shape == a.shape
        for j in range(a.shape[0]):
            assert _rel(got[j], per_pair(j)) <= 1e-14
    for got, per_pair in (
        (k.bw_gap(a, b), lambda j: k.bw_gap(a[j], b[j])),
        (k.bw_gap(x, b), lambda j: k.bw_gap(x, b[j])),
        (k.bw_gap(a, x), lambda j: k.bw_gap(a[j], x)),
    ):
        assert got.shape == (a.shape[0],)
        for j in range(a.shape[0]):
            assert got[j] == pytest.approx(per_pair(j), rel=1e-13, abs=1e-13)


def test_single_matrix_kernels_match_loop_reference():
    a = random_spd(5, seed=60, eig_lo=0.1, eig_hi=10.0)
    b = random_spd(5, seed=61, eig_lo=0.1, eig_hi=10.0)
    assert _rel(k.spd_power(a, 0.5), _spd_power(a, 0.5)) <= 1e-14
    assert _rel(k.geometric_mean(a, b), _gm_pair(a, b)) <= 1e-14
    ra = _spd_power(a, 0.5)
    want_gap = 0.5 * np.trace(a + b).real - np.sum(
        np.sqrt(np.linalg.eigvalsh(_sym(ra @ b @ ra))))
    assert k.bw_gap(a, b) == pytest.approx(want_gap, rel=1e-13)


def test_solver_bitwise_deterministic():
    mats = _stack([10, 11])
    w = validate_weights([0.4, 0.6])
    first = _solve_one(mats, w, 200, 1e-11)
    second = _solve_one(mats, w, 200, 1e-11)
    assert np.array_equal(first[0], second[0])
    assert first[1:4] == second[1:4]
    assert np.array_equal(first[4], second[4])


# ---------------------------------------------------------------------------
# Leading ensemble axis: each ensemble of a batch must get exactly the outputs
# of its own solve.
# ---------------------------------------------------------------------------

def _assert_batch_matches_singles(mats, weights, max_iter):
    batch = k.wasserstein_solve(mats, weights, max_iter, 1e-11)
    assert [a.shape[0] for a in batch] == [mats.shape[0]] * 5
    for i in range(mats.shape[0]):
        x, iters, res, status, traces = _solve_one(mats[i], weights[i], max_iter, 1e-11)
        assert np.array_equal(batch[0][i], x)
        assert batch[1][i] == iters
        assert batch[2][i] == res or (np.isinf(res) and np.isinf(batch[2][i]))
        assert batch[3][i] == status
        assert np.array_equal(batch[4][i], traces, equal_nan=True)
    return batch[3]


# Well to badly conditioned 3x3 ensembles of four: at max_iter 6 the first
# three converge on the last iterate allowed and the other two run out.
MIXED_SPECTRA = ((0.5, 2.0, 0), (0.05, 20.0, 1), (0.5, 2.0, 2), (1e-3, 1e3, 3), (0.2, 5.0, 4))


@pytest.mark.parametrize("max_iter,statuses", [
    (200, [k.SOLVE_CONVERGED] * 5),
    (6, [k.SOLVE_CONVERGED] * 3 + [k.SOLVE_MAX_ITER] * 2),
    (3, [k.SOLVE_MAX_ITER] * 5),
])
def test_batched_solver_equals_single_solves_bitwise(max_iter, statuses):
    mats = np.stack([
        _stack(range(100 * seed, 100 * seed + 4), lo=lo, hi=hi)
        for lo, hi, seed in MIXED_SPECTRA
    ])
    weights = np.stack([_case(3, 4, 0.5, 2.0, seed)[1] for seed in range(5)])
    assert list(_assert_batch_matches_singles(mats, weights, max_iter)) == statuses


def test_negative_congruence_eigenvalue_is_a_breakdown(wide_spectrum_mats):
    w = np.full(6, 1.0 / 6.0)
    _, iters, _, status, _ = _solve_one(wide_spectrum_mats, w, 200, 1e-11)
    assert status == k.SOLVE_BREAKDOWN
    assert iters == 12


def test_breakdown_in_a_batch_leaves_its_group_mates_intact(wide_spectrum_mats):
    good = [_stack(range(10 * s, 10 * s + 6), m=8, lo=0.05, hi=20.0) for s in range(3)]
    mats = np.stack([good[0], wide_spectrum_mats, good[1], good[2]])
    weights = np.full((4, 6), 1.0 / 6.0)
    statuses = _assert_batch_matches_singles(mats, weights, 200)
    assert list(statuses) == [k.SOLVE_CONVERGED, k.SOLVE_BREAKDOWN] + [k.SOLVE_CONVERGED] * 2



def test_congruence_root_clamps_only_round_off():
    # Within 1e-12 of the largest eigenvalue below zero is round-off, clamped
    # to 0; beyond it, an error.
    root = k._congruence_root(np.diag([-5e-13, 1.0]).astype(complex))
    assert np.array_equal(root, np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="^congruence root: eigenvalue -2.000e-12 below zero$"):
        k._congruence_root(np.diag([-2e-12, 1.0]).astype(complex))
