import numpy as np
import pytest

from wassmean import _kernels as k
from wassmean.means import validate_weights
from wassmean.seeded import random_spd


def _stack(seeds, m=3, lo=0.5, hi=2.0):
    return np.stack([random_spd(m, seed=s, eig_lo=lo, eig_hi=hi) for s in seeds])


def _solve_one(mats, weights, max_iter, tol):
    """The kernel's solve of one ensemble: a batch of one, unbatched."""
    x, iters, res, status = k.wasserstein_solve(mats[None], weights[None], max_iter, tol)
    return x[0], int(iters[0]), res[0], int(status[0])


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
        for j in range(n):
            s = s + weights[j] * _spd_power(_sym(rs @ mats[j] @ rs), 0.5)
        k_ = _sym(ris @ s @ ris)
        res = _fro(eye - k_)
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res <= tol:
            status = k.SOLVE_CONVERGED
            break
        if it == max_iter:
            break
        x = _sym(k_ @ x @ k_)
        iters += 1
    return best_x, iters, best_res, status


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


def _loop_objective(x, mats, weights):
    # sum_j w_j d^2(x, A_j) / 2 by the difference of traces, one root per matrix.
    rs = _spd_power(x, 0.5)
    return sum(
        w * (0.5 * np.trace(x + a).real - np.trace(_spd_power(_sym(rs @ a @ rs), 0.5)).real)
        for w, a in zip(weights, mats)
    )


@pytest.mark.parametrize("m,n,lo,hi,seed", CASES)
def test_solver_objective_matches_loop_reference(m, n, lo, hi, seed):
    # The objective of the returned best iterate through the transport kernel
    # against the difference of traces at the loop's best iterate. The
    # objective is far from 0 here, so the traces do not cancel; the worst
    # measured relative difference over these cases is 6.6e-14.
    mats, w = _case(m, n, lo, hi, seed)
    got = w @ k.bw_gap(_solve_one(mats, w, 200, 1e-11)[0], mats)
    want = _loop_objective(loop_solve(mats, w, _start(mats, w), 200, 1e-11)[0], mats, w)
    assert got == pytest.approx(want, rel=1e-12)


def test_unconverged_solve_returns_best_iterate():
    # A solve that runs out of iterations returns the iterate of least
    # residual, as the loop reference keeps it, with that residual.
    mats, w = _case(5, 16, 1e-3, 1e3, 0)
    x, iters, res, status = _solve_one(mats, w, 3, 1e-11)
    want = loop_solve(mats, w, _start(mats, w), 3, 1e-11)
    assert status == want[3] == k.SOLVE_MAX_ITER
    assert iters == want[1] == 3
    assert _rel(x, want[0]) <= 1e-13
    assert res == pytest.approx(want[2], rel=1e-12)


def test_gap_of_near_equal_pairs_is_never_negative(log_uniform):
    # B = cA with c within 1e-12 of 1: the difference of traces went below
    # zero on 52 of these 120 pairs; the transport norm cannot.
    for seed in range(40):
        a = log_uniform(2 + seed % 5, seed)
        for c in (1 + 1e-12, 1 + 1e-14, 1 - 1e-14):
            assert k.bw_gap(a, c * a) >= 0.0


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


def test_solver_iterates_in_the_cholesky_frame(linalg_calls):
    # Each iterate takes one Cholesky factor of x and one batched eigh of the
    # congruences L* A_j L, and no eigh of x itself.
    mats, w = _case(5, 16, 0.05, 20.0, 0)
    iters, status = _solve_one(mats, w, 200, 1e-11)[1::2]
    assert status == k.SOLVE_CONVERGED
    assert linalg_calls == [("cholesky", (1, 5, 5)), ("eigh", (1, 16, 5, 5))] * (iters + 1)


def test_solver_bitwise_deterministic():
    mats = _stack([10, 11])
    w = validate_weights([0.4, 0.6])
    first = _solve_one(mats, w, 200, 1e-11)
    second = _solve_one(mats, w, 200, 1e-11)
    assert np.array_equal(first[0], second[0])
    assert first[1:] == second[1:]


# ---------------------------------------------------------------------------
# Leading ensemble axis: each ensemble of a batch must get exactly the outputs
# of its own solve.
# ---------------------------------------------------------------------------

def _assert_batch_matches_singles(mats, weights, max_iter):
    batch = k.wasserstein_solve(mats, weights, max_iter, 1e-11)
    assert [a.shape[0] for a in batch] == [mats.shape[0]] * 4
    for i in range(mats.shape[0]):
        x, iters, res, status = _solve_one(mats[i], weights[i], max_iter, 1e-11)
        assert np.array_equal(batch[0][i], x)
        assert batch[1][i] == iters
        assert batch[2][i] == res or (np.isinf(res) and np.isinf(batch[2][i]))
        assert batch[3][i] == status
    return batch[3]


# Well and badly conditioned log-uniform 3x3 ensembles of four, drawn by the
# tests' own generator so that no change to the package's seeding moves them:
# the first three converge after 6, 5 and 6 iterations, the other two after
# 15 each. At max_iter 6 two solves converge on the last iterate allowed and
# the last two run out.
MIXED_SPECTRA = ((0.5, 2.0, 0), (0.5, 2.0, 1), (0.5, 2.0, 2), (1e-2, 1e2, 3), (1e-2, 1e2, 4))


@pytest.mark.parametrize("max_iter,statuses", [
    (200, [k.SOLVE_CONVERGED] * 5),
    (6, [k.SOLVE_CONVERGED] * 3 + [k.SOLVE_MAX_ITER] * 2),
    (3, [k.SOLVE_MAX_ITER] * 5),
])
def test_batched_solver_equals_single_solves_bitwise(log_uniform, max_iter, statuses):
    mats = np.stack([
        np.stack([log_uniform(3, 100 * seed + j, lo, hi) for j in range(4)])
        for lo, hi, seed in MIXED_SPECTRA
    ])
    weights = np.stack([_case(3, 4, 0.5, 2.0, seed)[1] for seed in range(5)])
    assert list(_assert_batch_matches_singles(mats, weights, max_iter)) == statuses


def test_negative_congruence_eigenvalue_is_a_breakdown(breakdown_mats):
    w = np.full(6, 1.0 / 6.0)
    _, iters, _, status = _solve_one(breakdown_mats, w, 200, 1e-11)
    assert status == k.SOLVE_BREAKDOWN
    assert iters == 1


def test_breakdown_in_a_batch_leaves_its_group_mates_intact(breakdown_mats):
    good = [_stack(range(10 * s, 10 * s + 6), m=8, lo=0.05, hi=20.0) for s in range(3)]
    mats = np.stack([good[0], breakdown_mats, good[1], good[2]])
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


def test_an_indefinite_start_retires_at_iterate_zero():
    # Kernels trust their input: an ensemble whose arithmetic mean, the
    # first iterate, is indefinite breaks down before any update, and its
    # batch-mate solves as it does alone.
    good = _stack(range(2), m=2)
    bad = np.stack([np.diag([1.0, -3.0]), np.eye(2)]).astype(complex)
    weights = np.full((2, 2), 0.5)
    statuses = _assert_batch_matches_singles(np.stack([bad, good]), weights, 200)
    assert list(statuses) == [k.SOLVE_BREAKDOWN, k.SOLVE_CONVERGED]
    _, iters, res, _ = k.wasserstein_solve(np.stack([bad, good]), weights, 200, 1e-11)
    assert iters[0] == 0 and np.isinf(res[0])


NOT_POSITIVE = (r"^mean equation residual: a candidate or a congruence L\* A_j L "
                r"is not positive definite$")


def test_residual_of_a_candidate_that_loses_positivity_is_an_error(breakdown_mats):
    # Zero steps of the solver from the candidate: where the solver would
    # break down, the residual raises, and never reads inf or NaN. First the
    # indefinite start of the test above, whose Cholesky factor is refused.
    bad = np.stack([np.diag([1.0, -3.0]), np.eye(2)]).astype(complex)
    w = np.full(2, 0.5)
    with pytest.raises(ValueError, match=NOT_POSITIVE):
        k.mean_equation_residual(k.hermitianize(k.weighted_sum(w, bad)), bad, w)
    # Then the first iterate of the breakdown solve, positive definite, whose
    # congruence L* A_1 L has an eigenvalue below zero.
    w = np.full(6, 1.0 / 6.0)
    low = np.linalg.cholesky(k.hermitianize(k.weighted_sum(w, breakdown_mats)))
    roots = k.spd_power(k.hermitianize(k._adjoint(low) @ breakdown_mats @ low), 0.5)
    g = np.linalg.solve(k._adjoint(low), k.weighted_sum(w, roots))
    x = k.hermitianize(g @ k._adjoint(g))
    low = np.linalg.cholesky(x)
    assert np.linalg.eigvalsh(k.hermitianize(k._adjoint(low) @ breakdown_mats[0] @ low))[0] < 0
    with pytest.raises(ValueError, match=NOT_POSITIVE):
        k.mean_equation_residual(x, breakdown_mats, w)


def test_kron_equals_np_kron_bitwise_on_broadcast_stacks():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 1, 2, 3)) + 1j * rng.standard_normal((3, 1, 2, 3))
    b = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    got = k.kron(a, b)
    assert got.shape == (3, 4, 6, 6)
    for i in range(3):
        for j in range(4):
            assert got[i, j].tobytes() == np.kron(a[i, 0], b[j]).tobytes()
    assert k.kron(a[0, 0], b[0]).tobytes() == np.kron(a[0, 0], b[0]).tobytes()
