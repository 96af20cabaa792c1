"""Hot numeric kernels: spectral matrix functions, the two-variable geometric
mean, the Bures-Wasserstein transport map with the squared distance built on
it, and the barycenter loop, whose zero steps are the mean equation's residual.

Every kernel works on stacks: an argument is one (m, m) matrix or an
(n, m, m) stack, a second argument broadcasts against the first, and one
batched ``eigh`` serves the whole stack, so per-call LAPACK overhead is paid
once per stack rather than once per matrix. Kernels do no validation: they
take C-contiguous complex128 arrays of already-symmetrized Hermitian matrices
and return arrays of the broadcast shape.

The barycenter loop, in the Cholesky frame x = LL* of its iterate, takes a
leading ensemble axis and nothing else: S ensembles of one (n, m, m) shape
iterate in one stack, each stopping at its own iterate, so a batch of tiny
solves pays the per-call overhead once per iterate of the batch rather than
once per iterate of each solve. A lone solve is a batch of one.
"""

import numpy as np

# Solver status codes shared with barycenter.py.
SOLVE_CONVERGED = 0
SOLVE_MAX_ITER = 1
SOLVE_BREAKDOWN = 2

# Round-off below zero in the spectrum of a congruence is clamped to 0 within
# this share of its largest eigenvalue before the square root; anything worse is
# an error. At m = 32 to 50 with spectra in [0.5, 100] the round-off stays below
# 3e-15 of that scale.
_NEGATIVE_CLAMP = 1e-12


def _adjoint(a):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def hermitianize(a):
    """Hermitian part (a + a*) / 2 of a matrix or of each matrix in a stack;
    kills round-off asymmetry."""
    return (a + _adjoint(a)) * 0.5


def weighted_sum(weights, stack):
    """sum_j weights[j] * stack[j], accumulated in index order; with (S, n)
    weights and an (S, n, m, m) stack, one such sum per ensemble."""
    return (weights[..., None, None] * stack).sum(axis=-3)


def kron(a, b):
    """``np.kron`` of each pair of matrices of two stacks, their leading axes
    broadcast, bit for bit: the one Kronecker layout."""
    pairs = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, p, cols, q = pairs.shape[-4:]
    return pairs.reshape(*pairs.shape[:-4], rows * p, cols * q)


def _fro(a):
    """Frobenius norm of a matrix or of each matrix in a stack."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def _from_spectrum(v, f):
    """v diag(f) v* for eigenvectors v and spectrum values f (stack-aware)."""
    return hermitianize((v * f[..., None, :]) @ _adjoint(v))


def spd_power(a, t):
    """a**t for Hermitian positive definite a (or each matrix of a stack)
    via eigendecomposition."""
    w, v = np.linalg.eigh(a)
    return _from_spectrum(v, w**t)


def log_det(a):
    """log det(a) of a positive definite matrix (or of each matrix of a
    stack) as a sum of eigenvalue logs, with no determinant overflow."""
    return np.log(np.linalg.eigvalsh(a)).sum(axis=-1)


def _cholesky_fails(a):
    """Whether LAPACK refuses the Cholesky factor of the matrix a."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return True
    return False


def _congruence_root(c):
    """c^{1/2} for a congruence c = s b s of positive definite matrices (or
    each of a stack), its eigenvalues below zero clamped to 0 as round-off
    within ``_NEGATIVE_CLAMP`` times its largest, and raising beyond."""
    w, v = np.linalg.eigh(c)
    if (w[..., 0] < -_NEGATIVE_CLAMP * w[..., -1]).any():
        raise ValueError(f"congruence root: eigenvalue {w[..., 0].min():.3e} below zero")
    return _from_spectrum(v, np.sqrt(np.maximum(w, 0.0)))


def geometric_mean(a, b):
    """Geometric mean a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} of SPD
    matrices, ``b`` broadcast against ``a``."""
    w, v = np.linalg.eigh(a)
    rs, ris = _from_spectrum(v, np.sqrt(w)), _from_spectrum(v, 1.0 / np.sqrt(w))
    mid = _congruence_root(hermitianize(ris @ b @ ris))
    return hermitianize(rs @ mid @ rs)


def _transport(a, b):
    """(L, M) with a = L L* (Cholesky) and M = L^{-*} (L* b L)^{1/2}, ``b``
    broadcast against ``a``. M = T L for the transport map
    T = L^{-*} (L* b L)^{1/2} L^{-1} from a to b (T a T = b), so M M* = b and
    L* M = (L* b L)^{1/2}; the geodesic and the distance are built from it."""
    low = np.linalg.cholesky(a)
    up = _adjoint(low)
    return low, np.linalg.solve(up, _congruence_root(hermitianize(up @ b @ low)))


def bw_gap(a, b):
    """Squared Bures-Wasserstein distance d^2(a, b) = ||M - L||_F^2 / 2 from
    ``_transport``: a norm, never below zero, and free of the cancelling
    difference tr((a+b)/2) - tr((a^{1/2} b a^{1/2})^{1/2}) it equals. One value
    per matrix pair, ``b`` broadcast against ``a``; a pair of equal matrices
    has the value 0 exactly, which the root's round-off would miss."""
    low, mid = _transport(a, b)
    gap = 0.5 * (np.abs(mid - low) ** 2).sum(axis=(-2, -1))
    return np.where((a == b).all(axis=(-2, -1)), 0.0, gap)[()]


def mean_equation_residual(x, mats, weights):
    """||I - sum_j w_j (A_j # x^{-1})||_F at x (m, m) of an (n, m, m) ensemble,
    or per x of (S, m, m) and (S, n, m, m) stacks: zero steps of the solver
    from x, so a converged solve's residual at its mean, bit for bit. Raises
    ``ValueError`` where x or a congruence L* A_j L is not positive definite."""
    lone = x.ndim == 2
    x, mats, weights = (a[None] if lone else a for a in (x, mats, weights))
    _, _, res, status = wasserstein_solve(mats, weights, 0, 0.0, x)
    if (status == SOLVE_BREAKDOWN).any():
        raise ValueError("mean equation residual: a candidate or a congruence L* A_j L "
                         "is not positive definite")
    return res[0] if lone else res


def wasserstein_solve(mats, weights, max_iter, tol, start=None):
    """Fixed-point loop for the barycenters of S ensembles of one shape:
    ``mats`` (S, n, m, m) and ``weights`` (S, n); a lone ensemble is a batch
    of one.

    The loop starts from the Hermitian ``start`` (S, m, m), or if it is None
    from the weighted arithmetic mean, an upper bound of the barycenter in
    the Loewner order. Per iterate x = L L* (Cholesky), two
    products give the congruences L* a_j L, one batched ``eigh`` their roots,
    and one (m, nm) (nm, m) product, the weights folded into the spectra,
    s = sum_j w_j (L* a_j L)^{1/2}. With G = L^{-*} s, the residual is
    ||I - k||_F for k = L^{-*} G* = sum_j w_j (a_j # x^{-1}), and the update
    is the damped map x' = k x k = G G*, which converges globally. Summation
    order is the matrix index order, fixed for determinism.

    Every ensemble stops at its own iterate: a finished one is written to the
    outputs and dropped from the working stack, and the others go on. Batched
    ``cholesky``, ``eigh``, ``solve`` and ``matmul`` run the same per-matrix
    LAPACK and BLAS calls whatever the batch, so each ensemble's outputs do
    not depend on its batch-mates, bit for bit.

    Returns arrays with one entry per ensemble: (best iterate, update steps
    taken, best residual, status) with status 0 converged / 1 iteration
    budget exhausted / 2 loss of positivity (an iterate whose Cholesky
    factorisation is refused, or a congruence with an eigenvalue below zero).
    """
    count, n, m = mats.shape[:3]
    eye = np.eye(m, dtype=np.complex128)
    x = best_x = hermitianize(weighted_sum(weights, mats)) if start is None else start
    # [a_1 ... a_n] side by side: L* a_j L for every j is then two products.
    wide = mats.swapaxes(1, 2).reshape(count, m, n * m)
    out_x = np.empty_like(x)
    out_iters = np.empty(count, dtype=np.intp)
    out_res = np.empty(count)
    out_status = np.empty(count, dtype=np.intp)
    # The working stack: the ensembles still iterating, ``rows`` their rows
    # in the outputs.
    rows = np.arange(count)
    best_res = np.full(count, np.inf)

    def retire(done, status, it, *extra):
        """Write the flagged ensembles' best iterates to the outputs, drop
        them from the working stack, and return ``extra`` without their rows."""
        nonlocal rows, wide, weights, x, best_x, best_res
        idx = rows[done]
        out_x[idx] = best_x[done]
        out_res[idx] = best_res[done]
        out_iters[idx] = it
        out_status[idx] = status
        keep = ~done
        rows, wide, weights, x, best_x, best_res = (
            a[keep] for a in (rows, wide, weights, x, best_x, best_res)
        )
        return [a[keep] for a in extra]

    for it in range(max_iter + 1):
        try:
            low = np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            retire(np.array([_cholesky_fails(a) for a in x]), SOLVE_BREAKDOWN, it)
            if not rows.size:
                break
            low = np.linalg.cholesky(x)
        up = _adjoint(low)
        stacked = (up @ wide).reshape(-1, m, n, m).swapaxes(1, 2).reshape(-1, n * m, m)
        cw, cv = np.linalg.eigh(hermitianize((stacked @ low).reshape(-1, n, m, m)))
        # Round-off can push a congruence eigenvalue below zero on badly
        # conditioned data; its square root would be NaN.
        if cw[..., 0].min() < 0.0:
            up, cw, cv = retire((cw[..., 0] < 0.0).any(axis=-1), SOLVE_BREAKDOWN, it, up, cw, cv)
            if not rows.size:
                break
        scaled = cv * (weights[..., None] * np.sqrt(cw))[..., None, :]
        s = scaled.swapaxes(1, 2).reshape(-1, m, n * m) @ _adjoint(cv).reshape(-1, n * m, m)
        g = np.linalg.solve(up, s)
        res = _fro(eye - np.linalg.solve(up, _adjoint(g)))
        improved = res < best_res
        best_x = np.where(improved[:, None, None], x, best_x)
        best_res = np.where(improved, res, best_res)
        done = res <= tol
        if done.any():
            (g,) = retire(done, SOLVE_CONVERGED, it, g)
        if it == max_iter:
            retire(np.ones(rows.size, dtype=bool), SOLVE_MAX_ITER, it)
        if not rows.size:
            break
        x = hermitianize(g @ _adjoint(g))
    return out_x, out_iters, out_res, out_status
