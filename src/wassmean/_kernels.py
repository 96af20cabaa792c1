"""Hot numeric kernels: spectral matrix functions, the two-variable geometric
mean, the Bures-Wasserstein trace gap, and the barycenter fixed-point loop.

Every kernel works on stacks: an argument is one (m, m) matrix or an
(n, m, m) stack, a second argument broadcasts against the first, and one
batched ``eigh`` serves the whole stack, so per-call LAPACK overhead is paid
once per stack rather than once per matrix. Kernels do no validation: they
take C-contiguous complex128 arrays of already-symmetrized Hermitian matrices
and return arrays of the broadcast shape.

The barycenter loop also takes a leading ensemble axis: S ensembles of the
same (n, m, m) shape iterate in one stack, each stopping at its own iterate,
so a batch of tiny solves pays the per-call overhead once per iterate of the
batch rather than once per iterate of each solve.
"""

import numpy as np

# Solver status codes shared with barycenter.py.
SOLVE_CONVERGED = 0
SOLVE_MAX_ITER = 1
SOLVE_BREAKDOWN = 2


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


def _roots(w, v):
    """a^{1/2} and a^{-1/2} from the eigendecomposition (w, v) of a."""
    sw = np.sqrt(w)
    return _from_spectrum(v, sw), _from_spectrum(v, 1.0 / sw)


def geometric_mean(a, b):
    """Geometric mean a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} of SPD
    matrices, ``b`` broadcast against ``a``."""
    rs, ris = _roots(*np.linalg.eigh(a))
    mid = spd_power(hermitianize(ris @ b @ ris), 0.5)
    return hermitianize(rs @ mid @ rs)


def bw_gap(a, b):
    """tr((a+b)/2) - tr((a^{1/2} b a^{1/2})^{1/2}), the squared distance
    before non-negativity clamping; one value per matrix pair, ``b``
    broadcast against ``a``."""
    rs = spd_power(a, 0.5)
    w = np.linalg.eigvalsh(hermitianize(rs @ b @ rs))
    tr_cross = np.sqrt(np.maximum(w, 0.0)).sum(axis=-1)
    tr_ab = np.trace(a, axis1=-2, axis2=-1).real + np.trace(b, axis1=-2, axis2=-1).real
    return 0.5 * tr_ab - tr_cross


def mean_equation_residual(x, mats, weights):
    """Frobenius norm of I - sum_j w_j (A_j # x^{-1}), geometric means taken
    directly (independent of the solver's congruence shortcut)."""
    xinv = spd_power(x, -1.0)
    acc = weighted_sum(weights, geometric_mean(mats, xinv))
    return _fro(np.eye(x.shape[0], dtype=np.complex128) - acc)


def wasserstein_solve(mats, weights, x0, max_iter, tol):
    """Fixed-point loop for the barycenter of the (n, m, m) stack ``mats``
    under ``weights``, or for S such ensembles at once: ``mats`` (S, n, m, m),
    ``weights`` (S, n) and ``x0`` (S, m, m).

    Per iterate x the map evaluates s = sum_j w_j (x^{1/2} a_j x^{1/2})^{1/2}
    and k = x^{-1/2} s x^{-1/2} = sum_j w_j (a_j # x^{-1}); the residual is
    ||I - k||_F. One ``eigh`` of x and one batched ``eigh`` of the n
    congruences x^{1/2} a_j x^{1/2} serve an iterate. The update is the
    damped map x' = k x k, which converges globally. Summation order is the
    matrix index order, fixed for determinism.

    The congruences' eigenvalues also give the root traces
    t_j = tr (x^{1/2} a_j x^{1/2})^{1/2}, so d^2(x, a_j) = tr((x + a_j)/2) - t_j
    at the best iterate costs no further eigen-solve.

    With a leading ensemble axis every ensemble stops at its own iterate: a
    finished one is written to the outputs and dropped from the working
    stack, and the others go on. Batched ``eigh`` and ``matmul`` run the same
    per-matrix LAPACK and BLAS calls as the single solve, so each ensemble's
    outputs equal its own solve bit for bit.

    Returns (best iterate, update steps taken, best residual, status, root
    traces t_j at the best iterate) with status 0 converged / 1 iteration
    budget exhausted / 2 loss of positivity (an iterate, or a congruence, with
    an eigenvalue below zero). With the ensemble axis each is an array with
    one entry per ensemble.
    """
    single = mats.ndim == 3
    if single:
        mats, weights, x0 = mats[None], weights[None], x0[None]
    count, n, m = mats.shape[:3]
    eye = np.eye(m, dtype=np.complex128)
    out_x = np.empty_like(x0)
    out_iters = np.empty(count, dtype=np.intp)
    out_res = np.empty(count)
    out_status = np.empty(count, dtype=np.intp)
    out_traces = np.empty((count, n))
    # The working stack: the ensembles still iterating, ``rows`` their rows
    # in the outputs. Iterates are never written in place, so the best ones
    # are kept by reference until some ensemble fails to improve.
    rows = np.arange(count)
    wb = weights[:, :, None, None]
    x = best_x = x0.copy()
    best_res = np.full(count, np.inf)
    best_traces = np.full((count, n), np.nan)

    def retire(done, status, it, *extra):
        """Write the flagged ensembles' best iterates to the outputs, drop
        them from the working stack, and return ``extra`` without their rows."""
        nonlocal rows, mats, wb, x, best_x, best_res, best_traces
        idx = rows[done]
        out_x[idx] = best_x[done]
        out_res[idx] = best_res[done]
        out_traces[idx] = best_traces[done]
        out_iters[idx] = it
        out_status[idx] = status
        keep = ~done
        rows, mats, wb, x, best_x, best_res, best_traces = (
            a[keep] for a in (rows, mats, wb, x, best_x, best_res, best_traces)
        )
        return [a[keep] for a in extra]

    for it in range(max_iter + 1):
        w, v = np.linalg.eigh(x)
        if w[:, 0].min() <= 0.0:
            w, v = retire(w[:, 0] <= 0.0, SOLVE_BREAKDOWN, it, w, v)
            if not rows.size:
                break
        rs, ris = _roots(w, v)
        cw, cv = np.linalg.eigh(hermitianize(rs[:, None] @ mats @ rs[:, None]))
        # Round-off can push a congruence eigenvalue below zero on badly
        # conditioned data; its square root would be NaN.
        if cw[..., 0].min() < 0.0:
            ris, cw, cv = retire((cw[..., 0] < 0.0).any(axis=-1), SOLVE_BREAKDOWN, it, ris, cw, cv)
            if not rows.size:
                break
        roots = np.sqrt(cw)
        s = (wb * _from_spectrum(cv, roots)).sum(axis=1)
        k = hermitianize(ris @ s @ ris)
        res = _fro(eye - k)
        traces = roots.sum(axis=-1)
        improved = res < best_res
        if improved.all():
            best_x, best_res, best_traces = x, res, traces
        else:
            np.copyto(best_x, x, where=improved[:, None, None])
            np.copyto(best_res, res, where=improved)
            np.copyto(best_traces, traces, where=improved[:, None])
        done = res <= tol
        if done.any():
            (k,) = retire(done, SOLVE_CONVERGED, it, k)
        if it == max_iter:
            retire(np.ones(rows.size, dtype=bool), SOLVE_MAX_ITER, it)
        if not rows.size:
            break
        x = hermitianize(k @ x @ k)
    if single:
        return out_x[0], int(out_iters[0]), out_res[0], int(out_status[0]), out_traces[0]
    return out_x, out_iters, out_res, out_status, out_traces
