"""Hot numeric kernels: spectral matrix functions, the two-variable geometric
mean, the Bures-Wasserstein trace gap, and the barycenter fixed-point loop.

Every kernel works on stacks: an argument is one (m, m) matrix or an
(n, m, m) stack, a second argument broadcasts against the first, and one
batched ``eigh`` serves the whole stack, so per-call LAPACK overhead is paid
once per stack rather than once per matrix. Kernels do no validation: they
take C-contiguous complex128 arrays of already-symmetrized Hermitian matrices
and return arrays of the broadcast shape.
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
    """sum_j weights[j] * stack[j], accumulated in index order."""
    return (weights[:, None, None] * stack).sum(axis=0)


def _fro(a):
    return np.sqrt(np.sum(np.abs(a) ** 2))


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
    under ``weights``.

    Per iterate x the map evaluates s = sum_j w_j (x^{1/2} a_j x^{1/2})^{1/2}
    and k = x^{-1/2} s x^{-1/2} = sum_j w_j (a_j # x^{-1}); the residual is
    ||I - k||_F. One ``eigh`` of x and one batched ``eigh`` of the n
    congruences x^{1/2} a_j x^{1/2} serve an iterate. The update is the
    damped map x' = k x k, which converges globally. Summation order is the
    matrix index order, fixed for determinism.

    The congruences' eigenvalues also give the root traces
    t_j = tr (x^{1/2} a_j x^{1/2})^{1/2}, so d^2(x, a_j) = tr((x + a_j)/2) - t_j
    at the best iterate costs no further eigen-solve.

    Returns (best iterate, update steps taken, best residual, status, root
    traces t_j at the best iterate) with status 0 converged / 1 iteration
    budget exhausted / 2 loss of positivity.
    """
    eye = np.eye(mats.shape[1], dtype=np.complex128)
    x = x0.copy()
    best_x = x0.copy()
    best_traces = np.full(mats.shape[0], np.nan)
    best_res = np.inf
    status = SOLVE_MAX_ITER
    iters = 0
    for it in range(max_iter + 1):
        w, v = np.linalg.eigh(x)
        if w[0] <= 0.0:
            status = SOLVE_BREAKDOWN
            break
        rs, ris = _roots(w, v)
        cw, cv = np.linalg.eigh(hermitianize(rs @ mats @ rs))
        s = weighted_sum(weights, _from_spectrum(cv, cw**0.5))
        k = hermitianize(ris @ s @ ris)
        res = _fro(eye - k)
        if res < best_res:
            best_res = res
            best_x = x.copy()
            best_traces = np.sqrt(np.maximum(cw, 0.0)).sum(axis=-1)
        if res <= tol:
            status = SOLVE_CONVERGED
            break
        if it == max_iter:
            break
        x = hermitianize(k @ x @ k)
        iters += 1
    return best_x, iters, best_res, status, best_traces
