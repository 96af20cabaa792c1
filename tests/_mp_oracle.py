"""Extended-precision reference values, for tests only (needs ``mpmath``).

The mean-equation residual ||I - sum_j w_j (A_j # x^{-1})||_F of a float
candidate x, float weights and float matrices, each taken exactly, evaluated
at 40 significant digits through Hermitian eigendecompositions:
A_j # x^{-1} = x^{-1/2} (x^{1/2} A_j x^{1/2})^{1/2} x^{-1/2}. Meant for
m <= 8, where one residual costs well under a second.
"""

import mpmath

DIGITS = 40


def _mp(a):
    """The mpmath copy of a complex NumPy matrix, entry for entry."""
    return mpmath.matrix([[complex(v) for v in row] for row in a])


def _spectral(a, f):
    """Q diag(f(E)) Q* for the eigendecomposition (E, Q) of the Hermitian a."""
    e, q = mpmath.eighe((a + a.H) / 2)
    return q * mpmath.diag([f(v) for v in e]) * q.H


def mean_equation_residual(x, mats, weights):
    """||I - sum_j w_j (A_j # x^{-1})||_F at ``DIGITS`` digits, as a float."""
    with mpmath.workdps(DIGITS):
        xm = _mp(x)
        root = _spectral(xm, mpmath.sqrt)
        inv_root = _spectral(xm, lambda v: 1 / mpmath.sqrt(v))
        m = xm.rows
        acc = mpmath.zeros(m, m)
        for w, a in zip(weights, mats):
            acc += mpmath.mpf(float(w)) * (
                inv_root * _spectral(root * _mp(a) * root, mpmath.sqrt) * inv_root
            )
        return float(mpmath.mnorm(mpmath.eye(m) - acc, "f"))
