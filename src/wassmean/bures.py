"""Bures-Wasserstein distance between positive definite matrices and its
geodesic."""

import numpy as np

from . import _kernels as _k
from .hermitian import _real, hermitianize, require_spd_pair


def bw_distance(a, b):
    """Bures-Wasserstein distance between positive definite matrices.

    .. math::
        d(a, b) = \\left[ \\mathrm{tr}\\frac{a+b}{2}
                  - \\mathrm{tr}(a^{1/2} b a^{1/2})^{1/2} \\right]^{1/2}
                = \\frac{1}{\\sqrt{2}} \\| M - L \\|_F

    with a = L L* (Cholesky) and M = L^{-*} (L* b L)^{1/2} = T L for the
    transport map T of ``geodesic``. The norm has no difference of traces to
    cancel, so near-equal arguments keep their relative accuracy.

    Parameters
    ----------
    a, b : ndarray, shape (m, m)
        Positive definite matrices.

    Returns
    -------
    float
        The distance; 0 for equal arguments. The congruence root follows the
        round-off rule of ``geodesic``: an eigenvalue of L* b L below zero by
        less than 1e-12 of its largest is clamped, anything worse raises.
    """
    am, bm = require_spd_pair(a, b)
    return float(np.sqrt(_k.bw_gap(am, bm)))


def geodesic(a, b, t):
    """Point on the Bures-Wasserstein geodesic from ``a`` to ``b``.

    .. math::
        a \\diamond_t b = (1-t)^2 a + t^2 b
                          + t(1-t)\\left[(ab)^{1/2} + (ba)^{1/2}\\right]
                        = S a S, \\quad S = (1-t) I + t T

    with the transport map T = a^{-1/2}(a^{1/2} b a^{1/2})^{1/2} a^{-1/2}
    (T a T = b), as in Bhatia, Jain and Lim, Expo. Math. 2019. With a = L L*
    (Cholesky), T = L^{-*} R L^{-1} for R = (L* b L)^{1/2}, so the point is
    P P* with P = S L = (1-t) L + t M and M = T L = L^{-*} R, the pair that
    ``bw_distance`` shares; it is positive semidefinite by construction.

    Parameters
    ----------
    a, b : ndarray, shape (m, m)
        Positive definite endpoints.
    t : float
        Position in [0, 1]; 0 gives ``a``, 1 gives ``b``. A bool or a
        non-real value is refused.

    Returns
    -------
    ndarray, shape (m, m)
        Positive definite point at constant-speed parameter ``t``.
    """
    if not 0.0 <= _real(t, "t") <= 1.0:
        raise ValueError(f"geodesic parameter t={t} outside [0, 1]")
    low, mid = _k._transport(*require_spd_pair(a, b))
    step = (1 - t) * low + t * mid
    return hermitianize(step @ _k._adjoint(step))
