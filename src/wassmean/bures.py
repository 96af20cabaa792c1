"""Bures-Wasserstein distance between positive definite matrices and its
geodesic."""

import numpy as np

from . import _kernels as _k
from ._kernels import _NEGATIVE_CLAMP
from .hermitian import _real, hermitianize, require_spd_pair


def _distance_scale(a, b):
    """tr((a+b)/2), the scale of d^2(a, b); one value per pair for stacks."""
    return 0.5 * (np.trace(a, axis1=-2, axis2=-1).real + np.trace(b, axis1=-2, axis2=-1).real)


def _clamped_sqrt(gap, scale):
    """sqrt(gap), clamping round-off below zero by at most
    ``_NEGATIVE_CLAMP * scale`` to 0 and raising on anything worse."""
    floor = _NEGATIVE_CLAMP * scale
    if gap < -floor:
        raise ValueError(f"distance: squared value {gap:.6e} below -{floor:.3e}")
    return float(np.sqrt(max(gap, 0.0)))


def bw_distance(a, b):
    """Bures-Wasserstein distance between positive definite matrices.

    .. math::
        d(a, b) = \\left[ \\mathrm{tr}\\frac{a+b}{2}
                  - \\mathrm{tr}(a^{1/2} b a^{1/2})^{1/2} \\right]^{1/2}

    Parameters
    ----------
    a, b : ndarray, shape (m, m)
        Positive definite matrices.

    Returns
    -------
    float
        The distance; 0 for equal arguments. Round-off driving the bracket
        below zero by less than 1e-12 * tr((a+b)/2) is clamped, anything
        worse raises.
    """
    am, bm = require_spd_pair(a, b)
    return _clamped_sqrt(_k.bw_gap(am, bm), _distance_scale(am, bm))


def geodesic(a, b, t):
    """Point on the Bures-Wasserstein geodesic from ``a`` to ``b``.

    .. math::
        a \\diamond_t b = (1-t)^2 a + t^2 b
                          + t(1-t)\\left[(ab)^{1/2} + (ba)^{1/2}\\right]
                        = M a M, \\quad M = (1-t) I + t T

    with the transport map T = a^{-1/2}(a^{1/2} b a^{1/2})^{1/2} a^{-1/2}
    (T a T = b), as in Bhatia, Jain and Lim, Expo. Math. 2019. One
    eigendecomposition of ``a`` gives a^{1/2} and a^{-1/2}.

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
    am, bm = require_spd_pair(a, b)
    rs, ris = _k._roots(*np.linalg.eigh(am))
    transport = hermitianize(ris @ _k._congruence_root(hermitianize(rs @ bm @ rs)) @ ris)
    step = (1 - t) * np.eye(am.shape[0], dtype=np.complex128) + t * transport
    return hermitianize(step @ am @ step)
