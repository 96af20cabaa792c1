"""Weight validation, the two-variable geometric mean, the Kantorovich constant."""

import numpy as np

from . import _kernels as _k
from .hermitian import _as_array, require_positive, require_spd_pair

WEIGHT_SUM_TOL = 1e-12


def validate_weights(weights, name="weights"):
    """``weights``, a strictly positive probability vector of real numbers by
    the package's one rule for numbers (``hermitian._as_array``), as float64."""
    w = _as_array(weights, name, 1, real=True)
    if w.size == 0:
        raise ValueError(f"{name}: expected a non-empty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name}: entries must be finite")
    if np.any(w <= 0):
        j = int(np.argmin(w))
        raise ValueError(f"{name}[{j}] = {w[j]:.6g} is not strictly positive")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"{name}: sum to {total!r}, must be 1 within {WEIGHT_SUM_TOL}")
    return np.ascontiguousarray(w)


def geometric_mean(a, b):
    """Geometric mean a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} of SPD a, b.

    The unique SPD solution X of X a^{-1} X = b; midpoint of the Riemannian
    geodesic between a and b.
    """
    return _k.geometric_mean(*require_spd_pair(a, b))


def kantorovich(p, q):
    """Kantorovich constant (p+q)^2 / (4pq) for spectral bounds p <= q that
    meet ``require_positive``.

    Equals (r+1)^2 / (4r) at r = q/p; 1 at r = 1, nondecreasing in r.
    """
    p, q = require_positive(p, "p"), require_positive(q, "q")
    if p > q:
        raise ValueError(f"need p <= q, got p={p}, q={q}")
    return (p + q) ** 2 / (4.0 * p * q)
