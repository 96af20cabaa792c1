"""Two-variable geometric mean, weighted arithmetic mean, Kantorovich constant."""

import numpy as np

from . import _kernels as _k
from .hermitian import hermitianize, require_spd_pair, require_spd_stack

WEIGHT_SUM_TOL = 1e-12


def validate_weights(weights, name="weights"):
    """Validate a strictly positive probability vector of real numbers (no
    strings, bools or other objects), returned as float64."""
    try:
        raw = np.asarray(weights)
    except ValueError:  # ragged nesting
        raise ValueError(f"{name}: expected a non-empty 1-d vector") from None
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"{name}: expected real numbers, got dtype {raw.dtype}")
    w = raw.astype(np.float64, copy=False)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name}: expected a non-empty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name}: entries must be finite")
    if np.any(w <= 0):
        j = int(np.argmin(w))
        raise ValueError(f"{name}[{j}] = {w[j]:.6g} is not strictly positive")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"{name}: sum to {total:.6g}, must be 1 within {WEIGHT_SUM_TOL}")
    return np.ascontiguousarray(w)


def geometric_mean(a, b):
    """Geometric mean a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} of SPD a, b.

    The unique SPD solution X of X a^{-1} X = b; midpoint of the Riemannian
    geodesic between a and b.
    """
    return _k.geometric_mean(*require_spd_pair(a, b))


def arithmetic_mean(weights, mats):
    """Weighted arithmetic mean sum_j w_j A_j (fixed summation order)."""
    w = validate_weights(weights)
    if len(mats) != w.size:
        raise ValueError(f"count mismatch: {w.size} weights, {len(mats)} matrices")
    return hermitianize(_k.weighted_sum(w, require_spd_stack(mats, name="matrices")))


def kantorovich(p, q):
    """Kantorovich constant (p+q)^2 / (4pq) for spectral bounds 0 < p <= q.

    Equals (r+1)^2 / (4r) at r = q/p; 1 at r = 1, nondecreasing in r.
    """
    if not (0 < p <= q):
        raise ValueError(f"need 0 < p <= q, got p={p}, q={q}")
    return (p + q) ** 2 / (4.0 * p * q)
