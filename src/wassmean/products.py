"""The pairs of two ensembles under the Kronecker or the Hadamard product,
with product weights, and strictly positive unital maps as isometry
compressions (``seeded`` draws random ones)."""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .barycenter import Ensemble
from .hermitian import _of_type, as_complex_matrix, frobenius

ISOMETRY_TOL = 1e-12


def _pairs(a, b, product):
    """The weights w_i u_j and matrices product(A_i, B_j) of all pairs of two
    ensembles, or of each case of two (S, ...) stacks of them, in the one pair
    order: entry i*k + j pairs A_i with B_j (second index fastest).
    ``product`` is ``_kernels.kron`` or ``np.multiply`` (Hadamard)."""
    weights = a.weights[..., :, None] * b.weights[..., None, :]
    mats = product(a.matrices[..., :, None, :, :], b.matrices[..., None, :, :, :])
    return (weights.reshape(*weights.shape[:-2], -1),
            mats.reshape(*mats.shape[:-4], -1, *mats.shape[-2:]))


def ensemble_tensor(a, b):
    """Ensemble of all Kronecker pairs A_i (x) B_j with product weights, in
    ``_pairs`` order (second index fastest), a frozen contract:
    weights[i*k + j] goes with matrices[i*k + j] = A_i (x) B_j."""
    a, b = _of_type(a, Ensemble, "a"), _of_type(b, Ensemble, "b")
    weights, matrices = _pairs(a, b, _k.kron)
    return Ensemble(weights=weights, matrices=matrices)


@dataclass(frozen=True)
class PositiveMapSpec:
    """Strictly positive unital linear map M -> V* M V for an isometry V.

    ``kind`` is "isometry" (generic compression) or "ando" (the diagonal
    selection whose columns are e_i (x) e_i, turning Kronecker products into
    Hadamard products). V*V = I makes the map unital; full column rank makes
    it strictly positive.
    """

    kind: str
    isometry: np.ndarray

    def __post_init__(self):
        if self.kind not in ("isometry", "ando"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        v = as_complex_matrix(self.isometry, name="isometry")
        if v.shape[0] < v.shape[1]:
            raise ValueError(f"isometry: expected a tall s x k matrix, got {v.shape}")
        gram_err = frobenius(v.conj().T @ v - np.eye(v.shape[1]))
        if gram_err > ISOMETRY_TOL:
            raise ValueError(f"isometry: ||V*V - I||_F = {gram_err:.3e} > {ISOMETRY_TOL}")
        object.__setattr__(self, "isometry", v)

    @property
    def source_dim(self):
        return int(self.isometry.shape[0])

    @property
    def target_dim(self):
        return int(self.isometry.shape[1])

    def require_source_dim(self, m):
        """Reject an m x m matrix that the map cannot compress."""
        if m != self.source_dim:
            raise ValueError(
                f"dimension mismatch: matrix is {m}x{m}, map expects {self.source_dim}"
            )
