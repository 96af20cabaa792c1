"""The ensemble of Kronecker pairs with product weights, and strictly positive
unital maps as isometry compressions (``seeded`` draws random ones)."""

from dataclasses import dataclass

import numpy as np

from .barycenter import Ensemble
from .hermitian import _of_type, as_complex_matrix, frobenius

ISOMETRY_TOL = 1e-12


def _pair_weights(w, u):
    """Product weights (w_1 u_1, ..., w_1 u_k, ..., w_n u_1, ..., w_n u_k) of
    two validated weight vectors (or stacks of them): lexicographic with the
    second index fastest. The one owner of the pair order."""
    return (w[..., :, None] * u[..., None, :]).reshape(*w.shape[:-1], -1)


def ensemble_tensor(a, b):
    """Ensemble of all Kronecker pairs A_i (x) B_j with product weights.

    Pair order is ``_pair_weights``'s (second index fastest), a frozen
    contract: weights[i*k + j] goes with matrices[i*k + j] = A_i (x) B_j.
    """
    a, b = _of_type(a, Ensemble, "a"), _of_type(b, Ensemble, "b")
    # pairs[i, j, r, p, c, q] = A_i[r, c] * B_j[p, q], which is
    # (A_i (x) B_j)[r*k + p, c*k + q] for k = b.dim.
    pairs = a.matrices[:, None, :, None, :, None] * b.matrices[None, :, None, :, None, :]
    m = a.dim * b.dim
    return Ensemble(
        weights=_pair_weights(a.weights, b.weights),
        matrices=pairs.reshape(a.size * b.size, m, m),
    )


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
