"""Kronecker and Hadamard products, weight/ensemble tensorization, and strictly
positive unital maps as isometry compressions (``seeded`` draws random ones)."""

from dataclasses import dataclass

import numpy as np

from .barycenter import Ensemble
from .hermitian import (
    _of_type,
    as_complex_matrix,
    frobenius,
    hermitianize,
    require_hermitian,
    require_positive,
)
from .means import validate_weights

ISOMETRY_TOL = 1e-12


def kron(a, b):
    """Kronecker product: the block matrix [a_ij * b]."""
    am = as_complex_matrix(a, name="first factor")
    bm = as_complex_matrix(b, name="second factor")
    return np.ascontiguousarray(np.kron(am, bm))


def hadamard(a, b):
    """Hadamard (entrywise) product [a_ij * b_ij]."""
    am = as_complex_matrix(a, name="first factor")
    bm = as_complex_matrix(b, name="second factor")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return np.ascontiguousarray(am * bm)


def weight_tensor(w, u):
    """Product weights (w_1 u_1, ..., w_1 u_k, ..., w_n u_1, ..., w_n u_k):
    lexicographic with the second index fastest."""
    return _pair_weights(
        validate_weights(w, name="first weights"), validate_weights(u, name="second weights")
    )


def _pair_weights(w, u):
    """``weight_tensor`` of two already-validated weight vectors (or stacks of
    them), without validation: the one owner of the pair order."""
    return (w[..., :, None] * u[..., None, :]).reshape(*w.shape[:-1], -1)


def ensemble_tensor(a, b):
    """Ensemble of all Kronecker pairs A_i (x) B_j with product weights.

    Pair order matches ``weight_tensor`` (second index fastest), a frozen
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

    def apply(self, a):
        """Compression V* a V of a Hermitian matrix; SPD in, SPD out."""
        am = require_hermitian(a, name="matrix")
        self.require_source_dim(am.shape[0])
        return self.compress(am)

    def require_source_dim(self, m):
        """Reject an m x m matrix that the map cannot compress."""
        if m != self.source_dim:
            raise ValueError(
                f"dimension mismatch: matrix is {m}x{m}, map expects {self.source_dim}"
            )

    def compress(self, a):
        """V* a V for an already-validated Hermitian matrix or stack of
        source dimension, without validation."""
        v = self.isometry
        return hermitianize(v.conj().T @ a @ v)


def ando_map(m):
    """The m^2 -> m diagonal compression with columns e_i (x) e_i.

    Unital (Z*Z = I), strictly positive, and maps A (x) B to A o B.
    """
    m = require_positive(m, "m", integer=True)
    z = np.zeros((m * m, m), dtype=np.complex128)
    for i in range(m):
        z[i * m + i, i] = 1.0
    return PositiveMapSpec(kind="ando", isometry=z)

