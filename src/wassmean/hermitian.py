"""Dense complex Hermitian / positive definite matrix primitives.

Matrices are plain C-order ``complex128`` ndarrays. Validation helpers return
the symmetrized array so downstream spectral routines always see an exactly
Hermitian input; positive definiteness is enforced against a relative floor
(the open cone has no boundary members here, they are rejected).

These helpers are the validation boundary: a caller validates each raw
argument once at its entry and then computes on the returned arrays with the
trusted kernels of ``_kernels``, never validating the same array again.
``require_spd_stack`` validates a whole stack in one batched pass, and
``loewner_leq_all`` compares a whole stack of pairs with one ``eigvalsh``;
both share one vectorised Hermitian guard. Seeded generation is stacked too:
``_random_spds`` draws each matrix from its own seeded stream but factors and
assembles the stack in one batched QR and one batched product, and
``random_spd`` is its one-seed case.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from ._kernels import hermitianize

# Construction rejects matrices with min eigenvalue <= SPD_FLOOR * max(1, ||A||_F).
SPD_FLOOR = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances for Loewner comparisons and residual certificates.

    Loewner margins are compared against
    ``loewner_tol * max(1, ||A||_F, ||B||_F)``.
    """

    loewner_tol: float = 1e-9
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.loewner_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")

    def loewner_scale(self, *mats):
        return max(1.0, *(frobenius(m) for m in mats))


@dataclass(frozen=True)
class LoewnerResult:
    """Outcome of a Loewner comparison: verdict plus the raw margin
    (smallest eigenvalue of the difference)."""

    holds: bool
    margin: float


def as_complex_matrix(a, name="matrix"):
    """Coerce to a finite, 2-d, square-or-rectangular complex128 array."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d array, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name}: empty matrix")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name}: entries must be finite (found NaN/Inf)")
    return arr


def frobenius(a):
    return float(np.linalg.norm(a))


def require_hermitian(a, atol=None, name="matrix"):
    """Validate Hermitian symmetry, then return the symmetrized matrix.

    ``atol`` defaults to 1e-12 * max(1, ||a||_F); pass an explicit value to
    pin the absolute file-format tolerance.
    """
    arr = as_complex_matrix(a, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name}: expected square matrix, got shape {arr.shape}")
    if atol is None:
        atol = 1e-12 * max(1.0, frobenius(arr))
    gap = np.abs(arr - arr.conj().T)
    worst = float(gap.max())
    if worst > atol:
        i, j = np.unravel_index(int(gap.argmax()), gap.shape)
        raise ValueError(
            f"{name}: not Hermitian at ({i},{j}): "
            f"|a[{i},{j}] - conj(a[{j},{i}])| = {worst:.3e} > {atol:.3e}"
        )
    return hermitianize(arr)


def require_spd(a, atol=None, name="matrix"):
    """Validate Hermitian positive definiteness against the relative floor."""
    arr = require_hermitian(a, atol=atol, name=name)
    floor = SPD_FLOOR * max(1.0, frobenius(arr))
    min_eig = float(np.linalg.eigvalsh(arr)[0])
    if min_eig <= floor:
        raise ValueError(
            f"{name}: not positive definite "
            f"(min eigenvalue {min_eig:.3e} <= floor {floor:.3e})"
        )
    return arr


def require_spd_pair(a, b):
    """Validate two positive definite matrices of one shape, named first and
    second matrix; return both symmetrized."""
    am = require_spd(a, name="first matrix")
    bm = require_spd(b, name="second matrix")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am, bm


def _hermitian_stack_ok(arr):
    """Whether every matrix of the (n, m, m) stack passes the finiteness and
    Hermitian-gap checks of ``require_hermitian``, with its own default
    tolerance 1e-12 * max(1, ||a||_F)."""
    if not np.isfinite(arr).all():
        return False
    hermitian_gap = np.abs(arr - np.swapaxes(arr, 1, 2).conj()).max(axis=(1, 2))
    return not np.any(
        hermitian_gap > 1e-12 * np.maximum(1.0, np.linalg.norm(arr, axis=(1, 2)))
    )


def _batched_spd(arr):
    """The symmetrized stack if every matrix of the (n, m, m) stack passes the
    checks of ``require_spd``, else None."""
    if not _hermitian_stack_ok(arr):
        return None
    sym = hermitianize(arr)
    floor = SPD_FLOOR * np.maximum(1.0, np.linalg.norm(sym, axis=(1, 2)))
    if np.any(np.linalg.eigvalsh(sym)[:, 0] <= floor):
        return None
    return sym


def require_spd_stack(mats, name="matrices"):
    """Validate same-dimension Hermitian positive definite matrices in one
    batched pass; return them as an (n, m, m) complex128 stack of
    symmetrized matrices.

    ``mats`` is a sequence of matrices or an (n, m, m) array; an array is
    checked as it stands, without a per-matrix copy. Each matrix meets the
    checks of ``require_spd`` with its own relative tolerances; the first
    offending matrix is reported by ``require_spd`` as ``name[j]``.
    """
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        items = stack = np.asarray(mats, dtype=np.complex128)
    else:
        items = [np.asarray(a, dtype=np.complex128) for a in mats]
        same = items and items[0].ndim == 2 and all(a.shape == items[0].shape for a in items)
        stack = np.stack(items) if same else None
    if stack is not None and stack.shape[0] > 0 and stack.shape[1] == stack.shape[2] > 0:
        sym = _batched_spd(stack)
        if sym is not None:
            return sym
    # Mixed shapes or a failing matrix: the per-matrix checks, in index
    # order, name the first offender.
    validated = [require_spd(a, name=f"{name}[{j}]") for j, a in enumerate(items)]
    dims = sorted({a.shape[0] for a in validated})
    if len(dims) != 1:
        raise ValueError(f"{name}: mixed dimensions {dims}")
    return np.stack(validated)


def matrix_power(a, t, name="matrix"):
    """a**t for positive definite a, computed spectrally."""
    arr = require_spd(a, name=name)
    return _k.spd_power(arr, float(t))


def sqrtm(a, name="matrix"):
    """Principal square root of a positive definite matrix."""
    return matrix_power(a, 0.5, name=name)


def log_det(a, name="matrix"):
    """log det(a) as a sum of eigenvalue logs (no determinant overflow)."""
    return float(_k.log_det(require_spd(a, name=name)))


def loewner_leq(a, b, cfg=None):
    """Tolerance-aware test of a <= b in the Loewner order.

    The margin is the smallest eigenvalue of b - a; the comparison holds when
    the margin is >= -loewner_tol * scale.
    """
    if cfg is None:
        cfg = ToleranceConfig()
    lhs = require_hermitian(a, name="lhs")
    rhs = require_hermitian(b, name="rhs")
    if lhs.shape != rhs.shape:
        raise ValueError(f"dimension mismatch: {lhs.shape} vs {rhs.shape}")
    margin = float(np.linalg.eigvalsh(hermitianize(rhs - lhs))[0])
    scale = cfg.loewner_scale(lhs, rhs)
    return LoewnerResult(holds=margin >= -cfg.loewner_tol * scale, margin=margin)


def loewner_leq_all(pairs, cfg=None):
    """``loewner_leq(a, b, cfg)`` for every ``(a, b)`` pair, bit for bit, from
    one Hermitian guard and one ``eigvalsh`` over the stack of all pairs.

    Pairs of mixed shapes, or a stack that fails the guard, go through
    ``loewner_leq`` one by one, which raises as it would alone."""
    if cfg is None:
        cfg = ToleranceConfig()
    mats = [np.asarray(m, dtype=np.complex128) for pair in pairs for m in pair]
    shape = mats[0].shape
    if len(shape) == 2 and shape[0] == shape[1] > 0 and all(m.shape == shape for m in mats):
        stack = np.stack(mats)
        if _hermitian_stack_ok(stack):
            sym = hermitianize(stack)
            lhs, rhs = sym[0::2], sym[1::2]
            margins = np.linalg.eigvalsh(hermitianize(rhs - lhs))[:, 0].tolist()
            # A non-negative margin holds at any scale.
            return [
                LoewnerResult(
                    holds=margin >= 0 or margin >= -cfg.loewner_tol * cfg.loewner_scale(a, b),
                    margin=margin,
                )
                for margin, a, b in zip(margins, lhs, rhs)
            ]
    return [loewner_leq(a, b, cfg) for a, b in pairs]


def _ginibre(rng, m):
    """Complex Ginibre matrix drawn from ``rng``: real, then imaginary parts."""
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def _haar_unitaries(g):
    """Haar-distributed unitary from a complex Ginibre matrix (or each of a
    stack): its QR factor with the R-diagonal phases folded in."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar_unitary(rng, m):
    """Haar-distributed m x m unitary drawn from ``rng``."""
    return _haar_unitaries(_ginibre(rng, m))


def random_unitary(m, seed):
    """Haar random unitary, deterministic per seed."""
    return np.ascontiguousarray(_haar_unitary(np.random.default_rng(seed), m))


def _random_spds(m, seeds, eig_lo, eig_hi):
    """(len(seeds), m, m) stack of random positive definite matrices: matrix j
    has its spectrum drawn uniformly in [eig_lo, eig_hi] and is conjugated by
    a random unitary, both from the stream ``default_rng(seeds[j])``.

    Each stream is drawn from in the order of a lone ``random_spd``; the
    QR, the phase fold and the conjugation then run once on the stack."""
    if not (0 < eig_lo <= eig_hi):
        raise ValueError(f"invalid eigenvalue range [{eig_lo}, {eig_hi}]")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = _haar_unitaries(np.stack([_ginibre(rng, m) for rng in rngs]))
    lam = np.stack([rng.uniform(eig_lo, eig_hi, m) for rng in rngs])
    return hermitianize(np.ascontiguousarray((u * lam[:, None, :]) @ _k._adjoint(u)))


def random_spd(m, seed, eig_lo, eig_hi):
    """Random positive definite matrix with spectrum drawn uniformly in
    [eig_lo, eig_hi], conjugated by a seeded random unitary: the one-seed
    case of ``_random_spds``."""
    return _random_spds(m, [seed], eig_lo, eig_hi)[0]


def random_commuting_spds(m, count, seed, eig_lo, eig_hi):
    """Family of pairwise-commuting SPD matrices: one shared random
    eigenbasis, independent spectra. Commutators vanish up to round-off."""
    if not (0 < eig_lo <= eig_hi):
        raise ValueError(f"invalid eigenvalue range [{eig_lo}, {eig_hi}]")
    u = random_unitary(m, seed)
    rng = np.random.default_rng(seed + 1)
    out = []
    for _ in range(count):
        lam = rng.uniform(eig_lo, eig_hi, m)
        out.append(hermitianize(np.ascontiguousarray((u * lam) @ u.conj().T)))
    return out
