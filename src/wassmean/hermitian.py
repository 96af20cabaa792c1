"""Dense complex Hermitian / positive definite matrix primitives.

Matrices are plain C-order ``complex128`` ndarrays. Validation helpers return
the symmetrized array so downstream spectral routines always see an exactly
Hermitian input; positive definiteness is enforced against a relative floor
(the open cone has no boundary members here, they are rejected).

These helpers are the validation boundary: a caller validates each raw
argument once at its entry and then computes on the returned arrays with the
trusted kernels of ``_kernels``, never validating the same array again. Each
rule has one implementation: ``_require_stack`` validates a stack in one
vectorised pass, with ``require_hermitian``/``require_spd`` its one-matrix and
``require_spd_stack`` its n-matrix case; ``_loewner_verdicts`` judges a stack
of pairs the package computed, and ``loewner_leq`` one validated raw pair;
``require_positive`` checks every tolerance and iteration budget.
Seeded generation is stacked too: ``_random_spds`` draws each matrix from its
own seeded stream but factors and assembles the stack in one batched QR and
one batched product, and ``random_spd`` is its one-seed case. It and
``random_commuting_spds`` share one eigenvalue-range rule and build
U diag(lambda) U* with one spectral kernel, ``_kernels._from_spectrum``.
"""

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import _kernels as _k
from ._kernels import hermitianize

# Construction rejects matrices with min eigenvalue <= SPD_FLOOR * max(1, ||A||_F).
SPD_FLOOR = 1e-12


def is_integer(value):
    # A bool, which Python counts as an integer, is none here.
    return isinstance(value, Integral) and not isinstance(value, bool)


def require_positive(value, name, integer=False):
    """The one rule for tolerances and iteration budgets: ``value`` as a plain
    float, or with ``integer`` a plain int, when it is a finite positive number
    of that kind (a bool is none, and a number too large for a float is not
    finite); otherwise a ValueError starting ``name``."""
    kind = "an integer" if integer else "a finite number"
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise ValueError(f"{name}: expected {kind}, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:
        raise ValueError(f"{name}: expected {kind}, got one too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected {kind}, got {value!r}")
    if number <= 0:
        raise ValueError(f"{name}: must be positive")
    return number


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances for Loewner comparisons and residual certificates.

    Loewner margins are compared against
    ``loewner_tol * max(1, ||A||_F, ||B||_F)``.
    """

    loewner_tol: float = 1e-9
    residual_tol: float = 1e-10

    def __post_init__(self):
        for name in ("loewner_tol", "residual_tol"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))

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


def _require_stack(arr, label, spd=False):
    """The symmetrized, C-ordered copy of an (n, m, k) complex128 stack,
    n >= 1, of finite square matrices whose Frobenius norm does not overflow,
    whose Hermitian gap is at most 1e-12 * max(1, ||a||_F) per matrix and,
    with ``spd``, whose smallest eigenvalue exceeds
    ``SPD_FLOOR * max(1, ||a||_F)``. Otherwise raises for the first offender
    in index order, named ``label(j)``."""
    n, rows, cols = arr.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"{label(0)}: empty matrix")
    finite = np.isfinite(arr).all(axis=(1, 2))
    not_finite = "entries must be finite (found NaN/Inf)"
    if not finite[0]:
        raise ValueError(f"{label(0)}: {not_finite}")
    if rows != cols:
        raise ValueError(f"{label(0)}: expected square matrix, got shape {(rows, cols)}")
    # A non-finite entry, or an entry above about 1.3e154, leaves a matrix
    # without a finite norm, so without a finite scale for the rules below;
    # they run on the matrices before the first such one.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=(1, 2))
    scaled = np.isfinite(norms)
    k = n if scaled.all() else int(scaled.argmin())
    head = arr[:k]
    limit = 1e-12 * np.maximum(1.0, norms[:k])
    gap = np.abs(head - _k._adjoint(head))
    worst = gap.max(axis=(1, 2))
    not_hermitian = worst > limit
    sym = np.ascontiguousarray(hermitianize(head))
    bad = not_hermitian
    if spd:
        floor = SPD_FLOOR * np.maximum(1.0, np.linalg.norm(sym, axis=(1, 2)))
        min_eig = np.linalg.eigvalsh(sym)[:, 0]
        bad = not_hermitian | (min_eig <= floor)
    if bad.any():
        j = int(bad.argmax())
        if not_hermitian[j]:
            r, c = np.unravel_index(int(gap[j].argmax()), (rows, cols))
            raise ValueError(
                f"{label(j)}: not Hermitian at ({r},{c}): "
                f"|a[{r},{c}] - conj(a[{c},{r}])| = {worst[j]:.3e} > {limit[j]:.3e}"
            )
        raise ValueError(
            f"{label(j)}: not positive definite "
            f"(min eigenvalue {min_eig[j]:.3e} <= floor {floor[j]:.3e})"
        )
    if k < n:
        raise ValueError(f"{label(k)}: {'Frobenius norm overflows' if finite[k] else not_finite}")
    return sym


def require_hermitian(a, name="matrix"):
    """Validate Hermitian symmetry, to within 1e-12 * max(1, ||a||_F), then
    return the symmetrized matrix."""
    return _require_matrix(a, name, spd=False)


def require_spd(a, name="matrix"):
    """Validate Hermitian positive definiteness against the relative floor."""
    return _require_matrix(a, name, spd=True)


def _require_matrix(a, name, spd):
    """The one-matrix case of ``_require_stack``, for a matrix named ``name``."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d array, got ndim={arr.ndim}")
    return _require_stack(arr[None], lambda j: name, spd)[0]


def require_spd_pair(a, b):
    """Validate two positive definite matrices of one shape, named first and
    second matrix; return both symmetrized."""
    am = require_spd(a, name="first matrix")
    bm = require_spd(b, name="second matrix")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am, bm


def require_spd_stack(mats, name="matrices"):
    """Validate same-dimension Hermitian positive definite matrices in one
    batched pass; return them as an (n, m, m) complex128 stack of
    symmetrized matrices.

    ``mats`` is a sequence of matrices or an (n, m, m) array; an array is
    checked as it stands, without a per-matrix copy. Each matrix meets the
    checks of ``require_spd`` with its own relative tolerances; the first
    offending matrix is reported as ``name[j]``.
    """
    if isinstance(mats, np.ndarray) and mats.ndim == 3 and mats.shape[0]:
        stack = np.asarray(mats, dtype=np.complex128)
    else:
        items = [np.asarray(a, dtype=np.complex128) for a in mats]
        if not items:
            raise ValueError(f"{name}: empty stack, expected at least one matrix")
        if len({a.shape for a in items}) != 1 or items[0].ndim != 2:
            # Each matrix is checked alone, in index order, so the first
            # offender is named before the mix.
            dims = {require_spd(a, name=f"{name}[{j}]").shape[0] for j, a in enumerate(items)}
            raise ValueError(f"{name}: mixed dimensions {sorted(dims)}")
        stack = np.stack(items)
    return _require_stack(stack, lambda j: f"{name}[{j}]", spd=True)


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
    lhs = require_hermitian(a, name="lhs")
    rhs = require_hermitian(b, name="rhs")
    if lhs.shape != rhs.shape:
        raise ValueError(f"dimension mismatch: {lhs.shape} vs {rhs.shape}")
    return _loewner_verdicts([(lhs, rhs)], cfg)[0]


def _loewner_verdicts(pairs, cfg=None):
    """The verdict on ``lhs <= rhs`` for every ``(lhs, rhs)`` pair of trusted
    Hermitian matrices of one shape, from one ``eigvalsh`` of the slacks. A
    margin m holds when m >= -loewner_tol * max(1, ||lhs||_F, ||rhs||_F); a
    slack with a non-finite entry has the margin NaN, which fails."""
    if cfg is None:
        cfg = ToleranceConfig()
    lhs = np.stack([a for a, _ in pairs])
    rhs = np.stack([b for _, b in pairs])
    slack = hermitianize(rhs - lhs)
    # LAPACK can return finite eigenvalues for a matrix with a NaN entry.
    finite = np.isfinite(slack).all(axis=(1, 2))
    margins = np.linalg.eigvalsh(np.where(finite[:, None, None], slack, 0.0))[:, 0]
    margins[~finite] = np.nan
    # A non-negative margin holds at any scale, a negative one only within the
    # tolerance of a finite scale: a scale that overflows is inf.
    with np.errstate(over="ignore"):
        return [
            LoewnerResult(
                holds=margin >= 0 or -margin <= cfg.loewner_tol * cfg.loewner_scale(a, b) < math.inf,
                margin=margin,
            )
            for margin, a, b in zip(margins.tolist(), lhs, rhs)
        ]


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


def _require_eig_range(eig_lo, eig_hi):
    """The one spectrum rule of seeded generation: 0 < eig_lo <= eig_hi."""
    if not (0 < eig_lo <= eig_hi):
        raise ValueError(f"invalid eigenvalue range [{eig_lo}, {eig_hi}]")


def _random_spds(m, seeds, eig_lo, eig_hi):
    """(len(seeds), m, m) stack of random positive definite matrices: matrix j
    has its spectrum drawn uniformly in [eig_lo, eig_hi] and is conjugated by
    a random unitary, both from the stream ``default_rng(seeds[j])``.

    Each stream is drawn from in the order of a lone ``random_spd``; the
    QR, the phase fold and the conjugation then run once on the stack."""
    _require_eig_range(eig_lo, eig_hi)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u = _haar_unitaries(np.stack([_ginibre(rng, m) for rng in rngs]))
    lam = np.stack([rng.uniform(eig_lo, eig_hi, m) for rng in rngs])
    return _k._from_spectrum(u, lam)


def random_spd(m, seed, eig_lo, eig_hi):
    """Random positive definite matrix with spectrum drawn uniformly in
    [eig_lo, eig_hi], conjugated by a seeded random unitary: the one-seed
    case of ``_random_spds``."""
    return _random_spds(m, [seed], eig_lo, eig_hi)[0]


def random_commuting_spds(m, count, seed, eig_lo, eig_hi):
    """(count, m, m) stack of pairwise-commuting SPD matrices: one shared
    random eigenbasis, independent spectra (the rows of one (count, m) uniform
    draw). Commutators vanish up to round-off."""
    _require_eig_range(eig_lo, eig_hi)
    u = random_unitary(m, seed)
    lam = np.random.default_rng(seed + 1).uniform(eig_lo, eig_hi, (count, m))
    return _k._from_spectrum(u, lam)
