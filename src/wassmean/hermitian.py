"""Dense complex Hermitian / positive definite matrix primitives.

Matrices are plain C-order ``complex128`` ndarrays. Validation helpers return
the symmetrized array so downstream spectral routines always see an exactly
Hermitian input; positive definiteness is enforced against a relative floor,
proved by a Cholesky factor of a - floor I (boundary matrices are refused).

These helpers are the validation boundary: a caller validates each raw
argument once at its entry and then computes on the returned arrays with the
trusted kernels of ``_kernels``, never validating the same array again. Each
rule has one implementation: ``_require_stack`` validates a stack in one
vectorised pass, with ``require_hermitian``/``require_spd`` its one-matrix,
``require_spd_pair`` its pair and ``require_spd_stack`` its n-matrix case,
each raw matrix converted by ``_as_array``, the package's one rule for what
counts as a number (weights, file grids and, by ``_real``, scalars too);
``_loewner_verdicts`` judges comparisons of matrices the package computed,
``loewner_leq`` one raw pair; ``require_positive`` checks every tolerance,
iteration budget, size, count and spectrum edge, and ``_of_type`` refuses,
by name, an argument that is not of the package type it expects.
``_spectrum_clears_floor`` is the rule under which an ensemble of seeded
generator output (``seeded``), positive definite by construction, is stored
without validation: a spectrum range that clears the positive definite floor
with a round-off margin and leaves the norm finite.
"""

import math
from dataclasses import dataclass
from numbers import Integral, Number

import numpy as np

from . import _kernels as _k
from ._kernels import hermitianize

# Construction rejects matrices with min eigenvalue <= SPD_FLOOR * max(1, ||A||_F).
SPD_FLOOR = 1e-12


def is_integer(value):
    # A bool, which Python counts as an integer, is none here.
    return isinstance(value, Integral) and not isinstance(value, bool)


def _of_type(value, kind, name):
    """``value``, or a TypeError that names the argument when it is not a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _real(value, name, kind="a finite number", integer=False):
    """The type rule for numeric arguments: ``value`` as a plain float when
    it is one real entry of an array (``_refuse_non_numbers``), or with
    ``integer`` as a plain int when it is an ``Integral`` (a bool is none);
    otherwise a ValueError starting ``name`` that says it expected ``kind``."""
    if isinstance(value, (list, tuple, np.ndarray)) or integer and not is_integer(value):
        raise ValueError(f"{name}: expected {kind}, got {value!r}")
    if integer:
        return int(value)
    _refuse_non_numbers(value, name, True, kind=kind)
    return float(value)


def require_positive(value, name, integer=False):
    """The one rule for numeric arguments (tolerances, iteration budgets,
    sizes, counts, spectrum edges): ``value`` as a plain
    float, or with ``integer`` a plain int, when it is a finite positive number
    of that kind (``_real``'s type rule); otherwise a ValueError starting
    ``name``."""
    kind = "an integer" if integer else "a finite number"
    number = _real(value, name, kind, integer)
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected {kind}, got {value!r}")
    if number <= 0:
        raise ValueError(f"{name}: must be positive")
    return number


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances for Loewner comparisons and residual certificates.

    Loewner margins are compared against
    ``loewner_tol * max(||A||_F, ||B||_F)``, the one field: no floor.
    ``residual_tol``, the bound on a solved mean's equation residual, is a
    class constant.
    """

    loewner_tol: float = 1e-9
    residual_tol = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "loewner_tol", require_positive(self.loewner_tol, "loewner_tol"))

    def loewner_scale(self, *mats):
        return max(frobenius(m) for m in mats)


@dataclass(frozen=True)
class LoewnerResult:
    """Outcome of a Loewner comparison: verdict plus the raw margin
    (smallest eigenvalue of the difference)."""

    holds: bool
    margin: float


# The types of a JSON number, for a C-speed test of a row (a bool's type is bool).
_NUMBER_TYPES = frozenset((int, float))


def _refuse_non_numbers(value, name, real, exact=False, kind=None):
    """Raise a ValueError naming ``name[i][j]`` for the first entry of ``value``
    (an array, nested lists and tuples, or one entry) that is a bool, is no
    ``numbers.Number``, is complex with ``real`` or does not fit a float; it
    says it expected ``kind`` (by default, a number or a real number). A
    numeric dtype passes unwalked, a row of JSON numbers in one test (not when
    ``exact``: a search for an int too large for a float)."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in ("iuf" if real else "iufc"):
            return
        value = value.tolist()  # an object array, or one that holds an offender
    if isinstance(value, (list, tuple)):
        if exact or not _NUMBER_TYPES.issuperset(map(type, value)):
            for i, x in enumerate(value):
                _refuse_non_numbers(x, f"{name}[{i}]", real, exact)
        return
    if isinstance(value, bool) or not isinstance(value, Number):
        raise ValueError(f"{name}: expected {kind or 'a number'}, got {value!r}")
    if real and isinstance(value, (complex, np.complexfloating)):
        raise ValueError(f"{name}: expected {kind or 'a real number'}, got {value!r}")
    try:
        complex(value)
    except OverflowError:
        kind = kind or "a number"
        raise ValueError(f"{name}: expected {kind}, got one too large for a float") from None


def _as_array(a, name, ndim, real=False):
    """``a`` as a complex128 array, with ``real`` a float64 one, of ``ndim``
    dimensions, or a ValueError starting ``name``: the one conversion of a raw
    matrix, weight vector or file grid. It refuses ragged rows and, by
    ``_refuse_non_numbers``, what is not a number."""
    _refuse_non_numbers(a, name, real)
    try:
        arr = np.asarray(a, dtype=np.float64 if real else np.complex128)
    except OverflowError:  # an int beyond a float in a row of JSON numbers
        _refuse_non_numbers(a, name, real, exact=True)
        raise
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected a rectangular array of numbers") from None
    if arr.ndim != ndim:
        raise ValueError(f"{name}: expected a {ndim}-d array, got ndim={arr.ndim}")
    return arr


def as_complex_matrix(a, name="matrix"):
    """Coerce to a finite, 2-d, square-or-rectangular complex128 array."""
    arr = np.ascontiguousarray(_as_array(a, name, 2))
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
    in index order, named ``label(j)``. One batched Cholesky factor of the
    shifted stack sym - floor I proves the floor; only a refusal takes eigenvalues."""
    n, rows, cols = arr.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"{label(0)}: empty matrix")
    # A non-finite entry, or an entry above about 1.3e154, leaves a matrix
    # without a finite norm, so without a finite scale for the rules below;
    # they run on the matrices before the first such one, k. The norms are
    # np.linalg.norm(arr, axis=(1, 2)) by numpy's own formula, without its
    # argument handling.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce((arr.conj() * arr).real, axis=(1, 2)))
    scaled = np.isfinite(norms)
    k = int(scaled.argmin())
    if scaled[k]:
        k = n
    not_finite = "entries must be finite (found NaN/Inf)"
    if k == 0 and not np.isfinite(arr[0]).all():
        raise ValueError(f"{label(0)}: {not_finite}")
    if rows != cols:
        raise ValueError(f"{label(0)}: expected square matrix, got shape {(rows, cols)}")
    head = arr[:k]
    scale = np.maximum(1.0, norms[:k])
    limit = 1e-12 * scale
    adjoint = _k._adjoint(head)
    gap = np.abs(head - adjoint)
    worst = gap.max(axis=(1, 2))
    bad = not_hermitian = worst > limit
    # hermitianize(head), sharing the adjoint with the gap.
    sym = np.ascontiguousarray((head + adjoint) * 0.5)
    if spd:
        floor = SPD_FLOOR * scale
        try:
            np.linalg.cholesky(sym - floor[:, None, None] * np.eye(rows))
        except np.linalg.LinAlgError:
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
        overflow = np.isfinite(arr[k]).all()
        raise ValueError(f"{label(k)}: {'Frobenius norm overflows' if overflow else not_finite}")
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
    return _require_stack(_as_array(a, name, 2)[None], lambda j: name, spd)[0]


def _require_spd_items(items, label, mixed):
    """The positive definite matrices ``items``, an (n, m, m) array or a
    list, named ``label(j)``, validated in one ``_require_stack`` pass when
    each converts on its own (numpy would read a matrix of bools or strings
    beside numbers as numbers) and all share one shape; else each alone, in
    index order, so the first offender is named, and then the mix of their
    shapes is refused by the message ``mixed(shapes)``."""
    try:
        if isinstance(items, np.ndarray):
            stack = _as_array(items, "", 3)
        else:
            stack = np.stack([_as_array(a, label(j), 2) for j, a in enumerate(items)])
    except ValueError:
        shapes = [_require_matrix(a, label(j), spd=True).shape for j, a in enumerate(items)]
        raise ValueError(mixed(shapes)) from None
    return _require_stack(stack, label, spd=True)


def require_spd_pair(a, b):
    """Validate two positive definite matrices of one shape, named first and
    second matrix, as one 2-stack; return both symmetrized."""
    return tuple(_require_spd_items([a, b], ("first matrix", "second matrix").__getitem__,
                                    lambda s: f"dimension mismatch: {s[0]} vs {s[1]}"))


def require_spd_stack(mats, name="matrices"):
    """Validate same-dimension Hermitian positive definite matrices in one
    batched pass; return them as an (n, m, m) complex128 stack of
    symmetrized matrices.

    ``mats`` is a sequence of matrices or an (n, m, m) array; an array is
    checked as it stands, without a per-matrix copy. Each matrix meets the
    checks of ``require_spd`` with its own relative tolerances; the first
    offending matrix is reported as ``name[j]``.
    """
    if not isinstance(mats, np.ndarray):
        mats = list(mats)
    if not len(mats):
        raise ValueError(f"{name}: empty stack, expected at least one matrix")
    return _require_spd_items(mats, lambda j: f"{name}[{j}]", lambda shapes: (
        f"{name}: mixed dimensions {sorted({s[0] for s in shapes})}"))


def loewner_leq(a, b, cfg=None):
    """Tolerance-aware test of a <= b in the Loewner order.

    The margin is the smallest eigenvalue of b - a; the comparison holds when
    the margin is >= -loewner_tol * scale under ``cfg``, a ``ToleranceConfig``
    (None: the default).
    """
    lhs = require_hermitian(a, name="lhs")
    rhs = require_hermitian(b, name="rhs")
    if lhs.shape != rhs.shape:
        raise ValueError(f"dimension mismatch: {lhs.shape} vs {rhs.shape}")
    if cfg is not None:
        _of_type(cfg, ToleranceConfig, "cfg")
    return _loewner_verdicts([(lhs[None], rhs[None])], cfg)[0][0]


def _loewner_verdicts(comparisons, cfg=None):
    """Each case i's verdicts on lhs[i] <= rhs[i], in comparison order, for
    the ``(lhs, rhs)`` stacks of trusted Hermitian matrices of one shape of
    the ``comparisons``, from one ``eigvalsh`` of all slacks. A margin m holds
    when m >= -loewner_tol * max(||lhs||_F, ||rhs||_F); a slack with a
    non-finite entry has the margin NaN, which fails."""
    if cfg is None:
        cfg = ToleranceConfig()
    lhs, rhs = (np.stack(side, axis=1) for side in zip(*comparisons))
    slack = hermitianize(rhs - lhs)
    # LAPACK can return finite eigenvalues for a matrix with a NaN entry.
    finite = np.isfinite(slack).all(axis=(-2, -1))
    margins = np.linalg.eigvalsh(np.where(finite[..., None, None], slack, 0.0))[..., 0]
    margins[~finite] = np.nan
    # A non-negative margin holds at any scale, a negative one only within the
    # tolerance of a finite scale: a scale that overflows is inf.
    tol = cfg.loewner_tol
    with np.errstate(over="ignore"):
        return [[LoewnerResult(m >= 0 or -m <= tol * cfg.loewner_scale(a, b) < math.inf, m)
                 for m, a, b in zip(*case)] for case in zip(margins.tolist(), lhs, rhs)]


def _spectrum_clears_floor(m, eig_lo, eig_hi):
    """Whether every m x m matrix U diag(lambda) U* that ``_from_spectrum``
    builds from a unitary U (a Haar draw's or an ``eigh`` basis) and lambda in
    [eig_lo, eig_hi] passes ``_require_stack``. Its norm is at most sqrt(m)
    eig_hi, finite with a factor 4 to spare in its square when 4 m eig_hi^2
    is; and round-off moves its eigenvalues by far less than SPD_FLOOR m
    eig_hi, so eig_lo above twice the floor of norm m eig_hi leaves the
    margin."""
    eig_lo, eig_hi = float(eig_lo), float(eig_hi)
    return (
        eig_lo <= eig_hi
        and math.isfinite(4.0 * m * eig_hi * eig_hi)
        and eig_lo > 2.0 * SPD_FLOOR * max(1.0, m * eig_hi)
    )
