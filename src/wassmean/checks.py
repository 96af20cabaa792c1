"""Machine verification of the mean's order, determinant, positive-map,
tensor-product and Hadamard-product properties.

Each ``check_*`` function evaluates one inequality or identity on concrete
inputs and returns a :class:`CheckReport` whose margin is the smallest
eigenvalue of the slack matrix (log-gap for determinant checks, negated
relative error for identities); ``_order_report`` turns a check's Loewner
comparisons into its report through ``hermitian._loewner_verdicts``, the one
Loewner verdict rule: one ``eigvalsh`` over the stacked slacks of matrices the
check computed, which it trusts rather than validates again. A report over
several results (comparisons or instances) reports the one ``_worst`` picks:
a NaN margin first, else the smallest failing margin, else the smallest.

A ``check_*`` function is the validation boundary of a private core, the
function ``_<name>`` of its suite name: it validates its raw arguments,
solves its ensembles with the default ``SolverConfig``, and calls the core on
them and on the solves' outcomes (each a report or the error its solve
raised). The core trusts its inputs; a derived matrix that the positive
definite floor could still reject (a Schur product, a congruence) keeps its
one validation. The Hadamard checks follow from the Kronecker pairs through
Ando's compression Z*(A (x) B)Z = A o B: each Kantorovich-type constant is a
function of the pairs' one constant K, and the arithmetic sides are bilinear,
(sum w A) (x) (sum u B) and (sum w A) o (sum u B).

``run_suite`` runs the cores on seeded random instances and on the known
equality cases, which each entry of ``_CHECKS`` declares as data; see there.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import _kernels as _k
from . import barycenter as bc
from .hermitian import (
    ToleranceConfig,
    _commuting_stack,
    _Draw,
    _loewner_verdicts,
    _require_eig_range,
    _seeded_draws,
    as_complex_matrix,
    frobenius,
    hermitianize,
    is_integer,
    require_positive,
    require_spd,
    require_spd_pair,
)
from .means import kantorovich
from .products import _isometry_map, _pair_weights, ensemble_tensor

SELF_DUALITY_GAP = 1e-4
TENSOR_IDENTITY_RTOL = 1e-6


@dataclass
class CheckReport:
    """Verdict for one machine-checked inequality or identity.

    ``margin`` is the smallest eigenvalue of the inequality's slack matrix
    (or the log-determinant gap for determinant checks); ``inputs`` records
    provenance (seeds, dimensions, weights, tolerances) so a run can be
    reproduced from its own report; ``details`` breaks down sub-inequalities.
    A skipped check (failed precondition) is distinct from pass/fail.
    """

    check_name: str
    holds: bool
    margin: float
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    skipped: bool = False

    def to_json_dict(self):
        return {
            "check_name": self.check_name,
            "holds": bool(self.holds),
            "margin": float(self.margin),
            "inputs": self.inputs,
            "details": self.details,
            "skipped": bool(self.skipped),
        }


def _order_report(name, tol, inputs, details, *comparisons):
    """Report on ``lhs <= rhs`` in the Loewner order for every ``(key, lhs,
    rhs)`` comparison: it holds when every comparison holds, and its margin is
    the margin of ``_worst`` among them. A comparison with a key (not None)
    also records its own margin in ``details`` under that key."""
    results = _loewner_verdicts([(lhs, rhs) for _, lhs, rhs in comparisons], tol)
    for (key, _, _), res in zip(comparisons, results):
        if key is not None:
            details[key] = res.margin
    return CheckReport(check_name=name, holds=all(r.holds for r in results),
                       margin=_worst(results).margin, inputs=inputs, details=details)


def _worst(results):
    """The result a verdict over ``results`` (each with ``holds`` and
    ``margin``) reports: the first with a NaN margin, else the failing one of
    smallest margin, else the one of smallest margin; the first of equals."""
    return min(results, key=lambda r: (not math.isnan(r.margin), r.holds, r.margin))


# ---------------------------------------------------------------------------
# seeded input generation
# ---------------------------------------------------------------------------

def _mix(seed, salt):
    # Distinct deterministic streams per (seed, salt) pair.
    return (int(seed) * 1_000_003 + salt * 7919 + 12345) % (2**63)


def random_weights(n, seed):
    """Strictly positive normalized weights, deterministic per seed."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def random_ensemble(m, n, seed, eig_lo=0.5, eig_hi=2.0, commuting=False):
    """Seeded random ensemble; ``commuting=True`` shares one eigenbasis."""
    n = require_positive(n, "n", integer=True)
    m = require_positive(m, "m", integer=True)
    request = _ensemble(m, n, seed, _require_eig_range(eig_lo, eig_hi), commuting)
    return _built(request, _drawn(_draws_of(request)))


class _Apply(NamedTuple):
    """The case argument ``fn(*args)``, each request among ``args`` built;
    ``fn`` and ``args`` are hashable."""

    fn: Callable
    args: tuple


def _ensemble(m, n, seed, spectrum, commuting=False):
    """The request of ``random_ensemble(m, n, seed, *spectrum, commuting)``,
    its arguments trusted."""
    if commuting:
        mats = [_commuting(m, _mix(seed, 11), n, spectrum)]
    else:
        mats = [_Draw(m, _mix(seed, 13 + j), spectrum) for j in range(n)]
    return _Apply(_seeded_ensemble, (_mix(seed, 17), spectrum, *mats))


def _commuting(m, seed, count, spectrum):
    """The request of ``random_commuting_spds(m, count, seed, *spectrum)``."""
    return _Apply(_commuting_stack, (_Draw(m, seed), seed, count, *spectrum))


def _seeded_ensemble(weight_seed, spectrum, *mats):
    """The ensemble of a commuting stack, or of n matrices, and seeded weights."""
    stack = mats[0] if mats[0].ndim == 3 else np.stack(mats)
    return bc.Ensemble._generated(random_weights(len(stack), weight_seed), stack, *spectrum)


def _draws_of(request):
    """The ``_Draw``s that building a case argument takes."""
    if isinstance(request, _Apply):
        return [d for arg in request.args for d in _draws_of(arg)]
    return [request] if isinstance(request, _Draw) else []


def _drawn(draws):
    """Each distinct ``_Draw`` of ``draws`` mapped to its array, all drawn in
    one ``_seeded_draws`` call."""
    unique = list(dict.fromkeys(draws))
    return dict(zip(unique, _seeded_draws(unique)))


def _built(request, drawn):
    """A case argument built from ``drawn``, which maps each ``_Draw`` to its
    array and keeps the value of each distinct ``_Apply``, built once; a
    constant is itself."""
    if isinstance(request, _Apply):
        if request not in drawn:
            # A list: CPython shrinks a tuple made from a generator, and
            # such tuples pile up on its free lists, raising peak memory.
            drawn[request] = request.fn(*[_built(arg, drawn) for arg in request.args])
        return drawn[request]
    return drawn[request] if isinstance(request, _Draw) else request


def _inverted(ensemble):
    """The ensemble of the inverses, under the same weights:
    ``spd_power(A, -1)`` from one ``eigh``, whose eigenvalues give the
    inverses' spectrum range."""
    lam, v = np.linalg.eigh(ensemble.matrices)
    lam = lam**-1.0
    return bc.Ensemble._generated(ensemble.weights, _k._from_spectrum(v, lam), lam.min(), lam.max())


def _report(solved):
    """The report of a solve's outcome; the error a solve raised is raised
    here, with a fresh traceback: an old one would grow by every raise."""
    if isinstance(solved, Exception):
        raise solved.with_traceback(None)
    return solved


def _mean(solved):
    """The mean of a solve's outcome, which must have converged."""
    report = _report(solved)
    if not report.converged:
        raise RuntimeError(f"barycenter solve did not converge (residual {report.residual:.3e})")
    return report.mean


def _arithmetic(ensemble):
    """The ensemble's weighted arithmetic mean, made exactly Hermitian."""
    return hermitianize(_k.weighted_sum(ensemble.weights, ensemble.matrices))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_fixed_point_certificate(ensemble):
    """Both residual forms of the mean's defining equation at the solved mean."""
    return _fixed_point(None, ensemble, *bc.wasserstein_means([ensemble]))


def _fixed_point(tol, ensemble, solved):
    report = _report(solved)
    # The solver's mean is exactly Hermitian and positive definite.
    eq_res = float(_k.mean_equation_residual(report.mean, ensemble.matrices, ensemble.weights))
    root = _k.spd_power(report.mean, 0.5)
    roots = _k._congruence_root(hermitianize(root @ ensemble.matrices @ root))
    acc = _k.weighted_sum(ensemble.weights, roots)
    fp_res = frobenius(report.mean - acc) / frobenius(report.mean)
    holds = report.converged and eq_res <= ToleranceConfig.residual_tol and fp_res <= 1e-9
    return CheckReport(
        check_name="fixed_point",
        holds=holds,
        margin=-eq_res,
        inputs={"dim": ensemble.dim, "count": ensemble.size},
        details={
            "equation_residual": eq_res,
            "self_map_relative_residual": fp_res,
            "iterations": report.iterations,
            "converged": report.converged,
        },
    )


def check_bounds(ensemble, *, tol=None):
    """Both order bounds of the mean X: 2I - sum_j w_j A_j^{-1} <= X <= sum_j w_j A_j."""
    return _bounds(tol, ensemble, *bc.wasserstein_means([ensemble]))


def _bounds(tol, ensemble, solved):
    mean = _mean(solved)
    eye = np.eye(ensemble.dim, dtype=np.complex128)
    inv_mix = _k.weighted_sum(ensemble.weights, _k.spd_power(ensemble.matrices, -1.0))
    lower = hermitianize(2.0 * eye - inv_mix)
    return _order_report(
        "bounds", tol,
        {"dim": ensemble.dim, "count": ensemble.size,
         "weights": [float(w) for w in ensemble.weights]},
        {},
        ("lower_margin", lower, mean),
        ("upper_margin", mean, _arithmetic(ensemble)),
    )


def _log_det_gap(top, weights, stack):
    """log det(top) - sum_j w_j log det(stack_j), and whether every matrix of
    the stack equals the first within 1e-8 in Frobenius norm."""
    log_dets = _k.log_det(stack)
    gap = float(_k.log_det(top)) - sum(float(wj) * float(ld) for wj, ld in zip(weights, log_dets))
    all_equal = all(frobenius(m - stack[0]) <= 1e-8 for m in stack[1:])
    return gap, all_equal


def check_det_inequality(ensemble, *, tol=None):
    """Determinant gap of the mean X: log det(X) - sum_j w_j log det(A_j) >= 0,
    with equality exactly on constant ensembles.

    The equality flag is raised when the log gap is <= 1e-9 and cross-checked
    against the matrices actually coinciding within 1e-8.
    """
    return _det_inequality(tol, ensemble, *bc.wasserstein_means([ensemble]))


def _det_inequality(tol, ensemble, solved):
    if tol is None:
        tol = ToleranceConfig()
    margin, all_equal = _log_det_gap(_mean(solved), ensemble.weights, ensemble.matrices)
    equality = margin <= 1e-9
    return CheckReport(
        check_name="det_inequality",
        holds=margin >= -tol.loewner_tol,
        margin=margin,
        inputs={"dim": ensemble.dim, "count": ensemble.size,
                "weights": [float(w) for w in ensemble.weights]},
        details={
            "equality": bool(equality),
            "all_matrices_equal": bool(all_equal),
            "equality_condition_consistent": bool(equality == all_equal),
        },
    )


def check_logdet_concavity(ensemble, *, tol=None):
    """log det of the ensemble's convex combination dominates the combination
    of its log dets, with equality exactly when all matrices coincide."""
    return _logdet_concavity(tol, ensemble)


def _logdet_concavity(tol, ensemble):
    if tol is None:
        tol = ToleranceConfig()
    margin, all_equal = _log_det_gap(_arithmetic(ensemble), ensemble.weights, ensemble.matrices)
    return CheckReport(
        check_name="logdet_concavity",
        holds=margin >= -tol.loewner_tol,
        margin=margin,
        inputs={"count": ensemble.size},
        details={"equality": bool(margin <= 1e-10), "all_matrices_equal": all_equal},
    )


def check_phi_geometric_mean(a, b, phi, tol=None):
    """Compression of a geometric mean never exceeds the geometric mean of
    the compressions."""
    am, bm = require_spd_pair(a, b)
    phi.require_source_dim(am.shape[0])
    return _phi_geometric_mean(tol, am, bm, phi)


def _phi_geometric_mean(tol, a, b, phi):
    lhs = phi.compress(_k.geometric_mean(a, b))
    rhs = _k.geometric_mean(*phi.compress(np.stack([a, b])))
    return _order_report(
        "phi_geometric_mean", tol,
        {"source_dim": phi.source_dim, "target_dim": phi.target_dim},
        {"map_kind": phi.kind},
        (None, lhs, rhs),
    )


def check_phi_wass(ensemble, phi, tol=None):
    """Unital compressions of the mean and of its inverse both dominate
    2I minus the compressed arithmetic mean of the inverses / originals."""
    phi.require_source_dim(ensemble.dim)
    return _phi_wass(tol, ensemble, phi, *bc.wasserstein_means([ensemble]))


def _phi_wass(tol, ensemble, phi, solved):
    eye_t = np.eye(phi.target_dim, dtype=np.complex128)
    mean = _mean(solved)
    inverses = _k.spd_power(ensemble.matrices, -1.0)
    mix_inv = _k.weighted_sum(ensemble.weights, phi.compress(inverses))
    mix = _k.weighted_sum(ensemble.weights, phi.compress(ensemble.matrices))
    phi_mean, phi_mean_inv = phi.compress(np.stack([mean, _k.spd_power(mean, -1.0)]))
    return _order_report(
        "phi_wass", tol,
        {"dim": ensemble.dim, "count": ensemble.size,
         "source_dim": phi.source_dim, "target_dim": phi.target_dim},
        {"map_kind": phi.kind},
        ("mean_side_margin", hermitianize(2.0 * eye_t - mix_inv), phi_mean),
        ("inverse_side_margin", hermitianize(2.0 * eye_t - mix), phi_mean_inv),
    )


def check_self_duality_gap(ensemble):
    """The mean of the inverses differs from the inverse of the mean: the
    check passes when the Frobenius gap exceeds the demonstration threshold."""
    return _self_duality_gap(None, ensemble, *bc.wasserstein_means([ensemble, _inverted(ensemble)]))


def _self_duality_gap(tol, ensemble, solved, solved_inverses):
    mean = _mean(solved)
    gap = frobenius(_mean(solved_inverses) - _k.spd_power(mean, -1.0))
    return CheckReport(
        check_name="self_duality_gap",
        holds=gap > SELF_DUALITY_GAP,
        margin=gap - SELF_DUALITY_GAP,
        inputs={"dim": ensemble.dim, "count": ensemble.size},
        details={"gap": gap, "threshold": SELF_DUALITY_GAP},
    )


def check_tensor_identity(a, b):
    """Kronecker product of two means equals the mean of the Kronecker-pair
    ensemble; margin is the negated relative Frobenius error."""
    return _tensor_identity(None, a, b, *bc.wasserstein_means([a, b, ensemble_tensor(a, b)]))


def _tensor_identity(tol, a, b, *solves):
    inputs = {"dims": [a.dim, b.dim], "counts": [a.size, b.size]}
    try:
        mean_a, mean_b, mean_t = map(_mean, solves)
    except RuntimeError as exc:
        return CheckReport("tensor_identity", False, -np.inf, inputs, {"error": str(exc)})
    product = np.kron(mean_a, mean_b)
    rel_err = frobenius(product - mean_t) / frobenius(product)
    return CheckReport(
        check_name="tensor_identity",
        holds=rel_err <= TENSOR_IDENTITY_RTOL,
        margin=-rel_err,
        inputs=inputs,
        details={"relative_error": rel_err, "tolerance": TENSOR_IDENTITY_RTOL},
    )


def check_tensor_arithmetic_bound(a, b, tol=None):
    """Kronecker product of two means below the arithmetic mean of all
    Kronecker pairs, which by bilinearity is (sum w A) (x) (sum u B)."""
    return _tensor_arithmetic_bound(tol, a, b, *bc.wasserstein_means([a, b]))


def _tensor_arithmetic_bound(tol, a, b, solved_a, solved_b):
    return _order_report(
        "tensor_arithmetic_bound", tol,
        {"dims": [a.dim, b.dim], "counts": [a.size, b.size]}, {},
        (None, np.kron(_mean(solved_a), _mean(solved_b)), np.kron(_arithmetic(a), _arithmetic(b))),
    )


def _solves_of_one_dim(a, b):
    """The solves of two ensembles of one dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return bc.wasserstein_means([a, b])


def check_hadamard_arithmetic_bound(a, b, tol=None):
    """Hadamard product of two means below the arithmetic mean of all
    Hadamard pairs, which by bilinearity is (sum w A) o (sum u B)."""
    return _hadamard_arithmetic_bound(tol, a, b, *_solves_of_one_dim(a, b))


def _hadamard_arithmetic_bound(tol, a, b, solved_a, solved_b):
    return _order_report(
        "hadamard_arithmetic_bound", tol,
        {"dim": a.dim, "counts": [a.size, b.size]}, {},
        (None, _mean(solved_a) * _mean(solved_b), _arithmetic(a) * _arithmetic(b)),
    )


def check_commuting_quadruple(a, b, c, d, tol=None):
    """For commuting pairs (a,b) and (c,d):
    (ab+ba) o (cd+dc) - (a^2+b^2) o (c^2+d^2) <= (a-b)^2 o (c-d)^2 / 2."""
    am, bm = require_spd(a, name="a"), require_spd(b, name="b")
    cm, dm = require_spd(c, name="c"), require_spd(d, name="d")
    bc.require_commuting(am, bm, "pair (a,b) does not commute")
    bc.require_commuting(cm, dm, "pair (c,d) does not commute")
    if am.shape != cm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {cm.shape}")
    return _commuting_quadruple(tol, (am, bm), (cm, dm))


def _commuting_quadruple(tol, ab, cd):
    (a, b), (c, d) = ab, cd
    lhs = (a @ b + b @ a) * (c @ d + d @ c) - (a @ a + b @ b) * (c @ c + d @ d)
    rhs = 0.5 * (((a - b) @ (a - b)) * ((c - d) @ (c - d)))
    return _order_report(
        "commuting_quadruple", tol, {"dim": int(a.shape[0])}, {},
        (None, hermitianize(lhs), hermitianize(rhs)),
    )


def check_hadamard_inverse(a, b, tol=None):
    """Two-sided bound on the inverse of a Hadamard product:
    (a o b)^{-1} <= a^{-1} o b^{-1} <= K (a o b)^{-1} with K the Kantorovich
    constant of the Kronecker product's spectral edges."""
    return _hadamard_inverse(tol, *require_spd_pair(a, b))


def _hadamard_inverse(tol, a, b):
    # The Schur product is validated as the inverse's argument.
    had_inv = _k.spd_power(require_spd(a * b, name="matrix"), -1.0)
    inv_a, inv_b = _k.spd_power(np.stack([a, b]), -1.0)
    inv_had = inv_a * inv_b
    constant, _ = _kronecker_kantorovich(a[None], b[None])
    return _order_report(
        "hadamard_inverse", tol, {"dim": int(a.shape[0])},
        {"kantorovich_constant": constant},
        ("lower_margin", had_inv, inv_had),
        ("upper_margin", inv_had, constant * had_inv),
    )


def _kronecker_kantorovich(a, b):
    """K = kantorovich(alpha gamma, beta delta) and the spectral edges [alpha,
    beta, gamma, delta] of two stacks of one dimension: the Kronecker pairs
    A_i (x) B_j, and so A_i o B_j = Z*(A_i (x) B_j)Z, have spectra in there."""
    eigs, n = np.linalg.eigvalsh(np.concatenate([a, b])), len(a)
    edges = [float(e) for e in (eigs[:n, 0].min(), eigs[:n, -1].max(),
                                eigs[n:, 0].min(), eigs[n:, -1].max())]
    return kantorovich(edges[0] * edges[2], edges[1] * edges[3]), edges


def _hadamard_pairs(a, b):
    """Stack of all Hadamard pairs A_i o B_j, in ``weight_tensor`` order
    (second index fastest)."""
    return (a.matrices[:, None] * b.matrices[None, :]).reshape(-1, a.dim, a.dim)


def check_kantorovich_hadamard(a, b, tol=None):
    """Kantorovich-type converse bound on the Hadamard product of two means
    against the mixed square-root terms of the pair ensembles."""
    return _kantorovich_hadamard(tol, a, b, *_solves_of_one_dim(a, b))


def _kantorovich_hadamard(tol, a, b, solved_a, solved_b):
    x, y = _mean(solved_a), _mean(solved_b)
    kantorovich_constant, edges = _kronecker_kantorovich(a.matrices, b.matrices)
    # The paper's (alpha gamma + beta delta) / (2 sqrt(alpha beta gamma delta)).
    constant = math.sqrt(kantorovich_constant)
    xy = x * y
    # The Schur product of the means is validated as the root's argument.
    root = _k.spd_power(require_spd(xy, name="matrix"), 0.5)
    inner = hermitianize(root @ _hadamard_pairs(a, b) @ root)
    rhs = _k.weighted_sum(_pair_weights(a.weights, b.weights), _k._congruence_root(inner))
    return _order_report(
        "kantorovich_hadamard", tol, {"dim": a.dim, "counts": [a.size, b.size]},
        {"constant": constant, "bounds": edges},
        (None, xy, constant * hermitianize(rhs)),
    )


def check_jensen_contraction(a, x, p, tol=None):
    """(x* a x)^p <= x* a^p x for 0 <= p <= 1 when the inverse of x is a
    contraction; ``x`` is a finite square matrix of the dimension of ``a``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"power p={p} outside [0, 1]")
    am = require_spd(a, name="matrix")
    xm = as_complex_matrix(x, name="x")
    if xm.shape != am.shape:
        m = am.shape[0]
        raise ValueError(f"x: expected a {m}x{m} matrix, the dimension of a, got shape {xm.shape}")
    return _jensen_contraction(tol, am, xm, p)


def _jensen_contraction(tol, a, x, p):
    sv = np.linalg.svd(x, compute_uv=False)
    inv_norm = 1.0 / float(sv[-1])
    if inv_norm > 1.0 + 1e-12:
        raise ValueError(
            f"inverse is not a contraction: ||x^-1||_op = {inv_norm:.6f} > 1"
        )
    # The congruence x* a x is validated as the power's argument.
    lhs = _k.spd_power(require_spd(hermitianize(x.conj().T @ a @ x), name="matrix"), float(p))
    rhs = hermitianize(x.conj().T @ _k.spd_power(a, float(p)) @ x)
    return _order_report(
        "jensen_contraction", tol, {"dim": int(a.shape[0]), "p": float(p)},
        {"inverse_operator_norm": inv_norm},
        (None, lhs, rhs),
    )


def check_sqrt_sum_lower_bound(a, b, tol=None):
    """When both solved means dominate the identity, the weighted sum of
    Hadamard-pair square roots dominates a Kantorovich-type multiple of I.

    Returns a skipped report (not a failure) when the contraction
    precondition on the means fails.
    """
    return _sqrt_sum_lower_bound(tol, a, b, *_solves_of_one_dim(a, b))


def _sqrt_sum_lower_bound(tol, a, b, solved_a, solved_b):
    eye = np.eye(a.dim, dtype=np.complex128)
    pre_x, pre_y = _loewner_verdicts([(eye, _mean(solved_a)), (eye, _mean(solved_b))], tol)
    if not (pre_x.holds and pre_y.holds):
        return CheckReport(
            check_name="sqrt_sum_lower_bound",
            holds=False,
            margin=_worst([pre_x, pre_y]).margin,
            inputs={"dim": a.dim, "counts": [a.size, b.size]},
            details={"reason": "solved means do not dominate the identity",
                     "mean_margins": [pre_x.margin, pre_y.margin]},
            skipped=True,
        )
    # 1/sqrt(K) = 2 sqrt(alpha beta gamma delta) / (alpha gamma + beta delta).
    constant = 1.0 / math.sqrt(_kronecker_kantorovich(a.matrices, b.matrices)[0])
    roots = _k.spd_power(_hadamard_pairs(a, b), 0.5)
    lhs = _k.weighted_sum(_pair_weights(a.weights, b.weights), roots)
    return _order_report(
        "sqrt_sum_lower_bound", tol, {"dim": a.dim, "counts": [a.size, b.size]},
        {"constant": constant},
        (None, constant * eye, hermitianize(lhs)),
    )


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _plan_field(name, values, expected, valid):
    """The plan field ``name`` as a tuple when it is a non-string iterable
    whose items pass ``valid``; otherwise a ValueError that starts with the
    field's name."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or isinstance(values, str) or not valid(items):
        raise ValueError(f"{name}: expected {expected}, got {values!r}")
    return items


@dataclass(frozen=True)
class SuitePlan:
    """What to run: check names, seed range [lo, hi), base dimensions, and
    the Loewner tolerance applied to every verdict."""

    checks: tuple = ()
    seeds: tuple = (0, 50)
    dims: tuple = (2, 3)
    tol: float = 1e-8

    def __post_init__(self):
        checks = _plan_field("checks", self.checks, "an array of check names",
                             lambda v: all(isinstance(c, str) for c in v))
        lo, hi = _plan_field("seeds", self.seeds, "[lo, hi] integers",
                             lambda v: len(v) == 2 and all(map(is_integer, v)))
        dims = _plan_field("dims", self.dims, "a non-empty array of integers",
                           lambda v: v and all(map(is_integer, v)))
        tol = require_positive(self.tol, "tol")
        if hi <= lo:
            raise ValueError(f"seeds: empty range [{lo}, {hi})")
        dims = tuple(require_positive(d, "dims", integer=True) for d in dims)
        unknown = [c for c in checks if c not in CHECK_REGISTRY]
        if unknown:
            raise ValueError(
                f"checks: unknown checks {unknown}; known: {sorted(CHECK_REGISTRY)}"
            )
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "seeds", (int(lo), int(hi)))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "tol", tol)

    def seed_list(self):
        return list(range(self.seeds[0], self.seeds[1]))

    def dim_for(self, seed):
        return self.dims[seed % len(self.dims)]

    def provenance(self):
        return {"seeds": list(self.seeds), "dims": list(self.dims), "tol": self.tol}


def _aggregate(name, plan, reports, extra_details):
    """Fold per-instance reports into one per-check report: it holds when
    every live (not skipped) report holds, and reports the ``_worst`` one."""
    live = [r for r in reports if not r.skipped]
    skipped = len(reports) - len(live)
    if not live:
        return CheckReport(
            check_name=name,
            holds=False,
            margin=-np.inf,
            inputs=plan.provenance(),
            details={"instances": len(reports), "skipped_instances": skipped},
            skipped=True,
        )
    worst = _worst(live)
    details = {
        "instances": len(reports),
        "skipped_instances": skipped,
        "worst_details": worst.details,
        "worst_inputs": worst.inputs,
    }
    details.update(extra_details)
    return CheckReport(
        check_name=name,
        holds=all(r.holds for r in live),
        margin=worst.margin,
        inputs=plan.provenance(),
        details=details,
    )


@dataclass(frozen=True)
class _Check:
    """One suite entry, whose core is the module function ``_<name>``.

    ``instances(plan)`` and ``equality_cases()`` declare the argument tuples
    of the generic instances and of the known equality cases, as requests
    (``_Draw``, ``_Apply``), trusted, and constants.
    ``solves(*args)`` lists the ensembles a built case needs solved, building
    the derived ones (Kronecker pairs, inverses); by default every
    ``Ensemble`` among the arguments. The core takes the tolerance, the built
    arguments and those solves' outcomes. ``finish(report, generic,
    equality)`` adds check-specific verdicts to the aggregate report.
    """

    instances: Callable
    equality_cases: Callable = lambda: ()
    finish: Callable = lambda report, generic, equality: None
    solves: Callable = lambda *args: [a for a in args if isinstance(a, bc.Ensemble)]


def _run_check(name, check, built):
    """Run the core of check ``name``, looked up at call time, on each
    generic, then each equality case of ``built`` = (plan, cases, solved):
    on its arguments and then the outcomes at its solve indices in
    ``solved``; aggregate the reports under the plan's tolerance."""
    plan, cases, solved = built
    tol = ToleranceConfig(loewner_tol=plan.tol)
    core = globals()[f"_{name}"]
    generic, equality = (
        [core(tol, *args, *map(solved.__getitem__, ix)) for args, ix in group] for group in cases
    )
    extra = {}
    if len(equality) == 1:
        extra["equality_case_margin"] = equality[0].margin
    elif equality:
        extra["equality_case_margins"] = [r.margin for r in equality]
    report = _aggregate(name, plan, generic + equality, extra)
    check.finish(report, generic, equality)
    return report


_UNIT = (0.5, 2.0)


def _spd(m, seed, salt):
    """The draw of an m x m matrix of spectrum in [0.5, 2]."""
    return _Draw(m, _mix(seed, salt), _UNIT)


def _repeated(weights, a):
    """The ensemble of ``a`` under each of the weights."""
    return bc.Ensemble(weights=weights, matrices=[a] * len(weights))


def _singletons(m, seed, *salts):
    return tuple(_Apply(_repeated, ((1.0,), _spd(m, seed, salt))) for salt in salts)


def _ensembles(plan, counts, limit=None, salts=(None,), dim=None, spectrum=_UNIT):
    """One random ensemble per salt for each of the first ``limit`` seeds
    (all when None), seeded by the seed mixed with the salt (the seed for
    None), of size ``counts[seed % len(counts)]`` and dimension ``dim(seed)``
    (the plan's when None)."""
    dim = dim or plan.dim_for
    return [
        tuple(_ensemble(dim(s), counts[s % len(counts)], s if salt is None else _mix(s, salt),
                        spectrum)
              for salt in salts)
        for s in plan.seed_list()[:limit]
    ]


def _commuting_pairs(m, seed, *salts):
    return tuple(_commuting(m, _mix(seed, salt), 2, _UNIT) for salt in salts)


def _isometry(s, k, seed):
    """The request of ``random_isometry_map(s, k, seed)``."""
    return _Apply(_isometry_map, (_Draw(s, seed), k))


def _finish_det_inequality(report, generic, equality):
    eq = equality[0]
    report.details["strict_on_distinct"] = all(
        r.margin > 1e-10 and not r.details["equality"] for r in generic
    )
    report.details["equality_case_ok"] = (
        eq.details["equality"] and eq.details["all_matrices_equal"] and abs(eq.margin) <= 1e-9
    )


def _finish_self_duality_gap(report, generic, equality):
    report.details["max_gap"] = max(r.details["gap"] for r in generic)
    # One demonstrated counterexample suffices; generic instances all show it.
    report.holds = any(r.holds for r in generic)


_EYE2 = np.eye(2, dtype=np.complex128)

_CHECKS = {
    "fixed_point": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 5)),
        # The singleton ensemble solves exactly.
        equality_cases=lambda: [_singletons(3, 0, 23)],
    ),
    "bounds": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 5)),
        # The identity singleton makes both bounds tight.
        equality_cases=lambda: [(_repeated((1.0,), _EYE2),)],
    ),
    "det_inequality": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3)),
        # A constant ensemble.
        equality_cases=lambda: [(_Apply(_repeated, ((0.25, 0.5, 0.25), _spd(3, 1, 29))),)],
        finish=_finish_det_inequality,
    ),
    "logdet_concavity": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 4)),
        equality_cases=lambda: [(_Apply(_repeated, ((0.5, 0.5), _spd(3, 2, 31))),)],
        solves=lambda e: (),
    ),
    "phi_geometric_mean": _Check(
        instances=lambda plan: [
            (_spd(m, s, 41), _spd(m, s, 43), _isometry(m, max(1, m - 1 - s % 2), _mix(s, 37)))
            for s in plan.seed_list() for m in [max(2, plan.dim_for(s))]
        ],
        # A unitary conjugation commutes with the mean.
        equality_cases=lambda: [(_spd(3, 3, 53), _spd(3, 3, 59), _isometry(3, 3, _mix(3, 47)))],
    ),
    "phi_wass": _Check(
        instances=lambda plan: [
            (_ensemble(m, 2 + s % 2, s, _UNIT),
             _isometry(m, m if s % 3 == 0 else max(1, m - 1), _mix(s, 61)))
            for s in plan.seed_list() for m in [max(2, plan.dim_for(s))]
        ],
    ),
    "self_duality_gap": _Check(
        instances=lambda plan: _ensembles(
            plan, (2, 3), limit=8, dim=lambda s: max(2, plan.dim_for(s))
        ),
        finish=_finish_self_duality_gap,
        solves=lambda e: (e, _inverted(e)),
    ),
    "tensor_identity": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), salts=(67, 71), dim=lambda s: 2),
        # Singleton ensembles reproduce the plain Kronecker product.
        equality_cases=lambda: [_singletons(2, 4, 73, 79)],
        solves=lambda a, b: (a, b, ensemble_tensor(a, b)),
    ),
    "tensor_arithmetic_bound": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), salts=(83, 89), dim=lambda s: 2),
        equality_cases=lambda: [_singletons(2, 5, 97, 101)],
    ),
    "hadamard_arithmetic_bound": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), salts=(103, 107)),
        equality_cases=lambda: [_singletons(3, 6, 109, 113)],
    ),
    "commuting_quadruple": _Check(
        instances=lambda plan: [
            _commuting_pairs(plan.dim_for(s), s, 127, 131) for s in plan.seed_list()
        ],
        # Coincident pairs zero out both sides.
        equality_cases=lambda: [
            tuple(_Apply(itemgetter(0, 0), (d,)) for d in _commuting_pairs(3, 7, 137, 139))
        ],
    ),
    "hadamard_inverse": _Check(
        instances=lambda plan: [
            (_spd(m, s, 149), _spd(m, s, 151))
            for s in plan.seed_list() for m in [min(4, plan.dim_for(s))]
        ],
        equality_cases=lambda: [(_EYE2, _EYE2)],
    ),
    "kantorovich_hadamard": _Check(
        instances=lambda plan: _ensembles(
            plan, (2,), salts=(157, 163), dim=lambda s: min(3, plan.dim_for(s))
        ),
        equality_cases=lambda: [(_repeated((1.0,), _EYE2),) * 2],
    ),
    "jensen_contraction": _Check(
        instances=lambda plan: [
            (_spd(m, s, 167), _Apply(np.multiply, (1.0 + (s % 5) * 0.5, _Draw(m, _mix(s, 173)))),
             (0.25, 0.5, 0.75)[s % 3])
            for s in plan.seed_list() for m in [plan.dim_for(s)]
        ],
        # p = 1 always, p = 0 for unitary x.
        equality_cases=lambda: [
            (_spd(3, 8, 179), _Apply(np.multiply, (2.0, _Draw(3, _mix(8, 181)))), 1.0),
            (_spd(3, 8, 179), _Draw(3, _mix(8, 181)), 0.0),
        ],
    ),
    "sqrt_sum_lower_bound": _Check(
        instances=lambda plan: _ensembles(plan, (2,), salts=(191, 193), spectrum=(1.0, 3.0)),
        equality_cases=lambda: [(_repeated((1.0,), _EYE2),) * 2],
    ),
}

# Each value maps what ``run_suite`` built for its check, (plan, cases, solved), to its report.
CHECK_REGISTRY = {name: partial(_run_check, name, check) for name, check in _CHECKS.items()}

# "all" in plans and on the CLI expands to these.
DEFAULT_CHECKS = tuple(CHECK_REGISTRY)


def default_plan(**overrides):
    kwargs = {"checks": DEFAULT_CHECKS}
    kwargs.update(overrides)
    return SuitePlan(**kwargs)


def run_suite(plan):
    """Run every check in the plan; reports follow plan order.

    The steps pass their data on, and nothing outlives the call: each check
    declares its cases; one ``_seeded_draws`` call draws every matrix they
    take; the cases are built, and one ``bc.wasserstein_means`` call solves
    each distinct ensemble content they list; then each check's
    ``CHECK_REGISTRY`` entry, looked up at call time, runs its core. An error
    in any step fails only its check's report."""
    state = [[name, None] for name in plan.checks]
    pending = _build_cases(state, plan)
    solved = bc.wasserstein_means([e for _, e in pending.values()])
    _per_check(state, plan, lambda name, cases: CHECK_REGISTRY[name]((plan, cases, solved)))
    return [report for _, report in state]


def _build_cases(state, plan):
    """Declare the cases of each check of ``state``, draw every matrix they
    take in one ``_seeded_draws`` call, and build them; return the ensembles
    they solve, ``_solve_index``'s map."""
    draws, pending = [], {}
    _per_check(state, plan, lambda name, _: _declared(_CHECKS[name], plan, draws))
    drawn = _drawn(draws)
    _per_check(state, plan, lambda name, cases: _built_cases(_CHECKS[name], cases, drawn, pending))
    return pending


def _per_check(state, plan, step):
    """Replace the value of each ``[name, value]`` entry of ``state`` that is
    not yet a report by ``step(name, value)``; an error that raises becomes
    the check's report."""
    for entry in (e for e in state if not isinstance(e[1], CheckReport)):
        try:
            entry[1] = step(*entry)
        except Exception as exc:  # noqa: BLE001 - captured per report
            error = {"error": f"{type(exc).__name__}: {exc}"}
            entry[1] = CheckReport(entry[0], False, -np.inf, plan.provenance(), error)


def _declared(check, plan, draws):
    """The check's generic and equality cases, as declared; the ``_Draw``s
    they take are appended to ``draws``."""
    cases = list(check.instances(plan)), list(check.equality_cases())
    draws += [d for group in cases for case in group for arg in case for d in _draws_of(arg)]
    return cases


def _built_cases(check, cases, drawn, pending):
    """Each case as its built arguments and the solve indices of the
    ensembles ``check.solves`` lists for them."""
    built = [[tuple(_built(arg, drawn) for arg in case) for case in group] for group in cases]
    return [[(args, [_solve_index(e, pending) for e in check.solves(*args)]) for args in group]
            for group in built]


def _solve_index(ensemble, pending):
    """The index of the content (weight and matrix bytes) of ``ensemble`` in
    ``pending``, which maps each content to its index and first ensemble."""
    key = ensemble.weights.tobytes(), ensemble.matrices.tobytes()
    return pending.setdefault(key, (len(pending), ensemble))[0]
