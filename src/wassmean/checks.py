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

A check on an ensemble solves the ensemble's mean itself, with the default
``SolverConfig``; it takes no mean or solver configuration. The Hadamard
checks follow from the Kronecker pairs through Ando's compression
Z*(A (x) B)Z = A o B: each Kantorovich-type constant is a function of the
pairs' one constant K, and the arithmetic sides are bilinear, (sum w A) (x)
(sum u B) and (sum w A) o (sum u B). A check validates each raw argument
once, at its entry, and trusts what it computes from it; a derived matrix
that the positive definite floor could still reject (a Schur product, a
congruence) keeps its one validation. Seeded matrices come in stacks.

``run_suite`` drives every registered check over seeded random instances,
always including the known equality cases: one generic driver runs each entry
of a table that declares the check's instances, its equality cases and the
call that evaluates them. It works in three phases over a memo that lives
only for that call. It first collects: each check's instances and equality
cases are materialised once, and every ensemble they will solve, as
``_Check.solves`` lists them, is gathered; a derived ensemble (Kronecker
pairs, inverses) is built once per source ensemble or pair. It then solves
each distinct ensemble content once, with one stacked solver call per
(n, m, m) shape (``bc.wasserstein_means``), and stores each outcome, a report
or an error. Last it evaluates each check through ``CHECK_REGISTRY`` on the
materialised cases, whose solves are memo hits; a stored error is raised
where its check asks for it. A registry entry called on its own, and the
``check_*`` functions, build and solve their inputs afresh.
"""

import math
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels as _k
from . import barycenter as bc
from .hermitian import (
    ToleranceConfig,
    _loewner_verdicts,
    _random_spds,
    as_complex_matrix,
    frobenius,
    hermitianize,
    is_integer,
    random_commuting_spds,
    random_unitary,
    require_positive,
    require_spd,
    require_spd_pair,
)
from .means import kantorovich
from .products import _pair_weights, ensemble_tensor, random_isometry_map

SELF_DUALITY_GAP = 1e-4
TENSOR_IDENTITY_RTOL = 1e-6

# The memo of the running ``run_suite`` call, None outside one: ensembles keyed
# by ``random_ensemble``'s arguments, the derived tensor and inverted ensembles
# keyed by the ensembles they come from, solve reports or errors keyed by the
# ensemble's weight and matrix bytes, and each check's materialised cases
# keyed by its name.
_SUITE_MEMO = ContextVar("suite_memo", default=None)


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


def _shared(key, build):
    """``build()``, called once per ``key`` inside ``run_suite`` and on every
    call outside it."""
    memo = _SUITE_MEMO.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def random_ensemble(m, n, seed, eig_lo=0.5, eig_hi=2.0, commuting=False):
    """Seeded random ensemble; ``commuting=True`` shares one eigenbasis.

    Inside ``run_suite`` equal arguments return the same (read-only)
    ensemble."""
    n = require_positive(n, "n", integer=True)
    return _shared(
        ("ensemble", m, n, seed, eig_lo, eig_hi, commuting),
        lambda: _build_ensemble(m, n, seed, eig_lo, eig_hi, commuting),
    )


def _build_ensemble(m, n, seed, eig_lo, eig_hi, commuting):
    if commuting:
        mats = random_commuting_spds(m, n, _mix(seed, 11), eig_lo, eig_hi)
    else:
        mats = _random_spds(m, [_mix(seed, 13 + j) for j in range(n)], eig_lo, eig_hi)
    return bc.Ensemble(weights=random_weights(n, _mix(seed, 17)), matrices=mats)


def _tensor(a, b):
    """``ensemble_tensor(a, b)``, built once per pair inside ``run_suite``."""
    return _shared(("tensor", a, b), lambda: ensemble_tensor(a, b))


def _inverted(ensemble):
    """The ensemble of the inverses, under the same weights; built once per
    ensemble inside ``run_suite``."""
    return _shared(
        ("inverted", ensemble),
        lambda: bc.Ensemble(
            weights=ensemble.weights, matrices=_k.spd_power(ensemble.matrices, -1.0)
        ),
    )


def _mean_report(ensemble):
    """``bc.wasserstein_mean(ensemble)``, solved once per ensemble content
    inside ``run_suite``."""
    outcome = _shared(_solve_key(ensemble), lambda: bc.wasserstein_means([ensemble])[0])
    if isinstance(outcome, Exception):
        # A fresh traceback: an old one would grow by every raise.
        raise outcome.with_traceback(None)
    return outcome


def _solve_key(ensemble):
    return ("solve", ensemble.weights.tobytes(), ensemble.matrices.tobytes())


def _arithmetic(ensemble):
    """The ensemble's weighted arithmetic mean, made exactly Hermitian."""
    return hermitianize(_k.weighted_sum(ensemble.weights, ensemble.matrices))


def _solve(ensemble):
    report = _mean_report(ensemble)
    if not report.converged:
        raise RuntimeError(
            f"barycenter solve did not converge (residual {report.residual:.3e})"
        )
    return report.mean


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_fixed_point_certificate(ensemble, tol=None):
    """Both residual forms of the mean's defining equation at the solved mean."""
    if tol is None:
        tol = ToleranceConfig()
    report = _mean_report(ensemble)
    # The solver's mean is exactly Hermitian and positive definite.
    eq_res = float(_k.mean_equation_residual(report.mean, ensemble.matrices, ensemble.weights))
    root = _k.spd_power(report.mean, 0.5)
    roots = _k.spd_power(hermitianize(root @ ensemble.matrices @ root), 0.5)
    acc = _k.weighted_sum(ensemble.weights, roots)
    fp_res = frobenius(report.mean - acc) / frobenius(report.mean)
    holds = report.converged and eq_res <= tol.residual_tol and fp_res <= 1e-9
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
    mean = _solve(ensemble)
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
    if tol is None:
        tol = ToleranceConfig()
    margin, all_equal = _log_det_gap(_solve(ensemble), ensemble.weights, ensemble.matrices)
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
    lhs = phi.compress(_k.geometric_mean(am, bm))
    rhs = _k.geometric_mean(*phi.compress(np.stack([am, bm])))
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
    eye_t = np.eye(phi.target_dim, dtype=np.complex128)
    mean = _solve(ensemble)
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
    mean = _solve(ensemble)
    mean_of_inverses = _solve(_inverted(ensemble))
    gap = frobenius(mean_of_inverses - _k.spd_power(mean, -1.0))
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
    try:
        mean_a = _solve(a)
        mean_b = _solve(b)
        mean_t = _solve(_tensor(a, b))
    except RuntimeError as exc:
        return CheckReport(
            check_name="tensor_identity",
            holds=False,
            margin=-np.inf,
            inputs={"dims": [a.dim, b.dim], "counts": [a.size, b.size]},
            details={"error": str(exc)},
        )
    product = np.kron(mean_a, mean_b)
    rel_err = frobenius(product - mean_t) / frobenius(product)
    return CheckReport(
        check_name="tensor_identity",
        holds=rel_err <= TENSOR_IDENTITY_RTOL,
        margin=-rel_err,
        inputs={"dims": [a.dim, b.dim], "counts": [a.size, b.size]},
        details={"relative_error": rel_err, "tolerance": TENSOR_IDENTITY_RTOL},
    )


def check_tensor_arithmetic_bound(a, b, tol=None):
    """Kronecker product of two means below the arithmetic mean of all
    Kronecker pairs, which by bilinearity is (sum w A) (x) (sum u B)."""
    return _order_report(
        "tensor_arithmetic_bound", tol,
        {"dims": [a.dim, b.dim], "counts": [a.size, b.size]}, {},
        (None, np.kron(_solve(a), _solve(b)), np.kron(_arithmetic(a), _arithmetic(b))),
    )


def _means_of_one_dim(a, b):
    """The solved means of two ensembles of one dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _solve(a), _solve(b)


def check_hadamard_arithmetic_bound(a, b, tol=None):
    """Hadamard product of two means below the arithmetic mean of all
    Hadamard pairs, which by bilinearity is (sum w A) o (sum u B)."""
    x, y = _means_of_one_dim(a, b)
    return _order_report(
        "hadamard_arithmetic_bound", tol,
        {"dim": a.dim, "counts": [a.size, b.size]}, {},
        (None, x * y, _arithmetic(a) * _arithmetic(b)),
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
    lhs = (am @ bm + bm @ am) * (cm @ dm + dm @ cm) - (am @ am + bm @ bm) * (cm @ cm + dm @ dm)
    diff_ab = am - bm
    diff_cd = cm - dm
    rhs = 0.5 * ((diff_ab @ diff_ab) * (diff_cd @ diff_cd))
    return _order_report(
        "commuting_quadruple", tol, {"dim": int(am.shape[0])}, {},
        (None, hermitianize(lhs), hermitianize(rhs)),
    )


def check_hadamard_inverse(a, b, tol=None):
    """Two-sided bound on the inverse of a Hadamard product:
    (a o b)^{-1} <= a^{-1} o b^{-1} <= K (a o b)^{-1} with K the Kantorovich
    constant of the Kronecker product's spectral edges."""
    am, bm = require_spd_pair(a, b)
    # The Schur product is validated as the inverse's argument.
    had_inv = _k.spd_power(require_spd(am * bm, name="matrix"), -1.0)
    inv_a, inv_b = _k.spd_power(np.stack([am, bm]), -1.0)
    inv_had = inv_a * inv_b
    constant, _ = _kronecker_kantorovich(am[None], bm[None])
    return _order_report(
        "hadamard_inverse", tol, {"dim": int(am.shape[0])},
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
    x, y = _means_of_one_dim(a, b)
    kantorovich_constant, edges = _kronecker_kantorovich(a.matrices, b.matrices)
    # The paper's (alpha gamma + beta delta) / (2 sqrt(alpha beta gamma delta)).
    constant = math.sqrt(kantorovich_constant)
    xy = x * y
    # The Schur product of the means is validated as the root's argument.
    root = _k.spd_power(require_spd(xy, name="matrix"), 0.5)
    inner = hermitianize(root @ _hadamard_pairs(a, b) @ root)
    rhs = _k.weighted_sum(_pair_weights(a.weights, b.weights), _k.spd_power(inner, 0.5))
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
    sv = np.linalg.svd(xm, compute_uv=False)
    inv_norm = 1.0 / float(sv[-1])
    if inv_norm > 1.0 + 1e-12:
        raise ValueError(
            f"inverse is not a contraction: ||x^-1||_op = {inv_norm:.6f} > 1"
        )
    # The congruence x* a x is validated as the power's argument.
    lhs = _k.spd_power(require_spd(hermitianize(xm.conj().T @ am @ xm), name="matrix"), float(p))
    rhs = hermitianize(xm.conj().T @ _k.spd_power(am, float(p)) @ xm)
    return _order_report(
        "jensen_contraction", tol, {"dim": int(am.shape[0]), "p": float(p)},
        {"inverse_operator_norm": inv_norm},
        (None, lhs, rhs),
    )


def check_sqrt_sum_lower_bound(a, b, tol=None):
    """When both solved means dominate the identity, the weighted sum of
    Hadamard-pair square roots dominates a Kantorovich-type multiple of I.

    Returns a skipped report (not a failure) when the contraction
    precondition on the means fails.
    """
    x, y = _means_of_one_dim(a, b)
    eye = np.eye(a.dim, dtype=np.complex128)
    pre_x, pre_y = _loewner_verdicts([(eye, x), (eye, y)], tol)
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
    """One suite entry.

    ``instances(plan)`` yields the argument tuples of the generic instances
    and ``equality_cases()`` returns those of the known equality cases;
    ``evaluate(tol, *args)`` turns one tuple into a ``CheckReport``, solving
    with the default solver config the ensembles ``solves(*args)`` lists:
    by default every ``Ensemble`` among the arguments.
    ``evaluate`` names its check function through the module attribute at
    call time, never through a stored reference, so a rebound attribute is
    the one that runs. ``finish(report, generic, equality)``, when set, adds
    check-specific verdicts to the aggregate report.
    """

    instances: Callable
    evaluate: Callable
    equality_cases: Callable = lambda: ()
    finish: Callable | None = None
    solves: Callable = lambda *args: [a for a in args if isinstance(a, bc.Ensemble)]


def _cases(name, check, plan):
    """The entry's generic and equality-case argument tuples, materialised
    once per ``run_suite`` call."""
    return _shared(
        ("cases", name), lambda: (list(check.instances(plan)), list(check.equality_cases()))
    )


def _solved_ensembles(check, cases):
    """Every ensemble the entry's evaluation of ``cases`` will solve."""
    for args in (*cases[0], *cases[1]):
        yield from check.solves(*args)


def _run_check(name, check, plan):
    """Evaluate the entry's generic instances, then its equality cases, under
    the suite tolerance; aggregate them."""
    tol = ToleranceConfig(loewner_tol=plan.tol)
    instances, equality_cases = _cases(name, check, plan)
    generic = [check.evaluate(tol, *args) for args in instances]
    equality = [check.evaluate(tol, *args) for args in equality_cases]
    extra = {}
    if len(equality) == 1:
        extra["equality_case_margin"] = equality[0].margin
    elif equality:
        extra["equality_case_margins"] = [r.margin for r in equality]
    report = _aggregate(name, plan, generic + equality, extra)
    if check.finish is not None:
        check.finish(report, generic, equality)
    return report


def _spds(m, seed, *salts):
    """Stack of random m x m matrices of spectrum in [0.5, 2], one per salt."""
    return _random_spds(m, [_mix(seed, salt) for salt in salts], 0.5, 2.0)


def _spd(m, seed, salt):
    return _spds(m, seed, salt)[0]


def _singleton(a):
    return bc.Ensemble(weights=[1.0], matrices=[a])


def _ensembles(plan, counts, min_dim=1, limit=None):
    """One random ensemble for each of the first ``limit`` seeds (all when
    None), of the plan's dimension but at least ``min_dim``, and of size
    ``counts[seed % len(counts)]``."""
    for seed in plan.seed_list()[:limit]:
        m = max(min_dim, plan.dim_for(seed))
        yield (random_ensemble(m, counts[seed % len(counts)], seed),)


def _ensemble_pairs(plan, salts, counts, dim=None, eig_lo=0.5, eig_hi=2.0):
    """Two random ensembles per seed, one per salt, of size
    ``counts[seed % len(counts)]`` and of dimension ``dim(seed)`` (the plan's
    when None)."""
    for seed in plan.seed_list():
        m = plan.dim_for(seed) if dim is None else dim(seed)
        n = counts[seed % len(counts)]
        yield tuple(random_ensemble(m, n, _mix(seed, salt), eig_lo, eig_hi) for salt in salts)


def _phi_geometric_mean_instances(plan):
    for seed in plan.seed_list():
        m = max(2, plan.dim_for(seed))
        k = max(1, m - 1 - seed % 2)
        a, b = _spds(m, seed, 41, 43)
        yield a, b, random_isometry_map(m, k, _mix(seed, 37))


def _phi_wass_instances(plan):
    for seed in plan.seed_list():
        m = max(2, plan.dim_for(seed))
        k = m if seed % 3 == 0 else max(1, m - 1)
        phi = random_isometry_map(m, k, _mix(seed, 61))
        yield random_ensemble(m, (2, 3)[seed % 2], seed), phi


def _commuting_pair(m, seed, salt):
    return random_commuting_spds(m, 2, _mix(seed, salt), 0.5, 2.0)


def _hadamard_inverse_instances(plan):
    for seed in plan.seed_list():
        m = min(4, plan.dim_for(seed))
        yield tuple(_spds(m, seed, 149, 151))


def _jensen_instances(plan):
    for seed in plan.seed_list():
        m = plan.dim_for(seed)
        scale = 1.0 + (seed % 5) * 0.5
        x = scale * random_unitary(m, _mix(seed, 173))
        yield _spd(m, seed, 167), x, (0.25, 0.5, 0.75)[seed % 3]


def _jensen_equality_cases():
    # p = 1 always, p = 0 for unitary x.
    a = _spd(3, 8, 179)
    u = random_unitary(3, _mix(8, 181))
    return [(a, 2.0 * u, 1.0), (a, u, 0.0)]


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
        evaluate=lambda tol, e: check_fixed_point_certificate(e, tol=tol),
        # The singleton ensemble solves exactly.
        equality_cases=lambda: [(_singleton(_spd(3, 0, 23)),)],
    ),
    "bounds": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 5)),
        evaluate=lambda tol, e: check_bounds(e, tol=tol),
        # The identity singleton makes both bounds tight.
        equality_cases=lambda: [(_singleton(_EYE2),)],
    ),
    "det_inequality": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3)),
        evaluate=lambda tol, e: check_det_inequality(e, tol=tol),
        # A constant ensemble.
        equality_cases=lambda: [
            (bc.Ensemble(weights=[0.25, 0.5, 0.25], matrices=[_spd(3, 1, 29)] * 3),)
        ],
        finish=_finish_det_inequality,
    ),
    "logdet_concavity": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 4)),
        evaluate=lambda tol, e: check_logdet_concavity(e, tol=tol),
        equality_cases=lambda: [
            (bc.Ensemble(weights=[0.5, 0.5], matrices=[_spd(3, 2, 31)] * 2),)
        ],
        solves=lambda e: (),
    ),
    "phi_geometric_mean": _Check(
        instances=_phi_geometric_mean_instances,
        evaluate=lambda tol, a, b, phi: check_phi_geometric_mean(a, b, phi, tol),
        # A unitary conjugation commutes with the mean.
        equality_cases=lambda: [
            (_spd(3, 3, 53), _spd(3, 3, 59), random_isometry_map(3, 3, _mix(3, 47)))
        ],
    ),
    "phi_wass": _Check(
        instances=_phi_wass_instances,
        evaluate=lambda tol, e, phi: check_phi_wass(e, phi, tol=tol),
    ),
    "self_duality_gap": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), min_dim=2, limit=8),
        evaluate=lambda tol, e: check_self_duality_gap(e),
        finish=_finish_self_duality_gap,
        solves=lambda e: (e, _inverted(e)),
    ),
    "tensor_identity": _Check(
        instances=lambda plan: _ensemble_pairs(plan, (67, 71), (2, 3), lambda s: 2),
        evaluate=lambda tol, a, b: check_tensor_identity(a, b),
        # Singleton ensembles reproduce the plain Kronecker product.
        equality_cases=lambda: [(_singleton(_spd(2, 4, 73)), _singleton(_spd(2, 4, 79)))],
        solves=lambda a, b: (a, b, _tensor(a, b)),
    ),
    "tensor_arithmetic_bound": _Check(
        instances=lambda plan: _ensemble_pairs(plan, (83, 89), (2, 3), lambda s: 2),
        evaluate=lambda tol, a, b: check_tensor_arithmetic_bound(a, b, tol=tol),
        equality_cases=lambda: [(_singleton(_spd(2, 5, 97)), _singleton(_spd(2, 5, 101)))],
    ),
    "hadamard_arithmetic_bound": _Check(
        instances=lambda plan: _ensemble_pairs(plan, (103, 107), (2, 3)),
        evaluate=lambda tol, a, b: check_hadamard_arithmetic_bound(a, b, tol=tol),
        equality_cases=lambda: [(_singleton(_spd(3, 6, 109)), _singleton(_spd(3, 6, 113)))],
    ),
    "commuting_quadruple": _Check(
        instances=lambda plan: (
            (*_commuting_pair(plan.dim_for(s), s, 127), *_commuting_pair(plan.dim_for(s), s, 131))
            for s in plan.seed_list()
        ),
        evaluate=lambda tol, a, b, c, d: check_commuting_quadruple(a, b, c, d, tol),
        # Coincident pairs zero out both sides.
        equality_cases=lambda: [
            (_commuting_pair(3, 7, 137)[0],) * 2 + (_commuting_pair(3, 7, 139)[0],) * 2
        ],
    ),
    "hadamard_inverse": _Check(
        instances=_hadamard_inverse_instances,
        evaluate=lambda tol, a, b: check_hadamard_inverse(a, b, tol),
        equality_cases=lambda: [(_EYE2, _EYE2)],
    ),
    "kantorovich_hadamard": _Check(
        instances=lambda plan: _ensemble_pairs(
            plan, (157, 163), (2,), lambda s: min(3, plan.dim_for(s))
        ),
        evaluate=lambda tol, a, b: check_kantorovich_hadamard(a, b, tol=tol),
        equality_cases=lambda: [(_singleton(_EYE2),) * 2],
    ),
    "jensen_contraction": _Check(
        instances=_jensen_instances,
        evaluate=lambda tol, a, x, p: check_jensen_contraction(a, x, p, tol),
        equality_cases=_jensen_equality_cases,
    ),
    "sqrt_sum_lower_bound": _Check(
        instances=lambda plan: _ensemble_pairs(plan, (191, 193), (2,), eig_lo=1.0, eig_hi=3.0),
        evaluate=lambda tol, a, b: check_sqrt_sum_lower_bound(a, b, tol=tol),
        equality_cases=lambda: [(_singleton(_EYE2),) * 2],
    ),
}

# Each value maps a plan to the check's aggregate CheckReport.
CHECK_REGISTRY = {name: partial(_run_check, name, check) for name, check in _CHECKS.items()}

# "all" in plans and on the CLI expands to these.
DEFAULT_CHECKS = tuple(CHECK_REGISTRY)


def default_plan(**overrides):
    kwargs = {"checks": DEFAULT_CHECKS}
    kwargs.update(overrides)
    return SuitePlan(**kwargs)


def run_suite(plan):
    """Run every check in the plan; a failing driver is captured in its
    report rather than aborting the suite. Reports follow plan order.

    Seeded ensembles, cases and solves are shared between the checks of this
    call only; the memo is dropped when the call returns."""
    reports = []
    token = _SUITE_MEMO.set({})
    try:
        _presolve(plan)
        for name in plan.checks:
            driver = CHECK_REGISTRY[name]
            try:
                reports.append(driver(plan))
            except Exception as exc:  # noqa: BLE001 - captured per report
                reports.append(
                    CheckReport(
                        check_name=name,
                        holds=False,
                        margin=-np.inf,
                        inputs=plan.provenance(),
                        details={"error": f"{type(exc).__name__}: {exc}"},
                    )
                )
    finally:
        _SUITE_MEMO.reset(token)
    return reports


def _presolve(plan):
    """Materialise the cases of the plan's checks into the running memo, then
    solve every distinct ensemble content they will solve, batched by shape.

    A check whose cases fail to materialise is skipped here: its driver
    materialises them again and fails in its own report, as it would have."""
    pending = {}
    for name in plan.checks:
        try:
            check = _CHECKS[name]
            cases = _cases(name, check, plan)
            for ensemble in _solved_ensembles(check, cases):
                pending.setdefault(_solve_key(ensemble), ensemble)
        except Exception:  # noqa: BLE001 - raised again by the check's driver
            pass
    for key, outcome in zip(pending, bc.wasserstein_means(list(pending.values()))):
        _shared(key, lambda: outcome)
