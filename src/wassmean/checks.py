"""Machine verification of the mean's order, determinant, positive-map,
tensor-product and Hadamard-product properties.

A check is one entry of ``_CHECKS`` and one private core ``_<name>``, which
evaluates a group of cases of one argument shape, stacked (``_evaluate``),
to one :class:`CheckReport` per case, bit for bit the case's alone; one
builder, ``_reports``, makes and judges every report. The core trusts its
inputs; a derived matrix that the positive definite floor could still
reject (a Schur product, a congruence) keeps its one validation. ``check``
evaluates a group of one; ``run_suite`` runs the cores on seeded instances
and on the known equality cases, which each entry declares as requests of
``seeded`` (``_Draw``, ``_Apply``).
"""

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import _kernels as _k
from . import barycenter as bc
from . import hermitian
from .hermitian import (
    ToleranceConfig,
    _loewner_verdicts,
    _of_type,
    _real,
    as_complex_matrix,
    frobenius,
    hermitianize,
    is_integer,
    require_positive,
    require_spd,
    require_spd_pair,
)
from .means import kantorovich
from .products import PositiveMapSpec, _pairs, ensemble_tensor
from .seeded import _Apply, _built, _commuting, _Draw, _drawn, _draws_of, _ensemble, _isometry, _mix

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
        # JSON has no Infinity or NaN: a non-finite number anywhere is null.
        return _finite_or_null({**vars(self), "holds": bool(self.holds),
                                "skipped": bool(self.skipped), "margin": float(self.margin)})


def _finite_or_null(value):
    """``value`` with each non-finite float in its dicts and lists made None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(map(_finite_or_null, value))
    return None if isinstance(value, float) and not math.isfinite(value) else value


class _Ensembles(NamedTuple):
    """A group's ensembles of one shape: (S, n) weights, (S, n, m, m) matrices."""

    weights: np.ndarray
    matrices: np.ndarray
    dim = property(lambda self: self.matrices.shape[-1])
    size = property(lambda self: self.weights.shape[-1])


class _Maps(NamedTuple):
    """A group's maps of one kind and shape: (S, s, k) isometries."""

    kind: str
    isometry: np.ndarray
    source_dim = property(lambda self: self.isometry.shape[-2])
    target_dim = property(lambda self: self.isometry.shape[-1])

    def compress(self, a):
        """V* A V for each A of each case's stack, by its isometry V, unvalidated."""
        v = self.isometry[:, None]
        return hermitianize(_k._adjoint(v) @ a @ v)


_Verdict = NamedTuple("_Verdict", [("holds", bool), ("margin", float)])


def _gap(margin, slack):
    """A scalar result's verdict, holding at ``margin >= -slack``; an error e
    within bound b is the gap -e of slack b, a gap that must be positive has
    slack -ulp(0)."""
    return _Verdict(margin >= -slack, margin)


def _reports(name, tol, inputs, details, *comparisons, results=None, precondition=None):
    """Check ``name``'s report on each case of a group: the one place a
    ``CheckReport`` is built. ``inputs`` and ``details`` hold each case's
    dict (or one for all), ``results`` each case's verdicts (``_Verdict``s,
    or the reports ``_aggregate`` folds) or the error it raised.
    ``comparisons`` ``(key, lhs, rhs)`` and ``precondition`` ``(reason, key,
    [(lhs, rhs), ...])`` hold stacks over the cases; one ``_loewner_verdicts``
    call judges every ``lhs <= rhs``.

    An error fails a case at margin -inf, its details only ``error`` = "Type:
    message"; a failed precondition skips it at the ``_worst`` of its
    margins, listed under ``key`` beside ``reason``.
    Else a case holds when all its verdicts do, at the ``_worst`` scored
    margin, each keyed comparison's margin in its details; with no verdict
    it is skipped at -inf. A skipped case does not hold."""
    reason, key, required = precondition or (None, None, [])
    pairs = [*required, *(c[1:] for c in comparisons)]
    verdicts = _loewner_verdicts(pairs, tol) if pairs else [[]] * len(results)
    inputs, details = ([x] * len(verdicts) if isinstance(x, dict) else x for x in (inputs, details))
    reports = []
    for case_inputs, case_details, case_results, judged in zip(
            inputs, details, results or [()] * len(verdicts), verdicts):
        needs, judged = judged[:len(required)], judged[len(required):]
        case_details = {**case_details, **{k: r.margin for (k, _, _), r in zip(comparisons, judged)
                                           if k is not None}}
        holds, margin, skipped = False, -np.inf, False
        if isinstance(error := next(iter(case_results), None), Exception):
            case_details = {"error": f"{type(error).__name__}: {error}"}
        elif not all(r.holds for r in needs):
            margin, skipped = _worst(needs).margin, True
            case_details = {"reason": reason, key: [r.margin for r in needs]}
        elif judged := judged + list(case_results):
            holds = all(r.holds for r in judged)
            margin = _worst([r for r in judged if r.margin is not None]).margin
        else:
            skipped = True
        reports.append(CheckReport(name, holds, margin, case_inputs, case_details, skipped))
    return reports


def _worst(results):
    """The result a verdict over ``results`` (each with ``holds`` and
    ``margin``) reports: the first with a NaN margin, else the failing one of
    smallest margin, else the one of smallest margin; the first of equals."""
    return min(results, key=lambda r: (not math.isnan(r.margin), r.holds, r.margin))


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


def _means(solved):
    """The stacked means of a group's solve outcomes, which must have converged."""
    reports = [_report(s) for s in solved]
    for report in reports:
        if not report.converged:
            raise RuntimeError(
                f"barycenter solve did not converge (residual {report.residual:.3e})"
            )
    return np.array([r.mean for r in reports])


def _arithmetic(ensemble):
    """The ensemble's weighted arithmetic mean, made exactly Hermitian."""
    return hermitianize(_k.weighted_sum(ensemble.weights, ensemble.matrices))


def _validated(stack):
    """``require_spd`` of each derived matrix of a stack (named "matrix"), in one pass."""
    return hermitian._require_stack(stack, lambda j: "matrix", spd=True)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _fixed_point(tol, ensemble, solved):
    """The mean equation's residual at the solved mean: zero steps of the
    solver started there, so a converged solve's own residual, bit for bit."""
    reports = [_report(s) for s in solved]
    means = np.array([r.mean for r in reports])  # exactly Hermitian, positive definite
    eq_res = _k.mean_equation_residual(means, ensemble.matrices, ensemble.weights).tolist()
    details, results = zip(*[
        ({"equation_residual": eq, "iterations": r.iterations, "converged": r.converged},
         [_gap(-eq, ToleranceConfig.residual_tol), _Verdict(r.converged, None)])
        for r, eq in zip(reports, eq_res)])
    return _reports("fixed_point", tol, {"dim": ensemble.dim, "count": ensemble.size}, details,
                    results=results)


def _bounds(tol, ensemble, solved):
    """Both order bounds of the mean X: 2I - sum_j w_j A_j^{-1} <= X <= sum_j w_j A_j."""
    mean = _means(solved)
    eye = np.eye(ensemble.dim, dtype=np.complex128)
    inv_mix = _k.weighted_sum(ensemble.weights, _k.spd_power(ensemble.matrices, -1.0))
    return _reports(
        "bounds", tol, [{"dim": ensemble.dim, "count": ensemble.size, "weights": w}
                        for w in ensemble.weights.tolist()], {},
        ("lower_margin", hermitianize(2.0 * eye - inv_mix), mean),
        ("upper_margin", mean, _arithmetic(ensemble)),
    )


def _log_det_gaps(top, ensemble):
    """Per case: log det(top) - sum_j w_j log det(A_j), and whether every A_j
    equals A_1 within 1e-8 ||A_1|| in Frobenius norm."""
    rows = zip(_k.log_det(top).tolist(), ensemble.weights.tolist(),
               _k.log_det(ensemble.matrices).tolist(), ensemble.matrices)
    return [(t - sum(wj * ld for wj, ld in zip(w, lds)), all(
        frobenius(a - mats[0]) <= 1e-8 * frobenius(mats[0]) for a in mats[1:]))
        for t, w, lds, mats in rows]


def _det_inequality(tol, ensemble, solved):
    """Determinant gap of the mean X: log det(X) - sum_j w_j log det(A_j) >= 0,
    with equality exactly on constant ensembles: the equality flag (a log gap
    <= 1e-9) is cross-checked against the matrices coinciding."""
    gaps = _log_det_gaps(_means(solved), ensemble)
    return _reports(
        "det_inequality", tol, [{"dim": ensemble.dim, "count": ensemble.size, "weights": w}
                                for w in ensemble.weights.tolist()],
        [{"equality": gap <= 1e-9, "all_matrices_equal": same,
          "equality_condition_consistent": (gap <= 1e-9) == same} for gap, same in gaps],
        results=[[_gap(gap, tol.loewner_tol)] for gap, _ in gaps],
    )


def _logdet_concavity(tol, ensemble):
    """log det of the ensemble's convex combination dominates the combination
    of its log dets, with equality exactly when all matrices coincide."""
    gaps = _log_det_gaps(_arithmetic(ensemble), ensemble)
    return _reports(
        "logdet_concavity", tol, {"count": ensemble.size},
        [{"equality": gap <= 1e-10, "all_matrices_equal": same} for gap, same in gaps],
        results=[[_gap(gap, tol.loewner_tol)] for gap, _ in gaps],
    )


def _phi_geometric_mean(tol, a, b, phi):
    """Compression of a geometric mean never exceeds the geometric mean of
    the compressions."""
    stack = np.stack([_k.geometric_mean(a, b), a, b], axis=1)
    lhs, phi_a, phi_b = phi.compress(stack).swapaxes(0, 1)
    return _reports("phi_geometric_mean", tol, {"source_dim": phi.source_dim, "target_dim":
                    phi.target_dim}, {"map_kind": phi.kind},
                    (None, lhs, _k.geometric_mean(phi_a, phi_b)))


def _phi_wass(tol, ensemble, phi, solved):
    """Unital compressions of the mean and of its inverse both dominate
    2I minus the compressed arithmetic mean of the inverses / originals.
    No wrong mean of ``tests/test_mutants.py`` refutes it on the default plan."""
    eye_t = np.eye(phi.target_dim, dtype=np.complex128)
    mean = _means(solved)
    mix_inv = _k.weighted_sum(ensemble.weights, phi.compress(_k.spd_power(ensemble.matrices, -1.0)))
    mix = _k.weighted_sum(ensemble.weights, phi.compress(ensemble.matrices))
    phi_mean, phi_mean_inv = phi.compress(
        np.stack([mean, _k.spd_power(mean, -1.0)], axis=1)).swapaxes(0, 1)
    return _reports(
        "phi_wass", tol, {"dim": ensemble.dim, "count": ensemble.size, "source_dim":
                          phi.source_dim, "target_dim": phi.target_dim}, {"map_kind": phi.kind},
        ("mean_side_margin", hermitianize(2.0 * eye_t - mix_inv), phi_mean),
        ("inverse_side_margin", hermitianize(2.0 * eye_t - mix), phi_mean_inv),
    )


def _self_duality_gap(tol, ensemble, solved, solved_inverses):
    """The mean of the inverses differs from the inverse of the mean: the
    check passes when the Frobenius gap exceeds the demonstration threshold."""
    inverse_of_mean = _k.spd_power(_means(solved), -1.0)
    gaps = list(map(frobenius, _means(solved_inverses) - inverse_of_mean))
    return _reports(
        "self_duality_gap", tol, {"dim": ensemble.dim, "count": ensemble.size},
        [{"gap": gap, "threshold": SELF_DUALITY_GAP} for gap in gaps],
        results=[[_gap(gap - SELF_DUALITY_GAP, -math.ulp(0.0))] for gap in gaps],
    )


def _tensor_identity(tol, a, b, solved_a, solved_b, solved_t):
    """Kronecker product of two means equals the mean of the Kronecker-pair
    ensemble, to a relative Frobenius error (a norm per case); an unconverged
    solve raises, as in every check."""
    products = _k.kron(_means(solved_a), _means(solved_b))
    errors = [frobenius(p - t) / frobenius(p) for p, t in zip(products, _means(solved_t))]
    return _reports("tensor_identity", tol, {"dims": [a.dim, b.dim], "counts": [a.size, b.size]},
                    [{"relative_error": e, "tolerance": TENSOR_IDENTITY_RTOL} for e in errors],
                    results=[[_gap(-e, TENSOR_IDENTITY_RTOL)] for e in errors])


def _tensor_arithmetic_bound(tol, a, b, solved_a, solved_b):
    """Kronecker product of two means below the arithmetic mean of all
    Kronecker pairs, which by bilinearity is (sum w A) (x) (sum u B)."""
    return _reports(
        "tensor_arithmetic_bound", tol, {"dims": [a.dim, b.dim], "counts": [a.size, b.size]}, {},
        (None, _k.kron(_means(solved_a), _means(solved_b)),
         _k.kron(_arithmetic(a), _arithmetic(b))),
    )


def _hadamard_arithmetic_bound(tol, a, b, solved_a, solved_b):
    """Hadamard product of two means below the arithmetic mean of all
    Hadamard pairs, which by bilinearity is (sum w A) o (sum u B)."""
    return _reports(
        "hadamard_arithmetic_bound", tol, {"dim": a.dim, "counts": [a.size, b.size]}, {},
        (None, _means(solved_a) * _means(solved_b), _arithmetic(a) * _arithmetic(b)),
    )


def _commuting_quadruple(tol, ab, cd):
    """For commuting pairs (a,b) and (c,d):
    (ab+ba) o (cd+dc) - (a^2+b^2) o (c^2+d^2) <= (a-b)^2 o (c-d)^2 / 2."""
    (a, b), (c, d) = ab.swapaxes(0, 1), cd.swapaxes(0, 1)
    lhs = (a @ b + b @ a) * (c @ d + d @ c) - (a @ a + b @ b) * (c @ c + d @ d)
    rhs = 0.5 * (((a - b) @ (a - b)) * ((c - d) @ (c - d)))
    return _reports("commuting_quadruple", tol, {"dim": a.shape[-1]}, {},
                    (None, hermitianize(lhs), hermitianize(rhs)))


def _hadamard_inverse(tol, a, b):
    """Two-sided bound on the inverse of a Hadamard product:
    (a o b)^{-1} <= a^{-1} o b^{-1} <= K (a o b)^{-1} with K the Kantorovich
    constant of the Kronecker product's spectral edges."""
    # The Schur product is validated as the inverse's argument.
    had_inv = _k.spd_power(_validated(a * b), -1.0)
    inv_had = np.multiply(*_k.spd_power(np.stack([a, b]), -1.0))
    constant = [k for k, _ in _kronecker_kantorovich(a[:, None], b[:, None])]
    return _reports(
        "hadamard_inverse", tol, {"dim": a.shape[-1]},
        [{"kantorovich_constant": k} for k in constant],
        ("lower_margin", had_inv, inv_had),
        ("upper_margin", inv_had, np.array(constant)[:, None, None] * had_inv),
    )


def _kronecker_kantorovich(a, b):
    """Per case of an (S, n, m, m) and an (S, k, m, m) stack: K = kantorovich(alpha
    gamma, beta delta) and the spectral edges [alpha, beta, gamma, delta] of its
    stacks, which hold the spectra of A_i (x) B_j and A_i o B_j = Z*(A_i (x) B_j)Z."""
    eigs, n = np.linalg.eigvalsh(np.concatenate([a, b], axis=1)), a.shape[1]
    edges = np.stack([eigs[:, :n, 0].min(1), eigs[:, :n, -1].max(1),
                      eigs[:, n:, 0].min(1), eigs[:, n:, -1].max(1)], axis=1).tolist()
    return [(kantorovich(e[0] * e[2], e[1] * e[3]), e) for e in edges]


def _kantorovich_hadamard(tol, a, b, solved_a, solved_b):
    """Kantorovich-type converse bound on the Hadamard product of two means
    against the mixed square-root terms of the pair ensembles."""
    xy = _means(solved_a) * _means(solved_b)
    constants = _kronecker_kantorovich(a.matrices, b.matrices)
    # The paper's (alpha gamma + beta delta) / (2 sqrt(alpha beta gamma delta)).
    constant = [math.sqrt(k) for k, _ in constants]
    # The Schur product of the means is validated as the root's argument.
    root = _k.spd_power(_validated(xy), 0.5)[:, None]
    weights, pairs = _pairs(a, b, np.multiply)
    rhs = _k.weighted_sum(weights, _k._congruence_root(hermitianize(root @ pairs @ root)))
    return _reports(
        "kantorovich_hadamard", tol, {"dim": a.dim, "counts": [a.size, b.size]},
        [{"constant": c, "bounds": e} for c, (_, e) in zip(constant, constants)],
        (None, xy, np.array(constant)[:, None, None] * hermitianize(rhs)),
    )


def _inverse_norms(x):
    """||x^-1||_op of each matrix of a stack; a singular x has no inverse: inf."""
    return [1.0 / s if s > 0 else math.inf
            for s in np.linalg.svd(x, compute_uv=False)[:, -1].tolist()]


def _jensen_contraction(tol, a, x, p):
    """(x* a x)^p <= x* a^p x for 0 <= p <= 1 when the inverse of x is a
    contraction, which ``_spd_factor_power`` requires of ``check``'s x."""
    inv_norm = _inverse_norms(x)
    xh = _k._adjoint(x)
    # The congruence x* a x is validated as the power's argument. Each case's
    # spectra are raised to its own p as a Python float, as ``spd_power``
    # would: numpy takes w**0.5 as a square root, but w**array as a power.
    w, v = np.linalg.eigh(np.stack([_validated(hermitianize(xh @ a @ x)), a]))
    powers = [[r**q for r, q in zip(ws, p.tolist())] for ws in w]
    lhs, a_p = _k._from_spectrum(v, np.array(powers))
    return _reports(
        "jensen_contraction", tol, [{"dim": a.shape[-1], "p": q} for q in p.tolist()],
        [{"inverse_operator_norm": norm} for norm in inv_norm],
        (None, lhs, hermitianize(xh @ a_p @ x)),
    )


def _sqrt_sum_lower_bound(tol, a, b, solved_a, solved_b):
    """When both solved means dominate the identity (else the case is
    skipped), the weighted sum of Hadamard-pair square roots dominates a
    Kantorovich-type multiple of I. No wrong mean of ``tests/test_mutants.py``
    refutes it on the default plan: only the precondition reads the means."""
    x, y = _means(solved_a), _means(solved_b)
    eye = np.broadcast_to(np.eye(a.dim, dtype=np.complex128), x.shape)
    # 1/sqrt(K) = 2 sqrt(alpha beta gamma delta) / (alpha gamma + beta delta).
    constant = [1.0 / math.sqrt(k) for k, _ in _kronecker_kantorovich(a.matrices, b.matrices)]
    weights, pairs = _pairs(a, b, np.multiply)
    lhs = _k.weighted_sum(weights, _k.spd_power(pairs, 0.5))
    return _reports(
        "sqrt_sum_lower_bound", tol, {"dim": a.dim, "counts": [a.size, b.size]},
        [{"constant": c} for c in constant],
        (None, np.array(constant)[:, None, None] * eye, hermitianize(lhs)),
        precondition=("solved means do not dominate the identity", "mean_margins",
                      [(eye, x), (eye, y)]),
    )


# ---------------------------------------------------------------------------
# the validation boundary: each check's ``validate``
# ---------------------------------------------------------------------------

def _one_ensemble(ensemble):
    return (_of_type(ensemble, bc.Ensemble, "ensemble"),)


def _two_ensembles(a, b):
    return _of_type(a, bc.Ensemble, "a"), _of_type(b, bc.Ensemble, "b")


def _two_ensembles_of_one_dim(a, b):
    a, b = _two_ensembles(a, b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a, b


def _spd_pair_and_map(a, b, phi):
    am, bm = require_spd_pair(a, b)
    _of_type(phi, PositiveMapSpec, "phi").require_source_dim(am.shape[0])
    return am, bm, phi


def _ensemble_and_map(ensemble, phi):
    (ensemble,) = _one_ensemble(ensemble)
    _of_type(phi, PositiveMapSpec, "phi").require_source_dim(ensemble.dim)
    return ensemble, phi


def _commuting_spd_pairs(a, b, c, d):
    """The pairs (a, b) and (c, d), each commuting, of four matrices of one shape."""
    am, bm, cm, dm = hermitian._require_spd_items([a, b, c, d], "abcd".__getitem__, lambda s: (
        f"shape mismatch: {s[0]} vs {next(x for x in s if x != s[0])}"))
    bc.require_commuting(am, bm, "pair (a,b) does not commute")
    bc.require_commuting(cm, dm, "pair (c,d) does not commute")
    return (am, bm), (cm, dm)


def _spd_factor_power(a, x, p):
    if not 0.0 <= (power := _real(p, "p")) <= 1.0:
        raise ValueError(f"power p={p} outside [0, 1]")
    am = require_spd(a, name="matrix")
    xm = as_complex_matrix(x, name="x")
    if xm.shape != am.shape:
        m = len(am)
        raise ValueError(f"x: expected a {m}x{m} matrix, the dimension of a, got shape {xm.shape}")
    if (norm := _inverse_norms(xm[None])[0]) > 1.0 + 1e-12:
        raise ValueError(f"inverse is not a contraction: ||x^-1||_op = {norm:.6f} > 1")
    return am, xm, power


def _require_known(names, field=""):
    """Refuse, by a ValueError opened by ``field``, names that are not checks."""
    unknown = [c for c in names if not (isinstance(c, str) and c in _CHECKS)]
    if unknown:
        raise ValueError(f"{field}unknown checks {unknown}; known: {sorted(_CHECKS)}")


def check(name, *args, tol=None):
    """The report of check ``name`` on ``args``, named by its ``validate``,
    under the ``ToleranceConfig`` ``tol`` (None: the default), which a check
    of a constant bound refuses. Wrong arguments raise before its one
    ``wasserstein_means`` call; after that nothing raises: a solve that broke
    down or did not converge gives the error report of ``_evaluate``."""
    _require_known([name])
    entry = _CHECKS[name]
    params = inspect.signature(entry.validate).parameters
    if len(args) != len(params):
        raise TypeError(f"{name} takes ({', '.join(params)}), got {len(args)} arguments")
    if tol is not None and not entry.takes_tol:
        raise TypeError(f"{name} takes no tolerance")
    tol = ToleranceConfig() if tol is None else _of_type(tol, ToleranceConfig, "tol")
    args = entry.validate(*args)
    return _evaluate(name, tol, [(args, bc.wasserstein_means(list(entry.solves(*args))))])[0]


def _evaluate(name, tol, cases):
    """The reports of the core ``_<name>``, looked up at call time, on each
    ``(args, outcomes)`` case, in order: one call per group of cases whose
    arguments share their ``_shape``, on them stacked (``_stack``) and each
    solve's outcomes as a list. The checks' one failure rule: if a group
    raises, each case is evaluated alone, and one that raises alone is its
    own error report."""
    core = globals()[f"_{name}"]
    groups = {}
    for i, (args, _) in enumerate(cases):
        groups.setdefault(tuple(map(_shape, args)), []).append(i)
    reports = {}
    try:
        for rows in groups.values():
            args, outcomes = zip(*[cases[i] for i in rows])
            stacked = [*map(_stack, zip(*args)), *map(list, zip(*outcomes))]
            reports.update(zip(rows, core(tol, *stacked)))
    except Exception as exc:  # noqa: BLE001 - captured per case
        if len(cases) == 1:
            return _reports(name, None, {}, {}, results=[[exc]])
        return [_evaluate(name, tol, [case])[0] for case in cases]
    return [reports[i] for i in range(len(cases))]


def _shape(arg):
    """What a group's cases share in an argument."""
    if isinstance(arg, bc.Ensemble):
        return arg.matrices.shape
    if isinstance(arg, PositiveMapSpec):
        return arg.kind, arg.isometry.shape
    return np.shape(arg)


def _stack(column):
    """A group's values of one argument as one."""
    if isinstance(column[0], bc.Ensemble):
        return _Ensembles(np.array([e.weights for e in column]),
                          np.array([e.matrices for e in column]))
    if isinstance(column[0], PositiveMapSpec):
        return _Maps(column[0].kind, np.array([phi.isometry for phi in column]))
    return np.array(column)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _plan_field(name, values, expected, valid):
    """``values`` as a tuple, or a ValueError opened by the field's ``name``."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or isinstance(values, str) or not valid(items):
        raise ValueError(f"{name}: expected {expected}, got {values!r}")
    return items


@dataclass(frozen=True)
class SuitePlan:
    """What to run: check names ("all" for ``DEFAULT_CHECKS``), seed range
    [lo, hi), base dimensions, and the Loewner tolerance applied to every
    verdict."""

    checks: tuple = ()
    seeds: tuple = (0, 50)
    dims: tuple = (2, 3)
    tol: float = 1e-8

    def __post_init__(self):
        every = isinstance(self.checks, str) and self.checks == "all"
        checks = _plan_field("checks", DEFAULT_CHECKS if every else self.checks,
                             "an array of check names", lambda v: True)
        lo, hi = _plan_field("seeds", self.seeds, "[lo, hi] integers",
                             lambda v: len(v) == 2 and all(map(is_integer, v)))
        dims = _plan_field("dims", self.dims, "a non-empty array of integers",
                           lambda v: v and all(map(is_integer, v)))
        tol = require_positive(self.tol, "tol")
        if hi <= lo:
            raise ValueError(f"seeds: empty range [{lo}, {hi})")
        dims = tuple(require_positive(d, "dims", integer=True) for d in dims)
        _require_known(checks, "checks: ")
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
    """Fold per-instance reports into one per-check report: its results are
    the live (not skipped) ones, its details the ``_worst`` one's."""
    live = [r for r in reports if not r.skipped]
    details = {"instances": len(reports), "skipped_instances": len(reports) - len(live)}
    if live:
        worst = _worst(live)
        details.update(worst_details=worst.details, worst_inputs=worst.inputs, **extra_details)
    return _reports(name, None, plan.provenance(), details, results=[live])[0]


@dataclass(frozen=True)
class _Check:
    """One suite entry, whose core is the module function ``_<name>``.

    ``instances(plan)`` and ``equality_cases()`` declare the argument tuples
    of the generic instances and of the known equality cases, each argument
    a request (``_Draw``, ``_Apply``), trusted, or a scalar. ``solves(*args)``
    lists the ensembles a built case needs solved, building the derived ones
    (Kronecker pairs, inverses); by default its ``Ensemble`` arguments.
    ``finish(report, generic, equality)`` adds check-specific verdicts to an
    aggregate without error reports. ``validate`` (by default: one ``Ensemble``) names and
    validates the raw arguments of ``check``; ``takes_tol`` is False where
    the bound is a constant.
    """

    instances: Callable
    equality_cases: Callable = lambda: ()
    finish: Callable = lambda report, generic, equality: None
    solves: Callable = lambda *args: [a for a in args if isinstance(a, bc.Ensemble)]
    validate: Callable = _one_ensemble
    takes_tol: bool = True


def _run_check(name, entry, built):
    """Check ``name``'s aggregate report on ``built`` = (plan, cases, solved):
    its generic, then equality cases, with their solves' outcomes."""
    plan, (generic, equality), solved = built
    cases = [(args, [solved[e] for e in ens]) for args, ens in generic + equality]
    reports = _evaluate(name, ToleranceConfig(loewner_tol=plan.tol), cases)
    generic, equality = reports[:len(generic)], reports[len(generic):]
    extra = {}
    if len(equality) == 1:
        extra["equality_case_margin"] = equality[0].margin
    elif equality:
        extra["equality_case_margins"] = [r.margin for r in equality]
    report = _aggregate(name, plan, generic + equality, extra)
    if not any("error" in r.details for r in reports):
        entry.finish(report, generic, equality)
    return report


_UNIT = (0.5, 2.0)


def _spd(m, seed, salt):
    """The draw of an m x m matrix of spectrum in [0.5, 2]."""
    return _Draw(m, _mix(seed, salt), _UNIT)


def _repeated(weights, a):
    """The ensemble of ``a`` under each of the weights."""
    return bc.Ensemble(weights=weights, matrices=[a] * len(weights))


def _singletons(m, seed, *salts):
    return tuple([_Apply(_repeated, ((1.0,), _spd(m, seed, salt))) for salt in salts])


def _ensembles(plan, counts, limit=None, salts=(None,), dim=None, spectrum=_UNIT):
    """One random ensemble per salt for each of the first ``limit`` seeds
    (all when None), seeded by the seed mixed with the salt (the seed for
    None), of size ``counts[seed % len(counts)]`` and dimension ``dim(seed)``
    (the plan's when None)."""
    dim = dim or plan.dim_for
    return [
        tuple([_ensemble(dim(s), counts[s % len(counts)], s if salt is None else _mix(s, salt),
                         spectrum)
               for salt in salts])
        for s in plan.seed_list()[:limit]
    ]


def _commuting_pairs(m, seed, *salts):
    return tuple([_commuting(m, _mix(seed, salt), 2, _UNIT) for salt in salts])


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


_EYE2 = _Apply(np.eye, (2, None, 0, np.complex128))
_IDENTITY = _Apply(_repeated, ((1.0,), _EYE2))

_CHECKS = {
    "fixed_point": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 5)),
        # The singleton ensemble solves exactly.
        equality_cases=lambda: [_singletons(3, 0, 23)],
        takes_tol=False,
    ),
    "bounds": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3, 5)),
        # The identity singleton makes both bounds tight.
        equality_cases=lambda: [(_IDENTITY,)],
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
        validate=_spd_pair_and_map,
    ),
    "phi_wass": _Check(
        instances=lambda plan: [
            (_ensemble(m, 2 + s % 2, s, _UNIT),
             _isometry(m, m if s % 3 == 0 else max(1, m - 1), _mix(s, 61)))
            for s in plan.seed_list() for m in [max(2, plan.dim_for(s))]
        ],
        validate=_ensemble_and_map,
    ),
    "self_duality_gap": _Check(
        instances=lambda plan: _ensembles(
            plan, (2, 3), limit=8, dim=lambda s: max(2, plan.dim_for(s))
        ),
        finish=_finish_self_duality_gap,
        solves=lambda e: (e, _inverted(e)),
        takes_tol=False,
    ),
    "tensor_identity": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), salts=(67, 71), dim=lambda s: 2),
        # Singleton ensembles reproduce the plain Kronecker product.
        equality_cases=lambda: [_singletons(2, 4, 73, 79)],
        solves=lambda a, b: (a, b, ensemble_tensor(a, b)),
        validate=_two_ensembles,
        takes_tol=False,
    ),
    "tensor_arithmetic_bound": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), salts=(83, 89), dim=lambda s: 2),
        equality_cases=lambda: [_singletons(2, 5, 97, 101)],
        validate=_two_ensembles,
    ),
    "hadamard_arithmetic_bound": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3), salts=(103, 107)),
        equality_cases=lambda: [_singletons(3, 6, 109, 113)],
        validate=_two_ensembles_of_one_dim,
    ),
    "commuting_quadruple": _Check(
        instances=lambda plan: [
            _commuting_pairs(plan.dim_for(s), s, 127, 131) for s in plan.seed_list()
        ],
        # Coincident pairs zero out both sides.
        equality_cases=lambda: [
            tuple(_Apply(itemgetter(0, 0), (d,)) for d in _commuting_pairs(3, 7, 137, 139))
        ],
        validate=_commuting_spd_pairs,
    ),
    "hadamard_inverse": _Check(
        instances=lambda plan: [
            (_spd(m, s, 149), _spd(m, s, 151))
            for s in plan.seed_list() for m in [min(4, plan.dim_for(s))]
        ],
        equality_cases=lambda: [(_EYE2, _EYE2)],
        validate=require_spd_pair,
    ),
    "kantorovich_hadamard": _Check(
        instances=lambda plan: _ensembles(
            plan, (2,), salts=(157, 163), dim=lambda s: min(3, plan.dim_for(s))
        ),
        equality_cases=lambda: [(_IDENTITY, _IDENTITY)],
        validate=_two_ensembles_of_one_dim,
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
        validate=_spd_factor_power,
    ),
    "sqrt_sum_lower_bound": _Check(
        instances=lambda plan: _ensembles(plan, (2,), salts=(191, 193), spectrum=(1.0, 3.0)),
        equality_cases=lambda: [(_IDENTITY, _IDENTITY)],
        validate=_two_ensembles_of_one_dim,
    ),
}

# Each value maps what ``run_suite`` built for its check, (plan, cases, solved), to its report.
CHECK_REGISTRY = {name: partial(_run_check, name, entry) for name, entry in _CHECKS.items()}

# A plan's checks "all" expands to these.
DEFAULT_CHECKS = tuple(CHECK_REGISTRY)


def default_plan(**overrides):
    kwargs = {"checks": "all"}
    kwargs.update(overrides)
    return SuitePlan(**kwargs)


def run_suite(plan):
    """Run every check in the plan; reports follow plan order.

    The steps pass their data on, and nothing outlives the call: each check
    declares its cases; one ``seeded._drawn`` call draws every matrix they
    take; the cases are built, and one ``bc.wasserstein_means`` call solves
    each distinct ensemble object they list; then each check's
    ``CHECK_REGISTRY`` entry, looked up at call time, runs its core. A case
    whose evaluation raises is its own error report (``_evaluate``), counted
    among the check's instances. An error in declaring or building a check's
    cases fails that check's whole report; the draw is one step for every
    check, trusted, and not isolated."""
    state = [[name, None] for name in plan.checks]
    ensembles = _build_cases(state, plan)
    solved = dict(zip(ensembles, bc.wasserstein_means(ensembles)))
    _per_check(state, plan, lambda name, cases: CHECK_REGISTRY[name]((plan, cases, solved)))
    return [report for _, report in state]


def _build_cases(state, plan):
    """Declare the cases of each check of ``state``, draw every matrix they
    take in one ``seeded._drawn`` call, and build them; return the distinct
    ensembles they solve, in first-seen order. An ``Ensemble`` hashes by
    identity, and building makes each distinct request one object."""
    draws = []
    _per_check(state, plan, lambda name, _: _declared(_CHECKS[name], plan, draws))
    drawn = _drawn(draws)
    _per_check(state, plan, lambda name, cases: _built_cases(_CHECKS[name], cases, drawn))
    return list(dict.fromkeys(e for _, cases in state if not isinstance(cases, CheckReport)
                              for group in cases for _, ens in group for e in ens))


def _per_check(state, plan, step):
    """Replace the value of each ``[name, value]`` entry of ``state`` that is
    not yet a report by ``step(name, value)``; an error that raises becomes
    the check's report."""
    for entry in (e for e in state if not isinstance(e[1], CheckReport)):
        try:
            entry[1] = step(*entry)
        except Exception as exc:  # noqa: BLE001 - captured per report
            entry[1] = _reports(entry[0], None, plan.provenance(), {}, results=[[exc]])[0]


def _declared(check, plan, draws):
    """The check's generic and equality cases, as declared; the ``_Draw``s
    they take are appended to ``draws``."""
    cases = list(check.instances(plan)), list(check.equality_cases())
    draws += [d for group in cases for case in group for arg in case for d in _draws_of(arg)]
    return cases


def _built_cases(check, cases, drawn):
    """Each case as its built arguments and the ensembles ``check.solves``
    lists for them."""
    built = [[[_built(arg, drawn) for arg in case] for case in group] for group in cases]
    return [[(args, check.solves(*args)) for args in group] for group in built]
