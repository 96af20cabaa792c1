"""Machine verification of the mean's order, determinant, positive-map,
tensor-product and Hadamard-product properties.

Each ``check_*`` function evaluates one inequality or identity on concrete
inputs and returns a :class:`CheckReport` whose margin is the smallest
eigenvalue of the slack matrix (log-gap for determinant checks, negated
relative error for identities); ``_order_report`` turns a check's Loewner
comparisons into its report. ``run_suite`` drives every registered check
over seeded random instances, always including the known equality cases:
one generic driver runs each entry of a table that declares the check's
instances, its equality cases and the call that evaluates them.

Within one ``run_suite`` call each seeded ensemble is built once and each
ensemble content solved once, through a memo that lives only for that call.
"""

from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels as _k
from . import barycenter as bc
from .hermitian import (
    ToleranceConfig,
    frobenius,
    hermitianize,
    log_det,
    loewner_leq,
    matrix_power,
    random_commuting_spds,
    random_spd,
    random_unitary,
    require_spd,
    require_spd_stack,
    sqrtm,
)
from .means import arithmetic_mean, geometric_mean, kantorovich, validate_weights
from .products import (
    ensemble_tensor,
    hadamard,
    kron,
    random_isometry_map,
    weight_tensor,
)

SELF_DUALITY_GAP = 1e-4
TENSOR_IDENTITY_RTOL = 1e-6

# The memo of the running ``run_suite`` call, None outside one: ensembles keyed
# by ``random_ensemble``'s arguments, and solve reports keyed by the ensemble's
# weight and matrix bytes and the solver config.
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
    the smallest margin. A comparison with a key (not None) also records its
    own margin in ``details`` under that key."""
    results = []
    for key, lhs, rhs in comparisons:
        res = loewner_leq(lhs, rhs, tol)
        if key is not None:
            details[key] = res.margin
        results.append(res)
    return CheckReport(
        check_name=name,
        holds=all(r.holds for r in results),
        margin=min(r.margin for r in results),
        inputs=inputs,
        details=details,
    )


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
    """Seeded random ensemble; ``commuting=True`` shares one eigenbasis.

    Inside ``run_suite`` equal arguments return the same (read-only)
    ensemble."""
    memo = _SUITE_MEMO.get()
    if memo is None:
        return _build_ensemble(m, n, seed, eig_lo, eig_hi, commuting)
    key = ("ensemble", m, n, seed, eig_lo, eig_hi, commuting)
    if key not in memo:
        memo[key] = _build_ensemble(m, n, seed, eig_lo, eig_hi, commuting)
    return memo[key]


def _build_ensemble(m, n, seed, eig_lo, eig_hi, commuting):
    if commuting:
        mats = random_commuting_spds(m, n, _mix(seed, 11), eig_lo, eig_hi)
    else:
        mats = [random_spd(m, _mix(seed, 13 + j), eig_lo, eig_hi) for j in range(n)]
    return bc.Ensemble(weights=random_weights(n, _mix(seed, 17)), matrices=mats)


def _mean_report(ensemble, cfg=None):
    """``bc.wasserstein_mean(ensemble, cfg)``, solved once per ensemble
    content and config inside ``run_suite``."""
    memo = _SUITE_MEMO.get()
    if memo is None:
        return bc.wasserstein_mean(ensemble, cfg)
    key = ("solve", ensemble.weights.tobytes(), ensemble.matrices.tobytes(), cfg)
    if key not in memo:
        report = bc.wasserstein_mean(ensemble, cfg)
        report.mean.flags.writeable = False
        memo[key] = report
    return memo[key]


def _solve(ensemble, cfg=None):
    report = _mean_report(ensemble, cfg)
    if not report.converged:
        raise RuntimeError(
            f"barycenter solve did not converge (residual {report.residual:.3e})"
        )
    return report.mean


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_fixed_point_certificate(ensemble, cfg=None, tol=None):
    """Both residual forms of the mean's defining equation at the solved mean."""
    if tol is None:
        tol = ToleranceConfig()
    report = _mean_report(ensemble, cfg)
    eq_res = bc.residual(report.mean, ensemble)
    # The solver's mean is exactly Hermitian and positive definite.
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


def check_bounds(ensemble, x, tol=None):
    """Both order bounds of the mean: 2I - sum_j w_j A_j^{-1} <= x <= sum_j w_j A_j."""
    xm = require_spd(x, name="mean")
    eye = np.eye(ensemble.dim, dtype=np.complex128)
    inv_mix = _k.weighted_sum(ensemble.weights, _k.spd_power(ensemble.matrices, -1.0))
    lower = hermitianize(2.0 * eye - inv_mix)
    upper = hermitianize(_k.weighted_sum(ensemble.weights, ensemble.matrices))
    return _order_report(
        "bounds", tol,
        {"dim": ensemble.dim, "count": ensemble.size,
         "weights": [float(w) for w in ensemble.weights]},
        {},
        ("lower_margin", lower, xm),
        ("upper_margin", xm, upper),
    )


def check_det_inequality(ensemble, x, tol=None):
    """Determinant gap of the mean: log det(x) - sum_j w_j log det(A_j) >= 0,
    with equality exactly on constant ensembles.

    The equality flag is raised when the log gap is <= 1e-9 and cross-checked
    against the matrices actually coinciding within 1e-8.
    """
    if tol is None:
        tol = ToleranceConfig()
    xm = require_spd(x, name="mean")
    margin = log_det(xm)
    log_dets = np.log(np.linalg.eigvalsh(ensemble.matrices)).sum(axis=-1)
    for wj, log_det_j in zip(ensemble.weights, log_dets):
        margin -= float(wj) * float(log_det_j)
    equality = margin <= 1e-9
    all_equal = all(
        frobenius(ensemble.matrices[j] - ensemble.matrices[0]) <= 1e-8
        for j in range(1, ensemble.size)
    )
    return CheckReport(
        check_name="det_inequality",
        holds=margin >= -tol.loewner_tol,
        margin=float(margin),
        inputs={"dim": ensemble.dim, "count": ensemble.size,
                "weights": [float(w) for w in ensemble.weights]},
        details={
            "equality": bool(equality),
            "all_matrices_equal": bool(all_equal),
            "equality_condition_consistent": bool(equality == all_equal),
        },
    )


def check_logdet_concavity(weights, mats, tol=None):
    """log det of a convex combination dominates the combination of log dets,
    with equality exactly when all matrices coincide."""
    if tol is None:
        tol = ToleranceConfig()
    w = validate_weights(weights)
    mix = arithmetic_mean(w, mats)
    log_dets = np.log(np.linalg.eigvalsh(require_spd_stack(mats))).sum(axis=-1)
    margin = log_det(mix) - sum(float(wj) * float(ld) for wj, ld in zip(w, log_dets))
    all_equal = all(frobenius(np.asarray(m) - np.asarray(mats[0])) <= 1e-8 for m in mats)
    return CheckReport(
        check_name="logdet_concavity",
        holds=margin >= -tol.loewner_tol,
        margin=float(margin),
        inputs={"count": int(w.size)},
        details={"equality": bool(margin <= 1e-10), "all_matrices_equal": all_equal},
    )


def check_phi_geometric_mean(a, b, phi, tol=None):
    """Compression of a geometric mean never exceeds the geometric mean of
    the compressions."""
    lhs = phi.apply(geometric_mean(a, b))
    rhs = geometric_mean(phi.apply(a), phi.apply(b))
    return _order_report(
        "phi_geometric_mean", tol,
        {"source_dim": phi.source_dim, "target_dim": phi.target_dim},
        {"map_kind": phi.kind},
        (None, lhs, rhs),
    )


def check_phi_wass(ensemble, phi, cfg=None, tol=None):
    """Unital compressions of the mean and of its inverse both dominate
    2I minus the compressed arithmetic mean of the inverses / originals."""
    eye_t = np.eye(phi.target_dim, dtype=np.complex128)
    unital_gap = frobenius(phi.apply(np.eye(phi.source_dim, dtype=np.complex128)) - eye_t)
    if unital_gap > 1e-10:
        raise ValueError(f"map is not unital: ||phi(I) - I||_F = {unital_gap:.3e}")
    mean = _solve(ensemble, cfg)
    inverses = _k.spd_power(ensemble.matrices, -1.0)
    mix_inv = np.zeros_like(eye_t)
    mix = np.zeros_like(eye_t)
    for j in range(ensemble.size):
        wj = ensemble.weights[j]
        mix_inv += wj * phi.apply(inverses[j])
        mix += wj * phi.apply(ensemble.matrices[j])
    return _order_report(
        "phi_wass", tol,
        {"dim": ensemble.dim, "count": ensemble.size,
         "source_dim": phi.source_dim, "target_dim": phi.target_dim},
        {"map_kind": phi.kind},
        ("mean_side_margin", hermitianize(2.0 * eye_t - mix_inv), phi.apply(mean)),
        ("inverse_side_margin", hermitianize(2.0 * eye_t - mix),
         phi.apply(matrix_power(mean, -1.0))),
    )


def check_self_duality_gap(ensemble, cfg=None):
    """The mean of the inverses differs from the inverse of the mean: the
    check passes when the Frobenius gap exceeds the demonstration threshold."""
    mean = _solve(ensemble, cfg)
    inverted = bc.Ensemble(
        weights=ensemble.weights, matrices=_k.spd_power(ensemble.matrices, -1.0)
    )
    mean_of_inverses = _solve(inverted, cfg)
    gap = frobenius(mean_of_inverses - matrix_power(mean, -1.0))
    return CheckReport(
        check_name="self_duality_gap",
        holds=gap > SELF_DUALITY_GAP,
        margin=gap - SELF_DUALITY_GAP,
        inputs={"dim": ensemble.dim, "count": ensemble.size},
        details={"gap": gap, "threshold": SELF_DUALITY_GAP},
    )


def check_tensor_identity(a, b, cfg=None):
    """Kronecker product of two means equals the mean of the Kronecker-pair
    ensemble; margin is the negated relative Frobenius error."""
    try:
        mean_a = _solve(a, cfg)
        mean_b = _solve(b, cfg)
        mean_t = _solve(ensemble_tensor(a, b), cfg)
    except RuntimeError as exc:
        return CheckReport(
            check_name="tensor_identity",
            holds=False,
            margin=-np.inf,
            inputs={"dims": [a.dim, b.dim], "counts": [a.size, b.size]},
            details={"error": str(exc)},
        )
    product = kron(mean_a, mean_b)
    rel_err = frobenius(product - mean_t) / frobenius(product)
    return CheckReport(
        check_name="tensor_identity",
        holds=rel_err <= TENSOR_IDENTITY_RTOL,
        margin=-rel_err,
        inputs={"dims": [a.dim, b.dim], "counts": [a.size, b.size]},
        details={"relative_error": rel_err, "tolerance": TENSOR_IDENTITY_RTOL},
    )


def check_tensor_arithmetic_bound(a, b, cfg=None, tol=None):
    """Kronecker product of two means below the arithmetic mean of all
    Kronecker pairs."""
    lhs = kron(_solve(a, cfg), _solve(b, cfg))
    tensored = ensemble_tensor(a, b)
    rhs = arithmetic_mean(tensored.weights, tensored.matrices)
    return _order_report(
        "tensor_arithmetic_bound", tol,
        {"dims": [a.dim, b.dim], "counts": [a.size, b.size]}, {},
        (None, lhs, rhs),
    )


def check_hadamard_arithmetic_bound(a, b, cfg=None, tol=None):
    """Hadamard product of two means below the arithmetic mean of all
    Hadamard pairs."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    lhs = hadamard(_solve(a, cfg), _solve(b, cfg))
    rhs = _k.weighted_sum(weight_tensor(a.weights, b.weights), _hadamard_pairs(a, b))
    return _order_report(
        "hadamard_arithmetic_bound", tol,
        {"dim": a.dim, "counts": [a.size, b.size]}, {},
        (None, lhs, hermitianize(rhs)),
    )


def check_commuting_quadruple(a, b, c, d, tol=None):
    """For commuting pairs (a,b) and (c,d):
    (ab+ba) o (cd+dc) - (a^2+b^2) o (c^2+d^2) <= (a-b)^2 o (c-d)^2 / 2."""
    am, bm = require_spd(a, name="a"), require_spd(b, name="b")
    cm, dm = require_spd(c, name="c"), require_spd(d, name="d")
    for name, (x, y) in {"(a,b)": (am, bm), "(c,d)": (cm, dm)}.items():
        comm = frobenius(x @ y - y @ x)
        bound = 1e-8 * frobenius(x) * frobenius(y)
        if comm > bound:
            raise ValueError(
                f"pair {name} does not commute: commutator norm {comm:.3e} > {bound:.3e}"
            )
    lhs = hadamard(am @ bm + bm @ am, cm @ dm + dm @ cm) - hadamard(
        am @ am + bm @ bm, cm @ cm + dm @ dm
    )
    diff_ab = am - bm
    diff_cd = cm - dm
    rhs = 0.5 * hadamard(diff_ab @ diff_ab, diff_cd @ diff_cd)
    return _order_report(
        "commuting_quadruple", tol, {"dim": int(am.shape[0])}, {},
        (None, hermitianize(lhs), hermitianize(rhs)),
    )


def check_hadamard_inverse(a, b, tol=None):
    """Two-sided bound on the inverse of a Hadamard product:
    (a o b)^{-1} <= a^{-1} o b^{-1} <= K (a o b)^{-1} with K the Kantorovich
    constant of the Kronecker product's spectral edges."""
    am = require_spd(a, name="first matrix")
    bm = require_spd(b, name="second matrix")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    had_inv = matrix_power(hadamard(am, bm), -1.0)
    inv_had = hadamard(matrix_power(am, -1.0), matrix_power(bm, -1.0))
    eigs = np.linalg.eigvalsh(kron(am, bm))
    constant = kantorovich(float(eigs[0]), float(eigs[-1]))
    return _order_report(
        "hadamard_inverse", tol, {"dim": int(am.shape[0])},
        {"kantorovich_constant": constant},
        ("lower_margin", had_inv, inv_had),
        ("upper_margin", inv_had, constant * had_inv),
    )


def _spectral_box(mats):
    eigs = np.linalg.eigvalsh(mats)
    return float(eigs[:, 0].min()), float(eigs[:, -1].max())


def _hadamard_pairs(a, b):
    """Stack of all Hadamard pairs A_i o B_j, in ``weight_tensor`` order
    (second index fastest)."""
    return (a.matrices[:, None] * b.matrices[None, :]).reshape(-1, a.dim, a.dim)


def check_kantorovich_hadamard(a, b, cfg=None, tol=None):
    """Kantorovich-type converse bound on the Hadamard product of two means
    against the mixed square-root terms of the pair ensembles."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    x = _solve(a, cfg)
    y = _solve(b, cfg)
    alpha, beta = _spectral_box(a.matrices)
    gamma, delta = _spectral_box(b.matrices)
    constant = (alpha * gamma + beta * delta) / (
        2.0 * np.sqrt(alpha * beta * gamma * delta)
    )
    xy = hadamard(x, y)
    root = sqrtm(xy)
    inner = hermitianize(root @ _hadamard_pairs(a, b) @ root)
    rhs = _k.weighted_sum(weight_tensor(a.weights, b.weights), _k.spd_power(inner, 0.5))
    return _order_report(
        "kantorovich_hadamard", tol, {"dim": a.dim, "counts": [a.size, b.size]},
        {"constant": constant, "bounds": [alpha, beta, gamma, delta]},
        (None, xy, constant * hermitianize(rhs)),
    )


def check_jensen_contraction(a, x, p, tol=None):
    """(x* a x)^p <= x* a^p x for 0 <= p <= 1 when the inverse of x is a
    contraction."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"power p={p} outside [0, 1]")
    am = require_spd(a, name="matrix")
    xm = np.ascontiguousarray(np.asarray(x, dtype=np.complex128))
    sv = np.linalg.svd(xm, compute_uv=False)
    inv_norm = 1.0 / float(sv[-1])
    if inv_norm > 1.0 + 1e-12:
        raise ValueError(
            f"inverse is not a contraction: ||x^-1||_op = {inv_norm:.6f} > 1"
        )
    lhs = matrix_power(hermitianize(xm.conj().T @ am @ xm), float(p))
    rhs = hermitianize(xm.conj().T @ matrix_power(am, float(p)) @ xm)
    return _order_report(
        "jensen_contraction", tol, {"dim": int(am.shape[0]), "p": float(p)},
        {"inverse_operator_norm": inv_norm},
        (None, lhs, rhs),
    )


def check_sqrt_sum_lower_bound(a, b, cfg=None, tol=None):
    """When both solved means dominate the identity, the weighted sum of
    Hadamard-pair square roots dominates a Kantorovich-type multiple of I.

    Returns a skipped report (not a failure) when the contraction
    precondition on the means fails.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    x = _solve(a, cfg)
    y = _solve(b, cfg)
    eye = np.eye(a.dim, dtype=np.complex128)
    pre_x = loewner_leq(eye, x, tol)
    pre_y = loewner_leq(eye, y, tol)
    if not (pre_x.holds and pre_y.holds):
        return CheckReport(
            check_name="sqrt_sum_lower_bound",
            holds=False,
            margin=min(pre_x.margin, pre_y.margin),
            inputs={"dim": a.dim, "counts": [a.size, b.size]},
            details={"reason": "solved means do not dominate the identity",
                     "mean_margins": [pre_x.margin, pre_y.margin]},
            skipped=True,
        )
    alpha, beta = _spectral_box(a.matrices)
    gamma, delta = _spectral_box(b.matrices)
    constant = 2.0 * np.sqrt(alpha * beta * gamma * delta) / (alpha * gamma + beta * delta)
    lhs = _k.weighted_sum(
        weight_tensor(a.weights, b.weights), _k.spd_power(_hadamard_pairs(a, b), 0.5)
    )
    return _order_report(
        "sqrt_sum_lower_bound", tol, {"dim": a.dim, "counts": [a.size, b.size]},
        {"constant": constant},
        (None, constant * eye, hermitianize(lhs)),
    )


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuitePlan:
    """What to run: check names, seed range [lo, hi), base dimensions, and
    the Loewner tolerance applied to every verdict."""

    checks: tuple = ()
    seeds: tuple = (0, 50)
    dims: tuple = (2, 3)
    tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        lo, hi = (int(s) for s in self.seeds)
        if hi <= lo:
            raise ValueError(f"seeds: empty range [{lo}, {hi})")
        object.__setattr__(self, "seeds", (lo, hi))
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not self.dims or min(self.dims) < 1:
            raise ValueError("dims must be positive")
        unknown = [c for c in self.checks if c not in CHECK_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; known: {sorted(CHECK_REGISTRY)}"
            )

    def seed_list(self):
        return list(range(self.seeds[0], self.seeds[1]))

    def dim_for(self, seed):
        return self.dims[seed % len(self.dims)]

    def provenance(self):
        return {"seeds": list(self.seeds), "dims": list(self.dims), "tol": self.tol}


def _aggregate(name, plan, reports, extra_details):
    """Fold per-instance reports into one per-check report (worst margin)."""
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
    worst = min(live, key=lambda r: r.margin)
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
    with the default solver config.
    ``evaluate`` names its check function through the module attribute at
    call time, never through a stored reference, so a rebound attribute is
    the one that runs. ``finish(report, generic, equality)``, when set, adds
    check-specific verdicts to the aggregate report.
    """

    instances: Callable
    evaluate: Callable
    equality_cases: Callable = lambda: ()
    finish: Callable | None = None


def _run_check(name, check, plan):
    """Evaluate the entry's generic instances, then its equality cases, under
    the suite tolerance; aggregate them."""
    tol = ToleranceConfig(loewner_tol=plan.tol)
    generic = [check.evaluate(tol, *args) for args in check.instances(plan)]
    equality = [check.evaluate(tol, *args) for args in check.equality_cases()]
    extra = {}
    if len(equality) == 1:
        extra["equality_case_margin"] = equality[0].margin
    elif equality:
        extra["equality_case_margins"] = [r.margin for r in equality]
    report = _aggregate(name, plan, generic + equality, extra)
    if check.finish is not None:
        check.finish(report, generic, equality)
    return report


def _spd(m, seed, salt):
    return random_spd(m, _mix(seed, salt), 0.5, 2.0)


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
        yield _spd(m, seed, 41), _spd(m, seed, 43), random_isometry_map(m, k, _mix(seed, 37))


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
        yield _spd(m, seed, 149), _spd(m, seed, 151)


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


def _check_reversed_bound(ensemble, tol):
    """Test hook: the arithmetic-mean bound asserted in the wrong direction,
    which fails on any generic ensemble."""
    upper = arithmetic_mean(ensemble.weights, ensemble.matrices)
    return _order_report(
        "corrupted_direction", tol, {"dim": ensemble.dim, "count": ensemble.size},
        {"note": "inequality direction deliberately reversed"},
        (None, upper, _solve(ensemble)),
    )


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
        evaluate=lambda tol, e: check_bounds(e, _solve(e), tol),
        # The identity singleton makes both bounds tight.
        equality_cases=lambda: [(_singleton(_EYE2),)],
    ),
    "det_inequality": _Check(
        instances=lambda plan: _ensembles(plan, (2, 3)),
        evaluate=lambda tol, e: check_det_inequality(e, _solve(e), tol),
        # A constant ensemble.
        equality_cases=lambda: [
            (bc.Ensemble(weights=[0.25, 0.5, 0.25], matrices=[_spd(3, 1, 29)] * 3),)
        ],
        finish=_finish_det_inequality,
    ),
    "logdet_concavity": _Check(
        instances=lambda plan: ((e.weights, e.matrices) for (e,) in _ensembles(plan, (2, 3, 4))),
        evaluate=lambda tol, w, mats: check_logdet_concavity(w, mats, tol),
        equality_cases=lambda: [([0.5, 0.5], [_spd(3, 2, 31)] * 2)],
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
    ),
    "tensor_identity": _Check(
        instances=lambda plan: _ensemble_pairs(plan, (67, 71), (2, 3), lambda s: 2),
        evaluate=lambda tol, a, b: check_tensor_identity(a, b),
        # Singleton ensembles reproduce the plain Kronecker product.
        equality_cases=lambda: [(_singleton(_spd(2, 4, 73)), _singleton(_spd(2, 4, 79)))],
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
    # Test hook: fails on any generic ensemble; never part of the default plan.
    "corrupted_direction": _Check(
        instances=lambda plan: _ensembles(plan, (3,), min_dim=2, limit=1),
        evaluate=lambda tol, e: _check_reversed_bound(e, tol),
    ),
}

# Each value maps a plan to the check's aggregate CheckReport.
CHECK_REGISTRY = {name: partial(_run_check, name, check) for name, check in _CHECKS.items()}

# "all" in plans and on the CLI expands to these (the hook check is opt-in).
DEFAULT_CHECKS = tuple(n for n in CHECK_REGISTRY if n != "corrupted_direction")


def default_plan(**overrides):
    kwargs = {"checks": DEFAULT_CHECKS}
    kwargs.update(overrides)
    return SuitePlan(**kwargs)


def run_suite(plan):
    """Run every check in the plan; a failing driver is captured in its
    report rather than aborting the suite. Reports follow plan order.

    Seeded ensembles and their solves are shared between the checks of this
    call only; the memo is dropped when the call returns."""
    reports = []
    token = _SUITE_MEMO.set({})
    try:
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
