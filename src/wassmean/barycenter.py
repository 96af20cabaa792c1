"""Wasserstein mean of an SPD ensemble: fixed-point solver, residual and
objective diagnostics, and the commuting closed form. The order and
determinant consequences of being the minimizer are checked in ``checks``.

The mean of (w, A_1..A_n) is the unique SPD solution X of

    I = sum_j w_j (A_j # X^{-1}),   equivalently   X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2},

which is the least-squares barycenter for the Bures-Wasserstein distance.
The solver iterates the damped self-map x' = k x k with
k = sum_j w_j (A_j # x^{-1}), starting from the arithmetic mean, and stops on
the Frobenius residual ||I - k||_F.

An ``Ensemble`` validates its matrices once, into a read-only (n, m, m)
stack; the solver, the diagnostics and the order checks trust that stack and
pass it whole to the stacked kernels of ``_kernels``.

``wasserstein_means`` solves a list of ensembles with one stacked solver
call per ``matrices.shape``; both it and ``wasserstein_mean`` build their
reports with one helper, so a batched report equals the single one bit for
bit.

A solve's ``objective`` comes from the solver's last eigendecomposition: the
kernel returns the root traces tr (x^{1/2} A_j x^{1/2})^{1/2} of the best
iterate x, so sum_j w_j d^2(x, A_j) needs no second eigen-pass.
``objective(x, ensemble)`` stays the independent route, evaluating the
distances afresh, and ``residual`` the certificate.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .bures import _clamped_sqrt, _distance_scale
from .hermitian import frobenius, hermitianize, require_spd, require_spd_stack
from .means import validate_weights

COMMUTATOR_RTOL = 1e-8


class SolverBreakdownError(RuntimeError):
    """An iterate lost positive definiteness; the run cannot continue."""


def _frozen_copy(a):
    out = np.array(a, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weight vector paired with same-dimension SPD matrices.

    ``matrices`` is stored as a C-order (n, m, m) complex128 stack; both
    fields are validated on construction, the matrices in one batched pass,
    and stored as the ensemble's own read-only copies, so an ensemble can be
    shared without being changed behind its users' backs. Ensembles compare
    and hash by identity: comparing array fields has no single truth value.
    """

    weights: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        w = validate_weights(self.weights)
        mats = require_spd_stack(self.matrices, name="matrices")
        if mats.shape[0] != w.size:
            raise ValueError(f"count mismatch: {w.size} weights, {mats.shape[0]} matrices")
        object.__setattr__(self, "weights", _frozen_copy(w))
        object.__setattr__(self, "matrices", _frozen_copy(mats))

    @property
    def size(self):
        return int(self.weights.size)

    @property
    def dim(self):
        return int(self.matrices.shape[1])


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs. Every solve starts from the arithmetic mean,
    an upper bound of the solution in the Loewner order, so always a safe
    start."""

    max_iter: int = 200
    residual_tol: float = 1e-11

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one barycenter solve; ``converged`` implies
    ``residual <= residual_tol``."""

    mean: np.ndarray
    iterations: int
    residual: float
    objective: float
    converged: bool

    def to_json_dict(self):
        from .io import matrix_to_json_dict

        return {
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "objective": float(self.objective),
            "converged": bool(self.converged),
            "mean": matrix_to_json_dict(self.mean),
        }


def _mix(weights, stack):
    """Weighted arithmetic mean of an already-validated stack, or of each
    ensemble of a stack of ensembles."""
    return hermitianize(_k.weighted_sum(weights, stack))


def wasserstein_mean(ensemble, config=None):
    """Solve for the Wasserstein mean of ``ensemble``.

    Non-convergence within the iteration budget returns the best iterate with
    ``converged=False``; loss of positivity raises ``SolverBreakdownError``.
    Deterministic for fixed inputs (fixed summation order). The report's
    ``objective`` is taken from the root traces the solver returns with its
    best iterate, under the same round-off clamp as ``objective``.
    """
    if config is None:
        config = SolverConfig()
    solved = _k.wasserstein_solve(
        ensemble.matrices,
        ensemble.weights,
        _mix(ensemble.weights, ensemble.matrices),
        config.max_iter,
        config.residual_tol,
    )
    return _solver_report(ensemble, *solved)


def wasserstein_means(ensembles, config=None):
    """Solve every ensemble of the list, with one stacked solver call per
    ``matrices.shape``.

    Each report equals ``wasserstein_mean(ensemble, config)`` bit for bit.
    An entry is None where that solve is left to ``wasserstein_mean``, which
    raises: the solve broke down, or LAPACK failed on the stack of its shape
    group (one bad matrix fails the whole stack).
    """
    if config is None:
        config = SolverConfig()
    groups = {}
    for i, ensemble in enumerate(ensembles):
        groups.setdefault(ensemble.matrices.shape, []).append(i)
    reports = [None] * len(ensembles)
    for rows in groups.values():
        weights = np.stack([ensembles[i].weights for i in rows])
        mats = np.stack([ensembles[i].matrices for i in rows])
        try:
            solved = _k.wasserstein_solve(
                mats, weights, _mix(weights, mats), config.max_iter, config.residual_tol
            )
        except np.linalg.LinAlgError:
            continue
        for i, *outputs in zip(rows, *solved):
            try:
                reports[i] = _solver_report(ensembles[i], *outputs)
            except SolverBreakdownError:
                pass
    return reports


def _solver_report(ensemble, x, iters, res, status, root_traces):
    """The report on one solve from the solver's outputs; the objective comes
    from the root traces of the best iterate."""
    if status == _k.SOLVE_BREAKDOWN:
        raise SolverBreakdownError(
            f"iterate lost positive definiteness after {iters} iterations "
            f"(dimension {ensemble.dim}, {ensemble.size} matrices)"
        )
    scales = _distance_scale(x, ensemble.matrices)
    return SolverReport(
        mean=x,
        iterations=int(iters),
        residual=float(res),
        objective=_weighted_squared_distances(ensemble.weights, scales - root_traces, scales),
        converged=bool(status == _k.SOLVE_CONVERGED),
    )


def residual(x, ensemble):
    """||I - sum_j w_j (A_j # x^{-1})||_F, evaluated with direct geometric
    means (a route independent of the solver's internal shortcut)."""
    xm = require_spd(x, name="candidate")
    if xm.shape[0] != ensemble.dim:
        raise ValueError(f"dimension mismatch: {xm.shape[0]} vs {ensemble.dim}")
    return float(_k.mean_equation_residual(xm, ensemble.matrices, ensemble.weights))


def objective(x, ensemble):
    """Weighted sum of squared distances sum_j w_j d^2(x, A_j), with the
    distance's round-off clamp applied to every term.

    Evaluates every distance afresh at any candidate ``x``: the route
    independent of the root traces behind ``SolverReport.objective``."""
    xm = require_spd(x, name="candidate")
    if xm.shape[0] != ensemble.dim:
        raise ValueError(f"dimension mismatch: {xm.shape[0]} vs {ensemble.dim}")
    gaps = _k.bw_gap(xm, ensemble.matrices)
    return _weighted_squared_distances(
        ensemble.weights, gaps, _distance_scale(xm, ensemble.matrices)
    )


def _weighted_squared_distances(weights, gaps, scales):
    """sum_j w_j d_j^2 from the squared-distance gaps and their scales, each
    clamped as a distance is."""
    total = 0.0
    for wj, gap, scale in zip(weights, gaps, scales):
        total += wj * _clamped_sqrt(gap, scale, "distance") ** 2
    return float(total)


def require_commuting(x, y, failure):
    """Reject a pair whose commutator norm ||xy - yx||_F exceeds
    ``COMMUTATOR_RTOL`` ||x||_F ||y||_F, with ``failure`` opening the message."""
    comm = frobenius(x @ y - y @ x)
    bound = COMMUTATOR_RTOL * frobenius(x) * frobenius(y)
    if comm > bound:
        raise ValueError(f"{failure}: commutator norm {comm:.3e} > {bound:.3e}")


def commuting_closed_form(ensemble):
    """[sum_j w_j A_j^{1/2}]^2, the mean of a pairwise-commuting ensemble.

    Rejects ensembles whose worst pairwise commutator exceeds
    ``COMMUTATOR_RTOL`` relative to the factors' norms.
    """
    mats = ensemble.matrices
    for i in range(ensemble.size):
        for j in range(i + 1, ensemble.size):
            require_commuting(mats[i], mats[j], f"matrices[{i}] and matrices[{j}] do not commute")
    acc = _k.weighted_sum(ensemble.weights, _k.spd_power(mats, 0.5))
    return hermitianize(acc @ acc)

