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
    """Fixed-point solver knobs.

    ``init`` is the starting iterate (None selects the arithmetic mean, an
    upper bound of the solution in the Loewner order, so always a safe start).
    """

    max_iter: int = 200
    residual_tol: float = 1e-11
    init: np.ndarray | None = None

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
    """Weighted arithmetic mean of an already-validated stack."""
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
    if config.init is None:
        x0 = _mix(ensemble.weights, ensemble.matrices)
    else:
        x0 = require_spd(config.init, name="init")
        if x0.shape[0] != ensemble.dim:
            raise ValueError(
                f"init: dimension {x0.shape[0]} does not match ensemble dimension {ensemble.dim}"
            )
    x, iters, res, status, root_traces = _k.wasserstein_solve(
        ensemble.matrices,
        ensemble.weights,
        x0,
        config.max_iter,
        config.residual_tol,
    )
    if status == _k.SOLVE_BREAKDOWN:
        raise SolverBreakdownError(
            f"iterate lost positive definiteness after {iters} iterations "
            f"(dimension {ensemble.dim}, {ensemble.size} matrices)"
        )
    scales = _distance_scale(x, ensemble.matrices)
    return SolverReport(
        mean=x,
        iterations=iters,
        residual=float(res),
        objective=_weighted_squared_distances(ensemble.weights, scales - root_traces, scales),
        converged=status == _k.SOLVE_CONVERGED,
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


def commuting_closed_form(ensemble):
    """[sum_j w_j A_j^{1/2}]^2, the mean of a pairwise-commuting ensemble.

    Rejects ensembles whose worst pairwise commutator exceeds
    ``COMMUTATOR_RTOL`` relative to the factors' norms.
    """
    mats = ensemble.matrices
    for i in range(ensemble.size):
        for j in range(i + 1, ensemble.size):
            comm = frobenius(mats[i] @ mats[j] - mats[j] @ mats[i])
            bound = COMMUTATOR_RTOL * frobenius(mats[i]) * frobenius(mats[j])
            if comm > bound:
                raise ValueError(
                    f"matrices[{i}] and matrices[{j}] do not commute: "
                    f"commutator norm {comm:.3e} > {bound:.3e}"
                )
    acc = _k.weighted_sum(ensemble.weights, _k.spd_power(mats, 0.5))
    return hermitianize(acc @ acc)

