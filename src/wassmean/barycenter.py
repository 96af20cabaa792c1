"""Wasserstein mean of an SPD ensemble: fixed-point solver, residual and
objective diagnostics, and the commuting closed form. The order and
determinant consequences of being the minimizer are checked in ``checks``.

The mean of (w, A_1..A_n) is the unique SPD solution X of

    I = sum_j w_j (A_j # X^{-1}),   equivalently   X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2},

which is the least-squares barycenter for the Bures-Wasserstein distance.
The solver iterates the damped self-map x' = k x k with
k = sum_j w_j (A_j # x^{-1}), starting from the arithmetic mean, which the
kernel computes from the ensemble itself, and stops on the Frobenius residual
||I - k||_F.

An ``Ensemble`` validates its matrices once, into a read-only (n, m, m)
stack; the solver, the diagnostics and the order checks trust that stack and
pass it whole to the stacked kernels of ``_kernels``. The output of the
generators of ``seeded`` whose spectrum range proves it positive definite is
stored without that pass (``Ensemble._generated``).

``wasserstein_means`` is the package's one solve: it solves a list of
ensembles with one stacked solver call per ``matrices.shape`` and returns,
per ensemble, its report or the error its solve raised. ``wasserstein_mean``
is its one-ensemble case, so a batched report equals the single one bit for
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
from .hermitian import (
    _spectrum_clears_floor,
    frobenius,
    hermitianize,
    require_positive,
    require_spd,
    require_spd_stack,
)
from .means import validate_weights

COMMUTATOR_RTOL = 1e-8


class SolverBreakdownError(RuntimeError):
    """An iterate lost positive definiteness; the run cannot continue."""


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weight vector paired with same-dimension SPD matrices.

    ``matrices`` is stored as a C-order (n, m, m) complex128 stack; both
    fields are validated on construction, the matrices in one batched pass
    (which ``_generated`` skips for generator output that provably passes),
    and stored read-only: the weights as the ensemble's own copy, the
    matrices as the fresh stack the validation returns. An ensemble can be
    shared without being changed behind its users' backs. Ensembles compare
    and hash by identity: comparing array fields has no single truth value.
    """

    weights: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        w = validate_weights(self.weights)
        self._store(w, require_spd_stack(self.matrices, name="matrices"))

    @classmethod
    def _generated(cls, weights, matrices, eig_lo, eig_hi):
        """The ensemble of generator output: ``matrices`` is a fresh (n, m, m)
        stack that ``_kernels._from_spectrum`` built, exactly Hermitian, from
        unitaries and spectra in [eig_lo, eig_hi]. Where that range proves
        the stack passes validation (``hermitian._spectrum_clears_floor``)
        it is stored as the constructor would store it, without the
        validator's pass; elsewhere the constructor validates it."""
        if not _spectrum_clears_floor(matrices.shape[-1], eig_lo, eig_hi):
            return cls(weights=weights, matrices=matrices)
        ensemble = object.__new__(cls)
        ensemble._store(validate_weights(weights), np.ascontiguousarray(matrices))
        return ensemble

    def _store(self, w, mats):
        if mats.shape[0] != w.size:
            raise ValueError(f"count mismatch: {w.size} weights, {mats.shape[0]} matrices")
        w = w.copy()
        w.flags.writeable = mats.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "matrices", mats)

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
        for name, integer in (("max_iter", True), ("residual_tol", False)):
            object.__setattr__(self, name, require_positive(getattr(self, name), name, integer))


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one barycenter solve; ``converged`` implies
    ``residual <= residual_tol``. ``mean`` is read-only, so a report can be
    shared."""

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


def wasserstein_mean(ensemble, config=None):
    """Solve for the Wasserstein mean of ``ensemble``: the one-ensemble case
    of ``wasserstein_means``, returning its report or raising its error.

    Non-convergence within the iteration budget returns the best iterate with
    ``converged=False``; loss of positivity raises ``SolverBreakdownError``.
    Deterministic for fixed inputs (fixed summation order). The report's
    ``objective`` is taken from the root traces the solver returns with its
    best iterate, under the same round-off clamp as ``objective``.
    """
    outcome = wasserstein_means([ensemble], config)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def wasserstein_means(ensembles, config=None):
    """Solve every ensemble of the list, with one stacked solver call per
    ``matrices.shape``: the package's one solve.

    Each entry is the ensemble's ``SolverReport`` or the error its solve
    raised: a ``SolverBreakdownError``, the ``LinAlgError`` LAPACK raised on
    the ensemble's own stack, or the ``ValueError`` of an objective term whose
    round-off falls below the distance's clamp. One bad matrix fails LAPACK
    for its whole shape group, so a failed group is solved again one
    ensemble at a time.
    """
    if config is None:
        config = SolverConfig()
    groups = {}
    for i, ensemble in enumerate(ensembles):
        groups.setdefault(ensemble.matrices.shape, []).append(i)
    outcomes = [None] * len(ensembles)
    for rows in groups.values():
        group = [ensembles[i] for i in rows]
        try:
            solved = _k.wasserstein_solve(
                np.stack([e.matrices for e in group]),
                np.stack([e.weights for e in group]),
                config.max_iter,
                config.residual_tol,
            )
        except np.linalg.LinAlgError as exc:
            for i, e in zip(rows, group):
                outcomes[i] = exc if len(rows) == 1 else wasserstein_means([e], config)[0]
            continue
        for i, e, *outputs in zip(rows, group, *solved):
            outcomes[i] = _outcome(e, *outputs)
    return outcomes


def _outcome(ensemble, x, iters, res, status, root_traces):
    """The read-only report on one solve from the solver's outputs, or the
    ``SolverBreakdownError`` of a solve that lost positivity, or the
    ``ValueError`` of an objective that the distance's clamp refuses; the
    objective comes from the root traces of the best iterate."""
    if status == _k.SOLVE_BREAKDOWN:
        return SolverBreakdownError(
            f"iterate lost positive definiteness after {iters} iterations "
            f"(dimension {ensemble.dim}, {ensemble.size} matrices)"
        )
    x.flags.writeable = False
    scales = _distance_scale(x, ensemble.matrices)
    try:
        objective = _weighted_squared_distances(ensemble.weights, scales - root_traces, scales)
    except ValueError as exc:
        return exc
    return SolverReport(
        mean=x,
        iterations=int(iters),
        residual=float(res),
        objective=objective,
        converged=bool(status == _k.SOLVE_CONVERGED),
    )


def _require_candidate(x, ensemble):
    """Validate a candidate mean of ``ensemble``: positive definite, of the
    ensemble's dimension."""
    xm = require_spd(x, name="candidate")
    if xm.shape[0] != ensemble.dim:
        raise ValueError(f"dimension mismatch: {xm.shape[0]} vs {ensemble.dim}")
    return xm


def residual(x, ensemble):
    """||I - sum_j w_j (A_j # x^{-1})||_F, evaluated with direct geometric
    means (a route independent of the solver's internal shortcut)."""
    xm = _require_candidate(x, ensemble)
    return float(_k.mean_equation_residual(xm, ensemble.matrices, ensemble.weights))


def objective(x, ensemble):
    """Weighted sum of squared distances sum_j w_j d^2(x, A_j), with the
    distance's round-off clamp applied to every term.

    Evaluates every distance afresh at any candidate ``x``: the route
    independent of the root traces behind ``SolverReport.objective``."""
    xm = _require_candidate(x, ensemble)
    gaps = _k.bw_gap(xm, ensemble.matrices)
    return _weighted_squared_distances(
        ensemble.weights, gaps, _distance_scale(xm, ensemble.matrices)
    )


def _weighted_squared_distances(weights, gaps, scales):
    """sum_j w_j d_j^2 from the squared-distance gaps and their scales, each
    clamped as a distance is."""
    total = 0.0
    for wj, gap, scale in zip(weights, gaps, scales):
        total += wj * _clamped_sqrt(gap, scale) ** 2
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

