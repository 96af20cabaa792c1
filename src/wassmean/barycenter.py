"""Wasserstein mean of an SPD ensemble: fixed-point solver, residual and
objective diagnostics, and the commuting closed form. The order and
determinant consequences of being the minimizer are checked in ``checks``.

The mean of (w, A_1..A_n) is the unique SPD solution X of

    I = sum_j w_j (A_j # X^{-1}),   equivalently   X = sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2},

which is the least-squares barycenter for the Bures-Wasserstein distance.
The solver iterates the damped self-map x' = k x k with
k = sum_j w_j (A_j # x^{-1}) from the arithmetic mean, and stops on the
Frobenius residual ||I - k||_F, in the Cholesky frame x = L L*:
k = L^{-*} S L^{-1} for S = sum_j w_j (L* A_j L)^{1/2}, x' = L^{-*} S^2 L^{-1}.

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

The objective sum_j w_j d^2(x, A_j), through the transport maps from x to
the A_j (``_kernels._transport``), and the residual ||I - k||_F, the
certificate, are functions of a candidate x, not outputs of the solve; the
residual is zero steps of the solver started at x. A report holds what the
solve computed: its best iterate, the iterations, its residual and whether
it converged.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .hermitian import (
    _of_type,
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
        """The ensemble of generator output: trusted weights (seeded, or an
        ensemble's own) and a fresh (n, m, m) stack that ``_kernels._from_spectrum``
        built, exactly Hermitian, from unitaries and spectra in [eig_lo, eig_hi].
        Where that range proves the stack passes validation
        (``hermitian._spectrum_clears_floor``), both are stored as the
        constructor would store them, unvalidated; elsewhere it validates both."""
        if not _spectrum_clears_floor(matrices.shape[-1], eig_lo, eig_hi):
            return cls(weights=weights, matrices=matrices)
        ensemble = object.__new__(cls)
        ensemble._store(weights, np.ascontiguousarray(matrices))
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
    converged: bool


def wasserstein_mean(ensemble, config=None):
    """Solve for the Wasserstein mean of ``ensemble``: the one-ensemble case
    of ``wasserstein_means``, returning its report or raising its error.

    Non-convergence within the iteration budget returns the best iterate with
    ``converged=False``; loss of positivity raises ``SolverBreakdownError``.
    Deterministic for fixed inputs (fixed summation order). The objective
    at the mean is ``objective(report.mean, ensemble)``.
    """
    outcome = wasserstein_means([ensemble], config)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def wasserstein_means(ensembles, config=None):
    """Solve every ensemble of the list, with one stacked solver call per
    ``matrices.shape``: the package's one solve.

    Each entry is the ensemble's ``SolverReport`` or the error its solve
    raised: a ``SolverBreakdownError``, or the ``LinAlgError`` LAPACK raised
    on the ensemble's own stack. One bad matrix fails LAPACK for its whole
    shape group, so a failed group is solved again one ensemble at a time.
    A ``config`` that is not a ``SolverConfig``, or an entry that is not an
    ``Ensemble``, is refused by a TypeError naming it before any solve.
    """
    config = SolverConfig() if config is None else _of_type(config, SolverConfig, "config")
    groups = {}
    for i, ensemble in enumerate(ensembles):
        _of_type(ensemble, Ensemble, "ensemble")
        groups.setdefault(ensemble.matrices.shape, []).append(i)
    outcomes = [None] * len(ensembles)
    for rows in groups.values():
        group = [ensembles[i] for i in rows]
        mats = np.stack([e.matrices for e in group])
        try:
            solved = _k.wasserstein_solve(
                mats, np.stack([e.weights for e in group]), config.max_iter, config.residual_tol
            )
        except np.linalg.LinAlgError as exc:
            for i, e in zip(rows, group):
                outcomes[i] = exc if len(rows) == 1 else wasserstein_means([e], config)[0]
            continue
        for i, e, *outputs in zip(rows, group, *solved):
            outcomes[i] = _outcome(e, *outputs)
    return outcomes


def _outcome(ensemble, x, iters, res, status):
    """The read-only report on one solve from the solver's outputs, or the
    ``SolverBreakdownError`` of a solve that lost positivity."""
    if status == _k.SOLVE_BREAKDOWN:
        return SolverBreakdownError(
            f"iterate lost positive definiteness after {iters} iterations "
            f"(dimension {ensemble.dim}, {ensemble.size} matrices)"
        )
    x.flags.writeable = False
    return SolverReport(
        mean=x,
        iterations=int(iters),
        residual=float(res),
        converged=bool(status == _k.SOLVE_CONVERGED),
    )


def _require_candidate(x, ensemble):
    """Validate a candidate mean of ``ensemble``: positive definite, of the
    dimension of ``ensemble``, which must be an ``Ensemble``."""
    _of_type(ensemble, Ensemble, "ensemble")
    xm = require_spd(x, name="candidate")
    if xm.shape[0] != ensemble.dim:
        raise ValueError(f"dimension mismatch: {xm.shape[0]} vs {ensemble.dim}")
    return xm


def residual(x, ensemble):
    """||I - sum_j w_j (A_j # x^{-1})||_F: zero steps of the solver from x,
    which raise ``ValueError`` where a congruence L* A_j L is indefinite."""
    xm = _require_candidate(x, ensemble)
    return float(_k.mean_equation_residual(xm, ensemble.matrices, ensemble.weights))


def objective(x, ensemble):
    """Weighted sum of squared distances sum_j w_j d^2(x, A_j) at any
    candidate ``x``, each term ``_kernels.bw_gap``. A solve does not compute
    it: a report's objective is this function at ``report.mean``."""
    xm = _require_candidate(x, ensemble)
    return float(ensemble.weights @ _k.bw_gap(xm, ensemble.matrices))


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
    mats = _of_type(ensemble, Ensemble, "ensemble").matrices
    for i in range(ensemble.size):
        for j in range(i + 1, ensemble.size):
            require_commuting(mats[i], mats[j], f"matrices[{i}] and matrices[{j}] do not commute")
    acc = _k.weighted_sum(ensemble.weights, _k.spd_power(mats, 0.5))
    return hermitianize(acc @ acc)

