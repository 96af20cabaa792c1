"""Forced solve failures for the tests of the checks' failure rule."""

import dataclasses

from wassmean import barycenter

# The checks whose cores read solved means; the other five solve nothing.
SOLVING_CHECKS = (
    "fixed_point", "bounds", "det_inequality", "phi_wass", "self_duality_gap", "tensor_identity",
    "tensor_arithmetic_bound", "hadamard_arithmetic_bound", "kantorovich_hadamard",
    "sqrt_sum_lower_bound",
)

BREAKDOWN = "iterate lost positive definiteness (forced)"

# How the error report of a case whose solve failed, by mode, begins.
ERRORS = {"unconverged": "RuntimeError: barycenter solve did not converge (residual ",
          "breakdown": f"SolverBreakdownError: {BREAKDOWN}"}


def failed(outcome, mode):
    """A solve's outcome as ``mode`` fails it: "unconverged" marks the
    report not converged, "breakdown" replaces it by a SolverBreakdownError."""
    if mode == "breakdown":
        return barycenter.SolverBreakdownError(BREAKDOWN)
    return dataclasses.replace(outcome, converged=False)


def fail_every_solve(monkeypatch, mode):
    """Rebind ``barycenter.wasserstein_means``, for one test, so that every
    solve fails as ``mode`` says (see ``failed``)."""
    solve_all = barycenter.wasserstein_means
    monkeypatch.setattr(barycenter, "wasserstein_means", lambda ensembles, config=None: [
        failed(r, mode) for r in solve_all(ensembles, config)])
