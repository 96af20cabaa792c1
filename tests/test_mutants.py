"""Can each check fail? Wrong means, marked converged, through the suite.

Each mutant rebinds ``barycenter.wasserstein_means`` so that every solve
returns one wrong mean instead of the Wasserstein mean, marked converged, and
runs the default plan on two seed windows. The test pins exactly which
checks refute each wrong mean. No check's core changes, and no report may be
an error report: a wrong mean is a refutation, not a failure to evaluate.
"""

import dataclasses

import numpy as np
import pytest

from wassmean import _kernels, barycenter
from wassmean.checks import default_plan, run_suite


def _spectral(a, f):
    """f applied to the spectrum of each Hermitian matrix of a stack."""
    w, v = np.linalg.eigh(a)
    return _kernels.hermitianize(_kernels._from_spectrum(v, f(w)))


def _arithmetic(e, mean):
    return _kernels.hermitianize(_kernels.weighted_sum(e.weights, e.matrices))


def _harmonic(e, mean):
    inverses = _spectral(e.matrices, lambda w: 1.0 / w)
    return _spectral(_kernels.hermitianize(_kernels.weighted_sum(e.weights, inverses)),
                     lambda w: 1.0 / w)


def _log_euclidean(e, mean):
    logs = _kernels.weighted_sum(e.weights, _spectral(e.matrices, np.log))
    return _spectral(_kernels.hermitianize(logs), np.exp)


def _scaled(factor):
    return lambda e, mean: mean * factor


_BOUND_CHECKS = ["fixed_point", "bounds", "tensor_arithmetic_bound",
                 "hadamard_arithmetic_bound", "kantorovich_hadamard"]

# The checks each wrong mean must fail, on seeds 0-49 and on seeds 777-806.
MUTANTS = {
    "arithmetic": (_arithmetic, ["fixed_point"], ["fixed_point"]),
    "harmonic": (_harmonic, ["fixed_point", "det_inequality"],
                 ["fixed_point", "det_inequality"]),
    "log_euclidean": (_log_euclidean, ["fixed_point", "self_duality_gap"],
                      ["fixed_point", "self_duality_gap"]),
    "scaled_1e-6": (_scaled(1.0 + 1e-6), _BOUND_CHECKS, _BOUND_CHECKS + ["tensor_identity"]),
    "scaled_1e-3": (_scaled(1.0 + 1e-3), _BOUND_CHECKS + ["tensor_identity"],
                    _BOUND_CHECKS + ["tensor_identity"]),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_wrong_mean_is_refuted_by_exactly_its_checks(monkeypatch, mutant):
    wrong, *expected = MUTANTS[mutant]
    solve_all = barycenter.wasserstein_means

    def mutated(ensembles, config=None):
        return [dataclasses.replace(r, mean=wrong(e, r.mean), converged=True)
                for e, r in zip(ensembles, solve_all(ensembles, config))]

    monkeypatch.setattr(barycenter, "wasserstein_means", mutated)
    for seeds, failing in zip([(0, 50), (777, 807)], expected):
        reports = run_suite(default_plan(seeds=seeds))
        assert {r.check_name for r in reports if not r.holds} == set(failing)
        assert not any(r.skipped for r in reports)
        assert not any("error" in {**r.details, **r.details["worst_details"]} for r in reports)
