import re

import numpy as np
import pytest

from wassmean import _kernels
from wassmean.barycenter import (
    Ensemble,
    SolverBreakdownError,
    SolverConfig,
    SolverReport,
    commuting_closed_form,
    objective,
    residual,
    wasserstein_mean,
    wasserstein_means,
)
from wassmean.bures import bw_distance, geodesic
from wassmean.checks import check
from wassmean.hermitian import (
    frobenius,
    hermitianize,
    require_spd,
)
from wassmean.seeded import random_commuting_spds, random_spd


def _ensemble(seed, m=3, n=3, lo=0.5, hi=2.0):
    mats = [random_spd(m, seed=3000 * seed + j, eig_lo=lo, eig_hi=hi) for j in range(n)]
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, n)
    return Ensemble(weights=w / w.sum(), matrices=mats)


def _two_point():
    return Ensemble(weights=[0.5, 0.5],
                    matrices=[np.eye(2, dtype=complex), 4 * np.eye(2, dtype=complex)])


def test_singleton_mean_is_the_matrix():
    a = random_spd(3, seed=1, eig_lo=0.5, eig_hi=2.0)
    report = wasserstein_mean(Ensemble(weights=[1.0], matrices=[a]))
    assert report.converged
    assert frobenius(report.mean - a) <= 1e-10


def test_two_point_commuting_mean():
    report = wasserstein_mean(_two_point())
    assert report.converged
    assert np.allclose(report.mean, 2.25 * np.eye(2), atol=1e-10)


def test_random_solve_certificate_and_dominance():
    e = _ensemble(11)
    report = wasserstein_mean(e)
    assert report.converged
    assert residual(report.mean, e) <= 1e-10
    arith = _kernels.weighted_sum(e.weights, e.matrices)
    assert objective(report.mean, e) <= objective(arith, e) + 1e-9


def test_fixed_point_certificate_both_forms():
    for seed in range(10):
        e = _ensemble(seed)
        report = wasserstein_mean(e)
        assert report.converged
        assert residual(report.mean, e) <= 1e-10
        root = _kernels.spd_power(report.mean, 0.5)
        acc = np.zeros_like(report.mean)
        for j in range(e.size):
            inner = hermitianize(root @ e.matrices[j] @ root)
            acc += e.weights[j] * _kernels.spd_power(inner, 0.5)
        assert frobenius(report.mean - acc) <= 1e-9 * frobenius(report.mean)


def test_residual_singleton():
    a = random_spd(3, seed=4, eig_lo=0.5, eig_hi=2.0)
    e = Ensemble(weights=[1.0], matrices=[a])
    assert residual(a, e) <= 1e-10


def test_residual_at_verified_fixed_point():
    assert residual(2.25 * np.eye(2), _two_point()) <= 1e-10


def test_residual_ranks_arithmetic_mean_behind_solution():
    e = _ensemble(17)
    report = wasserstein_mean(e)
    arith = _kernels.weighted_sum(e.weights, e.matrices)
    assert residual(arith, e) > residual(report.mean, e)


# Means of log-uniform ensembles, matrix j of case s drawn from seed
# 1000 s + j, Dirichlet weights from default_rng(s). Against the 40-digit
# residual, the transport route read 0.90-1.01x; the direct geometric means
# it replaced read 35x, 47x, 116x and 11.5x, and the solver's own residual
# under-reads the capped solve (0.21x).
@pytest.mark.parametrize("m,n,lo,hi,dirichlet,s", [
    (8, 6, 1e-3, 1e3, False, 0),
    (8, 6, 1e-3, 1e3, False, 1),
    (6, 5, 1e-4, 1e4, True, 0),
    (4, 4, 1e-2, 1e2, True, 0),
])
def test_residual_matches_extended_precision_oracle(log_uniform, m, n, lo, hi, dirichlet, s):
    pytest.importorskip("mpmath")
    from _mp_oracle import mean_equation_residual

    w = np.random.default_rng(s).dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    e = Ensemble(weights=w, matrices=[log_uniform(m, 1000 * s + j, lo, hi) for j in range(n)])
    # A capped solve is certified at its best iterate, as a converged one is.
    report = wasserstein_mean(e)
    want = mean_equation_residual(report.mean, e.matrices, e.weights)
    assert residual(report.mean, e) == pytest.approx(want, rel=0.25)


@pytest.mark.parametrize("diagnostic", [residual, objective])
def test_diagnostics_validate_the_candidate(diagnostic):
    e = _ensemble(5)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        diagnostic(np.eye(2), e)
    with pytest.raises(ValueError, match=r"^candidate: not positive definite"):
        diagnostic(np.diag([1.0, -1.0, 1.0]), e)


def test_commuting_closed_form_scalar():
    assert np.allclose(commuting_closed_form(_two_point()), 2.25 * np.eye(2))


def test_commuting_closed_form_diagonal():
    e = Ensemble(weights=[1 / 3, 2 / 3],
                 matrices=[np.diag([1.0, 4.0]), np.diag([9.0, 1.0])])
    got = commuting_closed_form(e)
    assert np.allclose(got, np.diag([49.0 / 9.0, 16.0 / 9.0]), atol=1e-12)


def test_commuting_closed_form_matches_solver():
    mats = random_commuting_spds(3, 3, seed=3, eig_lo=0.5, eig_hi=2.0)
    rng = np.random.default_rng(3)
    w = rng.uniform(0.2, 1.0, 3)
    e = Ensemble(weights=w / w.sum(), matrices=mats)
    closed = commuting_closed_form(e)
    solved = wasserstein_mean(e).mean
    assert frobenius(closed - solved) <= 1e-8


def test_commuting_closed_form_refuses_a_non_ensemble_by_name():
    # It used to leak AttributeError: 'list' object has no attribute 'matrices'.
    for arg, kind in (([np.eye(2)], "list"), (np.eye(2), "ndarray")):
        with pytest.raises(TypeError) as err:
            commuting_closed_form(arg)
        assert str(err.value) == f"ensemble: expected Ensemble, got {kind}"


def test_commuting_closed_form_rejects_noncommuting():
    e = _ensemble(23)
    with pytest.raises(ValueError, match="commute"):
        commuting_closed_form(e)


def test_objective_zero_at_singleton():
    a = random_spd(3, seed=6, eig_lo=0.5, eig_hi=2.0)
    e = Ensemble(weights=[1.0], matrices=[a])
    assert objective(a, e) <= 1e-9


def test_objective_zero_at_singleton_wide_spectrum():
    # d(x, A)^2 at x = A has round-off beyond an absolute 1e-12 here.
    a = random_spd(50, seed=8, eig_lo=0.5, eig_hi=100.0)
    e = Ensemble(weights=[1.0], matrices=[a])
    assert objective(a, e) <= 1e-12 * np.trace(a).real


def test_solver_objective_matches_independent_route():
    # A batch of ten returns each lone solve's mean bit for bit, so the
    # objective at a report's mean is the same alone and in the batch.
    shapes = ((2, 2, 0.5, 2.0), (3, 5, 0.1, 10.0), (5, 4, 1e-3, 1e3), (8, 3, 1e-3, 1e3))
    for m, n, lo, hi in shapes:
        ensembles = [_ensemble(seed + 900, m=m, n=n, lo=lo, hi=hi) for seed in range(10)]
        for e, batched in zip(ensembles, wasserstein_means(ensembles)):
            report = wasserstein_mean(e)
            assert report.converged
            assert np.array_equal(batched.mean, report.mean)
            assert objective(batched.mean, e) == objective(report.mean, e)


def test_solver_objective_zero_at_singleton_wide_spectrum():
    a = random_spd(6, seed=9, eig_lo=1e-3, eig_hi=1e3)
    e = Ensemble(weights=[1.0], matrices=[a])
    report = wasserstein_mean(e)
    assert objective(report.mean, e) <= 1e-12 * np.trace(a).real


@pytest.mark.parametrize("call, message", [
    (lambda e, x: wasserstein_mean(e, 5), "config: expected SolverConfig, got int"),
    (lambda e, x: wasserstein_mean(e, {"max_iter": 5}), "config: expected SolverConfig, got dict"),
    (lambda e, x: wasserstein_means([e, e.matrices]), "ensemble: expected Ensemble, got ndarray"),
    (lambda e, x: objective(x, [e.matrices[0]]), "ensemble: expected Ensemble, got list"),
    (lambda e, x: residual(x, "e"), "ensemble: expected Ensemble, got str"),
], ids=["mean-config-int", "mean-config-dict", "means-entry", "objective", "residual"])
def test_entry_points_refuse_wrong_types_by_name(call, message):
    # Each used to leak an AttributeError from inside the solve or diagnostic.
    e = _ensemble(3)
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(e, e.matrices[0])


def test_solves_compute_no_objective(monkeypatch):
    # The objective is objective(report.mean, e), computed on request: a
    # solve, alone or in a suite window, never evaluates a squared distance.
    from wassmean import _kernels
    from wassmean.checks import default_plan, run_suite

    calls = []
    gap = _kernels.bw_gap
    monkeypatch.setattr(_kernels, "bw_gap", lambda *args: calls.append(args) or gap(*args))
    e = _ensemble(5)
    report = wasserstein_mean(e)
    run_suite(default_plan(seeds=(0, 10)))
    assert calls == []
    objective(report.mean, e)
    assert len(calls) == 1


def test_objective_matches_pairwise_distances():
    for seed in range(5):
        e = _ensemble(seed + 70, m=4, n=5, lo=0.1, hi=10.0)
        x = random_spd(4, seed=seed + 700, eig_lo=0.1, eig_hi=10.0)
        want = sum(e.weights[j] * bw_distance(x, e.matrices[j]) ** 2 for j in range(e.size))
        assert objective(x, e) == pytest.approx(want, rel=1e-12)


def test_objective_local_minimality():
    rng = np.random.default_rng(5)
    for seed in range(5):
        e = _ensemble(seed + 30)
        x = wasserstein_mean(e).mean
        base = objective(x, e)
        for _ in range(4):
            v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            p = hermitianize(v @ v.conj().T)
            p /= frobenius(p)
            assert base <= objective(x + 1e-3 * p, e) + 1e-12


def test_objective_two_point_minimum_is_geodesic_midpoint():
    a = random_spd(3, seed=41, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(3, seed=43, eig_lo=0.5, eig_hi=2.0)
    e = Ensemble(weights=[0.5, 0.5], matrices=[a, b])
    mid = geodesic(a, b, 0.5)
    report = wasserstein_mean(e)
    assert objective(report.mean, e) <= objective(mid, e) + 1e-9
    assert frobenius(report.mean - mid) <= 1e-7 * frobenius(mid)


def test_two_point_mean_tracks_geodesic():
    a = random_spd(3, seed=51, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(3, seed=53, eig_lo=0.5, eig_hi=2.0)
    for t in (0.25, 0.5, 0.75):
        e = Ensemble(weights=[1.0 - t, t], matrices=[a, b])
        solved = wasserstein_mean(e).mean
        assert frobenius(solved - geodesic(a, b, t)) <= 1e-7


def test_minimizer_dominance_over_probes():
    e = _ensemble(61)
    report = wasserstein_mean(e)
    candidates = [_kernels.weighted_sum(e.weights, e.matrices)]
    candidates.extend(e.matrices[j] for j in range(e.size))
    candidates.extend(
        random_spd(e.dim, seed=7000 + k, eig_lo=0.5, eig_hi=2.0) for k in range(20)
    )
    best = objective(report.mean, e)
    for y in candidates:
        assert best <= objective(y, e) + 1e-9


def test_permutation_equivariance():
    e = _ensemble(71, n=4)
    perm = [2, 0, 3, 1]
    shuffled = Ensemble(weights=e.weights[perm],
                        matrices=[e.matrices[j] for j in perm])
    m1 = wasserstein_mean(e).mean
    m2 = wasserstein_mean(shuffled).mean
    assert frobenius(m1 - m2) <= 1e-9 * frobenius(m1)


def test_homogeneity():
    e = _ensemble(81)
    base = wasserstein_mean(e).mean
    for c in (0.5, 2.0):
        scaled = Ensemble(weights=e.weights,
                          matrices=[c * e.matrices[j] for j in range(e.size)])
        got = wasserstein_mean(scaled).mean
        assert frobenius(got - c * base) <= 1e-9 * frobenius(c * base)


def test_non_convergence_returns_best_iterate():
    e = _ensemble(91)
    report = wasserstein_mean(e, SolverConfig(max_iter=1))
    assert not report.converged
    assert report.residual > 1e-11
    assert np.linalg.eigvalsh(report.mean)[0] > 0


def test_negative_congruence_eigenvalue_raises_breakdown(wide_spectrum_mats):
    e = Ensemble(weights=np.full(6, 1.0 / 6.0), matrices=wide_spectrum_mats)
    with pytest.raises(SolverBreakdownError, match="after 12 iterations"):
        wasserstein_mean(e)


def test_batched_means_equal_single_solves(wide_spectrum_mats, log_uniform):
    wide = Ensemble(weights=np.full(6, 1.0 / 6.0), matrices=wide_spectrum_mats)
    # At 12 iterations the 8x8 group holds a converged solve, the breakdown
    # (at the last iterate) and a solve that runs out: six log-uniform
    # [1e-2, 1e2] matrices from the tests' own generator, whose mean takes
    # 35 iterations.
    slow = Ensemble(weights=np.full(6, 1.0 / 6.0),
                    matrices=[log_uniform(8, 6 + j, 1e-2, 1e2) for j in range(6)])
    config = SolverConfig(max_iter=12)
    ensembles = [_ensemble(1), _ensemble(2, m=8, n=6), wide, _ensemble(3),
                 _ensemble(4, n=2), slow]
    reports = wasserstein_means(ensembles, config)
    assert isinstance(reports[2], SolverBreakdownError)
    for e, got in zip(ensembles, reports):
        if isinstance(got, SolverBreakdownError):
            continue
        want = wasserstein_mean(e, config)
        assert np.array_equal(got.mean, want.mean)
        assert (got.iterations, got.residual, got.converged) == (
            want.iterations, want.residual, want.converged
        )
    assert {r.converged for r in reports if isinstance(r, SolverReport)} == {True, False}


def test_batched_means_return_a_breakdown_beside_its_group_mates(wide_spectrum_mats):
    wide = Ensemble(weights=np.full(6, 1.0 / 6.0), matrices=wide_spectrum_mats)
    ensembles = [_ensemble(2, m=8, n=6), wide, _ensemble(5, m=8, n=6)]
    first, broken, last = wasserstein_means(ensembles)
    assert isinstance(broken, SolverBreakdownError)
    assert str(broken) == (
        "iterate lost positive definiteness after 12 iterations (dimension 8, 6 matrices)"
    )
    assert first.converged and last.converged
    with pytest.raises(SolverBreakdownError, match=re.escape(str(broken))):
        wasserstein_mean(wide)


def test_log_uniform_singletons_report_a_round_off_objective(log_uniform):
    # The singleton {A}, whose mean is A, on log-uniform [1e-3, 1e3] at m = 4.
    # The difference of traces tr((x+A)/2) - tr(x^{1/2} A x^{1/2})^{1/2} at the
    # best iterate x cancelled below the distance's clamp on 6 of these 60
    # seeds (seed 1: "distance: squared value -4.696403e-10 below
    # -3.695e-10"), and that error was stored instead of a report. Through
    # the transport map the largest objective / tr A measured 2.9e-17.
    lones = [Ensemble(weights=[1.0], matrices=[log_uniform(4, seed)]) for seed in range(60)]
    for e, report in zip(lones, wasserstein_means(lones)):
        assert isinstance(report, SolverReport)
        assert objective(report.mean, e) <= 1e-12 * np.trace(e.matrices[0]).real


def test_batched_means_keep_each_best_iterate_when_only_some_improve():
    # An unreachable tolerance runs every solve to its budget. Near the
    # round-off floor the residuals of the batch stop improving at different
    # iterates, so each best iterate must be kept entry by entry.
    from wassmean.seeded import random_ensemble

    config = SolverConfig(max_iter=60, residual_tol=1e-300)
    ensembles = [random_ensemble(3, 4, seed) for seed in range(6)]
    reports = wasserstein_means(ensembles, config)
    for e, got in zip(ensembles, reports):
        want = wasserstein_mean(e, config)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert (got.iterations, got.residual, got.converged) == (
            want.iterations, want.residual, False
        )


def test_batched_means_leave_a_failed_stack_to_single_solves(monkeypatch):
    # One bad matrix fails LAPACK for its whole stack; that shape group is
    # solved again one ensemble at a time, and each lone failure is its
    # ensemble's entry.
    from wassmean import _kernels

    solve = _kernels.wasserstein_solve

    def failing_for_2x2(mats, *args):
        if mats.shape[-1] == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(mats, *args)

    monkeypatch.setattr(_kernels, "wasserstein_solve", failing_for_2x2)
    ensembles = [_ensemble(1), _ensemble(2, m=2), _ensemble(3), _ensemble(4, m=2)]
    reports = wasserstein_means(ensembles)
    assert all(isinstance(reports[i], np.linalg.LinAlgError) for i in (1, 3))
    assert all(r.converged for r in (reports[0], reports[2]))


def test_solver_deterministic():
    e = _ensemble(99)
    m1 = wasserstein_mean(e).mean
    m2 = wasserstein_mean(e).mean
    assert np.array_equal(m1, m2)


def test_parallel_solves_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    ensembles = [_ensemble(seed + 400) for seed in range(8)]
    serial = [wasserstein_mean(e).mean for e in ensembles]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda e: wasserstein_mean(e).mean, ensembles))
    for s, p in zip(serial, parallel):
        assert np.array_equal(s, p)


def test_wide_spectrum_and_larger_dimension():
    mats = [random_spd(16, seed=900 + j, eig_lo=0.01, eig_hi=100.0)
            for j in range(4)]
    e = Ensemble(weights=[0.25] * 4, matrices=mats)
    report = wasserstein_mean(e)
    assert report.converged
    assert residual(report.mean, e) <= 1e-10


def test_one_by_one_matrices_match_scalar_closed_form():
    e = Ensemble(weights=[0.4, 0.6],
                 matrices=[np.array([[2.0]], dtype=complex),
                           np.array([[8.0]], dtype=complex)])
    report = wasserstein_mean(e)
    expected = (0.4 * np.sqrt(2.0) + 0.6 * np.sqrt(8.0)) ** 2
    assert report.converged
    assert report.mean[0, 0].real == pytest.approx(expected, abs=1e-10)


def test_check_bounds_scalar_case():
    e = _two_point()
    report = check("bounds", e)
    assert report.holds
    # 2I - (w1 I + w2 I/4) = (11/8) I below (9/4) I below (5/2) I.
    assert report.details["lower_margin"] == pytest.approx(2.25 - 11.0 / 8.0, abs=1e-9)
    assert report.details["upper_margin"] == pytest.approx(2.5 - 2.25, abs=1e-9)


def test_check_bounds_single_matrix():
    a = random_spd(3, seed=55, eig_lo=0.5, eig_hi=2.0)
    e = Ensemble(weights=[1.0], matrices=[a])
    report = check("bounds", e)
    assert report.holds


def test_check_bounds_random():
    for seed in range(30):
        e = _ensemble(seed, m=2 + seed % 4, n=2 + seed % 4)
        report = check("bounds", e)
        assert report.holds
        assert report.margin >= -1e-8


def test_det_inequality_equality_branch():
    a = random_spd(3, seed=60, eig_lo=0.5, eig_hi=2.0)
    e = Ensemble(weights=[1 / 3, 1 / 3, 1 / 3], matrices=[a, a, a])
    report = check("det_inequality", e)
    assert report.holds
    assert abs(report.margin) <= 1e-9
    assert report.details["equality"]
    assert report.details["all_matrices_equal"]


def test_det_inequality_scalar_margin():
    e = _two_point()
    report = check("det_inequality", e)
    assert report.holds
    assert report.margin == pytest.approx(np.log(81.0 / 64.0), abs=1e-9)
    assert not report.details["equality"]


def test_det_inequality_strict_on_distinct():
    for seed in range(20):
        e = _ensemble(seed + 200)
        report = check("det_inequality", e)
        assert report.holds
        assert report.margin >= 1e-10
        assert not report.details["equality"]


def test_ensemble_validation():
    with pytest.raises(ValueError, match="count mismatch"):
        Ensemble(weights=[0.5, 0.5], matrices=[np.eye(2)])
    with pytest.raises(ValueError, match="mixed dimensions"):
        Ensemble(weights=[0.5, 0.5], matrices=[np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="positive definite"):
        Ensemble(weights=[1.0], matrices=[np.diag([1.0, -1.0])])


def test_ensemble_reports_an_empty_matrix_list():
    with pytest.raises(ValueError) as err:
        Ensemble(weights=[1.0], matrices=[])
    assert str(err.value) == "matrices: empty stack, expected at least one matrix"


def test_ensemble_reports_first_offending_matrix():
    eye = np.eye(2)
    indefinite = np.diag([1.0, -1.0])
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"matrices\[2\]: not positive definite"):
        Ensemble(weights=[0.25, 0.25, 0.5], matrices=[eye, eye, indefinite])
    with pytest.raises(ValueError, match=r"matrices\[1\]: not positive definite"):
        Ensemble(weights=[0.25, 0.25, 0.5], matrices=[eye, indefinite, skew])
    with pytest.raises(ValueError, match=r"matrices\[1\]: not Hermitian"):
        Ensemble(weights=[0.25, 0.25, 0.5], matrices=np.stack([eye, skew, indefinite]))
    with pytest.raises(ValueError, match=r"matrices\[1\]: not Hermitian"):
        Ensemble(weights=[0.5, 0.5], matrices=np.stack([eye, skew]))
    with pytest.raises(ValueError, match=r"matrices\[2\]: entries must be finite"):
        Ensemble(weights=[0.25, 0.25, 0.5], matrices=[eye, eye, np.full((2, 2), np.nan)])
    with pytest.raises(ValueError, match=r"matrices\[1\]: expected square"):
        Ensemble(weights=[0.5, 0.5], matrices=[eye, np.ones((2, 3))])


def test_ensemble_stack_equals_per_matrix_validation():
    # Within the relative Hermitian tolerance, but not exactly Hermitian.
    mats = [random_spd(4, seed=s, eig_lo=0.5, eig_hi=2.0) for s in range(6)]
    mats = [a + 1e-14 * np.triu(np.ones((4, 4)), 1) for a in mats]
    e = Ensemble(weights=np.full(6, 1 / 6), matrices=mats)
    want = np.stack([require_spd(a) for a in mats])
    assert np.array_equal(e.matrices, want)
    assert e.matrices.flags["C_CONTIGUOUS"]


def test_ensemble_arrays_are_read_only_copies():
    w = np.array([0.25, 0.75])
    mats = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)])
    e = Ensemble(weights=w, matrices=mats)
    with pytest.raises(ValueError, match="read-only"):
        e.matrices[0, 0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        e.weights[0] = 0.5
    # The caller's arrays stay writeable and are not shared.
    w[0] = 0.5
    mats[0, 0, 0] = 5.0
    assert e.weights[0] == 0.25
    assert e.matrices[0, 0, 0] == 1.0



def test_ensembles_compare_and_hash_by_identity():
    e = Ensemble(weights=[1.0], matrices=[np.eye(2)])
    other = Ensemble(weights=[1.0], matrices=[2 * np.eye(2)])
    twin = Ensemble(weights=[1.0], matrices=[np.eye(2)])
    assert e == e and e != other and e != twin
    assert e not in [other, twin]
    assert e in [other, e]
    assert len({e, other, twin, e}) == 3
    assert {e: 1}[e] == 1

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("max_iter", 0),
    ("max_iter", -3),
    ("max_iter", 2.5),
    ("max_iter", True),
    ("max_iter", "200"),
    ("residual_tol", 0.0),
    ("residual_tol", -1e-11),
    ("residual_tol", float("inf")),
    ("residual_tol", float("nan")),
    ("residual_tol", True),
    ("residual_tol", "1e-11"),
    pytest.param("residual_tol", 10**400, id="residual_tol-int_too_large_for_a_float"),
])
def test_solver_config_rejects_each_bad_field_by_name(field, value):
    # An infinite tolerance would report the arithmetic mean as converged,
    # and a fractional budget would fail only at solve time.
    with pytest.raises(ValueError, match=rf"^{field}: "):
        SolverConfig(**{field: value})


def test_solver_config_takes_numpy_numbers_as_plain_ones():
    config = SolverConfig(max_iter=np.int64(7), residual_tol=np.float64(1e-9))
    assert (config.max_iter, config.residual_tol) == (7, 1e-9)
    assert type(config.max_iter) is int and type(config.residual_tol) is float
