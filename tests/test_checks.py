import ast
import dataclasses
import inspect
import json

import numpy as np
import pytest

from wassmean import _kernels, barycenter, hermitian, seeded
from wassmean import checks as checks_mod
from wassmean.barycenter import Ensemble
from wassmean.checks import (
    DEFAULT_CHECKS,
    SuitePlan,
    check,
    default_plan,
    run_suite,
)
from wassmean.hermitian import ToleranceConfig
from wassmean.products import PositiveMapSpec
from wassmean.seeded import (
    _Draw,
    random_commuting_spds,
    random_ensemble,
    random_isometry_map,
    random_spd,
    random_unitary,
)


def _eye_ensemble(m=2, scale=1.0):
    return Ensemble(weights=[1.0], matrices=[scale * np.eye(m, dtype=complex)])


def _two_point():
    return Ensemble(weights=[0.5, 0.5],
                    matrices=[np.eye(2, dtype=complex), 4 * np.eye(2, dtype=complex)])


def test_fixed_point_certificate_singleton():
    a = random_spd(3, seed=1, eig_lo=0.5, eig_hi=2.0)
    report = check("fixed_point", Ensemble(weights=[1.0], matrices=[a]))
    assert report.holds
    assert abs(report.margin) <= 1e-10


def test_fixed_point_certificate_takes_no_tolerance():
    # Its bound is the class constant ToleranceConfig.residual_tol; a
    # tolerance argument could not change the verdict, so none is taken.
    ensemble = random_ensemble(2, 2, 0)
    with pytest.raises(TypeError):
        check("fixed_point", ensemble, ToleranceConfig(loewner_tol=1e-3))
    with pytest.raises(TypeError, match=r"^fixed_point takes no tolerance$"):
        check("fixed_point", ensemble, tol=ToleranceConfig(loewner_tol=1e-3))


def test_logdet_concavity_random_and_equality():
    for seed in range(20):
        e = random_ensemble(3, 3, seed)
        report = check("logdet_concavity", e)
        assert report.holds
        assert report.margin >= 0.0
    a = random_spd(3, seed=5, eig_lo=0.5, eig_hi=2.0)
    eq = check("logdet_concavity", Ensemble(weights=[0.5, 0.5], matrices=[a, a]))
    assert eq.holds
    assert abs(eq.margin) <= 1e-10
    assert eq.details["equality"]


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_log_det_equality_flag_is_relative_to_the_matrices(scale):
    # Distinct matrices of norm about 1e-9 used to read as equal, since
    # they were compared within an absolute 1e-8.
    e = random_ensemble(3, 4, 7)
    scaled = Ensemble(weights=e.weights, matrices=scale * e.matrices)
    det = check("det_inequality", scaled)
    assert det.details["all_matrices_equal"] is False
    assert det.details["equality_condition_consistent"] is True
    assert check("logdet_concavity", scaled).details["all_matrices_equal"] is False
    constant = Ensemble(weights=[0.5, 0.5], matrices=[scaled.matrices[0]] * 2)
    assert check("det_inequality", constant).details["all_matrices_equal"] is True
    assert check("logdet_concavity", constant).details["all_matrices_equal"] is True


def test_one_function_builds_every_check_report():
    # Every verdict is decided where the report is built, so one builder
    # keeps the rules for holds, margin and skipped in one place.
    tree = ast.parse(inspect.getsource(checks_mod))
    builders = {
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckReport"
    }
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckReport"]
    assert builders == {"_reports"} and len(calls) == 1


def test_phi_geometric_mean_compressions():
    for seed in range(20):
        phi = random_isometry_map(4, 2, seed=seed)
        a = random_spd(4, seed=seed + 10, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(4, seed=seed + 20, eig_lo=0.5, eig_hi=2.0)
        report = check("phi_geometric_mean", a, b, phi)
        assert report.holds, report.margin


def test_phi_geometric_mean_unitary_equality():
    phi = random_isometry_map(3, 3, seed=4)
    a = random_spd(3, seed=30, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(3, seed=31, eig_lo=0.5, eig_hi=2.0)
    report = check("phi_geometric_mean", a, b, phi)
    assert report.holds
    assert abs(report.margin) <= 1e-9


def test_phi_wass_identity_map_single_matrix():
    # Scalar shadow: a + 1/a >= 2 for every eigenvalue.
    a = random_spd(3, seed=40, eig_lo=0.5, eig_hi=2.0)
    phi = PositiveMapSpec(kind="isometry", isometry=np.eye(3, dtype=complex))
    report = check("phi_wass", Ensemble(weights=[1.0], matrices=[a]), phi)
    assert report.holds


def test_phi_wass_unitary_conjugation_scalar_case():
    phi = random_isometry_map(2, 2, seed=6)
    report = check("phi_wass", _two_point(), phi)
    assert report.holds
    # phi(mean) = (9/4)I against 2I - (5/8)I = (11/8)I.
    assert report.details["mean_side_margin"] == pytest.approx(2.25 - 1.375, abs=1e-9)
    # phi(mean^{-1}) = (4/9)I against 2I - (5/2)I = -(1/2)I.
    assert report.details["inverse_side_margin"] == pytest.approx(
        4.0 / 9.0 + 0.5, abs=1e-9
    )


def test_phi_wass_rejects_a_map_of_another_source_dimension():
    with pytest.raises(ValueError, match=r"^dimension mismatch: matrix is 3x3, map expects 2$"):
        check("phi_wass", random_ensemble(3, 2, 0), random_isometry_map(2, 1, seed=5))


def test_phi_wass_random_compressions():
    for seed in range(10):
        phi = random_isometry_map(4, 2, seed=seed + 50)
        e = random_ensemble(4, 3, seed)
        report = check("phi_wass", e, phi)
        assert report.holds
        assert report.margin >= -1e-8


def test_self_duality_gap_on_noncommuting_input():
    e = random_ensemble(2, 2, 0)
    report = check("self_duality_gap", e)
    assert report.holds
    assert report.details["gap"] > 1e-4


def test_tensor_identity_singletons():
    a = _eye_ensemble(2, 1.0)
    b = _eye_ensemble(2, 4.0)
    report = check("tensor_identity", a, b)
    assert report.holds
    assert abs(report.margin) <= 1e-12


def test_tensor_identity_commuting_closed_forms():
    from wassmean.barycenter import commuting_closed_form
    from wassmean.products import ensemble_tensor

    mats_a = random_commuting_spds(2, 2, seed=11, eig_lo=0.5, eig_hi=2.0)
    mats_b = random_commuting_spds(2, 2, seed=12, eig_lo=0.5, eig_hi=2.0)
    a = Ensemble(weights=[0.3, 0.7], matrices=mats_a)
    b = Ensemble(weights=[0.6, 0.4], matrices=mats_b)
    report = check("tensor_identity", a, b)
    assert report.holds
    # Independent route: closed forms of both factors and of the pair ensemble.
    lhs = np.kron(commuting_closed_form(a), commuting_closed_form(b))
    rhs = commuting_closed_form(ensemble_tensor(a, b))
    assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_tensor_identity_random_noncommuting():
    a = random_ensemble(2, 2, 13)
    b = random_ensemble(2, 2, 14)
    report = check("tensor_identity", a, b)
    assert report.holds
    assert report.details["relative_error"] <= 1e-6


def test_tensor_identity_at_dimension_cap():
    # Tensor ensemble of dimension 16 (the solvable ceiling): still tight.
    a = random_ensemble(4, 2, 1)
    b = random_ensemble(4, 2, 2)
    report = check("tensor_identity", a, b)
    assert report.holds
    assert report.details["relative_error"] <= 1e-6


def test_tensor_identity_reports_non_convergence(monkeypatch):
    solve_all = barycenter.wasserstein_means

    def not_converged(ensembles, config=None):
        return [dataclasses.replace(r, converged=False) for r in solve_all(ensembles, config)]

    monkeypatch.setattr(barycenter, "wasserstein_means", not_converged)
    report = check("tensor_identity", random_ensemble(2, 2, 15), random_ensemble(2, 2, 16))
    (suite,) = run_suite(SuitePlan(checks=("tensor_identity",), seeds=(0, 2)))
    for error in (report.details["error"], suite.details["worst_details"]["error"]):
        assert "did not converge" in error
    assert not report.holds and not suite.holds
    assert report.margin == suite.margin == -np.inf


def test_a_check_that_raised_reports_its_error_in_one_format(monkeypatch):
    # tensor_identity wrote the bare message, the suite driver the exception's
    # type and message.
    solve_all = barycenter.wasserstein_means

    def not_converged(ensembles, config=None):
        return [dataclasses.replace(r, converged=False) for r in solve_all(ensembles, config)]

    monkeypatch.setattr(barycenter, "wasserstein_means", not_converged)
    report = check("tensor_identity", random_ensemble(2, 2, 15), random_ensemble(2, 2, 16))
    (suite,) = run_suite(SuitePlan(checks=("tensor_identity",), seeds=(0, 2)))
    for error in (report.details["error"], suite.details["worst_details"]["error"]):
        assert error.startswith("RuntimeError: barycenter solve did not converge (residual ")


def test_tensor_arithmetic_bound_cases():
    singles = check("tensor_arithmetic_bound", _eye_ensemble(2), _eye_ensemble(2))
    assert singles.holds
    assert abs(singles.margin) <= 1e-12
    two = _two_point()
    report = check("tensor_arithmetic_bound", two, two)
    assert report.holds
    # (9/4)^2 I below 2.5^2 I.
    assert report.margin == pytest.approx(6.25 - 5.0625, abs=1e-9)
    for seed in range(5):
        rep = check("tensor_arithmetic_bound", 
            random_ensemble(2, 2, seed + 60), random_ensemble(2, 2, seed + 70)
        )
        assert rep.holds
        assert rep.margin >= -1e-8


def test_hadamard_arithmetic_bound_cases():
    a = _eye_ensemble(3, 1.0)
    singles = check("hadamard_arithmetic_bound", a, a)
    assert singles.holds
    for seed in range(5):
        rep = check("hadamard_arithmetic_bound", 
            random_ensemble(3, 2, seed + 80), random_ensemble(3, 2, seed + 90)
        )
        assert rep.holds
        assert rep.margin >= -1e-8


def test_hadamard_arithmetic_bound_diagonal_scalar_reduction():
    # Diagonal ensembles reduce entrywise to scalars: the slack at entry k is
    # sum_ij w_i u_j a_ik b_jk - (sum_i w_i sqrt(a_ik))^2 (sum_j u_j sqrt(b_jk))^2,
    # reproduced here with plain floats as the oracle for the matrix check.
    wa, ua = [0.5, 0.5], [0.25, 0.75]
    da = [np.diag([1.0, 4.0]), np.diag([2.0, 1.0])]
    db = [np.diag([3.0, 1.0]), np.diag([1.0, 2.0])]
    report = check("hadamard_arithmetic_bound", 
        Ensemble(weights=wa, matrices=da), Ensemble(weights=ua, matrices=db)
    )
    assert report.holds
    slacks = []
    for k in range(2):
        mean_a = sum(w * np.sqrt(m[k, k]) for w, m in zip(wa, da)) ** 2
        mean_b = sum(u * np.sqrt(m[k, k]) for u, m in zip(ua, db)) ** 2
        rhs = sum(w * u * x[k, k] * y[k, k]
                  for w, x in zip(wa, da) for u, y in zip(ua, db))
        slacks.append(rhs - mean_a * mean_b)
    assert min(slacks) >= 0.0
    assert report.margin == pytest.approx(min(np.real(slacks)), abs=1e-9)


def test_commuting_quadruple_equality_case():
    a, _ = random_commuting_spds(3, 2, seed=21, eig_lo=0.5, eig_hi=2.0)
    c, _ = random_commuting_spds(3, 2, seed=22, eig_lo=0.5, eig_hi=2.0)
    report = check("commuting_quadruple", a, a, c, c)
    assert report.holds
    assert abs(report.margin) <= 1e-9


def test_commuting_quadruple_scalar_case():
    a, b, c, d = (np.array([[v]], dtype=complex) for v in (1.0, 2.0, 1.0, 3.0))
    report = check("commuting_quadruple", a, b, c, d)
    assert report.holds
    # (4)(6) - (5)(10) = -26 against (1/2)(1)(4) = 2: slack 28.
    assert report.margin == pytest.approx(28.0, abs=1e-9)


def test_commuting_quadruple_random():
    for seed in range(100):
        a, b = random_commuting_spds(4, 2, seed=2 * seed, eig_lo=0.5, eig_hi=2.0)
        c, d = random_commuting_spds(4, 2, seed=2 * seed + 1, eig_lo=0.5, eig_hi=2.0)
        report = check("commuting_quadruple", a, b, c, d)
        assert report.holds
        assert report.margin >= -1e-8


def test_commuting_quadruple_rejects_noncommuting():
    a = random_spd(3, seed=1, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(3, seed=2, eig_lo=0.5, eig_hi=2.0)
    c, d = random_commuting_spds(3, 2, seed=3, eig_lo=0.5, eig_hi=2.0)
    with pytest.raises(ValueError, match="commute"):
        check("commuting_quadruple", a, b, c, d)


def test_hadamard_inverse_identity_case():
    report = check("hadamard_inverse", np.eye(2), np.eye(2))
    assert report.holds
    assert abs(report.margin) <= 1e-12
    assert report.details["kantorovich_constant"] == pytest.approx(1.0)


def test_hadamard_inverse_random():
    for seed in range(30):
        a = random_spd(4, seed=seed + 300, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(4, seed=seed + 400, eig_lo=0.5, eig_hi=2.0)
        report = check("hadamard_inverse", a, b)
        assert report.holds
        assert report.margin >= -1e-8


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hadamard_pairs_are_the_ando_compression_of_the_kronecker_pairs(m):
    # Z*(A (x) B)Z = A o B for the Ando compression Z: the suite's cheaper
    # route builds the same pairs, bit for bit.
    from wassmean.products import _pairs, ensemble_tensor

    z = np.zeros((m * m, m), dtype=complex)
    z[np.arange(m) * (m + 1), np.arange(m)] = 1.0
    for na, nb in ((1, 1), (2, 3), (3, 2)):
        for seed in range(15):
            a = random_ensemble(m, na, seed)
            b = random_ensemble(m, nb, seed + 500)
            compressed = hermitian.hermitianize(z.conj().T @ ensemble_tensor(a, b).matrices @ z)
            _, pairs = _pairs(checks_mod._stack([a]), checks_mod._stack([b]), np.multiply)
            assert pairs.tobytes() == compressed.tobytes()


def test_kantorovich_hadamard_identity_singletons():
    report = check("kantorovich_hadamard", _eye_ensemble(2), _eye_ensemble(2))
    assert report.holds
    assert report.details["constant"] == pytest.approx(1.0)
    assert abs(report.margin) <= 1e-9


def test_kantorovich_hadamard_constant_ensembles():
    c = 3.0
    e = _eye_ensemble(2, c)
    report = check("kantorovich_hadamard", e, e)
    assert report.holds


def test_kantorovich_hadamard_random():
    for seed in range(10):
        a = random_ensemble(3, 2, seed + 500)
        b = random_ensemble(3, 2, seed + 600)
        report = check("kantorovich_hadamard", a, b)
        assert report.holds
        assert report.margin >= -1e-8


def test_jensen_equality_cases():
    a = random_spd(3, seed=700, eig_lo=0.5, eig_hi=2.0)
    u = random_unitary(3, seed=701)
    at_one = check("jensen_contraction", a, 2.0 * u, 1.0)
    assert at_one.holds
    assert abs(at_one.margin) <= 1e-12
    at_zero = check("jensen_contraction", a, u, 0.0)
    assert at_zero.holds
    assert abs(at_zero.margin) <= 1e-12


def test_jensen_random_expansive_factors():
    for seed in range(20):
        a = random_spd(3, seed=seed + 800, eig_lo=0.5, eig_hi=2.0)
        u = random_unitary(3, seed=seed + 900)
        c = 1.0 + (seed % 4) * 0.5
        report = check("jensen_contraction", a, c * u, 0.5)
        assert report.holds
        assert report.margin >= -1e-9


def test_jensen_rejects_non_contractive_inverse():
    # A singular x has no inverse at all: its norm reads inf.
    a = random_spd(2, seed=1000, eig_lo=0.5, eig_hi=2.0)
    for x in (0.5 * np.eye(2, dtype=complex), np.zeros((2, 2)), np.diag([1.0, 0.0])):
        with pytest.raises(ValueError, match="^inverse is not a contraction: "):
            check("jensen_contraction", a, x, 0.5)


def test_jensen_rejects_power_outside_range():
    a = random_spd(2, seed=1001, eig_lo=0.5, eig_hi=2.0)
    with pytest.raises(ValueError, match="outside"):
        check("jensen_contraction", a, np.eye(2, dtype=complex), 1.5)


def test_jensen_power_is_a_real_number():
    # A bool was taken for 1.0, and a string or None raised a TypeError from
    # the range comparison.
    a = random_spd(2, seed=1001, eig_lo=0.5, eig_hi=2.0)
    x = 2.0 * np.eye(2, dtype=complex)
    for p in (True, False, "0.5", None, 0.5j):
        with pytest.raises(ValueError, match=r"^p: expected a finite number, got "):
            check("jensen_contraction", a, x, p)
    want = check("jensen_contraction", a, x, 0.5)
    for p in (np.float64(0.5), np.float32(0.5)):
        assert check("jensen_contraction", a, x, p) == want
    assert check("jensen_contraction", a, x, np.int64(1)) == check("jensen_contraction", a, x, 1.0)


def test_sqrt_sum_identity_case():
    report = check("sqrt_sum_lower_bound", _eye_ensemble(2), _eye_ensemble(2))
    assert report.holds
    assert abs(report.margin) <= 1e-9


def test_sqrt_sum_scalar_case():
    e = _eye_ensemble(2, 4.0)
    report = check("sqrt_sum_lower_bound", e, e)
    assert report.holds
    # LHS = (4I o 4I)^{1/2} = 4I against 2*sqrt(256)/32 * I = I.
    assert report.details["constant"] == pytest.approx(1.0, abs=1e-12)
    assert report.margin == pytest.approx(3.0, abs=1e-9)


def test_sqrt_sum_random_with_unit_floor():
    for seed in range(10):
        a = random_ensemble(3, 2, seed + 20, eig_lo=1.0, eig_hi=3.0)
        b = random_ensemble(3, 2, seed + 30, eig_lo=1.0, eig_hi=3.0)
        report = check("sqrt_sum_lower_bound", a, b)
        assert not report.skipped
        assert report.holds
        assert report.margin >= -1e-8


def test_sqrt_sum_skips_when_means_below_identity():
    a = random_ensemble(2, 2, 1, eig_lo=0.05, eig_hi=0.2)
    b = random_ensemble(2, 2, 2, eig_lo=0.05, eig_hi=0.2)
    report = check("sqrt_sum_lower_bound", a, b)
    assert report.skipped
    assert not report.holds
    assert "reason" in report.details


def test_run_suite_empty_plan():
    assert run_suite(SuitePlan(checks=())) == []


def test_run_suite_three_checks():
    plan = SuitePlan(checks=("bounds", "hadamard_inverse", "jensen_contraction"),
                     seeds=(0, 3))
    reports = run_suite(plan)
    assert [r.check_name for r in reports] == [
        "bounds", "hadamard_inverse", "jensen_contraction"
    ]
    assert all(r.holds for r in reports)


def test_run_suite_deterministic():
    plan = SuitePlan(checks=("bounds", "det_inequality"), seeds=(0, 4))
    first = [r.to_json_dict() for r in run_suite(plan)]
    second = [r.to_json_dict() for r in run_suite(plan)]
    assert first == second


def test_run_suite_reports_a_failing_check(reversed_bound_check):
    plan = SuitePlan(checks=(reversed_bound_check,), seeds=(0, 2))
    reports = run_suite(plan)
    assert len(reports) == 1
    assert not reports[0].holds
    assert reports[0].margin < 0
    # A failing verdict, not a core that raised.
    assert "error" not in reports[0].details


def test_run_suite_captures_driver_errors(monkeypatch):
    from wassmean import checks as checks_mod

    def boom(plan):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(checks_mod.CHECK_REGISTRY, "bounds", boom)
    reports = run_suite(SuitePlan(checks=("bounds",), seeds=(0, 2)))
    assert not reports[0].holds
    assert "synthetic failure" in reports[0].details["error"]


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


# The core calls of a default 10-seed window: one per group of cases whose
# arguments share their shapes (an equality case joins a generic group of its shapes).
_GROUPS = {
    "fixed_point": 7, "bounds": 7, "det_inequality": 2, "logdet_concavity": 6,
    "phi_geometric_mean": 3, "phi_wass": 4, "self_duality_gap": 2, "tensor_identity": 3,
    "tensor_arithmetic_bound": 3, "hadamard_arithmetic_bound": 3, "commuting_quadruple": 2,
    "hadamard_inverse": 2, "kantorovich_hadamard": 3, "jensen_contraction": 2,
    "sqrt_sum_lower_bound": 3,
}


def _group_size(first):
    return len(first.weights if isinstance(first, checks_mod._Ensembles) else first)


def test_suite_calls_rebound_check_functions_once_per_group(monkeypatch):
    # The suite looks each check's core up as the module attribute _<name>
    # at call time, so a rebound core is the one that runs: once per group,
    # and each of the window's 162 cases reaches it exactly once.
    calls, cases = dict.fromkeys(DEFAULT_CHECKS, 0), dict.fromkeys(DEFAULT_CHECKS, 0)
    for name in DEFAULT_CHECKS:
        core = getattr(checks_mod, f"_{name}")

        def counted(tol, *args, name=name, core=core):
            calls[name] += 1
            cases[name] += _group_size(args[0])
            return core(tol, *args)

        monkeypatch.setattr(checks_mod, f"_{name}", counted)
    reports = run_suite(default_plan(seeds=(0, 10)))
    assert {r.check_name: r.details["instances"] for r in reports} == cases
    assert sum(cases.values()) == 162
    assert calls == _GROUPS and sum(calls.values()) == 52
    assert all(r.holds for r in reports)


def test_suite_overhead_stays_per_group(monkeypatch, linalg_calls):
    # A timing-free guard on per-call overhead: the LAPACK calls, Loewner
    # verdict calls and stack validations of a default 10-seed window. Each
    # case evaluated alone makes 289 eigh, 187 eigvalsh, 66 cholesky, 110
    # _loewner_verdicts and 55 _require_stack calls. Each fixed_point group
    # takes one cholesky and one eigh, for the transport maps of its residuals.
    counts = {"_loewner_verdicts": 0, "_require_stack": 0}
    for module, name in ((checks_mod, "_loewner_verdicts"), (hermitian, "_require_stack")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, _counting(counts, name, fn))
    assert all(r.holds for r in run_suite(default_plan(seeds=(0, 10))))
    names = [name for name, _ in linalg_calls]
    assert names.count("eigh") <= 179
    assert names.count("eigvalsh") <= 56
    assert names.count("cholesky") <= 35
    assert counts["_loewner_verdicts"] <= 32
    assert counts["_require_stack"] <= 28


def test_declared_case_arguments_are_requests_or_scalars():
    # Building makes each distinct request one object, and the suite solves
    # each built ensemble once by identity: an ensemble or array constant
    # declared outside the requests would escape that rule.
    plan = default_plan(seeds=(0, 10))
    for name, check in checks_mod._CHECKS.items():
        for case in [*check.instances(plan), *check.equality_cases()]:
            for arg in case:
                assert isinstance(arg, (_Draw, seeded._Apply)) or type(arg) in (int, float), (
                    name, arg
                )
                hash(arg)


def test_suite_solves_each_seeded_ensemble_once(monkeypatch):
    calls = []
    solve = _kernels.wasserstein_solve

    def counted(mats, weights, *args):
        # One solver call per (n, m, m) shape, each content in one call.
        n, m = mats.shape[-3:-1]
        calls.append([
            (w.tobytes(), a.tobytes())
            for w, a in zip(weights.reshape(-1, n), mats.reshape(-1, n, m, m))
        ])
        return solve(mats, weights, *args)

    monkeypatch.setattr(_kernels, "wasserstein_solve", counted)
    reports = run_suite(default_plan(seeds=(777, 787)))
    assert all(r.holds for r in reports)
    # Each distinct request is one ensemble, solved once: no content is solved twice.
    contents = [c for call in calls for c in call]
    assert len(set(contents)) == len(contents) == 145
    assert len(calls) == 11


def test_suite_raises_a_stored_breakdown_without_solving_again(monkeypatch, wide_spectrum_mats):
    # Both instances of the plan hold the one ensemble whose solve breaks
    # down: the one solve of that ensemble stores its error, and the check
    # raises it into its report.
    wide = Ensemble(weights=np.full(6, 1.0 / 6.0), matrices=wide_spectrum_mats)
    solved = []
    solve = _kernels.wasserstein_solve

    def counted(mats, weights, *args):
        if mats.shape[-3:] == wide.matrices.shape:
            solved.extend(
                w.tobytes() == wide.weights.tobytes() and a.tobytes() == wide.matrices.tobytes()
                for w, a in zip(weights.reshape(-1, 6), mats.reshape(-1, 6, 8, 8))
            )
        return solve(mats, weights, *args)

    monkeypatch.setattr(_kernels, "wasserstein_solve", counted)
    monkeypatch.setitem(checks_mod._CHECKS, "bounds", dataclasses.replace(
        checks_mod._CHECKS["bounds"], instances=lambda plan: [(wide,), (wide,)]
    ))
    (report,) = run_suite(SuitePlan(checks=("bounds",), seeds=(0, 2)))
    assert solved.count(True) == 1
    assert not report.holds
    assert report.details["error"] == (
        "SolverBreakdownError: iterate lost positive definiteness after 12 iterations "
        "(dimension 8, 6 matrices)"
    )


def test_mean_checks_take_only_the_ensemble():
    # Each solves its own mean; a stale positional mean or tolerance must
    # not be taken for something else.
    e = _two_point()
    mean = barycenter.wasserstein_mean(e).mean
    for call in (
        lambda: check("bounds", e, mean),
        lambda: check("det_inequality", e, mean),
        lambda: check("logdet_concavity", e, ToleranceConfig()),
    ):
        with pytest.raises(TypeError):
            call()
    assert check("bounds", e, tol=ToleranceConfig()).holds


def test_suite_mean_checks_validate_nothing(monkeypatch):
    # bounds, det_inequality and logdet_concavity read validated ensembles
    # and the solver's trusted means: evaluating them runs no validator.
    names = ("bounds", "det_inequality", "logdet_concavity")
    running = []
    calls = dict.fromkeys(names, 0)
    validate = hermitian._require_stack

    def counted(*args, **kwargs):
        if running:
            calls[running[-1]] += 1
        return validate(*args, **kwargs)

    def tracked(name, driver):
        def run(plan):
            running.append(name)
            try:
                return driver(plan)
            finally:
                running.pop()

        return run

    monkeypatch.setattr(hermitian, "_require_stack", counted)
    for name in names:
        monkeypatch.setitem(
            checks_mod.CHECK_REGISTRY, name, tracked(name, checks_mod.CHECK_REGISTRY[name])
        )
    reports = run_suite(SuitePlan(checks=names, seeds=(0, 6)))
    assert all(r.holds and r.details["instances"] > 6 for r in reports)
    assert calls == dict.fromkeys(names, 0)


def test_suite_reports_equal_single_solves_bitwise(monkeypatch):
    batches = []
    solve_all = barycenter.wasserstein_means

    def recorded(ensembles, config=None):
        reports = solve_all(ensembles, config)
        batches.append((ensembles, reports))
        return reports

    monkeypatch.setattr(barycenter, "wasserstein_means", recorded)
    run_suite(default_plan(seeds=(0, 10)))
    ((ensembles, reports),) = batches
    assert len(ensembles) > 100
    assert not any(isinstance(report, Exception) for report in reports)
    for ensemble, report in zip(ensembles, reports):
        single = barycenter.wasserstein_mean(ensemble)
        assert np.array_equal(report.mean, single.mean)
        assert (report.iterations, report.residual, report.converged) == (
            single.iterations, single.residual, single.converged
        )


def test_suite_reports_case_generation_errors_in_the_check(monkeypatch):
    # A builder, a request whose function raises or a derived ensemble that
    # raises fails its own check's report; the other checks still run.
    def broken(*args):
        raise ValueError("no map today")

    monkeypatch.setattr(seeded, "_isometry_map", broken)
    monkeypatch.setattr(checks_mod, "ensemble_tensor", broken)
    for name, instances in (
        ("bounds", broken),
        ("det_inequality", lambda plan: [
            (seeded._Apply(random_ensemble, (2, 2, 0, 2.0, 1.0)),)
        ]),
    ):
        monkeypatch.setitem(checks_mod._CHECKS, name, dataclasses.replace(
            checks_mod._CHECKS[name], instances=instances
        ))
    names = ("phi_wass", "tensor_identity", "bounds", "det_inequality", "logdet_concavity")
    reports = run_suite(SuitePlan(checks=names, seeds=(0, 2)))
    assert [r.details.get("error") for r in reports] == ["ValueError: no map today"] * 3 + [
        "ValueError: invalid eigenvalue range [2.0, 1.0]", None
    ]
    assert reports[-1].holds


def test_suite_fails_only_the_check_whose_solve_raised_in_its_report(
    monkeypatch, wide_spectrum_mats
):
    # The breakdown of this wide-spectrum solve is stored as its outcome and
    # raised in the core of bounds alone.
    wide = Ensemble(weights=np.full(6, 1.0 / 6.0), matrices=wide_spectrum_mats)
    monkeypatch.setitem(checks_mod._CHECKS, "bounds", dataclasses.replace(
        checks_mod._CHECKS["bounds"], instances=lambda plan: [(wide,)]
    ))
    bounds, det = run_suite(default_plan(checks=("bounds", "det_inequality")))
    assert bounds.details["error"] == (
        "SolverBreakdownError: iterate lost positive definiteness after 12 iterations "
        "(dimension 8, 6 matrices)"
    )
    assert not bounds.holds and det.holds


def test_suite_keeps_no_state_between_or_inside_calls(monkeypatch):
    # A suite run inside a core of another run, and a second run after it,
    # both report what the first run reports.
    plan = SuitePlan(checks=("fixed_point", "tensor_identity", "self_duality_gap"), seeds=(0, 3))
    first = [r.to_json_dict() for r in run_suite(plan)]
    nested = []
    core = checks_mod._tensor_identity

    def nesting(*args):
        if not nested:
            nested.append(None)
            nested.append([r.to_json_dict() for r in run_suite(plan)])
        return core(*args)

    monkeypatch.setattr(checks_mod, "_tensor_identity", nesting)
    assert [r.to_json_dict() for r in run_suite(plan)] == first
    assert nested[1] == first
    assert [r.to_json_dict() for r in run_suite(plan)] == first


def test_seeded_ensembles_are_not_shared_outside_run_suite(monkeypatch):
    first, second = random_ensemble(3, 2, 5), random_ensemble(3, 2, 5)
    assert first is not second
    assert np.array_equal(first.matrices, second.matrices)
    # Two suite runs build their ensembles apart.
    seen = []
    evaluate = checks_mod._evaluate

    def recording(name, tol, cases):
        seen.extend(args[0] for args, _ in cases)
        return evaluate(name, tol, cases)

    monkeypatch.setattr(checks_mod, "_evaluate", recording)
    plan = SuitePlan(checks=("bounds",), seeds=(0, 3))
    assert run_suite(plan) == run_suite(plan)
    assert len(seen) == 8
    assert not {id(e) for e in seen[:4]} & {id(e) for e in seen[4:]}


def test_plan_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown checks"):
        SuitePlan(checks=("no_such_check",))


def test_plan_rejects_empty_seed_range():
    with pytest.raises(ValueError, match="empty"):
        SuitePlan(checks=("bounds",), seeds=(5, 5))


@pytest.mark.parametrize("field, value", [
    ("seeds", (0.9, 3.7)),
    ("seeds", (0, True)),
    ("seeds", (0, 3, 5)),
    ("seeds", 5),
    ("dims", (2.9,)),
    ("dims", (2, False)),
    ("dims", ()),
    ("dims", (0, 2)),
    ("dims", 3),
    ("tol", True),
    ("tol", "1e-8"),
    ("tol", float("nan")),
    ("tol", float("inf")),
    ("tol", 0.0),
    ("tol", -1e-8),
    ("checks", 7),
    ("checks", "bounds"),
    ("checks", ("bounds", "no_such_check")),
    pytest.param("tol", 10**400, id="tol-int_too_large_for_a_float"),
])
def test_plan_rejects_each_bad_field_by_name(field, value):
    # Nothing is truncated or coerced: seeds (0.9, 3.7) used to run [0, 3).
    with pytest.raises(ValueError, match=rf"^{field}: "):
        SuitePlan(**{"checks": ("bounds",), field: value})


def test_plan_takes_numpy_numbers_as_plain_ones():
    plan = SuitePlan(seeds=(np.int64(1), np.int64(4)), dims=[np.int64(2)], tol=np.float64(1e-7))
    assert plan.provenance() == {"seeds": [1, 4], "dims": [2], "tol": 1e-7}
    assert all(type(v) is int for v in (*plan.seeds, *plan.dims)) and type(plan.tol) is float


def test_aggregate_of_only_skipped_instances_is_a_skipped_failure():
    plan = SuitePlan(checks=("sqrt_sum_lower_bound",), seeds=(0, 2))
    skipped = checks_mod.CheckReport(check_name="x", holds=False, margin=-0.5, skipped=True)
    report = checks_mod._aggregate("x", plan, [skipped, skipped], {"extra": 1})
    assert report.skipped and not report.holds
    assert report.margin == -np.inf
    assert report.inputs == plan.provenance()
    assert report.details == {"instances": 2, "skipped_instances": 2}


def test_random_ensemble_refuses_an_empty_ensemble_by_name():
    # It used to fail inside np.stack.
    with pytest.raises(ValueError, match=r"^n: must be positive"):
        random_ensemble(2, 0, 1)


def _instance(holds, margin, seed):
    return checks_mod.CheckReport("x", holds, margin, inputs={"seed": seed})


def test_aggregate_reports_a_nan_instance_before_smaller_passing_margins():
    plan = SuitePlan(seeds=(0, 3))
    reports = [_instance(True, 0.5, 0), _instance(False, float("nan"), 1), _instance(True, 0.1, 2)]
    report = checks_mod._aggregate("x", plan, reports, {})
    assert report.holds is False and np.isnan(report.margin)
    assert report.details["worst_inputs"] == {"seed": 1}


def test_aggregate_reports_the_failing_instance_below_a_smaller_passing_margin():
    # fixed_point's verdict also needs convergence and the self-map residual,
    # so its failing instance can have the larger margin.
    plan = SuitePlan(seeds=(0, 2))
    reports = [_instance(False, -1e-13, 0), _instance(True, -5e-12, 1)]
    report = checks_mod._aggregate("x", plan, reports, {})
    assert report.holds is False and report.margin == -1e-13
    assert report.details["worst_inputs"] == {"seed": 0}


def test_order_report_reports_the_failing_comparison_below_a_smaller_passing_margin():
    # Each verdict is relative to its comparison's scale: -1e-6 holds at
    # scale ~1.4e4, -1e-8 fails at scale 1 (loewner_tol 1e-9).
    eye = np.eye(2, dtype=complex)
    big = 1e4 * eye
    (report,) = checks_mod._reports(
        "x", None, [{}], [{}],
        ("passing", [big + 1e-6 * eye], [big]), ("failing", [2e-8 * eye], [1e-8 * eye]),
    )
    assert report.details["passing"] < report.details["failing"] < 0
    assert report.holds is False
    assert report.margin == report.details["failing"]


def test_default_plan_covers_registry_except_hook():
    plan = default_plan()
    assert plan.checks == DEFAULT_CHECKS == tuple(checks_mod.CHECK_REGISTRY)


def _slack_pairs():
    # Holding, failing, exactly tight and slightly-negative-within-tolerance
    # comparisons of one shape. b is a plus a positive definite matrix, so
    # a <= b holds and b <= a fails whatever the seeded draws.
    a = random_spd(3, seed=1100, eig_lo=0.5, eig_hi=2.0)
    b = a + random_spd(3, seed=1101, eig_lo=0.1, eig_hi=0.5)
    eye = np.eye(3, dtype=complex)
    return [
        (a, a + 0.5 * eye),
        (a + 0.5 * eye, a),
        (a, b),
        (b, a),
        (a, a),
        (a + 1e-10 * eye, a),
        (a + 1e-7 * eye, a),
    ]


def test_stacked_order_report_equals_per_pair_loewner_leq_bitwise():
    from wassmean.hermitian import ToleranceConfig, _loewner_verdicts, loewner_leq

    pairs = _slack_pairs()
    for tol in (None, ToleranceConfig(loewner_tol=1e-8)):
        singles = [loewner_leq(lhs, rhs, tol) for lhs, rhs in pairs]
        assert {r.holds for r in singles} == {True, False}
        lhs, rhs = (np.stack(side) for side in zip(*pairs))
        assert [r for (r,) in _loewner_verdicts([(lhs, rhs)], tol)] == singles
        (report,) = checks_mod._reports(
            "mixed", tol, [{}], [{}], *((f"k{i}", [a], [b]) for i, (a, b) in enumerate(pairs))
        )
        assert report.details == {f"k{i}": r.margin for i, r in enumerate(singles)}
        assert report.margin == min(r.margin for r in singles)
        assert report.holds is False
        # Each case of a group is judged on its own comparisons alone.
        held, mixed = checks_mod._reports(
            "held", tol, [{}] * 2, [{}] * 2, (None, lhs[[0, 2]], rhs[[0, 2]]),
            (None, lhs[[4, 1]], rhs[[4, 1]]),
        )
        assert held.holds is True
        assert mixed.holds is False and mixed.margin == singles[1].margin


@pytest.mark.parametrize("nan_at", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
def test_order_report_fails_on_a_nan_slack(nan_at):
    # The checks pass the matrices they computed without validating them
    # again; a NaN slack fails with the margin NaN, even where LAPACK returns
    # finite eigenvalues for it (a NaN on the diagonal of a 2 x 2).
    good = np.eye(2, dtype=complex)
    bad = good.copy()
    bad[nan_at] = bad[nan_at[::-1]] = np.nan
    for lhs, rhs in ((bad, good), (good, bad)):
        (report,) = checks_mod._reports("x", None, [{}], [{}], ("k", [lhs], [rhs]))
        assert report.holds is False
        assert np.isnan(report.margin) and np.isnan(report.details["k"])
        (paired,) = checks_mod._reports(
            "x", None, [{}], [{}], (None, [good], [good]), (None, [lhs], [rhs])
        )
        assert paired.holds is False and np.isnan(paired.margin)


_GOOD = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
_NOT_HERMITIAN = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
_INDEFINITE = np.diag([1.0, -1.0]).astype(complex)


def _raw_argument_calls(bad):
    # (the name the message gives the argument, the call) for each raw
    # matrix argument of a check; an ensemble check's matrices are validated
    # by its Ensemble.
    good = _GOOD
    phi = random_isometry_map(2, 1, 3)
    x = 2.0 * random_unitary(2, 4)
    return [
        ("matrices[1]", lambda: Ensemble(weights=[0.5, 0.5], matrices=[good, bad])),
        ("first matrix", lambda: check("phi_geometric_mean", bad, good, phi)),
        ("second matrix", lambda: check("phi_geometric_mean", good, bad, phi)),
        ("a", lambda: check("commuting_quadruple", bad, good, good, good)),
        ("d", lambda: check("commuting_quadruple", good, good, good, bad)),
        ("first matrix", lambda: check("hadamard_inverse", bad, good)),
        ("second matrix", lambda: check("hadamard_inverse", good, bad)),
        ("matrix", lambda: check("jensen_contraction", bad, x, 0.5)),
    ]


@pytest.mark.parametrize("bad, problem", [
    (_NOT_HERMITIAN, "not Hermitian at (0,1): |a[0,1] - conj(a[1,0])| = 2.000e-01 > 1.428e-12"),
    (_INDEFINITE, "not positive definite (min eigenvalue -1.000e+00 <= floor 1.414e-12)"),
], ids=["not_hermitian", "indefinite"])
def test_checks_reject_raw_arguments_with_their_messages(bad, problem):
    # Each raw argument is validated once, at the check's entry, under the
    # name and with the message it has always had.
    for name, call in _raw_argument_calls(bad):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name}: {problem}"


def test_jensen_validates_x():
    a = random_spd(3, seed=1, eig_lo=0.5, eig_hi=2.0)
    u = random_unitary(3, seed=2)
    # A non-square x has no inverse, so it cannot have a contractive one.
    with pytest.raises(ValueError, match=r"^x: expected a 3x3 matrix, .* got shape \(3, 2\)"):
        check("jensen_contraction", a, 2.0 * u[:, :2], 0.5)
    with_nan = 2.0 * u
    with_nan[1, 1] = np.nan
    with pytest.raises(ValueError, match="^x: entries must be finite"):
        check("jensen_contraction", a, with_nan, 0.5)
    with pytest.raises(ValueError, match=r"^x: expected a 3x3 matrix, .* got shape \(4, 4\)"):
        check("jensen_contraction", a, 2.0 * random_unitary(4, seed=3), 0.5)
    with pytest.raises(ValueError, match=r"^x: expected a 2-d array, got ndim=1$"):
        check("jensen_contraction", a, np.ones(3), 0.5)
    with pytest.raises(ValueError, match=r"^x: empty matrix$"):
        check("jensen_contraction", a, np.ones((0, 0)), 0.5)


def _no_solves(monkeypatch):
    """The list of the solve calls made from now on, each of which raises."""
    solves = []

    def refused(*args, **kwargs):
        solves.append(args)
        raise AssertionError("solved")

    monkeypatch.setattr(barycenter, "wasserstein_means", refused)
    return solves


def test_check_refuses_wrong_types_by_name_before_solving(monkeypatch):
    # Each used to raise an AttributeError from inside the check; a float or
    # string tolerance of bounds was ignored unless a margin was negative.
    e = random_ensemble(2, 2, 0)
    solves = _no_solves(monkeypatch)
    for call, message in (
        (lambda: check("bounds", np.eye(2)), "ensemble: expected Ensemble, got ndarray"),
        (lambda: check("tensor_identity", e, np.eye(2)), "b: expected Ensemble, got ndarray"),
        (lambda: check("kantorovich_hadamard", e, 3), "b: expected Ensemble, got int"),
        (lambda: check("phi_wass", e, "map"), "phi: expected PositiveMapSpec, got str"),
        (lambda: check("phi_geometric_mean", _GOOD, _GOOD, None),
         "phi: expected PositiveMapSpec, got NoneType"),
        (lambda: check("bounds", e, tol="x"), "tol: expected ToleranceConfig, got str"),
        (lambda: check("bounds", e, tol=1e-3), "tol: expected ToleranceConfig, got float"),
        (lambda: check("det_inequality", e, tol=1e-3), "tol: expected ToleranceConfig, got float"),
    ):
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == message
    assert solves == []


@pytest.mark.parametrize("shapes", [(2, 3, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3)])
def test_commuting_quadruple_compares_all_four_shapes_first(shapes):
    # A pair of two shapes used to reach numpy's matmul error in its
    # commutator test; only a against c was compared, after the commutators.
    mats = [np.eye(m, dtype=complex) for m in shapes]
    with pytest.raises(ValueError, match=r"^shape mismatch: \(2, 2\) vs \(3, 3\)$"):
        check("commuting_quadruple", *mats)


@pytest.mark.parametrize("name", ["nope", 7, None, ("bounds",), ["bounds"]])
def test_check_and_plan_refuse_an_unknown_name_alike(name):
    with pytest.raises(ValueError) as single:
        check(name, random_ensemble(2, 2, 0))
    with pytest.raises(ValueError) as planned:
        SuitePlan(checks=(name,))
    assert str(single.value) == f"unknown checks {[name]}; known: {sorted(DEFAULT_CHECKS)}"
    assert str(planned.value) == f"checks: {single.value}"


@pytest.mark.parametrize("name", DEFAULT_CHECKS)
def test_check_equals_the_suite_core_bitwise(name, monkeypatch):
    # check(name, ...) and the suite evaluate one core: on every built case
    # of seeds 0-1, equality cases included, the reports agree bit for bit.
    entry = checks_mod._CHECKS[name]
    plan = SuitePlan(checks=(name,), seeds=(0, 2))
    tol = ToleranceConfig(loewner_tol=plan.tol)
    draws = []
    declared = checks_mod._declared(entry, plan, draws)
    built = checks_mod._built_cases(entry, declared, seeded._drawn(draws))
    cases = [case for group in built for case in group]
    core = getattr(checks_mod, f"_{name}")
    for args, ensembles in cases:
        raw = (*args[0], *args[1]) if name == "commuting_quadruple" else args
        stacked = [checks_mod._stack([arg]) for arg in args]
        (want,) = core(tol, *stacked, *([s] for s in barycenter.wasserstein_means(list(ensembles))))
        got = check(name, *raw, tol=tol if entry.takes_tol else None)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    # The argument count, and a tolerance where the bound is a constant, are
    # refused before any solve.
    solves = _no_solves(monkeypatch)
    bad = [lambda: check(name, *raw, raw[0]), lambda: check(name, *raw[:-1])]
    if not entry.takes_tol:
        bad.append(lambda: check(name, *raw, tol=tol))
    for call in bad:
        with pytest.raises(TypeError, match=rf"^{name} takes "):
            call()
    assert solves == []
    assert (name in ("fixed_point", "self_duality_gap", "tensor_identity")) is not entry.takes_tol


def test_suite_evaluates_the_derived_ensembles_it_collected(monkeypatch):
    # Each derived ensemble (Kronecker pairs, inverses) is built once, and
    # its case is evaluated with the solve of the ensemble built.
    built, solves = [], []

    def building(fn):
        def build(*args):
            built.append(fn(*args))
            return built[-1]

        return build

    evaluate = checks_mod._evaluate

    def evaluating(name, tol, cases):
        # Cases reach _evaluate in case order; a case's last solve is its derived ensemble's.
        solves.extend(outcomes[-1] for _, outcomes in cases)
        return evaluate(name, tol, cases)

    for name in ("ensemble_tensor", "_inverted"):
        monkeypatch.setattr(checks_mod, name, building(getattr(checks_mod, name)))
    monkeypatch.setattr(checks_mod, "_evaluate", evaluating)
    plan = SuitePlan(checks=("tensor_identity", "self_duality_gap"), seeds=(0, 4))
    assert all(r.holds for r in run_suite(plan))
    # Five tensor cases, one of them the equality case, and four ensembles.
    assert len(built) == len(solves) == 5 + 4
    for ensemble, solved in zip(built, solves):
        assert np.array_equal(solved.mean, barycenter.wasserstein_mean(ensemble).mean)


def _window_cases(name, plan):
    """The built cases of check ``name`` in ``plan``, generic then equality,
    each with its solves' outcomes, as run_suite builds and solves them."""
    state = [[name, None]]
    ensembles = checks_mod._build_cases(state, plan)
    solved = dict(zip(ensembles, barycenter.wasserstein_means(ensembles)))
    generic, equality = state[0][1]
    return [(args, [solved[e] for e in ens]) for args, ens in generic + equality]


def _grouped_and_alone(monkeypatch, name, cases, tol=ToleranceConfig(loewner_tol=1e-8)):
    """The JSON of the reports on ``cases`` evaluated as one list, and of
    each case evaluated alone, and the core calls of the first."""
    calls = {name: 0}
    core = getattr(checks_mod, f"_{name}")
    monkeypatch.setattr(checks_mod, f"_{name}", _counting(calls, name, core))
    grouped = [json.dumps(r.to_json_dict()) for r in checks_mod._evaluate(name, tol, cases)]
    alone = [json.dumps(checks_mod._evaluate(name, tol, [case])[0].to_json_dict())
             for case in cases]
    return grouped, alone, calls[name] - len(cases)


@pytest.mark.parametrize("dims", [(2, 3), (2, 3, 4)])
@pytest.mark.parametrize("seeds", [(0, 10), (777, 787)])
@pytest.mark.parametrize("name", DEFAULT_CHECKS)
def test_grouped_evaluation_equals_each_case_alone_bitwise(monkeypatch, name, seeds, dims):
    cases = _window_cases(name, SuitePlan(checks=(name,), seeds=seeds, dims=dims))
    grouped, alone, calls = _grouped_and_alone(monkeypatch, name, cases)
    assert grouped == alone
    assert calls < len(cases)


@pytest.mark.parametrize("name", DEFAULT_CHECKS)
def test_grouped_evaluation_of_unconverged_solves_equals_each_case_alone(monkeypatch, name):
    # A check that refuses an unconverged mean raises the error of case 3,
    # the first case that raises alone, also where case 4's group (of the
    # even seeds) is evaluated first; tensor_identity reports each
    # unconverged case as an error report.
    cases = [
        (args, [dataclasses.replace(r, converged=False) if i in (3, 4, 8) else r for r in out])
        for i, (args, out) in enumerate(_window_cases(name, SuitePlan(checks=(name,))))
    ]
    tol = ToleranceConfig(loewner_tol=1e-8)
    try:
        checks_mod._evaluate(name, tol, cases[3:4])
    except RuntimeError as first:
        with pytest.raises(RuntimeError) as err:
            checks_mod._evaluate(name, tol, cases)
        assert str(err.value) == str(first)
        assert "did not converge" in str(first)
        return
    grouped, alone, _ = _grouped_and_alone(monkeypatch, name, cases)
    assert grouped == alone
    errors = [json.loads(r)["details"].get("error") for r in grouped]
    assert (name == "tensor_identity") is (errors[3] is not None and errors[4] is not None)


def test_grouped_jensen_contraction_raises_the_first_non_contraction():
    cases = _window_cases("jensen_contraction", SuitePlan(checks=("jensen_contraction",)))
    for i in (3, 4):
        (a, x, p), out = cases[i]
        cases[i] = ((a, 0.25 * x, p), out)
    tol = ToleranceConfig(loewner_tol=1e-8)
    with pytest.raises(ValueError) as first:
        checks_mod._evaluate("jensen_contraction", tol, cases[3:4])
    with pytest.raises(ValueError) as err:
        checks_mod._evaluate("jensen_contraction", tol, cases)
    assert str(err.value) == str(first.value)
    assert str(first.value).startswith("inverse is not a contraction: ||x^-1||_op = ")


def test_grouped_sqrt_sum_lower_bound_skips_each_case_alone(monkeypatch):
    # On the spectrum [0.5, 2] most solved means do not dominate the
    # identity: skipped and judged cases share groups.
    name = "sqrt_sum_lower_bound"
    monkeypatch.setitem(checks_mod._CHECKS, name, dataclasses.replace(
        checks_mod._CHECKS[name],
        instances=lambda plan: checks_mod._ensembles(plan, (2,), salts=(191, 193),
                                                     spectrum=(0.5, 2.0)),
    ))
    cases = _window_cases(name, SuitePlan(checks=(name,), seeds=(0, 10)))
    grouped, alone, calls = _grouped_and_alone(monkeypatch, name, cases)
    assert grouped == alone and calls < len(cases)
    assert {json.loads(r)["skipped"] for r in grouped} == {True, False}


def test_hadamard_checks_refuse_ensembles_of_two_dimensions():
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
        check("hadamard_arithmetic_bound", _eye_ensemble(2), _eye_ensemble(3))
