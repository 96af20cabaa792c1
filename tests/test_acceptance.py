"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line (run with ``pytest -s`` to see them on success)."""

import json

import numpy as np

from wassmean import _kernels
from wassmean.barycenter import (
    Ensemble,
    commuting_closed_form,
    residual,
    wasserstein_mean,
)
from wassmean.bures import bw_distance, geodesic
from wassmean.checks import (
    check,
    default_plan,
    run_suite,
)
from wassmean.cli import main
from wassmean.hermitian import (
    ToleranceConfig,
    frobenius,
    hermitianize,
    loewner_leq,
)
from wassmean.io import matrix_to_json_dict
from wassmean.means import geometric_mean
from wassmean.seeded import (
    _random_weights,
    random_commuting_spds,
    random_ensemble,
    random_spd,
)


def _criterion(number, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_fixed_point_certificate():
    worst = 0.0
    max_iters = 0
    for seed in range(200):
        m = (2, 3, 5)[seed % 3]
        n = (2, 3, 5)[(seed // 3) % 3]
        e = random_ensemble(m, n, seed)
        report = wasserstein_mean(e)
        ok = report.converged and report.iterations <= 200
        res = residual(report.mean, e)
        worst = max(worst, res)
        max_iters = max(max_iters, report.iterations)
        if not (ok and res <= 1e-10):
            _criterion(1, "fixed-point certificate", False,
                       f"seed {seed}: residual {res:.3e}")
    _criterion(1, "fixed-point certificate", True,
               f"200 ensembles, worst residual {worst:.2e}, max iters {max_iters}")


def test_criterion_2_commuting_closed_form():
    worst = 0.0
    for seed in range(100):
        m = (2, 3, 4)[seed % 3]
        n = (2, 3, 5)[seed % 3]
        mats = random_commuting_spds(m, n, seed, eig_lo=0.5, eig_hi=2.0)
        e = Ensemble(weights=_random_weights(n, seed), matrices=mats)
        gap = frobenius(wasserstein_mean(e).mean - commuting_closed_form(e))
        worst = max(worst, gap)
        if gap > 1e-8:
            _criterion(2, "commuting closed form", False, f"seed {seed}: gap {gap:.3e}")
    two_point = Ensemble(weights=[0.5, 0.5],
                         matrices=[np.eye(2, dtype=complex),
                                   4 * np.eye(2, dtype=complex)])
    exact = np.allclose(wasserstein_mean(two_point).mean, 2.25 * np.eye(2), atol=1e-10)
    _criterion(2, "commuting closed form", exact and worst <= 1e-8,
               f"100 ensembles, worst gap {worst:.2e}")


def test_criterion_3_geometric_mean_properties():
    tol = ToleranceConfig(loewner_tol=1e-9)
    rng = np.random.default_rng(0)
    failures = []

    def close(lhs, rhs, label, seed):
        if frobenius(lhs - rhs) > 1e-9 * max(1.0, frobenius(rhs)):
            failures.append((label, seed))

    for seed in range(100):
        m = (2, 3, 5)[seed % 3]
        a = random_spd(m, seed=4000 + 2 * seed, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(m, seed=4001 + 2 * seed, eig_lo=0.5, eig_hi=2.0)
        g = geometric_mean(a, b)

        s, t = (0.5, 2.0, 3.0)[seed % 3], (0.5, 2.0, 3.0)[(seed + 1) % 3]
        close(geometric_mean(s * a, t * b), np.sqrt(s * t) * g,
              "joint homogeneity", seed)

        close(g, geometric_mean(b, a), "symmetry", seed)

        v = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        p = hermitianize(v @ v.conj().T)
        p *= frobenius(a) / max(frobenius(p), 1e-300)
        w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q = hermitianize(w @ w.conj().T)
        q *= frobenius(b) / max(frobenius(q), 1e-300)
        if not loewner_leq(g, geometric_mean(a + p, b + q), tol).holds:
            failures.append(("monotonicity", seed))

        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        close(hermitianize(x @ g @ x.conj().T),
              geometric_mean(hermitianize(x @ a @ x.conj().T),
                             hermitianize(x @ b @ x.conj().T)),
              "congruence invariance", seed)

        close(_kernels.spd_power(g, -1.0),
              geometric_mean(_kernels.spd_power(a, -1.0), _kernels.spd_power(b, -1.0)),
              "self-duality", seed)

        if abs(_kernels.log_det(g) - 0.5 * (_kernels.log_det(a) + _kernels.log_det(b))) > 1e-9:
            failures.append(("determinant", seed))

        harmonic = _kernels.spd_power(
            0.5 * (_kernels.spd_power(a, -1.0) + _kernels.spd_power(b, -1.0)), -1.0
        )
        if not (loewner_leq(harmonic, g, tol).holds
                and loewner_leq(g, 0.5 * (a + b), tol).holds):
            failures.append(("mean sandwich", seed))

    _criterion(3, "geometric-mean property suite", not failures,
               f"7 properties x 100 instances{'' if not failures else f', failures: {failures[:5]}'}")


def test_criterion_4_determinant_inequality():
    ok = True
    detail = ""
    for seed in range(100):
        e = random_ensemble((2, 3, 5)[seed % 3], (2, 3)[seed % 2], seed + 300)
        rep = check("det_inequality", e)
        if not (rep.holds and rep.margin > 0 and not rep.details["equality"]):
            ok, detail = False, f"distinct seed {seed}: margin {rep.margin:.3e}"
            break
    if ok:
        for seed in range(20):
            a = random_spd(3, seed=5000 + seed, eig_lo=0.5, eig_hi=2.0)
            e = Ensemble(weights=_random_weights(3, seed), matrices=[a, a, a])
            rep = check("det_inequality", e)
            if not (abs(rep.margin) <= 1e-9 and rep.details["equality"]):
                ok, detail = False, f"identical seed {seed}: margin {rep.margin:.3e}"
                break
    _criterion(4, "determinant inequality with equality branch", ok, detail)


def test_criterion_5_order_bounds():
    worst = np.inf
    for seed in range(200):
        m = (2, 3, 5)[seed % 3]
        n = (2, 3, 5)[(seed // 3) % 3]
        e = random_ensemble(m, n, seed + 700)
        rep = check("bounds", e)
        worst = min(worst, rep.margin)
        if not rep.holds or rep.margin < -1e-8:
            _criterion(5, "arithmetic upper / inverse-mix lower bounds", False,
                       f"seed {seed}: margin {rep.margin:.3e}")
    _criterion(5, "arithmetic upper / inverse-mix lower bounds", True,
               f"200 ensembles, worst margin {worst:.2e}")


def test_criterion_6_tensor_identity():
    worst = 0.0
    for seed in range(25):
        n = 2 + seed % 2
        a = random_ensemble(2, n, seed + 900)
        b = random_ensemble(2, n, seed + 950)
        rep = check("tensor_identity", a, b)
        err = rep.details.get("relative_error", np.inf)
        worst = max(worst, err)
        if not rep.holds or err > 1e-6:
            _criterion(6, "tensor-product identity", False,
                       f"seed {seed}: relative error {err:.3e}")
    _criterion(6, "tensor-product identity", True,
               f"25 instances, worst relative error {worst:.2e}")


def test_criterion_7_inequality_suite():
    reports = run_suite(default_plan())
    by_name = {r.check_name: r for r in reports}
    bad = [r.check_name for r in reports
           if r.skipped or not r.holds or r.margin < -1e-8]
    eq_bad = []
    for r in reports:
        for key, value in r.details.items():
            if key.startswith("equality_case_margin"):
                margins = value if isinstance(value, list) else [value]
                if any(abs(m) > 1e-9 for m in margins):
                    eq_bad.append(r.check_name)
    gap = by_name["self_duality_gap"].details["max_gap"]
    ok = not bad and not eq_bad and gap > 1e-4
    _criterion(7, "positive-map / Hadamard / tensor inequality suite", ok,
               f"{len(reports)} checks, self-duality gap {gap:.2e}"
               + (f", failing: {bad + eq_bad}" if bad or eq_bad else ""))


def test_criterion_8_metric_sanity():
    sym_worst = 0.0
    tri_worst = np.inf
    for seed in range(200):
        m = (2, 3, 4)[seed % 3]
        a = random_spd(m, seed=6000 + 3 * seed, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(m, seed=6001 + 3 * seed, eig_lo=0.5, eig_hi=2.0)
        c = random_spd(m, seed=6002 + 3 * seed, eig_lo=0.5, eig_hi=2.0)
        dab, dba = bw_distance(a, b), bw_distance(b, a)
        sym_worst = max(sym_worst, abs(dab - dba))
        slack = bw_distance(a, b) + bw_distance(b, c) - bw_distance(a, c)
        tri_worst = min(tri_worst, slack)
    geo_ok = True
    speed_worst = 0.0
    for seed in range(50):
        a = random_spd(3, seed=7000 + 2 * seed, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(3, seed=7001 + 2 * seed, eig_lo=0.5, eig_hi=2.0)
        geo_ok = geo_ok and frobenius(geodesic(a, b, 0.0) - a) <= 1e-12 * frobenius(a)
        geo_ok = geo_ok and frobenius(geodesic(a, b, 1.0) - b) <= 1e-12 * frobenius(b)
        total = bw_distance(a, b)
        for t in (0.25, 0.5, 0.75):
            gap = abs(bw_distance(a, geodesic(a, b, t)) - t * total)
            speed_worst = max(speed_worst, gap)
    ok = sym_worst <= 1e-10 and tri_worst >= -1e-8 and geo_ok and speed_worst <= 1e-7
    _criterion(8, "metric and geodesic sanity", ok,
               f"symmetry {sym_worst:.2e}, triangle slack {tri_worst:.2e}, "
               f"speed gap {speed_worst:.2e}")


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    def pipeline(tag):
        root = tmp_path / tag
        root.mkdir()
        e, m, v = root / "e.json", root / "mean.json", root / "suite.json"
        codes = [
            main(["generate", "--m", "2", "--n", "2", "--seed", "17",
                  "--out", str(e)]),
            main(["mean", str(e), "--out", str(m)]),
            main(["verify", "--checks", "fixed_point,bounds",
                  "--seed-count", "3", "--out", str(v)]),
        ]
        return codes, e.read_bytes(), m.read_bytes(), v.read_bytes()

    codes1, *bytes1 = pipeline("run1")
    codes2, *bytes2 = pipeline("run2")
    deterministic = bytes1 == bytes2
    all_zero = codes1 == codes2 == [0, 0, 0]

    bad_weights = tmp_path / "bad_weights.json"
    bad_weights.write_text(json.dumps({
        "weights": [0.5, 0.48],
        "matrices": [matrix_to_json_dict(np.eye(2))] * 2,
    }))
    code_w = main(["mean", str(bad_weights)])
    err_w = capsys.readouterr().err
    bad_matrix = tmp_path / "bad_matrix.json"
    bad_matrix.write_text(json.dumps({
        "weights": [1.0],
        "matrices": [{"dim": 2, "re": [[1.0, 0.4], [0.0, 1.0]]}],
    }))
    code_m = main(["mean", str(bad_matrix)])
    err_m = capsys.readouterr().err
    diagnostics = (
        code_w == 1 and "weights" in err_w and "0.98" in err_w
        and code_m == 1 and "matrices[0]" in err_m and "not Hermitian" in err_m
    )
    ok = deterministic and all_zero and diagnostics
    with capsys.disabled():
        _criterion(9, "CLI round-trip determinism and diagnostics", ok,
                   f"exit codes {codes1}, byte-identical: {deterministic}, "
                   f"field diagnostics: {diagnostics}")
