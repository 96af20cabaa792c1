import json
import re
from pathlib import Path

import numpy as np
import pytest

from _solves import SOLVING_CHECKS, fail_every_solve

from wassmean import checks, cli
from wassmean.barycenter import Ensemble, SolverConfig, objective, wasserstein_mean
from wassmean.checks import DEFAULT_CHECKS, SuitePlan, default_plan
from wassmean.cli import build_parser, main
from wassmean.hermitian import frobenius
from wassmean.io import dumps_canonical, ensemble_to_json_dict, load_ensemble, matrix_to_json_dict
from wassmean.seeded import random_ensemble

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _write_json(path, payload):
    path.write_text(json.dumps(payload))


def _two_point_file(tmp_path):
    path = tmp_path / "two_point.json"
    _write_json(path, {
        "weights": [0.5, 0.5],
        "matrices": [
            matrix_to_json_dict(np.eye(2)),
            matrix_to_json_dict(4 * np.eye(2)),
        ],
    })
    return path


def test_mean_two_point_commuting(tmp_path, capsys):
    code = main(["mean", str(_two_point_file(tmp_path))])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["residual"] <= 1e-11
    mean = np.asarray(doc["mean"]["re"])
    assert np.allclose(mean, 2.25 * np.eye(2), atol=1e-9)
    assert set(doc) >= {"iterations", "residual", "objective", "converged", "mean"}


def test_mean_bundled_fixture(capsys):
    code = main(["mean", str(FIXTURES / "two_point_commuting.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-11
    assert np.allclose(doc["mean"]["re"], 2.25 * np.eye(2), atol=1e-9)


def test_mean_fixture_matches_golden_file(capsys):
    # Canonical JSON of ``mean`` on the bundled fixture, byte for byte.
    code = main(["mean", str(FIXTURES / "two_point_commuting.json")])
    assert code == 0
    golden = (GOLDEN / "mean_two_point_commuting.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_missing_file_exits_1(capsys):
    assert main(["mean", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mean_singleton(tmp_path, capsys):
    gen = main(["generate", "--m", "3", "--n", "1", "--seed", "4",
                "--out", str(tmp_path / "e.json")])
    assert gen == 0
    code = main(["mean", str(tmp_path / "e.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    e = load_ensemble(tmp_path / "e.json")
    got = np.asarray(doc["mean"]["re"]) + 1j * np.asarray(doc["mean"]["im"])
    assert frobenius(got - e.matrices[0]) <= 1e-9


def test_mean_non_convergence_exit_code(tmp_path, capsys):
    main(["generate", "--m", "3", "--n", "3", "--seed", "9",
          "--out", str(tmp_path / "e.json")])
    capsys.readouterr()
    code = main(["mean", str(tmp_path / "e.json"), "--max-iter", "1",
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["converged"] is False


@pytest.mark.parametrize("max_iter, exit_code", [(200, 0), (2, 2)])
def test_mean_document_reports_the_objective_at_its_mean(tmp_path, capsys, max_iter, exit_code):
    # The fixture's objective is exactly 0.25; this one is not round, and
    # the CLI's value is objective(report.mean, e), converged or not.
    path = tmp_path / "e.json"
    path.write_text(dumps_canonical(ensemble_to_json_dict(random_ensemble(8, 5, 31))))
    e = load_ensemble(path)
    want = objective(wasserstein_mean(e, SolverConfig(max_iter=max_iter)).mean, e)
    flags = ["mean", str(path), "--max-iter", str(max_iter)]
    assert main(flags) == exit_code
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["config", "converged", "iterations", "mean", "objective", "residual"]
    assert doc["objective"] == want
    assert doc["converged"] is (exit_code == 0)
    assert main([*flags, "--format", "text"]) == exit_code
    assert f"\nobjective: {want:.6e}\n" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_mean_rejects_a_non_finite_tol(tmp_path, capsys, tol):
    # --tol inf would print the arithmetic mean as converged after 0
    # iterations, and --tol nan would spend the whole budget.
    code = main(["mean", str(_two_point_file(tmp_path)), "--tol", tol])
    assert code == 1
    assert f"residual_tol: expected a finite number, got {tol}" in capsys.readouterr().err


def test_mean_rejects_bad_weights(tmp_path, capsys):
    path = tmp_path / "bad.json"
    _write_json(path, {
        "weights": [0.5, 0.48],
        "matrices": [matrix_to_json_dict(np.eye(2))] * 2,
    })
    code = main(["mean", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "weights" in err and "0.98" in err


def test_mean_rejects_non_hermitian(tmp_path, capsys):
    path = tmp_path / "bad.json"
    _write_json(path, {
        "weights": [1.0],
        "matrices": [{"dim": 2, "re": [[1.0, 0.4], [0.0, 1.0]]}],
    })
    code = main(["mean", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "not Hermitian" in err and "matrices[0]" in err


def test_distance_rejects_boolean_dim(tmp_path, capsys):
    a = tmp_path / "a.json"
    _write_json(a, {"dim": True, "re": [[1.0]]})
    assert main(["distance", str(a), str(a)]) == 1
    assert f"{a}.dim: expected a positive integer, got True" in capsys.readouterr().err


def test_distance_identical_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    _write_json(a, matrix_to_json_dict(np.diag([1.0, 2.0])))
    code = main(["distance", str(a), str(a)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["distance"] <= 1e-7


def test_distance_scalar_pair_and_symmetry(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_json(a, matrix_to_json_dict(np.eye(2)))
    _write_json(b, matrix_to_json_dict(4 * np.eye(2)))
    assert main(["distance", str(a), str(b)]) == 0
    d_ab = json.loads(capsys.readouterr().out)["distance"]
    assert main(["distance", str(b), str(a)]) == 0
    d_ba = json.loads(capsys.readouterr().out)["distance"]
    assert d_ab == pytest.approx(1.0, abs=1e-12)
    assert d_ab == pytest.approx(d_ba, abs=1e-10)


def test_distance_dimension_mismatch(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_json(a, matrix_to_json_dict(np.eye(2)))
    _write_json(b, matrix_to_json_dict(np.eye(3)))
    assert main(["distance", str(a), str(b)]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_geodesic_endpoints_and_midpoint(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_json(a, matrix_to_json_dict(np.eye(2)))
    _write_json(b, matrix_to_json_dict(4 * np.eye(2)))
    assert main(["geodesic", str(a), str(b), "--t", "0"]) == 0
    at_zero = json.loads(capsys.readouterr().out)
    assert np.allclose(at_zero["re"], np.eye(2))
    assert main(["geodesic", str(a), str(b), "--t", "1"]) == 0
    at_one = json.loads(capsys.readouterr().out)
    assert np.allclose(at_one["re"], 4 * np.eye(2))
    assert main(["geodesic", str(a), str(b), "--t", "0.5"]) == 0
    mid = json.loads(capsys.readouterr().out)
    assert np.allclose(mid["re"], 2.25 * np.eye(2))


def test_geodesic_rejects_bad_parameter(tmp_path, capsys):
    a = tmp_path / "a.json"
    _write_json(a, matrix_to_json_dict(np.eye(2)))
    assert main(["geodesic", str(a), str(a), "--t", "1.5"]) == 1
    assert "outside" in capsys.readouterr().err


def test_generate_deterministic(tmp_path):
    f1 = tmp_path / "e1.json"
    f2 = tmp_path / "e2.json"
    assert main(["generate", "--m", "3", "--n", "2", "--seed", "42",
                 "--out", str(f1)]) == 0
    assert main(["generate", "--m", "3", "--n", "2", "--seed", "42",
                 "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_generate_commuting_flag(tmp_path):
    path = tmp_path / "comm.json"
    assert main(["generate", "--m", "4", "--n", "3", "--seed", "7",
                 "--commuting", "--out", str(path)]) == 0
    e = load_ensemble(path)
    for i in range(e.size):
        for j in range(i + 1, e.size):
            comm = frobenius(e.matrices[i] @ e.matrices[j]
                             - e.matrices[j] @ e.matrices[i])
            assert comm <= 1e-10


def test_generate_rejects_bad_parameters(tmp_path, capsys):
    assert main(["generate", "--m", "0", "--n", "2",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert main(["generate", "--m", "2", "--n", "2", "--eig-lo", "2.0",
                 "--eig-hi", "1.0", "--out", str(tmp_path / "x.json")]) == 1


def test_generate_refuses_an_infinite_spectrum_edge(tmp_path, capsys):
    # It used to end in an OverflowError traceback from the generator.
    assert main(["generate", "--m", "2", "--n", "2", "--eig-hi", "inf",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err.startswith("error: eig_hi: expected a finite number")
    assert not (tmp_path / "x.json").exists()


def test_generate_mean_round_trip(tmp_path, capsys):
    path = tmp_path / "e.json"
    assert main(["generate", "--m", "3", "--n", "3", "--seed", "11",
                 "--out", str(path)]) == 0
    assert main(["mean", str(path), "--out", str(tmp_path / "mean.json")]) == 0


def test_verify_none_is_empty_success(capsys):
    assert main(["verify", "--checks", "none"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_verify_small_plan_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--checks", "bounds,hadamard_inverse",
                 "--seed", "0", "--seed-count", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [r["check_name"] for r in doc] == ["bounds", "hadamard_inverse"]
    assert all(r["holds"] for r in doc)


def test_verify_failing_check_exits_3(tmp_path, reversed_bound_check):
    out = tmp_path / "report.json"
    code = main(["verify", "--checks", reversed_bound_check,
                 "--seed-count", "2", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc[0]["holds"] is False


def test_verify_writes_an_error_report_margin_as_null(tmp_path, monkeypatch, capsys):
    # An error report's margin is -inf; verify used to write it as -Infinity,
    # which is not JSON. Each case that raises is its own error report, so
    # the equality case's margin in the details is null too. The text format
    # still prints -inf.
    def raising(tol, *args):
        raise RuntimeError("boom")

    def refuse(constant):
        raise AssertionError(f"not JSON: {constant}")

    monkeypatch.setattr(checks, "_bounds", raising)
    out = tmp_path / "report.json"
    assert main(["verify", "--checks", "bounds", "--seed-count", "1", "--out", str(out)]) == 3
    (report,) = json.loads(out.read_text(), parse_constant=refuse)
    assert report["margin"] is None
    assert report["details"]["worst_details"] == {"error": "RuntimeError: boom"}
    assert report["details"]["equality_case_margin"] is None
    assert main(["verify", "--checks", "bounds", "--seed-count", "1", "--format", "text"]) == 3
    assert "margin=-inf" in capsys.readouterr().out


def test_verify_writes_every_non_finite_number_of_a_report_as_null(tmp_path, monkeypatch):
    # With every solve unconverged, an equality case's -inf margin in the
    # details stopped verify before it wrote anything, with exit 1.
    def refuse(constant):
        raise AssertionError(f"not JSON: {constant}")

    fail_every_solve(monkeypatch, "unconverged")
    out = tmp_path / "report.json"
    argv = ["verify", "--checks", ",".join(SOLVING_CHECKS), "--seed-count", "3", "--out", str(out)]
    assert main(argv) == 3
    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert [r["check_name"] for r in doc] == list(SOLVING_CHECKS)
    assert not any(r["holds"] for r in doc)


def test_verify_default_plan_exits_0(tmp_path):
    out = tmp_path / "default_suite.json"
    assert main(["verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 15
    assert all(r["holds"] and not r["skipped"] for r in doc)


@pytest.mark.parametrize("seed, count", [(0, 50), (777, 30)])
def test_verify_all_matches_golden_file(capsys, seed, count):
    # Canonical JSON of the whole suite on two seed windows: a change to any
    # margin, detail key or instance count of any check shows here.
    code = main(["verify", "--checks", "all", "--seed", str(seed), "--seed-count", str(count)])
    assert code == 0
    golden = (GOLDEN / f"verify_all_seed{seed}_count{count}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_verify_plan_file(tmp_path):
    plan = tmp_path / "plan.json"
    _write_json(plan, {"checks": ["jensen_contraction"], "seeds": [0, 3],
                       "tol": 1e-8})
    out = tmp_path / "report.json"
    assert main(["verify", "--plan", str(plan), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc[0]["check_name"] == "jensen_contraction"
    assert doc[0]["inputs"]["seeds"] == [0, 3]


def test_all_checks_is_one_plan_in_code_plan_files_and_flags(tmp_path, monkeypatch):
    # SuitePlan alone expands "all"; a plan file and --checks pass it through.
    plans = []
    # cmd_verify imports run_suite from checks when it runs.
    monkeypatch.setattr(checks, "run_suite", lambda plan: plans.append(plan) or [])
    plan = tmp_path / "plan.json"
    _write_json(plan, {"checks": "all"})
    assert main(["verify", "--plan", str(plan)]) == 0
    assert main(["verify", "--checks", "all"]) == 0
    want = SuitePlan(checks="all")
    assert plans == [want, want]
    assert want.checks == DEFAULT_CHECKS == default_plan().checks


def test_verify_rejects_a_plan_tol_too_large_for_a_float(tmp_path, capsys):
    # JSON integers are unbounded; this one used to end in an OverflowError.
    plan = tmp_path / "plan.json"
    plan.write_text('{"checks": ["bounds"], "tol": 1' + "0" * 400 + "}")
    assert main(["verify", "--plan", str(plan)]) == 1
    assert capsys.readouterr().err == (
        f"error: {plan}.tol: expected a finite number, got one too large for a float\n"
    )


def test_cli_names_the_file_of_an_integer_too_long_to_parse(tmp_path, capsys):
    # Python refuses to parse an integer of more than 4,300 digits.
    digits = "1" + "0" * 5000
    plan = tmp_path / "plan.json"
    plan.write_text('{"checks": ["bounds"], "tol": ' + digits + "}")
    assert main(["verify", "--plan", str(plan)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {plan}: invalid JSON (")
    a = tmp_path / "a.json"
    a.write_text('{"dim": ' + digits + ', "re": [[1.0]]}')
    assert main(["distance", str(a), str(a)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {a}: invalid JSON (")


def test_mean_names_weights_that_are_not_numbers(tmp_path, capsys):
    path = tmp_path / "e.json"
    for weights, message in (
        ({"a": 1}, "weights: expected a number, got {'a': 1}"),
        (["0.5", "0.5"], "weights[0]: expected a number, got '0.5'"),
        ([0.5, True], "weights[1]: expected a number, got True"),
    ):
        _write_json(path, {"weights": weights, "matrices": [matrix_to_json_dict(np.eye(2))] * 2})
        assert main(["mean", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}.{message}\n"


def test_verify_rejects_malformed_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    _write_json(plan, {"checks": ["no_such_check"]})
    assert main(["verify", "--plan", str(plan)]) == 1
    assert "unknown" in capsys.readouterr().err


def test_verify_rejects_unknown_check_flag(capsys):
    assert main(["verify", "--checks", "bogus"]) == 1


def test_text_format(tmp_path, capsys):
    a = tmp_path / "a.json"
    _write_json(a, matrix_to_json_dict(np.eye(2)))
    assert main(["distance", str(a), str(a), "--format", "text"]) == 0
    assert "distance:" in capsys.readouterr().out


def test_text_format_prints_every_entry_of_a_large_matrix(tmp_path, capsys):
    # numpy summarises an array of more than 1,000 entries with "...", which
    # dropped entries from the text of a 32 x 32 mean and geodesic point.
    path = tmp_path / "e.json"
    _write_json(path, ensemble_to_json_dict(random_ensemble(32, 2, seed=3)))
    assert main(["mean", str(path), "--format", "text"]) == 0
    mean_text = capsys.readouterr().out.split("mean:\n", 1)[1]
    ensemble = load_ensemble(path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_json(a, matrix_to_json_dict(ensemble.matrices[0]))
    _write_json(b, matrix_to_json_dict(ensemble.matrices[1]))
    assert main(["geodesic", str(a), str(b), "--t", "0.5", "--format", "text"]) == 0
    for text in (mean_text, capsys.readouterr().out):
        assert "..." not in text
        assert len(re.findall(r"j", text)) == 32 * 32


def test_json_runs_build_no_text(tmp_path, monkeypatch):
    # The text of a mean or geodesic point is built only for --format text.
    def refuse(mat):
        raise AssertionError("text built for a JSON run")

    monkeypatch.setattr(cli, "_matrix_text", refuse)
    src = _two_point_file(tmp_path)
    a = tmp_path / "a.json"
    _write_json(a, matrix_to_json_dict(np.eye(2)))
    assert main(["mean", str(src)]) == 0
    assert main(["geodesic", str(a), str(a), "--t", "0.5"]) == 0


def test_byte_identical_reports(tmp_path):
    src = _two_point_file(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["mean", str(src), "--out", str(out1)]) == 0
    assert main(["mean", str(src), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_full_pipeline(tmp_path):
    ensemble_path = tmp_path / "e.json"
    mean_path = tmp_path / "mean.json"
    report_path = tmp_path / "suite.json"
    assert main(["generate", "--m", "2", "--n", "2", "--seed", "3",
                 "--out", str(ensemble_path)]) == 0
    assert main(["mean", str(ensemble_path), "--out", str(mean_path)]) == 0
    assert main(["verify", "--checks", "fixed_point,bounds", "--seed-count", "3",
                 "--out", str(report_path)]) == 0
    mean_doc = json.loads(mean_path.read_text())
    assert mean_doc["converged"] is True
    suite_doc = json.loads(report_path.read_text())
    assert all(r["holds"] for r in suite_doc)


def test_parser_defaults_are_the_library_defaults(capsys):
    parser = build_parser()
    mean = parser.parse_args(["mean", "e.json"])
    assert (mean.tol, mean.max_iter) == (SolverConfig().residual_tol, SolverConfig().max_iter)
    verify = parser.parse_args(["verify"])
    assert ((verify.seed, verify.seed + verify.seed_count), verify.tol) == (
        SuitePlan().seeds, SuitePlan().tol
    )
    # generate without spectrum flags writes the library's default ensemble.
    assert main(["generate", "--m", "2", "--n", "3", "--seed", "4"]) == 0
    written = capsys.readouterr().out
    assert written == dumps_canonical(ensemble_to_json_dict(random_ensemble(2, 3, 4)))


@pytest.mark.parametrize("command, defaults", [
    ("verify", ["(default: 0)", "(default: 50)", "(default: 1e-08)"]),
    ("generate", ["(default: 0)", "(default: 0.5)", "(default: 2.0)"]),
])
def test_lazily_added_arguments_show_the_library_defaults_in_help(command, defaults, capsys):
    # verify and generate add their arguments only when selected; the help
    # still reads their defaults from SuitePlan and random_ensemble.
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert [d for d in defaults if d not in text] == []


@pytest.mark.parametrize("argv, message", [
    ([], "wassmean: error: the following arguments are required: command"),
    (["bogus"], "wassmean: error: argument command: invalid choice: 'bogus'"),
    (["verify", "--bogus"], "wassmean: error: unrecognized arguments: --bogus"),
    (["mean"], "wassmean mean: error: the following arguments are required: ensemble"),
    (["mean", "e.json", "--max-iter", "1.5"], "wassmean mean: error: argument --max-iter: "),
    (["distance", "a.json"], "wassmean distance: error: the following arguments are required: b"),
    (["geodesic", "a.json", "b.json"], "wassmean geodesic: error: the following arguments are "
     "required: --t"),
    (["generate", "--m", "abc", "--n", "2"], "wassmean generate: error: argument --m: invalid "
     "int value: 'abc'"),
    (["generate", "--m", "2", "--n", "2", "--format", "text"], "wassmean: error: unrecognized "
     "arguments: --format text"),
    (["verify", "--seed-count", "x"], "wassmean verify: error: argument --seed-count: "),
])
def test_usage_errors_exit_1_with_the_usage_on_stderr(argv, message, capsys):
    # argparse's own exit code, 2, is the code of solver non-convergence.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wassmean")
    assert message in captured.err


@pytest.mark.parametrize("command", [[], ["mean"], ["distance"], ["geodesic"], ["generate"]])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wassmean")


def test_verify_all_matches_golden_file_on_a_benchmark_window(capsys):
    # The first 10-seed window that the benchmark's verify-suite workload runs
    # with seed 3, so the batched seeded draws of every builder are pinned on
    # the inputs the benchmark exercises.
    assert main(["verify", "--checks", "all", "--seed", "300000", "--seed-count", "10"]) == 0
    golden = (GOLDEN / "verify_all_seed300000_count10.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_mean_exits_2_when_an_iterate_loses_positive_definiteness(
    tmp_path, capsys, breakdown_ensemble
):
    # The solve of the fixture's ensemble breaks down after 1 iteration; the
    # file round trip keeps its matrices bit for bit.
    path = tmp_path / "wide.json"
    path.write_text(dumps_canonical(ensemble_to_json_dict(breakdown_ensemble)))
    assert main(["mean", str(path)]) == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: iterate lost positive definiteness after 1 iterations (dimension 8, 6 matrices)\n"
    )
