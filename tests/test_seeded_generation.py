"""Seeded inputs drawn in stacked batches, and the ensembles built from them
without a second validation: a batched draw equals its lone generators bit
for bit, a trusted ensemble equals the validated one, and a suite window
draws all its seeded matrices in one call, one QR per dimension."""

import math
from collections import Counter

import numpy as np
import pytest

from wassmean import _kernels, hermitian
from wassmean import checks as checks_mod
from wassmean.barycenter import Ensemble
from wassmean.checks import (
    _Apply,
    _built,
    _draws_of,
    _drawn,
    _EnsembleDraw,
    _mix,
    default_plan,
    random_weights,
)
from wassmean.cli import main
from wassmean.hermitian import (
    SPD_FLOOR,
    _Draw,
    _seeded_draws,
    _spectrum_clears_floor,
    random_commuting_spds,
    random_spd,
    random_unitary,
    require_spd_stack,
)


def _reference_unitary(m, seed):
    # The Haar draw alone: the QR of a complex Ginibre matrix, R's diagonal
    # phases folded into Q.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_batched_draw_equals_lone_generators_bitwise():
    # One call over interleaved dimensions 1-8, kinds and spectrum ranges.
    spectra = [(0.5, 2.0), (1.0, 3.0), (1e-3, 1e3)]
    draws = []
    for j in range(72):
        m, seed, spectrum = 1 + j % 8, 1_000 + 7 * j, spectra[(j // 3) % 3]
        kinds = [_Draw(m, seed), _Draw(m, seed, spectrum), _Draw(m, seed, spectrum, 1 + j % 4)]
        draws.append(kinds[j % 3])
    for d, got in zip(draws, _seeded_draws(draws)):
        if d.spectrum is None:
            want = random_unitary(d.m, d.seed)
            assert want.tobytes() == _reference_unitary(d.m, d.seed).tobytes()
        elif d.count is None:
            want = random_spd(d.m, d.seed, *d.spectrum)
        else:
            want = random_commuting_spds(d.m, d.count, d.seed, *d.spectrum)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _counted_qrs(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.mark.parametrize("in_suite", [False, True])
def test_resolved_cases_are_the_per_seed_draws(monkeypatch, in_suite):
    # The suite draws every request of its cases in one call, one QR per
    # dimension and each repeated draw once; drawn one request at a time, as
    # random_ensemble draws, each request takes its own. Either way each
    # argument is its lone generator's, bit for bit.
    requests = [
        _EnsembleDraw(3, 2, 7), _Draw(2, 9, (0.5, 2.0)),
        _EnsembleDraw(2, 3, 8, 1.0, 3.0), _Draw(3, 10),
        _EnsembleDraw(3, 3, 5, commuting=True), _Apply(np.multiply, (2.0, _Draw(2, 11))), 0.25,
        _EnsembleDraw(3, 2, 7),
    ]
    qrs = _counted_qrs(monkeypatch)
    if in_suite:
        drawn = _drawn([d for r in requests for d in _draws_of(r)])
        got = [_built(r, drawn) for r in requests]
    else:
        got = [_built(r, _drawn(_draws_of(r))) for r in requests]
    assert sorted(qrs) == ([(4, 3, 3), (5, 2, 2)] if in_suite else [
        (1, 2, 2), (1, 2, 2), (1, 3, 3), (1, 3, 3), (2, 3, 3), (2, 3, 3), (3, 2, 2)
    ])
    for r, value in zip(requests, got):
        if isinstance(r, _EnsembleDraw):
            if r.commuting:
                mats = random_commuting_spds(r.m, r.n, _mix(r.seed, 11), r.eig_lo, r.eig_hi)
            else:
                mats = np.stack([random_spd(r.m, _mix(r.seed, 13 + j), r.eig_lo, r.eig_hi)
                                 for j in range(r.n)])
            assert value.matrices.tobytes() == mats.tobytes()
            assert value.weights.tobytes() == random_weights(r.n, _mix(r.seed, 17)).tobytes()
        elif isinstance(r, _Apply):
            assert value.tobytes() == (2.0 * random_unitary(2, 11)).tobytes()
        elif not isinstance(r, _Draw):
            assert value is r
        elif r.spectrum is None:
            assert value.tobytes() == random_unitary(r.m, r.seed).tobytes()
        else:
            assert value.tobytes() == random_spd(r.m, r.seed, *r.spectrum).tobytes()


def _counted_validations(monkeypatch):
    calls = []
    validate = hermitian._require_stack

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return validate(*args, **kwargs)

    monkeypatch.setattr(hermitian, "_require_stack", counted)
    return calls


def _trust_edge(m, eig_hi):
    return 2.0 * SPD_FLOOR * max(1.0, m * eig_hi)


def _finite_edge(m):
    # The largest eig_hi whose 4 m eig_hi^2 is finite.
    hi = math.sqrt(np.finfo(float).max / (4.0 * m))
    while not math.isfinite(4.0 * m * hi * hi):
        hi = math.nextafter(hi, 0.0)
    while math.isfinite(4.0 * m * math.nextafter(hi, math.inf) * math.nextafter(hi, math.inf)):
        hi = math.nextafter(hi, math.inf)
    return hi


@pytest.mark.parametrize("m", range(1, 9))
def test_generated_ensemble_stores_what_validation_returns_bitwise(monkeypatch, m):
    # The suite's two ranges, drawn as the generator draws them; then spectra
    # pinned to the edges of the trust rule: its floor, where a range at the
    # edge itself is validated and equal, and one far below it fails
    # validation; and its finite norm, where a range just past the edge is
    # validated and equal, and one far past it fails validation.
    weights = random_weights(3, m)
    units = np.stack([random_unitary(m, 50 + j) for j in range(3)])
    above = np.nextafter(_trust_edge(m, 1.0), np.inf)
    top = _finite_edge(m)
    past = math.nextafter(top, math.inf)

    def pinned(eig_lo, eig_hi):
        return _kernels._from_spectrum(units, np.linspace(eig_lo, eig_hi, m))

    cases = [
        (0.5, 2.0, np.stack([random_spd(m, 40 + j, 0.5, 2.0) for j in range(3)]), True),
        (1.0, 3.0, np.stack([random_spd(m, 40 + j, 1.0, 3.0) for j in range(3)]), True),
        (above, 1.0, pinned(above, 1.0), True),
        (_trust_edge(m, 1.0), 1.0, pinned(_trust_edge(m, 1.0), 1.0), False),
        (top / 2.0, top, pinned(top / 2.0, top), True),
        (top / 2.0, past, pinned(top / 2.0, past), False),
    ]
    calls = _counted_validations(monkeypatch)
    for eig_lo, eig_hi, mats, trusted in cases:
        assert _spectrum_clears_floor(m, eig_lo, eig_hi) == trusted
        want, validated = require_spd_stack(mats), Ensemble(weights, mats)
        calls.clear()
        ensemble = Ensemble._generated(weights, mats.copy(), eig_lo, eig_hi)
        assert len(calls) == (0 if trusted else 1)
        assert ensemble.matrices.tobytes() == want.tobytes()
        assert ensemble.weights.tobytes() == validated.weights.tobytes()
        assert not ensemble.matrices.flags.writeable
        assert not ensemble.weights.flags.writeable
    with pytest.raises(ValueError, match=r"^matrices\[0\]: not positive definite"):
        Ensemble._generated(weights, pinned(1e-13, 1.0), 1e-13, 1.0)
    with pytest.raises(ValueError, match=r"^matrices\[0\]: Frobenius norm overflows$"):
        Ensemble._generated(weights, pinned(1e160, 1e160), 1e160, 1e160)


def test_seeded_ensemble_of_an_overflowing_norm_is_refused(monkeypatch, capsys):
    # The norm of a 2 x 2 matrix of spectrum [1e160, 1e160] overflows: the
    # generator's output is validated, and the ensemble refused; in the suite
    # the check whose case it is fails alone.
    overflowing = _EnsembleDraw(2, 2, 0, 1e160, 1e160)
    with pytest.raises(ValueError, match=r"^matrices\[0\]: Frobenius norm overflows$"):
        checks_mod.random_ensemble(*overflowing)
    monkeypatch.setitem(checks_mod._CHECKS, "bounds", checks_mod._Check(
        instances=lambda plan: [(overflowing,)]
    ))
    bounds, det = checks_mod.run_suite(default_plan(checks=("bounds", "det_inequality")))
    assert bounds.details["error"] == "ValueError: matrices[0]: Frobenius norm overflows"
    assert det.holds
    args = ["generate", "--m", "2", "--n", "2", "--eig-lo", "1e160", "--eig-hi", "1e160"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "matrices[0]: Frobenius norm overflows" in captured.err


def test_inverted_ensemble_equals_the_validated_inverses_bitwise(monkeypatch):
    calls = _counted_validations(monkeypatch)
    for seed in range(6):
        ensemble = checks_mod.random_ensemble(2 + seed % 3, 2 + seed % 2, seed)
        want = Ensemble(ensemble.weights, _kernels.spd_power(ensemble.matrices, -1.0))
        calls.clear()
        inverted = checks_mod._inverted(ensemble)
        assert calls == []
        assert inverted.matrices.tobytes() == want.matrices.tobytes()
        assert inverted.weights.tobytes() == want.weights.tobytes()


def test_window_draws_once_and_validates_only_derived_inputs(monkeypatch):
    # A default 10-seed window draws every seeded matrix, isometry maps
    # included, in one _seeded_draws call of one QR per dimension, and solves
    # in one call. Validation runs on the derived matrices that the positive
    # definite floor could still reject, and on the ensembles built from
    # them or by hand, never on generator output.
    running = ["build"]
    calls, qrs, spd_calls, stacks = Counter(), [], Counter(), Counter()

    def counted(module, attr, tally):
        fn = getattr(module, attr)

        def run(*args, **kwargs):
            tally(*args, **kwargs)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, run)

    def tracked(name, driver):
        def run(built):
            running.append(name)
            try:
                return driver(built)
            finally:
                running.pop()

        return run

    counted(checks_mod, "_seeded_draws", lambda draws: calls.update(["draw"]))
    counted(checks_mod.bc, "wasserstein_means", lambda *args: calls.update(["solve"]))
    counted(np.linalg, "qr", lambda a, *args, **kwargs: qrs.append(a.shape))
    counted(hermitian, "_require_matrix", lambda a, name, spd: spd_calls.update(
        [running[-1]] if spd else []
    ))
    counted(hermitian, "_require_stack", lambda *args, **kwargs: stacks.update([running[-1]]))
    for name in checks_mod.DEFAULT_CHECKS:
        monkeypatch.setitem(
            checks_mod.CHECK_REGISTRY, name, tracked(name, checks_mod.CHECK_REGISTRY[name])
        )
    reports = checks_mod.run_suite(default_plan(seeds=(0, 10)))
    assert all(r.holds for r in reports)
    assert calls == {"draw": 1, "solve": 1}
    assert sorted(qrs) == [(149, 3, 3), (231, 2, 2)]
    # The Schur products of hadamard_inverse and of the means in
    # kantorovich_hadamard, and the congruences of jensen_contraction, on the
    # ten instances and the equality cases.
    assert spd_calls == {
        "hadamard_inverse": 11, "kantorovich_hadamard": 11, "jensen_contraction": 12
    }
    # The twelve hand-made equality-case ensembles and the eleven Kronecker
    # pair ensembles are built and validated before evaluation; the 34
    # validations above each check one matrix.
    assert stacks == {"build": 23, **spd_calls}
