"""Seeded inputs drawn in stacked batches, and the ensembles built from them
without a second validation: a batched draw equals its lone generators bit
for bit, a trusted ensemble equals the validated one, and a suite window's
case-building factors each builder's matrices of one dimension in one QR."""

import math

import dataclasses
from collections import Counter

import numpy as np
import pytest

from wassmean import _kernels, barycenter, hermitian
from wassmean import checks as checks_mod
from wassmean.barycenter import Ensemble
from wassmean.checks import _EnsembleDraw, _mix, _resolve, default_plan, random_weights
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
    # Inside run_suite one call draws the raw matrices and the ensembles, one
    # QR per dimension; outside it each ensemble is drawn on its own.
    cases = [
        (_EnsembleDraw(3, 2, 7), _Draw(2, 9, (0.5, 2.0))),
        (_EnsembleDraw(2, 3, 8, 1.0, 3.0), _Draw(3, 10)),
        (_EnsembleDraw(3, 3, 5, commuting=True), _EnsembleDraw(3, 2, 7)),
    ]
    qrs = _counted_qrs(monkeypatch)
    token = checks_mod._SUITE_MEMO.set({} if in_suite else None)
    try:
        got = _resolve(cases)
    finally:
        checks_mod._SUITE_MEMO.reset(token)
    assert sorted(qrs) == ([(4, 2, 2), (4, 3, 3)] if in_suite else
                           [(1, 2, 2), (1, 3, 3), (1, 3, 3), (2, 3, 3), (2, 3, 3), (3, 2, 2)])
    assert got[2][1] is (got[0][0] if in_suite else got[2][1])
    for case, values in zip(cases, got):
        for r, value in zip(case, values):
            if isinstance(r, _EnsembleDraw):
                if r.commuting:
                    mats = random_commuting_spds(r.m, r.n, _mix(r.seed, 11), r.eig_lo, r.eig_hi)
                else:
                    mats = np.stack([random_spd(r.m, _mix(r.seed, 13 + j), r.eig_lo, r.eig_hi)
                                     for j in range(r.n)])
                assert value.matrices.tobytes() == mats.tobytes()
                assert value.weights.tobytes() == random_weights(r.n, _mix(r.seed, 17)).tobytes()
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


def test_seeded_ensemble_of_an_overflowing_norm_is_refused(capsys):
    # The norm of a 2 x 2 matrix of spectrum [1e160, 1e160] overflows: the
    # generator's output is validated, and the ensemble refused.
    for in_suite in (False, True):
        token = checks_mod._SUITE_MEMO.set({} if in_suite else None)
        try:
            with pytest.raises(ValueError, match=r"^matrices\[0\]: Frobenius norm overflows$"):
                checks_mod.random_ensemble(2, 2, 0, eig_lo=1e160, eig_hi=1e160)
            with pytest.raises(ValueError, match=r"^matrices\[0\]: Frobenius norm overflows$"):
                _resolve([(_EnsembleDraw(2, 2, 0, 1e160, 1e160),)])
        finally:
            checks_mod._SUITE_MEMO.reset(token)
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


def test_window_draws_one_qr_per_builder_and_dimension_and_validates_no_seeded_ensemble(
    monkeypatch,
):
    # Case-building of a default 10-seed window, then the gathering of what
    # it solves. Each builder factors its seeded matrices of one dimension in
    # one batched QR (a builder whose ensembles another already drew factors
    # none), and each isometry map, drawn through random_isometry_map, takes
    # one QR of its own; only the equality cases' hand-made ensembles and the
    # Kronecker pair ensembles are validated.
    builder = ["gather"]
    qrs, validated, maps = Counter(), Counter(), Counter()
    qr, validate = np.linalg.qr, hermitian._require_stack
    isometry_map = checks_mod.random_isometry_map

    def counted_qr(a, *args, **kwargs):
        qrs[builder[0], a.shape[-1]] += 1
        return qr(a, *args, **kwargs)

    def counted_validate(*args, **kwargs):
        validated[builder[0]] += 1
        return validate(*args, **kwargs)

    def counted_map(*args):
        maps[builder[0]] += 1
        tag, builder[0] = builder[0], "map"
        try:
            return isometry_map(*args)
        finally:
            builder[0] = tag

    def tagged(tag, build):
        def run(*args):
            builder[0] = tag
            try:
                return build(*args)
            finally:
                builder[0] = "gather"

        return run

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(hermitian, "_require_stack", counted_validate)
    monkeypatch.setattr(checks_mod, "random_isometry_map", counted_map)
    monkeypatch.setattr(barycenter, "wasserstein_means", lambda ensembles: [None] * len(ensembles))
    for name, check in list(checks_mod._CHECKS.items()):
        monkeypatch.setitem(checks_mod._CHECKS, name, dataclasses.replace(
            check, instances=tagged(name, check.instances),
            equality_cases=tagged(f"{name} equality", check.equality_cases),
        ))
    token = checks_mod._SUITE_MEMO.set({})
    try:
        checks_mod._presolve(default_plan(seeds=(0, 10)))
    finally:
        checks_mod._SUITE_MEMO.reset(token)
    map_qrs = {dim: count for (tag, dim), count in qrs.items() if tag == "map"}
    del qrs["map", 2], qrs["map", 3]
    assert set(qrs.values()) == {1}
    assert sum(qrs.values()) == 31
    assert maps == {"phi_geometric_mean": 10, "phi_geometric_mean equality": 1, "phi_wass": 10}
    assert sum(map_qrs.values()) == 21
    assert {tag for tag, _ in qrs} >= {"fixed_point", "phi_geometric_mean", "jensen_contraction"}
    assert not {tag for tag, _ in qrs} & {"bounds", "phi_wass", "self_duality_gap", "gather"}
    assert validated == {
        "fixed_point equality": 1, "bounds equality": 1, "det_inequality equality": 1,
        "logdet_concavity equality": 1, "tensor_identity equality": 2,
        "tensor_arithmetic_bound equality": 2, "hadamard_arithmetic_bound equality": 2,
        "kantorovich_hadamard equality": 1, "sqrt_sum_lower_bound equality": 1,
        # The ten instances' and the equality case's Kronecker pair ensembles.
        "gather": 11,
    }
