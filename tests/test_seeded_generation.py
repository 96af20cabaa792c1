"""Seeded inputs drawn in stacked batches, and the ensembles built from them
without a second validation: a batched draw equals its lone generators bit
for bit, a trusted ensemble equals the validated one, and a suite window
draws all its seeded matrices in one call, one QR per dimension, and trusts
the requests it declares."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from wassmean import _kernels, barycenter, hermitian, means, products, seeded
from wassmean import checks as checks_mod
from wassmean.barycenter import Ensemble
from wassmean.checks import default_plan
from wassmean.cli import main
from wassmean.hermitian import (
    SPD_FLOOR,
    _spectrum_clears_floor,
    require_spd_stack,
)
from wassmean.seeded import (
    _Apply,
    _built,
    _commuting_stack,
    _Draw,
    _drawn,
    _draws_of,
    _ensemble,
    _mix,
    _random_weights,
    _seeded_draws,
    random_commuting_spds,
    random_ensemble,
    random_isometry_map,
    random_spd,
    random_unitary,
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
    # One call over interleaved dimensions 1-8, kinds and spectrum ranges; a
    # commuting stack is the stack of a drawn unitary.
    spectra = [(0.5, 2.0), (1.0, 3.0), (1e-3, 1e3)]
    draws = []
    for j in range(72):
        m, seed, spectrum = 1 + j % 8, 1_000 + 7 * j, spectra[(j // 3) % 3]
        draws.append(_Draw(m, seed, None if j % 3 == 0 else spectrum))
    for j, (d, got) in enumerate(zip(draws, _seeded_draws(draws))):
        if d.spectrum is None:
            want = random_unitary(d.m, d.seed)
            assert want.tobytes() == _reference_unitary(d.m, d.seed).tobytes()
            spectrum, count = spectra[(j // 3) % 3], 1 + j % 4
            stack = _commuting_stack(got, d.seed, count, *spectrum)
            want_stack = random_commuting_spds(d.m, count, d.seed, *spectrum)
            assert stack.tobytes() == want_stack.tobytes()
        else:
            want = random_spd(d.m, d.seed, *d.spectrum)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# SHA-256 prefixes of each public generator's output on fixed seeds, recorded
# before the draw requests were reduced to one matrix per stream; those of
# random_isometry_map and _random_weights (then the public random_weights)
# before they moved to ``seeded``.
GENERATOR_DIGESTS = {
    "random_unitary": "022f190b5bb2940b",
    "random_spd": "e8e10b9af685f0b7",
    "random_commuting_spds": "5051e149fe6e9f07",
    "random_ensemble": "c1b392f270295ab7",
    "random_ensemble_commuting": "f5fd5afbb5f1fd05",
    "random_isometry_map": "899a59a49d252e40",
    "_random_weights": "ce3ae58d2b633034",
}


def _flat(ensemble):
    return np.concatenate([ensemble.weights, ensemble.matrices.ravel()])


def _generator_outputs():
    return {
        "random_unitary": random_unitary(5, 11),
        "random_spd": random_spd(4, 12, 1e-3, 1e3),
        "random_commuting_spds": random_commuting_spds(3, 4, 13, 0.5, 2.0),
        "random_ensemble": _flat(random_ensemble(3, 4, 7)),
        "random_ensemble_commuting": _flat(random_ensemble(4, 3, 8, 1e-3, 1e3, True)),
        "random_isometry_map": random_isometry_map(4, 2, 14).isometry,
        "_random_weights": _random_weights(5, 15),
    }


def test_public_generators_keep_their_bits():
    assert {k: _digest(v) for k, v in _generator_outputs().items()} == GENERATOR_DIGESTS


# Each generator that takes a seed from outside, on one seed.
_SEEDED = {
    "random_unitary": lambda seed: random_unitary(2, seed),
    "random_spd": lambda seed: random_spd(3, seed, 0.5, 2.0),
    "random_commuting_spds": lambda seed: random_commuting_spds(2, 2, seed, 0.5, 2.0),
    "random_isometry_map": lambda seed: random_isometry_map(3, 2, seed).isometry,
    "random_ensemble": lambda seed: _flat(random_ensemble(2, 2, seed)),
}


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, np.float64(1.0), "a", None])
@pytest.mark.parametrize("name", _SEEDED)
def test_generators_refuse_a_seed_that_is_not_an_integer(name, seed):
    # A bool or a float used to alias an integer seed, and a string or None
    # leaked numpy's TypeError.
    with pytest.raises(ValueError, match=r"^seed: expected an integer, got "):
        _SEEDED[name](seed)


def test_generators_take_integer_seeds_of_any_integer_type():
    # A negative seed names the argument where it would be numpy's stream
    # seed; random_ensemble mixes every int into a stream, a negative one too.
    for name, draw in _SEEDED.items():
        assert _digest(draw(np.int64(3))) == _digest(draw(3))
        if name == "random_ensemble":
            assert _digest(draw(-1)) != _digest(draw(1))
        else:
            with pytest.raises(ValueError, match=r"^seed: must be non-negative, got -1$"):
                draw(-1)


def _tally_calls(monkeypatch, module, attr, tally):
    """Rebind ``module.attr`` to a function that calls ``tally`` on its
    arguments first."""
    fn = getattr(module, attr)

    def run(*args, **kwargs):
        tally(*args, **kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, run)


def _counted_qrs(monkeypatch):
    calls = []
    _tally_calls(monkeypatch, np.linalg, "qr", lambda a, *args, **kwargs: calls.append(a.shape))
    return calls


def _ensemble_of(m, n, seed, eig_lo, eig_hi, commuting=False):
    # random_ensemble's matrices and weights, from the public generators.
    if commuting:
        mats = random_commuting_spds(m, n, _mix(seed, 11), eig_lo, eig_hi)
    else:
        mats = np.stack([random_spd(m, _mix(seed, 13 + j), eig_lo, eig_hi) for j in range(n)])
    return mats, _random_weights(n, _mix(seed, 17))


@pytest.mark.parametrize("in_suite", [False, True])
def test_resolved_cases_are_the_per_seed_draws(monkeypatch, in_suite):
    # The suite draws every request of its cases in one call, one QR per
    # dimension and each repeated draw once, and builds each distinct _Apply
    # once; drawn one request at a time, as random_ensemble draws, each
    # request takes its own. Either way each argument is its lone
    # generator's, bit for bit.
    cases = [
        (_ensemble(3, 2, 7, (0.5, 2.0)), _ensemble_of(3, 2, 7, 0.5, 2.0)),
        (_Draw(2, 9, (0.5, 2.0)), random_spd(2, 9, 0.5, 2.0)),
        (_ensemble(2, 3, 8, (1.0, 3.0)), _ensemble_of(2, 3, 8, 1.0, 3.0)),
        (_Draw(3, 10), random_unitary(3, 10)),
        (_ensemble(3, 3, 5, (0.5, 2.0), True), _ensemble_of(3, 3, 5, 0.5, 2.0, True)),
        (_Apply(np.multiply, (2.0, _Draw(2, 11))), 2.0 * random_unitary(2, 11)),
        (0.25, 0.25),
        (_ensemble(3, 2, 7, (0.5, 2.0)), _ensemble_of(3, 2, 7, 0.5, 2.0)),
    ]
    requests = [r for r, _ in cases]
    qrs = _counted_qrs(monkeypatch)
    if in_suite:
        drawn = _drawn([d for r in requests for d in _draws_of(r)])
        got = [_built(r, drawn) for r in requests]
    else:
        got = [_built(r, _drawn(_draws_of(r))) for r in requests]
    assert sorted(qrs) == ([(4, 3, 3), (5, 2, 2)] if in_suite else [
        (1, 2, 2), (1, 2, 2), (1, 3, 3), (1, 3, 3), (2, 3, 3), (2, 3, 3), (3, 2, 2)
    ])
    assert (got[0] is got[-1]) == in_suite
    for (r, want), value in zip(cases, got):
        if isinstance(want, tuple):
            mats, weights = want
            assert value.matrices.tobytes() == mats.tobytes()
            assert value.weights.tobytes() == weights.tobytes()
        elif isinstance(r, (_Draw, _Apply)):
            assert value.tobytes() == want.tobytes()
        else:
            assert value is r


def _counted_validations(monkeypatch):
    calls = []
    _tally_calls(monkeypatch, hermitian, "_require_stack",
                 lambda arr, *args, **kwargs: calls.append(arr.shape))
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
    weights = _random_weights(3, m)
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


def test_generated_ensemble_validates_weights_only_on_the_constructor_route(monkeypatch):
    # Generator weights and an ensemble's own weights already pass
    # validate_weights: a spectrum range that clears the floor stores them
    # as the constructor would, bit for bit, without a second validation;
    # one that does not takes the constructor, which validates both.
    weights = _random_weights(3, 7)
    mats = np.stack([random_spd(2, 60 + j, 0.5, 2.0) for j in range(3)])
    want = Ensemble(weights, mats)
    calls = []
    _tally_calls(monkeypatch, barycenter, "validate_weights", lambda *a, **k: calls.append(a))
    for eig_lo, validations in ((0.5, 0), (1e-13, 1)):
        calls.clear()
        for source in (weights, want.weights):
            ensemble = Ensemble._generated(source, mats.copy(), eig_lo, 2.0)
            assert ensemble.weights.tobytes() == want.weights.tobytes()
            assert ensemble.matrices.tobytes() == want.matrices.tobytes()
            assert ensemble.weights is not source and not ensemble.weights.flags.writeable
        assert len(calls) == 2 * validations


def test_seeded_ensemble_of_an_overflowing_norm_is_refused(monkeypatch, capsys):
    # The norm of a 2 x 2 matrix of spectrum [1e160, 1e160] overflows: the
    # generator's output is validated, and the ensemble refused; in the suite
    # the check whose case it is fails alone.
    with pytest.raises(ValueError, match=r"^matrices\[0\]: Frobenius norm overflows$"):
        random_ensemble(2, 2, 0, 1e160, 1e160)
    monkeypatch.setitem(checks_mod._CHECKS, "bounds", checks_mod._Check(
        instances=lambda plan: [(_ensemble(2, 2, 0, (1e160, 1e160)),)]
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
        ensemble = random_ensemble(2 + seed % 3, 2 + seed % 2, seed)
        want = Ensemble(ensemble.weights, _kernels.spd_power(ensemble.matrices, -1.0))
        calls.clear()
        inverted = checks_mod._inverted(ensemble)
        assert calls == []
        assert inverted.matrices.tobytes() == want.matrices.tobytes()
        assert inverted.weights.tobytes() == want.weights.tobytes()


def test_window_draws_once_and_validates_only_derived_inputs(monkeypatch):
    # A default 10-seed window draws every seeded matrix, isometry maps
    # included, in one _seeded_draws call of one QR per dimension, and solves
    # its 144 ensembles in one call. Validation runs on the derived matrices
    # that the positive definite floor could still reject, and on the
    # ensembles built from them or by hand, never on generator output.
    running = ["build"]
    calls, qrs, spd_calls, stacks = Counter(), [], Counter(), Counter()

    def tracked(name, driver):
        def run(built):
            running.append(name)
            try:
                return driver(built)
            finally:
                running.pop()

        return run

    for module, attr, tally in (
        (seeded, "_seeded_draws", lambda draws: calls.update(["draw"])),
        (checks_mod.bc, "wasserstein_means",
         lambda ensembles: calls.update({"solve": 1, "ensembles": len(ensembles)})),
        (np.linalg, "qr", lambda a, *args, **kwargs: qrs.append(a.shape)),
        (hermitian, "_require_matrix",
         lambda a, name, spd: spd_calls.update([running[-1]] if spd else [])),
        (hermitian, "_require_stack", lambda *args, **kwargs: stacks.update([running[-1]])),
    ):
        _tally_calls(monkeypatch, module, attr, tally)
    for name in checks_mod.DEFAULT_CHECKS:
        monkeypatch.setitem(
            checks_mod.CHECK_REGISTRY, name, tracked(name, checks_mod.CHECK_REGISTRY[name])
        )
    reports = checks_mod.run_suite(default_plan(seeds=(0, 10)))
    assert all(r.holds for r in reports)
    assert calls == {"draw": 1, "solve": 1, "ensembles": 144}
    assert sorted(qrs) == [(149, 3, 3), (231, 2, 2)]
    # The ten hand-made equality-case ensembles (the identity singleton of
    # bounds, kantorovich_hadamard and sqrt_sum_lower_bound is one request)
    # and the eleven Kronecker pair ensembles are built and validated before
    # evaluation. Then the Schur products of hadamard_inverse and of the
    # means in kantorovich_hadamard, and the congruences of
    # jensen_contraction, on the ten instances and the equality cases, are
    # validated as one stack per group of cases: no matrix alone.
    assert spd_calls == {}
    assert stacks == {
        "build": 21, "hadamard_inverse": 2, "kantorovich_hadamard": 3, "jensen_contraction": 2
    }


def test_window_trusts_the_requests_it_declares(monkeypatch):
    # The requests of a default 10-seed window come from a validated plan:
    # no spectrum range, no seed and no size is checked again. In the validation
    # layer require_positive runs only in each check's ToleranceConfig; the
    # solver's config and the Kantorovich constants of the Hadamard checks
    # are the only other users.
    ranges, tallies = Counter(), {}
    for rule in ("_require_eig_range", "_require_seed"):
        _tally_calls(monkeypatch, seeded, rule,
                     lambda *args, rule=rule, **kwargs: ranges.update([(rule, *args)]))
    for module in (hermitian, seeded, checks_mod, barycenter, means, products):
        tally = tallies[module.__name__.split(".")[-1]] = Counter()
        _tally_calls(monkeypatch, module, "require_positive",
                     lambda value, name, integer=False, tally=tally: tally.update([name]))
    plan = default_plan(seeds=(0, 10))
    for tally in tallies.values():
        tally.clear()
    reports = checks_mod.run_suite(plan)
    assert sum(r.details["instances"] for r in reports) == 162
    assert ranges == {}
    assert tallies == {
        "hermitian": {"loewner_tol": 15},
        "seeded": {},
        "checks": {},
        "barycenter": {"max_iter": 1, "residual_tol": 1},
        "means": {"p": 33, "q": 33},
        "products": {},
    }
