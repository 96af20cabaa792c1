import re

import numpy as np
import pytest

from wassmean import _kernels
from wassmean.barycenter import Ensemble
from wassmean.hermitian import frobenius, hermitianize, loewner_leq
from wassmean.means import geometric_mean, kantorovich, validate_weights
from wassmean.seeded import random_spd


def _pair(seed, m=3, lo=0.5, hi=2.0):
    return (random_spd(m, seed=1000 * seed + 1, eig_lo=lo, eig_hi=hi),
            random_spd(m, seed=1000 * seed + 2, eig_lo=lo, eig_hi=hi))


def _psd_perturbation(m, seed, cap):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    p = hermitianize(v @ v.conj().T)
    return p * (cap / max(frobenius(p), 1e-300))


def test_geometric_mean_identity():
    assert np.allclose(geometric_mean(np.eye(3), np.eye(3)), np.eye(3), atol=1e-13)


def test_geometric_mean_commuting_diagonal():
    got = geometric_mean(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
    assert np.allclose(got, np.diag([3.0, 2.0]), atol=1e-12)


def test_geometric_mean_solves_riccati():
    # Independent oracle: the mean is the unique SPD solution X of X A^{-1} X = B.
    a, b = _pair(5)
    x = geometric_mean(a, b)
    resid = x @ np.linalg.inv(a) @ x - b
    assert frobenius(resid) <= 1e-9 * frobenius(b)


def test_geometric_mean_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        geometric_mean(np.eye(2), np.eye(3))


def test_joint_homogeneity():
    for seed in range(10):
        a, b = _pair(seed)
        for s in (0.5, 2.0, 3.0):
            for t in (0.5, 2.0, 3.0):
                lhs = geometric_mean(s * a, t * b)
                rhs = np.sqrt(s * t) * geometric_mean(a, b)
                assert frobenius(lhs - rhs) <= 1e-9 * frobenius(rhs)


def test_symmetry():
    for seed in range(10):
        a, b = _pair(seed)
        assert frobenius(geometric_mean(a, b) - geometric_mean(b, a)) <= 1e-9


def test_monotonicity():
    for seed in range(10):
        a, b = _pair(seed)
        c = a + _psd_perturbation(3, 10 * seed + 3, frobenius(a))
        d = b + _psd_perturbation(3, 10 * seed + 4, frobenius(b))
        res = loewner_leq(geometric_mean(a, b), geometric_mean(c, d))
        assert res.holds, res.margin


def test_congruence_invariance():
    rng = np.random.default_rng(7)
    for seed in range(10):
        a, b = _pair(seed)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = hermitianize(x @ geometric_mean(a, b) @ x.conj().T)
        rhs = geometric_mean(
            hermitianize(x @ a @ x.conj().T), hermitianize(x @ b @ x.conj().T)
        )
        assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(rhs))


def test_self_duality():
    for seed in range(10):
        a, b = _pair(seed)
        lhs = _kernels.spd_power(geometric_mean(a, b), -1.0)
        rhs = geometric_mean(_kernels.spd_power(a, -1.0), _kernels.spd_power(b, -1.0))
        assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(rhs))


def test_determinant_multiplicativity():
    for seed in range(10):
        a, b = _pair(seed)
        lhs = _kernels.log_det(geometric_mean(a, b))
        rhs = 0.5 * (_kernels.log_det(a) + _kernels.log_det(b))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_harmonic_geometric_arithmetic_sandwich():
    for seed in range(10):
        a, b = _pair(seed)
        g = geometric_mean(a, b)
        harmonic = _kernels.spd_power(
            0.5 * (_kernels.spd_power(a, -1.0) + _kernels.spd_power(b, -1.0)), -1.0
        )
        assert loewner_leq(harmonic, g).holds
        assert loewner_leq(g, 0.5 * (a + b)).holds


def test_weighted_sum_singleton():
    a, _ = _pair(1)
    assert np.allclose(_kernels.weighted_sum(np.array([1.0]), a[None]), a)


def test_weighted_sum_scalar_case():
    got = _kernels.weighted_sum(np.array([0.5, 0.5]), np.array([np.eye(2), 4 * np.eye(2)]))
    assert np.allclose(got, 2.5 * np.eye(2))


def test_weighted_sum_idempotent():
    a, _ = _pair(2)
    got = _kernels.weighted_sum(np.full(3, 1 / 3), np.array([a, a, a]))
    assert frobenius(got - a) <= 1e-12 * frobenius(a)


def test_kantorovich_unit_ratio():
    assert kantorovich(1.0, 1.0) == pytest.approx(1.0)


def test_kantorovich_explicit_value():
    assert kantorovich(1.0, 4.0) == pytest.approx(25.0 / 16.0)


def test_kantorovich_scale_invariant():
    assert kantorovich(2.0, 8.0) == pytest.approx(kantorovich(1.0, 4.0))


def test_kantorovich_monotone_in_ratio():
    values = [kantorovich(1.0, r) for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(x <= y for x, y in zip(values, values[1:]))


def test_kantorovich_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kantorovich(0.0, 1.0)
    with pytest.raises(ValueError):
        kantorovich(4.0, 1.0)


def test_kantorovich_refuses_an_infinite_bound_by_name():
    # It used to return nan.
    with pytest.raises(ValueError, match=r"^q: expected a finite number"):
        kantorovich(1.0, float("inf"))


def test_kantorovich_is_scale_free_at_the_ends_of_the_float_range():
    # 4pq underflowed to 0 (ZeroDivisionError) and (p + q)^2 overflowed
    # (OverflowError) on these valid bounds.
    assert kantorovich(1e-200, 1e-200) == 1.0
    assert kantorovich(1e200, 1e200) == 1.0
    assert kantorovich(1e-154, 1e154) == pytest.approx(2.5e307, rel=1e-15)
    with pytest.raises(ValueError, match=r"^kantorovich constant of p=1e-170, q=1e\+170 exceeds"):
        kantorovich(1e-170, 1e170)


@pytest.mark.parametrize("weights,message", [
    (["0.5", "0.5"], "w[0]: expected a number, got '0.5'"),
    ([True, True], "w[0]: expected a number, got True"),
    ({"a": 1}, "w: expected a number, got {'a': 1}"),
    ([0.5 + 0j, 0.5], "w[0]: expected a real number, got (0.5+0j)"),
    (np.array(["0.5", "0.5"]), "w[0]: expected a number, got '0.5'"),
    (np.array([True, True]), "w[0]: expected a number, got True"),
    (np.array([0.5 + 0j, 0.5]), "w[0]: expected a real number, got (0.5+0j)"),
])
def test_validate_weights_refuses_arrays_that_are_not_real_numbers(weights, message):
    # Strings used to be parsed as numbers, bools taken as 0 and 1, and a
    # dict ended in a TypeError.
    with pytest.raises(ValueError) as info:
        validate_weights(weights, name="w")
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Ensemble(weights=weights, matrices=[np.eye(2)] * 2)
    assert str(info.value) == "weights" + message[1:]


def test_a_weight_sum_off_by_float32_round_off_is_printed_exactly():
    # The sum used to print as 1 (``:.6g``), which hid the deviation.
    with pytest.raises(ValueError) as info:
        validate_weights(np.full(10, 0.1, dtype=np.float32))
    assert str(info.value) == "weights: sum to 1.0000000149011612, must be 1 within 1e-12"


def test_validate_weights_rejections():
    with pytest.raises(ValueError, match="strictly positive"):
        validate_weights([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="sum"):
        validate_weights([0.5, 0.48])
    for ragged_or_2d, message in (
        ([[1.0], [1.0, 2.0]], "weights: expected a rectangular array of numbers"),
        ([[0.5, 0.5]], "weights: expected a 1-d array, got ndim=2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_weights(ragged_or_2d)
    with pytest.raises(ValueError, match="^weights: entries must be finite$"):
        validate_weights([0.5, np.nan])
