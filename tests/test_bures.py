import json

import numpy as np
import pytest

from wassmean import _kernels
from wassmean.barycenter import Ensemble, objective
from wassmean.bures import bw_distance, geodesic
from wassmean.cli import main
from wassmean.hermitian import frobenius
from wassmean.io import dumps_canonical, matrix_to_json_dict
from wassmean.means import geometric_mean
from wassmean.seeded import _ginibre, _haar_unitaries, random_commuting_spds, random_spd


def _sqrtm(a):
    """The principal square root of the Hermitian part of a positive definite a."""
    return _kernels.spd_power(_kernels.hermitianize(a), 0.5)


def _pair(seed, m=3):
    return (random_spd(m, seed=2000 * seed + 1, eig_lo=0.5, eig_hi=2.0),
            random_spd(m, seed=2000 * seed + 2, eig_lo=0.5, eig_hi=2.0))


def test_distance_self_is_zero():
    a, _ = _pair(0)
    assert bw_distance(a, a) == 0.0


@pytest.mark.parametrize("seed", [0, 13])
def test_distance_of_equal_inputs_is_zero(log_uniform, seed, tmp_path, capsys):
    # Log-uniform [1e-3, 1e3] at m = 2 + seed % 5: the gap's round-off gave
    # d(A, A) = 8.6e-7 on seed 0, and on seed 13 a squared value of -2.0e-8
    # that the distance's clamp refused.
    a = log_uniform(2 + seed % 5, seed)
    assert bw_distance(a, a) == 0.0
    assert objective(a, Ensemble(weights=[0.5, 0.5], matrices=[a, a])) == 0.0
    path = tmp_path / "a.json"
    path.write_text(dumps_canonical(matrix_to_json_dict(a)))
    assert main(["distance", str(path), str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"distance": 0.0}


def test_distance_of_near_equal_pairs_matches_closed_form(log_uniform):
    # B = cA has d(A, B) = |1 - sqrt(c)| sqrt(tr A / 2). Log-uniform
    # [1e-3, 1e3], m = 2 + seed % 5, seeds 0-39: the difference of traces
    # cancelled to a relative error of 8.3e3 and raised on 9 of these 120
    # pairs; through the transport map the worst measured error is 1.07e-4.
    for seed in range(40):
        a = log_uniform(2 + seed % 5, seed)
        for c in (1 + 1e-3, 1 + 1e-6, 1 + 1e-9):
            want = abs(1 - np.sqrt(c)) * np.sqrt(np.trace(a).real / 2)
            assert bw_distance(a, c * a) == pytest.approx(want, rel=1e-3, abs=0)


def test_distance_scalar_multiple():
    # tr((I + 4I)/2) = 5, tr(sqrt(4I)) = 4, sqrt(5 - 4) = 1.
    assert bw_distance(np.eye(2), 4 * np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_distance_symmetric():
    for seed in range(20):
        a, b = _pair(seed)
        assert bw_distance(a, b) == pytest.approx(bw_distance(b, a), abs=1e-10)


def test_distance_cyclic_trace_oracle():
    # tr((a^{1/2} b a^{1/2})^{1/2}) equals tr((b^{1/2} a b^{1/2})^{1/2}).
    a, b = _pair(3)
    ra, rb = _sqrtm(a), _sqrtm(b)
    t1 = np.trace(_sqrtm(ra @ b @ ra)).real
    t2 = np.trace(_sqrtm(rb @ a @ rb)).real
    assert t1 == pytest.approx(t2, abs=1e-10)


def test_distance_nonnegative_and_triangle():
    for seed in range(50):
        a, b = _pair(3 * seed)
        c, _ = _pair(3 * seed + 1)
        dab, dbc, dac = bw_distance(a, b), bw_distance(b, c), bw_distance(a, c)
        assert dab >= 0.0
        assert dac <= dab + dbc + 1e-8


def test_distance_scaling():
    a, b = _pair(9)
    base = bw_distance(a, b)
    for c in (0.5, 2.0, 4.0):
        assert bw_distance(c * a, c * b) == pytest.approx(np.sqrt(c) * base, abs=1e-10)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        bw_distance(np.eye(2), np.eye(3))


def test_geodesic_endpoints():
    a, b = _pair(4)
    assert frobenius(geodesic(a, b, 0.0) - a) <= 1e-12 * frobenius(a)
    assert frobenius(geodesic(a, b, 1.0) - b) <= 1e-12 * frobenius(b)


def test_geodesic_scalar_midpoint():
    got = geodesic(np.eye(2), 4 * np.eye(2), 0.5)
    assert np.allclose(got, 2.25 * np.eye(2), atol=1e-12)


def test_geodesic_constant_speed():
    for seed in range(10):
        a, b = _pair(seed, m=3)
        total = bw_distance(a, b)
        for t in (0.25, 0.5, 0.75):
            point = geodesic(a, b, t)
            assert bw_distance(a, point) == pytest.approx(t * total, abs=1e-7)


def test_geodesic_stays_positive_definite():
    for seed in range(10):
        a, b = _pair(seed + 50)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert np.linalg.eigvalsh(geodesic(a, b, t))[0] > 0


def test_geodesic_commuting_reduction():
    # With a b = b a the path is ((1-t) a^{1/2} + t b^{1/2})^2.
    a, b = random_commuting_spds(3, 2, seed=8, eig_lo=0.5, eig_hi=2.0)
    ra, rb = _sqrtm(a), _sqrtm(b)
    for t in (0.25, 0.5, 0.75):
        direct = geodesic(a, b, t)
        closed = (1 - t) * ra + t * rb
        assert frobenius(direct - closed @ closed) <= 1e-10



def _cross_sqrt(a, b):
    # (a b)^{1/2} = a^{1/2} (a^{1/2} b a^{1/2})^{1/2} a^{-1/2}.
    ra, ria = _sqrtm(a), np.linalg.inv(_sqrtm(a))
    return ra @ _sqrtm(ra @ b @ ra) @ ria


def test_geodesic_matches_cross_root_formula():
    # (1-t)^2 a + t^2 b + t(1-t)[(ab)^{1/2} + (ba)^{1/2}], on spectra up to
    # [1e-2, 1e2] and on the pair (A, A).
    for seed in range(12):
        lo, hi = ((0.5, 2.0), (0.1, 10.0), (1e-2, 1e2))[seed % 3]
        a = random_spd(6, seed=300 + seed, eig_lo=lo, eig_hi=hi)
        b = a if seed % 4 == 0 else random_spd(6, seed=400 + seed, eig_lo=lo, eig_hi=hi)
        cross = _cross_sqrt(a, b) + _cross_sqrt(b, a)
        for t in (0.25, 0.5, 0.75):
            want = (1 - t) ** 2 * a + t**2 * b + t * (1 - t) * cross
            assert frobenius(geodesic(a, b, t) - want) <= 1e-11 * frobenius(want)


def test_geodesic_takes_one_eigendecomposition_and_one_cholesky_factor(linalg_calls):
    # The pair is proved positive definite by one Cholesky factorisation of
    # the shifted 2-stack, a is factored once more, and the congruence root
    # is the one eigh; no eigvalsh runs.
    a, b = _pair(7, m=4)
    linalg_calls.clear()
    geodesic(a, b, 0.3)
    assert linalg_calls == [("cholesky", (2, 4, 4)), ("cholesky", (4, 4)), ("eigh", (4, 4))]


def test_geodesic_matches_the_commuting_closed_form_on_wide_spectra():
    # For A = U diag(lambda) U* and B = U diag(mu) U* the point at t is
    # U diag(((1-t) sqrt(lambda) + t sqrt(mu))^2) U*. On log-uniform
    # [1e-3, 1e3] spectra the square-root route's relative error reached
    # 5.6e-12 (40 of these 120 points above 1e-13); the Cholesky route's
    # stays below 2e-14.
    for seed in range(40):
        m = 2 + seed % 5
        rng = np.random.default_rng(seed)
        u = _haar_unitaries(_ginibre(rng.standard_normal((2, m, m))))
        lam, mu = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (2, m)))
        a, b = _kernels._from_spectrum(u, lam), _kernels._from_spectrum(u, mu)
        for t in (0.25, 0.5, 0.75):
            want = _kernels._from_spectrum(u, ((1 - t) * np.sqrt(lam) + t * np.sqrt(mu)) ** 2)
            assert frobenius(geodesic(a, b, t) - want) <= 1e-13 * frobenius(want)


def test_geodesic_rejects_bad_parameter():
    a, b = _pair(6)
    for t in (-0.1, 1.1, 2, float("nan")):
        with pytest.raises(ValueError, match=rf"^geodesic parameter t={t} outside \[0, 1\]$"):
            geodesic(a, b, t)


def test_geodesic_parameter_is_a_real_number():
    # True returned b, and a string or None raised a TypeError from the
    # range comparison.
    a, b = _pair(6)
    for t in (True, False, "0.5", None, 0.5j):
        with pytest.raises(ValueError, match=r"^t: expected a finite number, got "):
            geodesic(a, b, t)
    for t in (np.float64(0.3), np.int64(1)):
        assert geodesic(a, b, t).tobytes() == geodesic(a, b, t.item()).tobytes()


def _hellinger(p, q):
    # The closed form of bw_distance(diag p, diag q) for probability vectors:
    # the Hellinger distance [1/2 sum_i (sqrt(p_i) - sqrt(q_i))^2]^{1/2}.
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def _probability_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.uniform(0.05, 1.0, 4)
        q = rng.uniform(0.05, 1.0, 4)
        yield p / p.sum(), q / q.sum()


def test_hellinger_self_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert bw_distance(np.diag(p), np.diag(p)) == pytest.approx(0.0)


def test_hellinger_range():
    for p, q in _probability_pairs(1, 20):
        value = bw_distance(np.diag(p), np.diag(q))
        assert 0.0 <= value <= 1.0


def test_hellinger_matches_diagonal_matrix_distance():
    for p, q in _probability_pairs(2, 10):
        assert bw_distance(np.diag(p), np.diag(q)) == pytest.approx(
            _hellinger(p, q), abs=1e-10
        )


def test_distance_self_is_zero_on_wide_spectra():
    # tr(a) ~ 2500 here: round-off in the bracket reaches ~2e-12, past an
    # absolute 1e-12 clamp, on seeds 8, 15, 16, 17 and 43.
    for seed in range(48):
        a = random_spd(50, seed=seed, eig_lo=0.5, eig_hi=100.0)
        assert bw_distance(a, a) ** 2 <= 1e-12 * np.trace(a).real


def _wide_pair(seed, m=4):
    """A, then B, from default_rng(seed): each U diag(exp(uniform(log 1e-6,
    log 1e6))) U*, so wide that round-off leaves the congruence of a
    geodesic or geometric mean with an eigenvalue just below zero."""
    rng = np.random.default_rng(seed)
    pair = []
    for _ in range(2):
        u = _haar_unitaries(_ginibre(rng.standard_normal((2, m, m))))
        a = (u * np.exp(rng.uniform(np.log(1e-6), np.log(1e6), m))) @ u.conj().T
        pair.append((a + a.conj().T) * 0.5)
    return pair


@pytest.mark.parametrize("seed", [1, 14])
def test_geometric_mean_clamps_congruence_round_off(seed):
    # Its square root used to be NaN; on seed 14 only the geometric mean's
    # congruence, not the geodesic's, goes below zero.
    assert np.isfinite(geometric_mean(*_wide_pair(seed))).all()


def test_geodesic_clamps_congruence_round_off(tmp_path, capsys):
    # The CLI used to write NaN and exit 0.
    pair = _wide_pair(1)
    assert np.isfinite(geodesic(*pair, 0.5)).all()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, mat in zip(paths, pair):
        path.write_text(dumps_canonical(matrix_to_json_dict(mat)))
    assert main(["geodesic", *map(str, paths), "--t", "0.5"]) == 0
    assert "NaN" not in capsys.readouterr().out
