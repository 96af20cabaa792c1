import numpy as np
import pytest

from wassmean import _kernels, barycenter, checks, products
from wassmean.barycenter import Ensemble
from wassmean.hermitian import frobenius
from wassmean.products import PositiveMapSpec, _pairs, ensemble_tensor
from wassmean.seeded import random_ensemble, random_isometry_map, random_spd


def _rand_complex(m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def _ando(m):
    """The Ando compression: the m^2 -> m map whose columns are e_i (x) e_i."""
    z = np.zeros((m * m, m), dtype=complex)
    z[np.arange(m) * (m + 1), np.arange(m)] = 1.0
    return PositiveMapSpec(kind="ando", isometry=z)


def _compress(phi, a):
    """V* a V for the map's isometry V, by the suite's compression of a group."""
    stack = np.asarray(a, dtype=complex)[None, None]
    return checks._Maps(phi.kind, phi.isometry[None]).compress(stack)[0, 0]


def test_kron_identity_block():
    b = _rand_complex(2, 0)
    got = np.kron(np.eye(2), b)
    expected = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
    assert np.allclose(got, expected)


def test_kron_diagonal():
    got = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_mixed_product():
    a, b, c, d = (_rand_complex(3, s) for s in range(4))
    lhs = np.kron(a, b) @ np.kron(c, d)
    rhs = np.kron(a @ c, b @ d)
    assert frobenius(lhs - rhs) <= 1e-10 * max(1.0, frobenius(rhs))


def test_kron_power_commutes():
    a = random_spd(3, seed=1, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(3, seed=2, eig_lo=0.5, eig_hi=2.0)
    for t in (-1.0, -0.5, 0.5, 2.0):
        lhs = _kernels.spd_power(np.kron(a, b), t)
        rhs = np.kron(_kernels.spd_power(a, t), _kernels.spd_power(b, t))
        assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(rhs))


def test_kron_of_spd_is_spd():
    for seed in range(10):
        a = random_spd(3, seed=seed, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(2, seed=seed + 100, eig_lo=0.5, eig_hi=2.0)
        assert np.linalg.eigvalsh(np.kron(a, b))[0] > 0


def test_hadamard_ones_identity():
    a = _rand_complex(3, 5)
    assert np.allclose(a * np.ones((3, 3)), a)


def test_hadamard_explicit():
    got = np.array([[1.0, 2.0], [3.0, 4.0]]) * np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.allclose(got, [[5.0, 12.0], [21.0, 32.0]])


def test_hadamard_of_spd_is_spd():
    for seed in range(100):
        a = random_spd(4, seed=seed, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(4, seed=seed + 1000, eig_lo=0.5, eig_hi=2.0)
        assert np.linalg.eigvalsh(a * b)[0] > 0


def test_hadamard_algebra():
    a, b, c = (_rand_complex(3, s + 20) for s in range(3))
    assert frobenius(a * b - b * a) <= 1e-13
    assert frobenius((a * b) * c - a * (b * c)) <= 1e-13
    lhs = (a + 2 * c) * b
    rhs = a * b + 2 * (c * b)
    assert frobenius(lhs - rhs) <= 1e-13 * max(1.0, frobenius(rhs))


def _pair_weights(w, u):
    """The pair weights ``_pairs`` gives two ensembles of weights w and u."""
    return _pairs(*(checks._Ensembles(v, np.ones((len(v), 1, 1))) for v in (w, u)), np.multiply)[0]


def test_pair_weights_trivial():
    assert np.allclose(_pair_weights(np.array([1.0]), np.array([1.0])), [1.0])


def test_pair_weights_explicit_order():
    got = _pair_weights(np.array([0.5, 0.5]), np.array([1 / 3, 2 / 3]))
    assert np.allclose(got, [1 / 6, 1 / 3, 1 / 6, 1 / 3])


def test_pair_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.uniform(0.2, 1.0, 3)
        u = rng.uniform(0.2, 1.0, 4)
        out = _pair_weights(w / w.sum(), u / u.sum())
        assert abs(out.sum() - 1.0) <= 1e-12


def test_ensemble_tensor_refuses_a_non_ensemble_by_name():
    # It used to leak AttributeError: 'int' object has no attribute 'matrices'.
    e = Ensemble(weights=[1.0], matrices=[np.eye(2)])
    for args, message in (
        ((e, 5), "b: expected Ensemble, got int"),
        ((5, e), "a: expected Ensemble, got int"),
        (([np.eye(2)], e), "a: expected Ensemble, got list"),
    ):
        with pytest.raises(TypeError) as err:
            ensemble_tensor(*args)
        assert str(err.value) == message


def test_ensemble_tensor_singletons():
    a = random_spd(2, seed=3, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(2, seed=4, eig_lo=0.5, eig_hi=2.0)
    out = ensemble_tensor(Ensemble(weights=[1.0], matrices=[a]),
                          Ensemble(weights=[1.0], matrices=[b]))
    assert out.size == 1
    assert np.allclose(out.matrices[0], np.kron(a, b))


def test_ensemble_tensor_identity_embedding():
    e = Ensemble(weights=[0.5, 0.5],
                 matrices=[np.eye(2, dtype=complex), 4 * np.eye(2, dtype=complex)])
    single = Ensemble(weights=[1.0], matrices=[np.eye(2, dtype=complex)])
    out = ensemble_tensor(e, single)
    assert np.allclose(out.weights, [0.5, 0.5])
    assert np.allclose(out.matrices[0], np.eye(4))
    assert np.allclose(out.matrices[1], 4 * np.eye(4))


def test_ensemble_tensor_pairing_tracks_permutation():
    mats_a = [random_spd(2, seed=s, eig_lo=0.5, eig_hi=2.0) for s in (10, 11, 12)]
    mats_b = [random_spd(2, seed=s, eig_lo=0.5, eig_hi=2.0) for s in (20, 21)]
    wa = np.array([0.2, 0.3, 0.5])
    wb = np.array([0.4, 0.6])
    a = Ensemble(weights=wa, matrices=mats_a)
    b = Ensemble(weights=wb, matrices=mats_b)
    out = ensemble_tensor(a, b)
    # Weight at flat index i*len(b) + j must pair with A_i (x) B_j.
    for i in range(3):
        for j in range(2):
            flat = i * 2 + j
            assert out.weights[flat] == pytest.approx(wa[i] * wb[j])
            assert np.allclose(out.matrices[flat], np.kron(mats_a[i], mats_b[j]))
    perm = [2, 0, 1]
    shuffled = ensemble_tensor(
        Ensemble(weights=wa[perm], matrices=[mats_a[i] for i in perm]), b
    )
    for i, src in enumerate(perm):
        for j in range(2):
            assert np.allclose(shuffled.matrices[i * 2 + j],
                               out.matrices[src * 2 + j])
            assert shuffled.weights[i * 2 + j] == pytest.approx(
                out.weights[src * 2 + j]
            )


def test_diagonal_compression_selects_diagonal_blocks():
    got = _compress(_ando(2), np.diag([3.0, 4.0, 6.0, 8.0]))
    assert np.allclose(got, np.diag([3.0, 8.0]))


def test_diagonal_compression_unital():
    for m in (2, 3, 4):
        assert np.allclose(_compress(_ando(m), np.eye(m * m)), np.eye(m))


def test_diagonal_compression_turns_kron_into_hadamard():
    for seed in range(10):
        a = random_spd(3, seed=seed + 40, eig_lo=0.5, eig_hi=2.0)
        b = random_spd(3, seed=seed + 50, eig_lo=0.5, eig_hi=2.0)
        got = _compress(_ando(3), np.kron(a, b))
        assert frobenius(got - a * b) <= 1e-12


def test_compress_identity_isometry():
    phi = PositiveMapSpec(kind="isometry", isometry=np.eye(3, dtype=complex))
    a = random_spd(3, seed=9, eig_lo=0.5, eig_hi=2.0)
    assert np.allclose(_compress(phi, a), a)


def test_compress_unitality_invariant():
    for seed in range(5):
        phi = random_isometry_map(4, 2, seed=seed)
        assert np.allclose(_compress(phi, np.eye(4, dtype=complex)), np.eye(2), atol=1e-12)


def test_compress_preserves_positivity_and_interlaces():
    for seed in range(20):
        phi = random_isometry_map(4, 2, seed=seed + 60)
        a = random_spd(4, seed=seed + 70, eig_lo=0.5, eig_hi=2.0)
        out = _compress(phi, a)
        assert np.linalg.eigvalsh(out)[0] >= np.linalg.eigvalsh(a)[0] - 1e-12


def test_random_isometry_square_is_unitary():
    phi = random_isometry_map(3, 3, seed=2)
    v = phi.isometry
    assert frobenius(v @ v.conj().T - np.eye(3)) <= 1e-12


def test_random_isometry_columns_orthonormal():
    for seed in range(10):
        phi = random_isometry_map(5, 3, seed=seed)
        v = phi.isometry
        assert frobenius(v.conj().T @ v - np.eye(3)) <= 1e-12


def test_random_isometry_deterministic():
    a = random_isometry_map(4, 2, seed=8)
    b = random_isometry_map(4, 2, seed=8)
    assert np.array_equal(a.isometry, b.isometry)


def test_random_isometry_rejects_wide():
    with pytest.raises(ValueError, match="exceeds"):
        random_isometry_map(2, 3, seed=0)


def test_random_isometry_refuses_a_negative_target_dimension():
    # It used to return a 3 x 2 isometry.
    with pytest.raises(ValueError, match=r"^k: must be positive"):
        random_isometry_map(3, -1, 0)


def test_maps_refuse_fractional_dimensions_by_name():
    # It used to raise TypeError.
    with pytest.raises(ValueError, match=r"^k: expected an integer, got 2.5"):
        random_isometry_map(3, 2.5, 0)


def test_map_spec_rejects_non_isometry():
    with pytest.raises(ValueError, match="V\\*V"):
        PositiveMapSpec(kind="isometry", isometry=2 * np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="kind"):
        PositiveMapSpec(kind="kraus", isometry=np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match=r"^isometry: expected a tall s x k matrix, got \(2, 3\)$"):
        PositiveMapSpec(kind="isometry", isometry=np.eye(3)[:2])


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_map_spec_rejects_a_non_finite_isometry(entry):
    # ||V*V - I||_F > tol is False for NaN, so the Gram test alone passes it.
    v = np.eye(3, 2, dtype=complex)
    v[2, 0] = entry
    with pytest.raises(ValueError, match="^isometry: entries must be finite"):
        PositiveMapSpec(kind="isometry", isometry=v)


def test_ensemble_tensor_validates_only_the_product_weights(monkeypatch):
    a = Ensemble(weights=[0.2, 0.8], matrices=[random_spd(2, s, 0.5, 2.0) for s in (1, 2)])
    b = Ensemble(weights=[0.3, 0.3, 0.4], matrices=[random_spd(2, s, 0.5, 2.0) for s in (3, 4, 5)])
    names = []
    validate_weights = barycenter.validate_weights

    def counted(w, name="weights"):
        names.append(name)
        return validate_weights(w, name=name)

    # products binds no validate_weights today; one added later is counted too.
    for module in (barycenter, products):
        monkeypatch.setattr(module, "validate_weights", counted, raising=False)
    tensored = ensemble_tensor(a, b)
    assert names == ["weights"]
    # Bit for bit the pair order of _pairs: second index fastest.
    assert np.array_equal(tensored.weights, np.outer(a.weights, b.weights).ravel())


@pytest.mark.parametrize("product, pair", [(_kernels.kron, np.kron), (np.multiply, np.multiply)])
def test_pairs_follow_the_explicit_double_loop_bitwise(product, pair):
    # Entry i*k + j pairs A_i with B_j, for one case and for each case of a
    # stack, with weight w_i u_j.
    cases = [
        (random_ensemble(2, 2, seed), random_ensemble(2, 3, seed + 50)) for seed in range(3)
    ]
    for a, b in cases:
        weights, mats = _pairs(a, b, product)
        assert weights.tobytes() == np.array(
            [w * u for w in a.weights for u in b.weights]
        ).tobytes()
        assert mats.tobytes() == np.array(
            [pair(x, y) for x in a.matrices for y in b.matrices]
        ).tobytes()
    stacked = _pairs(checks._stack([a for a, _ in cases]), checks._stack([b for _, b in cases]),
                     product)
    for s, (a, b) in enumerate(cases):
        for got, want in zip(stacked, _pairs(a, b, product)):
            assert got[s].tobytes() == want.tobytes()
