import numpy as np
import pytest

from wassmean import _kernels, barycenter
from wassmean.bures import bw_distance
from wassmean.hermitian import (
    SPD_FLOOR,
    _loewner_verdicts,
    ToleranceConfig,
    as_complex_matrix,
    frobenius,
    hermitianize,
    loewner_leq,
    require_hermitian,
    require_spd,
    require_spd_pair,
    require_spd_stack,
)
from wassmean.seeded import (
    _COMMUTING,
    _GINIBRE,
    _Draw,
    _ginibre,
    _haar_unitaries,
    _key,
    _normals,
    _seeded_draws,
    _uniforms,
    random_commuting_spds,
    random_spd,
    random_unitary,
)


def test_spd_power_scalar_half():
    assert np.allclose(_kernels.spd_power(4 * np.eye(2), 0.5), 2 * np.eye(2))


def test_spd_power_diagonal_half():
    got = _kernels.spd_power(np.diag([1.0, 4.0, 9.0]), 0.5)
    assert np.allclose(got, np.diag([1.0, 2.0, 3.0]), atol=1e-12)


def test_spd_power_half_round_trip():
    a = random_spd(4, seed=7, eig_lo=0.5, eig_hi=2.0)
    back = _kernels.spd_power(_kernels.spd_power(a, 0.5), 2.0)
    assert frobenius(back - a) <= 1e-10 * frobenius(a)


def test_spd_power_endpoints():
    a = random_spd(3, seed=3, eig_lo=0.5, eig_hi=2.0)
    assert np.allclose(_kernels.spd_power(a, 1.0), a, atol=1e-13)
    assert np.allclose(_kernels.spd_power(a, 0.0), np.eye(3), atol=1e-13)


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0, 2.0])
def test_spd_power_group_law(s, t):
    a = random_spd(4, seed=11, eig_lo=0.5, eig_hi=2.0)
    combined = _kernels.spd_power(a, s + t)
    split = _kernels.spd_power(a, s) @ _kernels.spd_power(a, t)
    assert frobenius(combined - split) <= 1e-9 * max(1.0, frobenius(combined))


def test_spd_power_sqrt_identity_and_scalar():
    assert np.allclose(_kernels.spd_power(np.eye(3), 0.5), np.eye(3))
    assert np.allclose(_kernels.spd_power(9 * np.eye(3), 0.5), 3 * np.eye(3))


def test_spd_power_sqrt_multiply_back():
    a = random_spd(6, seed=1, eig_lo=0.5, eig_hi=2.0)
    r = _kernels.spd_power(a, 0.5)
    assert frobenius(r @ r - a) <= 1e-10 * frobenius(a)


def test_loewner_ordered_pair():
    res = loewner_leq(np.eye(2), 2 * np.eye(2))
    assert res.holds
    assert res.margin == pytest.approx(1.0)


def test_loewner_reversed_pair():
    res = loewner_leq(2 * np.eye(2), np.eye(2))
    assert not res.holds
    assert res.margin == pytest.approx(-1.0)


def test_loewner_reflexive():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (g + g.conj().T) * 0.5
    res = loewner_leq(a, a)
    assert res.holds
    assert res.margin == 0.0


def test_loewner_antisymmetric_up_to_tolerance():
    cfg = ToleranceConfig()
    for seed in range(20):
        a = random_spd(3, seed=seed, eig_lo=0.5, eig_hi=2.0)
        b = a + 1e-12 * np.eye(3)
        if loewner_leq(a, b, cfg).holds and loewner_leq(b, a, cfg).holds:
            scale = cfg.loewner_scale(a, b)
            assert frobenius(a - b) <= 10 * cfg.loewner_tol * scale


def test_loewner_transitive_on_chains():
    rng = np.random.default_rng(0)
    for seed in range(20):
        a = random_spd(3, seed=seed, eig_lo=0.5, eig_hi=2.0)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = hermitianize(v @ v.conj().T)
        b = a + 0.5 * p
        c = b + 0.25 * p
        assert loewner_leq(a, b).holds
        assert loewner_leq(b, c).holds
        assert loewner_leq(a, c).holds


@pytest.mark.parametrize("a, b", [(2 * np.eye(2), np.eye(2)), (np.eye(2), 2 * np.eye(2))])
def test_loewner_refuses_a_tolerance_that_is_not_a_config(a, b):
    # A float cfg raised an AttributeError on a failing pair and was
    # ignored, with holds=True, on a holding one.
    with pytest.raises(TypeError, match="^cfg: expected ToleranceConfig, got float$"):
        loewner_leq(a, b, 0.1)


def test_loewner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        loewner_leq(np.eye(2), np.eye(3))


def test_validators_reject_a_matrix_whose_norm_overflows():
    # Entries above about 1.3e154 overflow max(1, ||a||_F) to inf: the SPD
    # floor became inf, and the Hermitian limit let any asymmetry through.
    with pytest.raises(ValueError, match=r"^matrix: Frobenius norm overflows$"):
        require_spd(1e160 * np.eye(2))
    with pytest.raises(ValueError, match=r"^rhs: Frobenius norm overflows$"):
        loewner_leq(np.eye(2), np.diag([1e160, 1.0]))
    # In index order with the other rules: a non-Hermitian matrix before it
    # is named first, and a stack stops at it.
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^matrices\[0\]: not Hermitian"):
        require_spd_stack([bad, 1e160 * np.eye(2)])
    with pytest.raises(ValueError, match=r"^matrices\[1\]: Frobenius norm overflows$"):
        require_spd_stack([np.eye(2), 1e160 * np.eye(2), np.full((2, 2), np.nan)])
    # Norms that do not overflow keep their verdicts.
    assert np.array_equal(require_spd(1e150 * np.eye(2)), 1e150 * np.eye(2))


def test_loewner_verdict_fails_a_negative_margin_at_an_overflowing_scale():
    big, bigger = 1e160 * np.eye(2, dtype=complex), 2e160 * np.eye(2, dtype=complex)
    ((reversed_pair,), (ordered_pair,)) = _loewner_verdicts(
        [(np.stack([bigger, big]), np.stack([big, bigger]))]
    )
    assert not reversed_pair.holds and reversed_pair.margin == -1e160
    assert ordered_pair.holds and ordered_pair.margin == 1e160


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9, 1e-12])
def test_loewner_tolerance_has_no_absolute_floor(c):
    # c I <= c/2 I is false at every scale. Under a tolerance of
    # loewner_tol * max(1, ||A||_F, ||B||_F) its margin -c/2 passed below
    # c = 2e-9, where the floor 1 made the tolerance an absolute 1e-9.
    eye = np.eye(3)
    refused = loewner_leq(c * eye, c / 2 * eye)
    assert not refused.holds and refused.margin == -c / 2
    assert loewner_leq(c / 2 * eye, c * eye).holds


def test_log_det_identity_and_diag():
    assert _kernels.log_det(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert _kernels.log_det(np.diag([np.e, np.e**2])) == pytest.approx(3.0, rel=1e-12)


def test_log_det_kronecker_identity():
    # det(A (x) B) = det(A)^s det(B)^m for A m x m, B s x s.
    a = random_spd(3, seed=21, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(3, seed=22, eig_lo=0.5, eig_hi=2.0)
    lhs = _kernels.log_det(np.kron(a, b))
    rhs = 3 * _kernels.log_det(a) + 3 * _kernels.log_det(b)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_random_spd_degenerate_spectrum_is_identity():
    assert np.allclose(random_spd(3, seed=0, eig_lo=1.0, eig_hi=1.0),
                       np.eye(3), atol=1e-12)


def test_random_spd_deterministic():
    a = random_spd(4, seed=42, eig_lo=0.5, eig_hi=2.0)
    b = random_spd(4, seed=42, eig_lo=0.5, eig_hi=2.0)
    assert np.array_equal(a, b)


def test_random_spd_respects_spectrum_range():
    eigs = np.linalg.eigvalsh(random_spd(5, seed=7, eig_lo=0.1, eig_hi=10.0))
    assert eigs[0] >= 0.1 - 1e-12
    assert eigs[-1] <= 10.0 + 1e-12


def _reference_spd(m, seed, eig_lo, eig_hi):
    # One matrix at a time from its own stream: the Box-Muller normals of its
    # first 2 m^2 uniforms as the real, then imaginary parts of the Ginibre
    # matrix, whose QR with the R-diagonal phases folded in is the eigenbasis;
    # then the uniform spectrum from the next m.
    u = _uniforms([_key(_GINIBRE, seed)], 2 * m * m + m)[0]
    z = _normals(u[: 2 * m * m])
    q, r = np.linalg.qr(z[: m * m].reshape(m, m) + 1j * z[m * m :].reshape(m, m))
    d = np.diagonal(r)
    v = q * (d / np.abs(d))
    lam = eig_lo + (eig_hi - eig_lo) * u[2 * m * m :]
    return hermitianize(np.ascontiguousarray((v * lam) @ v.conj().T))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9])
def test_stacked_generation_equals_per_matrix_draws_bitwise(m, n):
    seeds = [1_000_003 * j + 12345 for j in range(n)]
    reference = np.stack([_reference_spd(m, s, 0.5, 2.0) for s in seeds])
    stacked = np.stack(_seeded_draws([_Draw(m, s, (0.5, 2.0)) for s in seeds]))
    assert stacked.shape == (n, m, m)
    assert stacked.tobytes() == reference.tobytes()
    singles = np.stack([random_spd(m, s, 0.5, 2.0) for s in seeds])
    assert singles.tobytes() == reference.tobytes()


def test_require_spd_stack_takes_an_array_as_it_stands():
    mats = np.stack([random_spd(3, seed=s, eig_lo=0.5, eig_hi=2.0) for s in range(4)])
    from_array = require_spd_stack(mats)
    assert from_array.tobytes() == require_spd_stack(list(mats)).tobytes()
    assert not np.shares_memory(from_array, mats)
    bad = mats.copy()
    bad[2] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match=r"matrices\[2\]: not positive definite"):
        require_spd_stack(bad)
    with pytest.raises(ValueError, match="^matrices: empty stack"):
        require_spd_stack(np.zeros((0, 3, 3)))
    with pytest.raises(ValueError, match="expected square matrix"):
        require_spd_stack(np.ones((2, 3, 2)))


def test_require_spd_stack_reports_an_empty_list():
    # No matrix at all is not a mix of dimensions.
    with pytest.raises(ValueError) as err:
        require_spd_stack([], name="mats")
    assert str(err.value) == "mats: empty stack, expected at least one matrix"


def test_random_spd_rejects_bad_range():
    with pytest.raises(ValueError, match="range"):
        random_spd(3, seed=0, eig_lo=2.0, eig_hi=1.0)
    with pytest.raises(ValueError, match="range"):
        random_spd(3, seed=0, eig_lo=-1.0, eig_hi=1.0)
    with pytest.raises(ValueError, match="range"):
        random_commuting_spds(3, 2, seed=0, eig_lo=2.0, eig_hi=1.0)


def test_random_spd_refuses_each_bad_spectrum_edge_by_name():
    with pytest.raises(ValueError, match=r"^eig_hi: expected a finite number"):
        random_spd(3, seed=0, eig_lo=0.5, eig_hi=float("inf"))
    with pytest.raises(ValueError, match=r"^eig_lo: expected a finite number"):
        random_commuting_spds(3, 2, seed=0, eig_lo=float("nan"), eig_hi=1.0)
    with pytest.raises(ValueError, match=r"^m: expected an integer"):
        random_spd(2.0, seed=0, eig_lo=0.5, eig_hi=2.0)
    with pytest.raises(ValueError, match=r"^count: must be positive"):
        random_commuting_spds(3, 0, seed=0, eig_lo=0.5, eig_hi=2.0)


def _reference_commuting_spds(m, count, seed, eig_lo, eig_hi):
    # One matrix at a time: each spectrum the next m uniforms of the seed's
    # commuting-spectra stream, the eigenbasis the seed's unitary.
    u = random_unitary(m, seed)
    draws = _uniforms([_key(_COMMUTING, seed)], count * m)[0]
    out = []
    for j in range(count):
        lam = eig_lo + (eig_hi - eig_lo) * draws[j * m : (j + 1) * m]
        out.append(hermitianize(np.ascontiguousarray((u * lam) @ u.conj().T)))
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 17, 33])
@pytest.mark.parametrize("count", [1, 2, 4, 9])
def test_commuting_family_equals_per_matrix_draws_bitwise(m, count):
    for seed in (0, 12345):
        family = random_commuting_spds(m, count, seed, 0.5, 2.0)
        reference = _reference_commuting_spds(m, count, seed, 0.5, 2.0)
        assert family.shape == (count, m, m)
        assert family.tobytes() == np.stack(reference).tobytes()


def test_random_commuting_family_commutes():
    mats = random_commuting_spds(4, 3, seed=5, eig_lo=0.5, eig_hi=2.0)
    for i in range(3):
        for j in range(i + 1, 3):
            comm = frobenius(mats[i] @ mats[j] - mats[j] @ mats[i])
            assert comm <= 1e-10 * frobenius(mats[i]) * frobenius(mats[j])


def test_require_hermitian_rejects_asymmetry():
    bad = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(bad)


def test_require_spd_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive definite"):
        require_spd(np.diag([1.0, -1.0]))


def test_require_spd_rejects_boundary():
    with pytest.raises(ValueError, match="not positive definite"):
        require_spd(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="^matrix: empty matrix$"):
        require_spd(np.zeros((0, 0)))


def test_require_rejects_nonfinite():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        require_hermitian(bad)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(loewner_tol=0.0)


def test_residual_tol_is_a_class_constant():
    assert ToleranceConfig().residual_tol == ToleranceConfig.residual_tol == 1e-10
    with pytest.raises(TypeError):
        ToleranceConfig(residual_tol=1e-9)


@pytest.mark.parametrize("field", ["loewner_tol"])
@pytest.mark.parametrize("value", [
    0.0, -1.0, float("inf"), float("nan"), True, "1e-9",
    pytest.param(10**400, id="int_too_large_for_a_float"),
])
def test_tolerance_config_rejects_each_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: "):
        ToleranceConfig(**{field: value})


def test_infinite_loewner_tol_cannot_put_5i_below_i():
    # Under an infinite tolerance, 5I <= I would hold with margin -4.
    with pytest.raises(ValueError, match="^loewner_tol: expected a finite number"):
        loewner_leq(5 * np.eye(2), np.eye(2), ToleranceConfig(loewner_tol=float("inf")))


def test_unitary_is_unitary():
    u = random_unitary(5, seed=13)
    assert frobenius(u @ u.conj().T - np.eye(5)) <= 1e-12


def test_require_spd_stack_names_a_later_non_finite_matrix_without_a_float_error():
    # The norm of a matrix with an infinite entry multiplies inf by 0; that
    # invalid operation must not surface before the validator's own error.
    mats = np.stack([np.eye(2), np.diag([np.inf, 1.0])]).astype(complex)
    with np.errstate(invalid="raise"), pytest.raises(
        ValueError, match=r"^matrices\[1\]: entries must be finite"
    ):
        require_spd_stack(mats)


def _refusal(validate, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        validate(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("m", [2, 8, 32])
@pytest.mark.parametrize("rel", [1 - 1e-3, 1 + 1e-3])
def test_cholesky_proof_keeps_the_eigenvalue_verdict_at_the_floor(m, rel):
    # The smallest eigenvalue at floor * (1 -+ 1e-3), as a diagonal matrix
    # and rotated by a Haar unitary: the Cholesky proof accepts what the
    # smallest eigenvalue clears, and a refusal names that eigenvalue as
    # the eigvalsh rule did.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = _haar_unitaries(_ginibre(rng.standard_normal((2, m, m))))
        rest = rng.uniform(0.5, 2.0, m - 1)
        floor = SPD_FLOOR * max(1.0, np.sqrt((rest**2).sum()))
        lam = np.concatenate([[rel * floor], rest])
        for a in (np.diag(lam).astype(complex), _kernels._from_spectrum(u, lam)):
            min_eig = np.linalg.eigvalsh(a)[0]
            floor_a = SPD_FLOOR * max(1.0, frobenius(a))
            assert (min_eig > floor_a) == (rel > 1)
            if rel > 1:
                assert np.array_equal(require_spd(a), a)
            else:
                assert _refusal(require_spd, a) == (
                    f"matrix: not positive definite "
                    f"(min eigenvalue {min_eig:.3e} <= floor {floor_a:.3e})"
                )


@pytest.mark.parametrize("m", [2, 32])
def test_cholesky_proof_edge_inputs(m):
    # A floor of 1e-12 * 1e150 sqrt(m) is far above 1: a proof by a shifted
    # factor must not lose it to round-off, and a sentinel above the floor
    # would (floor + 1 == floor at that scale).
    eye = np.eye(m, dtype=complex)
    for big in (1e150, 1e153):
        assert np.array_equal(require_spd(big * eye), big * eye)
    assert _refusal(require_spd, 1e-150 * eye) == (
        "matrix: not positive definite (min eigenvalue 1.000e-150 <= floor 1.000e-12)"
    )
    assert _refusal(require_spd, 1e160 * eye) == "matrix: Frobenius norm overflows"
    for value in (np.nan, np.inf):
        bad = eye.copy()
        bad[-1, -1] = value
        assert _refusal(require_spd, bad) == "matrix: entries must be finite (found NaN/Inf)"


def test_first_offender_of_a_mixed_stack_is_named():
    asym = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    indefinite = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    assert _refusal(require_spd_stack, [asym, indefinite]).startswith("matrices[0]: not Hermitian")
    assert _refusal(require_spd_stack, [indefinite, asym]) == (
        "matrices[0]: not positive definite (min eigenvalue -1.000e+00 <= floor 1.414e-12)"
    )
    assert _refusal(require_spd_stack, [eye, indefinite, asym]).startswith(
        "matrices[1]: not positive definite"
    )
    assert _refusal(require_spd_stack, [eye, asym, indefinite]).startswith(
        "matrices[1]: not Hermitian"
    )


_GOOD = random_spd(3, seed=5, eig_lo=0.5, eig_hi=2.0)
_BAD = {
    "not_hermitian": np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "indefinite": np.diag([1.0, -1.0, 2.0]),
    "singular": np.diag([1.0, 0.0, 2.0]),
    "non_finite": np.diag([1.0, np.nan, 2.0]),
    "overflow": 1e160 * np.eye(3),
    "not_square": np.ones((3, 2)),
    "ndim": np.ones(3),
    "not_a_number": [["x", "y", "z"]] * 3,
}


@pytest.mark.parametrize("kind", sorted(_BAD))
def test_pair_path_gives_the_per_matrix_messages(kind):
    # Whether a pair is validated as one 2-stack or matrix by matrix, each
    # refusal reads as require_spd's on the offending matrix, and a bad
    # first matrix is named before a bad second one.
    bad = _BAD[kind]
    first = _refusal(require_spd, bad, name="first matrix")
    second = _refusal(require_spd, bad, name="second matrix")
    assert first.replace("first", "second") == second
    assert _refusal(require_spd_pair, bad, _GOOD) == first
    assert _refusal(require_spd_pair, _GOOD, bad) == second
    assert _refusal(require_spd_pair, bad, bad) == first
    assert _refusal(require_spd_pair, bad, _BAD["indefinite"]) == first


def test_pair_path_keeps_the_dimension_mismatch_message():
    assert _refusal(require_spd_pair, np.eye(3), np.eye(4)) == "dimension mismatch: (3, 3) vs (4, 4)"
    assert _refusal(require_spd_pair, np.eye(3), np.diag([1.0, -1.0, 1.0, 1.0])).startswith(
        "second matrix: not positive definite"
    )
    am, bm = require_spd_pair(_GOOD, 2 * _GOOD)
    assert np.array_equal(am, require_spd(_GOOD)) and np.array_equal(bm, require_spd(2 * _GOOD))


# Arguments numpy cannot convert to a complex array; each used to leak
# numpy's own error, which names no argument (an OverflowError, a TypeError,
# "complex() arg is a malformed string", an inhomogeneous shape). Each maps to
# the end of its message after the argument's name.
_UNCONVERTIBLE = {
    "too_large": ([[10**400]], "[0][0]: expected a number, got one too large for a float"),
    "not_a_number": ([[{}]], "[0][0]: expected a number, got {}"),
    "malformed_string": ("ab", ": expected a number, got 'ab'"),
    "ragged": ([[1.0, 0.0], [0.0]], ": expected a rectangular array of numbers"),
}


@pytest.mark.parametrize("kind", sorted(_UNCONVERTIBLE))
def test_a_matrix_numpy_cannot_convert_is_refused_by_name(kind):
    bad, tail = _UNCONVERTIBLE[kind]
    for validate in (require_spd, require_hermitian, as_complex_matrix):
        assert _refusal(validate, bad, name="a") == f"a{tail}"
    first = _refusal(require_spd, bad, name="first matrix")
    assert _refusal(require_spd_pair, bad, _GOOD) == first
    assert _refusal(require_spd_pair, _GOOD, bad) == first.replace("first", "second")
    assert _refusal(require_spd_stack, [_GOOD, bad]) == first.replace("first matrix", "matrices[1]")


def test_an_unconvertible_matrix_is_named_after_an_earlier_offender():
    # Each matrix is validated alone, in index order, before the mix of a
    # matrix and a string is refused.
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^matrices\[0\]: not Hermitian"):
        barycenter.Ensemble(weights=[0.5, 0.5], matrices=[asym, "ab"])
    with pytest.raises(ValueError, match=r"^matrices\[1\]: expected a number, got 'ab'$"):
        barycenter.Ensemble(weights=[0.5, 0.5], matrices=[np.eye(2), "ab"])
    with pytest.raises(ValueError, match=r"^first matrix: not Hermitian"):
        require_spd_pair(asym, [[{}]])
    # An array is converted as it stands, an object array too.
    assert _refusal(require_spd_stack, np.full((1, 2, 2), "x", dtype=object)) == (
        "matrices[0][0][0]: expected a number, got 'x'"
    )


# Arguments numpy converts but that hold no numbers: each used to pass as
# the matrix numpy made of it ('1' and True as 1), and a None as NaN. Each
# maps to the end of its message after the argument's name.
_NOT_NUMBERS = {
    "strings": ([["1", "0"], ["0", "1"]], "[0][0]: expected a number, got '1'"),
    "bools": ([[True, False], [False, True]], "[0][0]: expected a number, got True"),
    "bool_array": (np.eye(2, dtype=bool), "[0][0]: expected a number, got True"),
    "none": ([[None, 0], [0, 1]], "[0][0]: expected a number, got None"),
    "object_strings": (np.array([["1", "0"], ["0", "1"]], dtype=object),
                       "[0][0]: expected a number, got '1'"),
}


@pytest.mark.parametrize("kind", sorted(_NOT_NUMBERS))
def test_a_matrix_of_what_is_not_a_number_is_refused_by_name(kind):
    bad, tail = _NOT_NUMBERS[kind]
    for validate in (require_spd, require_hermitian, as_complex_matrix):
        assert _refusal(validate, bad, name="a") == f"a{tail}"
    assert _refusal(require_spd_pair, bad, np.eye(2)) == f"first matrix{tail}"
    assert _refusal(require_spd_stack, [bad]) == f"matrices[0]{tail}"
    assert _refusal(barycenter.Ensemble, weights=[1.0], matrices=[bad]) == f"matrices[0]{tail}"


def test_the_distance_refuses_a_matrix_of_strings():
    # It used to read [['1', '0'], ['0', '1']] as I and return 0.0.
    assert _refusal(bw_distance, [["1", "0"], ["0", "1"]], np.eye(2)) == (
        "first matrix[0][0]: expected a number, got '1'"
    )


def test_numbers_of_every_numeric_dtype_and_wide_ints_still_convert():
    # Integer, unsigned, float and complex arrays and an object array of
    # Python numbers are accepted, as is an int beyond 64 bits that fits a
    # float; a complex128 array is used as it stands.
    eye = np.eye(2, dtype=complex)
    for dtype in (np.int8, np.uint64, np.float16, np.float64, np.complex64, object):
        assert np.array_equal(require_spd(np.eye(2, dtype=dtype)), eye)
    wide = require_spd([[2**70, 0], [0, 2**70]])
    assert wide.dtype == np.complex128 and wide[0, 0] == 2.0**70
    assert as_complex_matrix(eye) is eye


def test_object_and_wide_int_matrices_pass_the_pair_and_stack_paths():
    # The pair, the stack and the Ensemble convert each matrix on its own, so
    # an object array of Python numbers (ints beyond 64 bits, Fractions,
    # Decimals) beside a float matrix is stacked, not refused as a mix of
    # shapes.
    from decimal import Decimal
    from fractions import Fraction

    wide = [[2**70, 0], [0, 2**70]]
    ratio = np.array([[Fraction(1, 2), 0], [0, Decimal("1.5")]], dtype=object)
    obj_eye = np.eye(2, dtype=object)
    eye = np.eye(2, dtype=complex)
    first, second = require_spd_pair(wide, obj_eye)
    assert first[0, 0] == 2.0**70 and np.array_equal(second, eye)
    assert np.array_equal(require_spd_pair(obj_eye, np.eye(2))[0], eye)
    assert bw_distance(obj_eye, np.eye(2)) == 0.0
    stack = require_spd_stack([obj_eye, ratio, wide, np.eye(2)])
    assert stack.shape == (4, 2, 2) and np.array_equal(stack[1], np.diag([0.5, 1.5]))
    assert np.array_equal(require_spd_stack(np.stack([obj_eye, ratio])), stack[:2])
    ens = barycenter.Ensemble(weights=[0.5, 0.5], matrices=[wide, obj_eye])
    assert ens.size == 2 and ens.matrices[0, 0, 0] == 2.0**70
    with pytest.raises(ValueError, match=r"^matrices: mixed dimensions \[2, 3\]$"):
        require_spd_stack([obj_eye, np.eye(3, dtype=object)])

def test_several_comparisons_equal_loewner_leq_pair_by_pair():
    # One eigvalsh over the slacks of three comparisons of four cases gives
    # each case's verdicts, in comparison order, as loewner_leq gives them.
    mats = [random_spd(3, seed=s, eig_lo=0.5, eig_hi=2.0) for s in range(8)]
    eye = np.eye(3, dtype=complex)
    comparisons = [
        (np.stack(mats[:4]), np.stack(mats[4:])),
        (np.stack(mats[4:]), np.stack(mats[:4])),
        (np.stack([0.4 * eye] * 4), np.stack(mats[:4])),
    ]
    for cfg in (None, ToleranceConfig(loewner_tol=1e-3)):
        verdicts = _loewner_verdicts(comparisons, cfg)
        assert verdicts == [
            [loewner_leq(lhs[i], rhs[i], cfg) for lhs, rhs in comparisons] for i in range(4)
        ]
        assert {r.holds for case in verdicts for r in case} == {True, False}
