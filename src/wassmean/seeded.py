"""Seeded inputs, each described once, as its request: a ``_Draw`` (a Haar
unitary, or a positive definite matrix of a spectrum range, from its own
``default_rng(seed)`` stream) or an ``_Apply`` of a function to requests and
constants. ``_build`` builds one request; the suite draws a whole window's
requests in one ``_drawn`` call, with one batched QR and phase fold and one
``_kernels._from_spectrum`` per dimension, so a batched input equals its lone
generator's bit for bit. Each public generator checks its arguments and
returns ``_build`` of its request; a request is trusted. Generator output is
positive definite by construction; ``hermitian._spectrum_clears_floor`` is
the rule under which an ensemble of it is stored without validation.
"""

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import _kernels as _k
from . import barycenter as bc
from .hermitian import _real, require_positive
from .products import PositiveMapSpec


def _ginibre(z):
    """Complex Ginibre matrix (or each of a stack) from the (..., 2, m, m)
    standard normals of its real, then imaginary parts."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _haar_unitaries(g):
    """Haar-distributed unitary from a complex Ginibre matrix (or each of a
    stack): its QR factor with the R-diagonal phases folded in."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _require_eig_range(eig_lo, eig_hi):
    """The one spectrum rule of seeded generation: edges that meet
    ``require_positive``, with eig_lo <= eig_hi; returned as floats."""
    try:
        lo, hi = require_positive(eig_lo, "eig_lo"), require_positive(eig_hi, "eig_hi")
    except ValueError as exc:
        raise ValueError(f"{exc} (eigenvalue range [{eig_lo}, {eig_hi}])") from None
    if lo > hi:
        raise ValueError(f"invalid eigenvalue range [{eig_lo}, {eig_hi}]")
    return lo, hi


def _require_seed(seed, signed=False):
    """``seed`` as a plain int (``_real``'s type rule), non-negative unless ``signed``."""
    seed = _real(seed, "seed", "an integer", integer=True)
    if seed < 0 and not signed:
        raise ValueError(f"seed: must be non-negative, got {seed}")
    return seed


class _Draw(NamedTuple):
    """One draw of ``_seeded_draws``, from the stream ``default_rng(seed)``:
    with no ``spectrum``, the Haar unitary of ``random_unitary``; with
    ``spectrum`` = (eig_lo, eig_hi), the matrix of ``random_spd``. Its fields
    are trusted: ``m`` a positive int and ``spectrum`` a range that
    ``_require_eig_range`` accepts."""

    m: int
    seed: int
    spectrum: tuple | None = None


def _seeded_draws(draws):
    """The array of each ``_Draw``, bit for bit what its lone generator
    returns, with one batched QR and phase fold and one ``_from_spectrum``
    for the ``random_spd`` draws per dimension. Each stream is drawn from in
    the order of the lone generator: the Ginibre matrix, then the spectrum."""
    groups = {}
    for i, d in enumerate(draws):
        groups.setdefault(d.m, []).append(i)
    out = [None] * len(draws)
    for m, rows in groups.items():
        # One stream at a time: a window's hundreds of generators, all alive,
        # would set the suite's memory peak.
        normals, lam = np.empty((len(rows), 2, m, m)), {}
        for j, i in enumerate(rows):
            rng = np.random.default_rng(draws[i].seed)
            normals[j] = rng.standard_normal((2, m, m))
            if draws[i].spectrum is not None:
                lam[j] = rng.uniform(*draws[i].spectrum, m)
        units = _haar_unitaries(_ginibre(normals))
        for j, i in enumerate(rows):
            out[i] = units[j]
        if lam:
            for j, a in zip(lam, _k._from_spectrum(units[list(lam)], np.stack(list(lam.values())))):
                out[rows[j]] = a
    return out


def _commuting_stack(u, seed, count, eig_lo, eig_hi):
    """The (count, m, m) stack u diag(lambda_j) u* of the unitary u, with the
    spectra lambda_j the rows of one (count, m) uniform draw in [eig_lo,
    eig_hi] from ``default_rng(seed + 1)``."""
    spectra = np.random.default_rng(seed + 1).uniform(eig_lo, eig_hi, (count, u.shape[0]))
    return _k._from_spectrum(u, spectra)


class _Apply(NamedTuple):
    """The case argument ``fn(*args)``, each request among ``args`` built;
    ``fn`` and ``args`` are hashable."""

    fn: Callable
    args: tuple


def _draws_of(request):
    """The ``_Draw``s that building a case argument takes."""
    if isinstance(request, _Apply):
        return [d for arg in request.args for d in _draws_of(arg)]
    return [request] if isinstance(request, _Draw) else []


def _drawn(draws):
    """Each distinct ``_Draw`` of ``draws`` mapped to its array, all drawn in
    one ``_seeded_draws`` call."""
    unique = list(dict.fromkeys(draws))
    return dict(zip(unique, _seeded_draws(unique)))


def _built(request, drawn):
    """A case argument built from ``drawn``, which maps each ``_Draw`` to its
    array and keeps the value of each distinct ``_Apply``, built once; a
    constant is itself."""
    if isinstance(request, _Apply):
        if request not in drawn:
            # A list: CPython shrinks a tuple made from a generator, and
            # such tuples pile up on its free lists, raising peak memory.
            drawn[request] = request.fn(*[_built(arg, drawn) for arg in request.args])
        return drawn[request]
    return drawn[request] if isinstance(request, _Draw) else request


def _build(request):
    """The one request built alone, from its own draws."""
    return _built(request, _drawn(_draws_of(request)))


def _mix(seed, salt):
    # Distinct deterministic streams per (seed, salt) pair.
    return (int(seed) * 1_000_003 + salt * 7919 + 12345) % (2**63)


def _ensemble(m, n, seed, spectrum, commuting=False):
    """The request of ``random_ensemble(m, n, seed, *spectrum, commuting)``,
    its arguments trusted."""
    if commuting:
        mats = [_commuting(m, _mix(seed, 11), n, spectrum)]
    else:
        mats = [_Draw(m, _mix(seed, 13 + j), spectrum) for j in range(n)]
    return _Apply(_seeded_ensemble, (_mix(seed, 17), spectrum, *mats))


def _commuting(m, seed, count, spectrum):
    """The request of ``random_commuting_spds(m, count, seed, *spectrum)``."""
    return _Apply(_commuting_stack, (_Draw(m, seed), seed, count, *spectrum))


def _random_weights(n, seed):
    """Strictly positive normalized weights, deterministic per seed; trusted
    arguments only (a request's count and seed)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def _seeded_ensemble(weight_seed, spectrum, *mats):
    """The ensemble of a commuting stack, or of n matrices, and seeded weights."""
    stack = mats[0] if mats[0].ndim == 3 else np.stack(mats)
    return bc.Ensemble._generated(_random_weights(len(stack), weight_seed), stack, *spectrum)


def _isometry(s, k, seed):
    """The request of ``random_isometry_map(s, k, seed)``."""
    return _Apply(_isometry_map, (_Draw(s, seed), k))


def _isometry_map(u, k):
    """Compression onto the first k columns of the unitary u."""
    return PositiveMapSpec(kind="isometry", isometry=np.ascontiguousarray(u[:, :k]))


def random_unitary(m, seed):
    """Haar random m x m unitary, deterministic per seed."""
    m = require_positive(m, "m", integer=True)
    return _build(_Draw(m, _require_seed(seed)))


def random_spd(m, seed, eig_lo, eig_hi):
    """Random positive definite matrix with spectrum drawn uniformly in
    [eig_lo, eig_hi], conjugated by a seeded random unitary."""
    m = require_positive(m, "m", integer=True)
    spectrum = _require_eig_range(eig_lo, eig_hi)
    return _build(_Draw(m, _require_seed(seed), spectrum))


def random_commuting_spds(m, count, seed, eig_lo, eig_hi):
    """(count, m, m) stack of pairwise-commuting SPD matrices: one shared
    random eigenbasis, ``random_unitary(m, seed)``, and independent spectra
    (the rows of one (count, m) uniform draw from ``default_rng(seed + 1)``).
    Commutators vanish up to round-off."""
    spectrum = _require_eig_range(eig_lo, eig_hi)
    count = require_positive(count, "count", integer=True)
    m = require_positive(m, "m", integer=True)
    return _build(_commuting(m, _require_seed(seed), count, spectrum))


def random_isometry_map(s, k, seed):
    """Compression onto the first k columns of a seeded random s x s unitary."""
    s, k = require_positive(s, "s", integer=True), require_positive(k, "k", integer=True)
    if k > s:
        raise ValueError(f"target dimension {k} exceeds source dimension {s}")
    return _build(_isometry(s, k, _require_seed(seed)))


def random_ensemble(m, n, seed, eig_lo=0.5, eig_hi=2.0, commuting=False):
    """Seeded random ensemble; ``commuting=True`` shares one eigenbasis."""
    n = require_positive(n, "n", integer=True)
    m = require_positive(m, "m", integer=True)
    spectrum = _require_eig_range(eig_lo, eig_hi)
    return _build(_ensemble(m, n, _require_seed(seed, signed=True), spectrum, commuting))
