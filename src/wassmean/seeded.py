"""Seeded inputs, each described once, as its request: a ``_Draw`` (a Haar
unitary, or a positive definite matrix of a spectrum range, from its own
stream) or an ``_Apply`` of a function to requests and constants. ``_build``
builds one request; the suite draws a whole window's requests in one
``_drawn`` call, with one pass of uniforms, one batched QR and phase fold and
one ``_kernels._from_spectrum`` per dimension, so a batched input equals its
lone generator's bit for bit. Each public generator checks its arguments and
returns ``_build`` of its request; a request is trusted. Generator output is
positive definite by construction; ``hermitian._spectrum_clears_floor`` is
the rule under which an ensemble of it is stored without validation. Every
draw reads ``_uniforms``, a counter-based stream with no state to build, keyed
by the seed in its purpose's domain; outputs differ from wassmean 0.1.0's.
"""

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import _kernels as _k
from . import barycenter as bc
from .hermitian import _real, require_positive
from .products import PositiveMapSpec

_MASK, _GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15
# The key domains: a draw's Ginibre matrix then spectrum, commuting spectra, weights.
_GINIBRE, _COMMUTING, _WEIGHTS = 1, 2, 3


def _splitmix(z):
    """SplitMix64's finalizer of z, a Python int below 2**64 or a uint64 array
    (whose arithmetic wraps without warning)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _key(purpose, seed):
    """The stream key of a non-negative int seed in a purpose's domain: the
    seed's 64-bit limbs, lowest first, folded through the mixer, so a seed of
    any size keys its own stream and 2**64 does not alias 0."""
    key = _splitmix(_splitmix(purpose) ^ seed & _MASK)
    return _key(key, seed >> 64) if seed >> 64 else key


def _uniforms(keys, count):
    """(len(keys), count) uniforms in (0, 1]: number i of the stream of key k
    is (top 53 bits of ``_splitmix(k + i gamma)`` + 1) / 2**53, a counter-based
    generator (Salmon et al., SC 2011) on SplitMix64 (Steele et al., 2014)."""
    i = np.arange(count, dtype=np.uint64) * _GAMMA
    z = _splitmix(np.array(keys, dtype=np.uint64)[:, None] + i)
    return ((z >> 11) + 1) * 2.0**-53


def _normals(u):
    """Box-Muller's standard normals r cos(t), then r sin(t), of the uniforms
    (u1, u2), the last axis's halves: r = sqrt(-2 log u1), t = 2 pi u2."""
    u1, u2 = np.split(u, 2, axis=-1)
    r, t = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(t), r * np.sin(t)], axis=-1)


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
    """One draw of ``_seeded_draws``, from the stream ``_key(_GINIBRE, seed)``:
    with no ``spectrum``, the Haar unitary of ``random_unitary``; with
    ``spectrum`` = (eig_lo, eig_hi), the matrix of ``random_spd``. Its fields
    are trusted: ``m`` a positive int and ``spectrum`` a range that
    ``_require_eig_range`` accepts."""

    m: int
    seed: int
    spectrum: tuple | None = None


def _seeded_draws(draws):
    """The array of each ``_Draw``, bit for bit what its lone generator
    returns, with one pass of uniforms, one batched QR and phase fold and one
    ``_from_spectrum`` for the ``random_spd`` draws per dimension. A stream's
    first 2 m^2 uniforms make the Ginibre matrix and its next m the spectrum."""
    groups = {}
    for i, d in enumerate(draws):
        groups.setdefault(d.m, []).append(i)
    out = [None] * len(draws)
    for m, rows in groups.items():
        u = _uniforms([_key(_GINIBRE, draws[i].seed) for i in rows], 2 * m * m + m)
        units = _haar_unitaries(_ginibre(_normals(u[:, : 2 * m * m]).reshape(-1, 2, m, m)))
        for j, i in enumerate(rows):
            out[i] = units[j]
        spd = [j for j, i in enumerate(rows) if draws[i].spectrum is not None]
        if spd:
            lo, hi = np.array([draws[rows[j]].spectrum for j in spd]).T[..., None]
            lam = lo + (hi - lo) * u[spd, 2 * m * m :]
            for j, a in zip(spd, _k._from_spectrum(units[spd], lam)):
                out[rows[j]] = a
    return out


def _commuting_stack(u, seed, count, eig_lo, eig_hi):
    """The (count, m, m) stack u diag(lambda_j) u* of the unitary u, with the
    spectra lambda_j the rows of count m uniforms in [eig_lo, eig_hi] from the
    stream ``_key(_COMMUTING, seed)``."""
    draws = _uniforms([_key(_COMMUTING, seed)], count * len(u)).reshape(count, -1)
    return _k._from_spectrum(u, eig_lo + (eig_hi - eig_lo) * draws)


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
    # A non-negative stream seed per (seed, salt) pair, distinct for every
    # int seed and for salts less than 1,000,003 apart.
    z = 2 * int(seed)
    return (z if z >= 0 else -z - 1) * 1_000_003 + salt * 7919 + 12345


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
    w = 0.2 + 0.8 * _uniforms([_key(_WEIGHTS, seed)], n)[0]
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
    (the rows of count m uniforms from the seed's own commuting-spectra
    stream). Commutators vanish up to round-off."""
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
