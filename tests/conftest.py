import atexit
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wassmean import Ensemble, _kernels, checks
from wassmean.hermitian import hermitianize
from wassmean.seeded import _ginibre, _haar_unitaries

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and writes no files.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis still caches the constants it collects from local source in its
# home directory: keep that in a temporary directory, removed at exit.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-home-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def log_uniform():
    """The log-uniform family: ``draw(m, seed, lo=1e-3, hi=1e3)`` is
    U diag(exp(u)) U* with U the Haar unitary of
    ``_haar_unitaries(_ginibre(rng.standard_normal((2, m, m))))``, then u
    ``rng.uniform(log lo, log hi, m)``, from ``rng = default_rng(seed)``."""

    def draw(m, seed, lo=1e-3, hi=1e3):
        rng = np.random.default_rng(seed)
        u = _haar_unitaries(_ginibre(rng.standard_normal((2, m, m))))
        return _kernels._from_spectrum(u, np.exp(rng.uniform(np.log(lo), np.log(hi), m)))

    return draw


@pytest.fixture
def linalg_calls(monkeypatch):
    """The list of (name, argument shape) of each call of ``np.linalg``'s
    ``eigh``, ``eigvalsh`` and ``cholesky`` made during the test, in order."""
    calls = []

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            calls.append((name, a.shape))
            return fn(a, *args, **kwargs)

        return counted

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def breakdown_mats(log_uniform):
    """Six 8x8 log-uniform [1e-8, 1e8] matrices, matrix j drawn from
    default_rng(24 + j): kernel input, too badly conditioned for ``Ensemble``.
    Solving their equal-weight mean meets a congruence eigenvalue below zero
    at iterate 1: its square root would be NaN."""
    return np.stack([log_uniform(8, 24 + j, 1e-8, 1e8) for j in range(6)])


@pytest.fixture
def breakdown_ensemble(monkeypatch, breakdown_mats, log_uniform):
    """An equal-weight ensemble of six 8x8 log-uniform [1e-6, 1e6] matrices,
    matrix j drawn from default_rng(24 + j), whose solve breaks down after 1
    iteration. No ensemble that passes validation is known to break down, so
    the solver kernel is rebound, for one test, to solve this ensemble's row
    of a batch as ``breakdown_mats``; the other rows solve as before. The
    certificate's zero-step solves pass through it too, and only one of this
    ensemble, which has no mean to certify, would be changed."""
    e = Ensemble(weights=np.full(6, 1.0 / 6.0),
                 matrices=[log_uniform(8, 24 + j, 1e-6, 1e6) for j in range(6)])
    solve = _kernels.wasserstein_solve

    def rebound(mats, weights, *args):
        if mats.shape[1:] == e.matrices.shape:
            hit = (mats == e.matrices).all(axis=(1, 2, 3))
            mats = np.where(hit[:, None, None, None], breakdown_mats, mats)
        return solve(mats, weights, *args)

    monkeypatch.setattr(_kernels, "wasserstein_solve", rebound)
    return e


@pytest.fixture
def reversed_bound_check(monkeypatch):
    """Rebind, for one test, the core of the suite's ``bounds`` check to one
    that asserts the mean's arithmetic-mean bound in the wrong direction
    (sum_j w_j A_j <= mean), which fails on any generic ensemble; return the
    check's name."""

    def reversed_bounds(tol, e, solved):
        upper = hermitianize(_kernels.weighted_sum(e.weights, e.matrices))
        return checks._reports(
            "bounds", tol, [{"dim": e.dim, "count": e.size}] * len(solved), [{}] * len(solved),
            (None, upper, checks._means(solved)),
        )

    monkeypatch.setattr(checks, "_bounds", reversed_bounds)
    return "bounds"
