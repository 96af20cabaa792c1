import atexit
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wassmean import _kernels, checks
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
def wide_spectrum_mats(log_uniform):
    """Six 8x8 log-uniform [1e-6, 1e6] matrices, matrix j drawn from
    default_rng(j). Solving their equal-weight mean meets a congruence
    eigenvalue of about -5e-7 at iterate 12: its square root would be NaN."""
    return np.stack([log_uniform(8, j, 1e-6, 1e6) for j in range(6)])


@pytest.fixture
def reversed_bound_check(monkeypatch):
    """Rebind, for one test, the core of the suite's ``bounds`` check to one
    that asserts the mean's arithmetic-mean bound in the wrong direction
    (sum_j w_j A_j <= mean), which fails on any generic ensemble; return the
    check's name."""

    def reversed_bounds(tol, e, solved):
        upper = hermitianize(_kernels.weighted_sum(e.weights, e.matrices))
        return checks._order_report(
            "bounds", tol, {"dim": e.dim, "count": e.size}, {}, (None, upper, checks._mean(solved))
        )

    monkeypatch.setattr(checks, "_bounds", reversed_bounds)
    return "bounds"
