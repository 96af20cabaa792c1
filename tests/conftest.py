import atexit
import shutil
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wassmean import _kernels, checks
from wassmean.hermitian import _haar_unitary, hermitianize

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
def wide_spectrum_mats():
    """Six 8x8 matrices U diag(exp(uniform(log 1e-6, log 1e6))) U*, matrix j
    drawn from default_rng(j). Solving their equal-weight mean meets a
    congruence eigenvalue of about -5e-7 at iterate 12: its square root would
    be NaN."""
    mats = []
    for j in range(6):
        rng = np.random.default_rng(j)
        u = _haar_unitary(rng, 8)
        a = (u * np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 8))) @ u.conj().T
        mats.append((a + a.conj().T) * 0.5)
    return np.stack(mats)


@pytest.fixture
def reversed_bound_check(monkeypatch):
    """Register, for one test, a suite entry that asserts the mean's
    arithmetic-mean bound in the wrong direction (sum_j w_j A_j <= mean),
    which fails on any generic ensemble; return its name."""
    name = "reversed_bound"

    def evaluate(tol, e):
        upper = hermitianize(_kernels.weighted_sum(e.weights, e.matrices))
        return checks._order_report(
            name, tol, {"dim": e.dim, "count": e.size}, {}, (None, upper, checks._solve(e))
        )

    entry = checks._Check(
        instances=lambda plan: checks._ensembles(plan, (3,), min_dim=2, limit=1),
        evaluate=evaluate,
    )
    monkeypatch.setitem(checks.CHECK_REGISTRY, name, partial(checks._run_check, name, entry))
    return name
