import numpy as np
import pytest

from wassmean.hermitian import _haar_unitary


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
