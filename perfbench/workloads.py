"""The four workloads: seeded inputs, the timed operation, and its check.

Inputs come from this module's own seeded generator (a Haar unitary from the
QR of a complex Ginibre matrix, times a uniform spectrum), never from
``wassmean.random_spd``/``random_ensemble``, so a change to the package's
generators cannot silently change a workload. Every array and every ensemble
file is built in the constructor, before any timing starts; the operation
receives only those inputs.

Each workload exposes ``run(i)``, the timed operation on input ``i``, and
``check(i, out)``, an untimed verdict on its output. ``rate`` is the
workload's reference rate: ops per second of wall time, checks included, on
the reference machine at baseline (a shared 2-vCPU virtual machine, see
README.md). It only sizes a run's fixed plan of ops, so that a run of
``--seconds`` s measures about that long there. ``trace_ops`` is the length
of the traced pass, fixed so that traced counts per op repeat exactly for a
seed. An operation that raises is a refusal: the loop counts it as failed
and never retries it.
"""

import json

import numpy as np

import wassmean as wm
from wassmean import cli

# A certificate or benchmark-side residual must be within the package's
# default certificate tolerance (1e-10 on ||I - sum_j w_j (A_j # X^-1)||_F).
RESIDUAL_TOL = wm.ToleranceConfig().residual_tol

# pairs: d^2 must match the reference within this share of tr((A+B)/2), which
# is also how close to 0 d(A,A)^2 must be; the geodesic point and the
# geometric mean must match their references within it in relative Frobenius
# norm. Observed errors at m=32 are below 1e-14.
PAIR_RTOL = 1e-10


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def rng_for(seed, salt, i):
    """Independent stream per (workload seed, workload, input index)."""
    return np.random.default_rng([seed % 2**63, salt, i])


def haar_unitary(rng, m):
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    phases of R's diagonal folded into Q."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_spd(rng, m, lo, hi):
    """U diag(lam) U* with U Haar and lam uniform in [lo, hi], exactly
    Hermitian."""
    u = haar_unitary(rng, m)
    a = (u * rng.uniform(lo, hi, m)) @ u.conj().T
    return (a + a.conj().T) * 0.5


def random_weights(rng, n):
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def ensemble_doc(weights, mats):
    """The ensemble file format of the package's README."""
    return {
        "weights": [float(w) for w in weights],
        "matrices": [
            {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}
            for a in mats
        ],
    }


# ---------------------------------------------------------------------------
# independent numpy references (Cholesky route, unlike the package's
# square-root route)
# ---------------------------------------------------------------------------

def _herm(a):
    return (a + a.conj().T) * 0.5


def ref_geometric_mean(a, b):
    """A # B = L (L^-1 B L^-*)^(1/2) L* with A = L L*."""
    low = np.linalg.cholesky(a)
    c = np.linalg.solve(low, np.linalg.solve(low, b).conj().T).conj().T
    w, v = np.linalg.eigh(_herm(c))
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return _herm(low @ root @ low.conj().T)


def ref_squared_distance(a, b):
    """tr((A+B)/2) - sum sqrt(eig(A B)), the eigenvalues taken from L* B L."""
    low = np.linalg.cholesky(a)
    w = np.linalg.eigvalsh(_herm(low.conj().T @ b @ low))
    cross = float(np.sum(np.sqrt(np.maximum(w, 0.0))))
    return 0.5 * float(np.trace(a + b).real) - cross


def ref_geodesic(a, b, t):
    """M A M with M = (1-t) I + t T and T = A^-1 # B, the transport map."""
    transport = ref_geometric_mean(np.linalg.inv(a), b)
    step = (1.0 - t) * np.eye(a.shape[0]) + t * transport
    return _herm(step @ a @ step)


def ref_residual(x, weights, mats):
    """||I - sum_j w_j (A_j # X^-1)||_F."""
    xinv = _herm(np.linalg.inv(x))
    acc = sum(w * ref_geometric_mean(a, xinv) for w, a in zip(weights, mats))
    return float(np.linalg.norm(np.eye(x.shape[0]) - acc))


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class MeanSmall:
    """Library quickstart flow: Ensemble from raw arrays, solve, certify."""

    name = "mean-small"
    rate = 80
    trace_ops = 64
    m, n, lo, hi = 5, 16, 0.05, 20.0

    def __init__(self, seed, workdir, pool=512):
        self.inputs = []
        for i in range(pool):
            rng = rng_for(seed, 1, i)
            mats = [random_spd(rng, self.m, self.lo, self.hi) for _ in range(self.n)]
            self.inputs.append((random_weights(rng, self.n), mats))

    def run(self, i):
        weights, mats = self.inputs[i % len(self.inputs)]
        ensemble = wm.Ensemble(weights=weights, matrices=mats)
        report = wm.wasserstein_mean(ensemble)
        return report.converged, wm.residual(report.mean, ensemble)

    def check(self, i, out):
        converged, certificate = out
        return converged and certificate <= RESIDUAL_TOL


class MeanLarge:
    """CLI ``mean`` in-process on pre-written ensemble files."""

    name = "mean-large"
    rate = 5
    trace_ops = 8
    m, n, lo, hi = 64, 8, 0.5, 2.0

    def __init__(self, seed, workdir, pool=32):
        self.inputs = []
        for i in range(pool):
            rng = rng_for(seed, 2, i)
            mats = [random_spd(rng, self.m, self.lo, self.hi) for _ in range(self.n)]
            weights = random_weights(rng, self.n)
            path = workdir / f"ensemble-{i}.json"
            path.write_text(json.dumps(ensemble_doc(weights, mats), sort_keys=True, indent=2))
            self.inputs.append((str(path), weights, mats))
        self.out = workdir / "mean.json"

    def run(self, i):
        path = self.inputs[i % len(self.inputs)][0]
        return cli.main(["mean", path, "--out", str(self.out)])

    def check(self, i, out):
        if out != cli.EXIT_OK:
            return False
        doc = json.loads(self.out.read_text())
        if doc["converged"] is not True:
            return False
        _, weights, mats = self.inputs[i % len(self.inputs)]
        mean = np.asarray(doc["mean"]["re"]) + 1j * np.asarray(doc["mean"]["im"])
        return ref_residual(mean, weights, mats) <= RESIDUAL_TOL


class VerifySuite:
    """CLI ``verify --checks all`` on a 10-seed window advancing by 10 per op."""

    name = "verify-suite"
    rate = 2.5
    trace_ops = 4
    seed_count = 10

    def __init__(self, seed, workdir, pool=None):
        # The input is the seed window, so there is no pool. Distinct
        # workload seeds get disjoint windows.
        self.base = (seed % 10**6) * 100_000
        self.out = workdir / "suite.json"

    def window(self, i):
        return self.base + self.seed_count * i

    def run(self, i):
        return cli.main([
            "verify", "--checks", "all", "--seed", str(self.window(i)),
            "--seed-count", str(self.seed_count), "--out", str(self.out),
        ])

    def check(self, i, out):
        if out != cli.EXIT_OK:
            return False
        reports = json.loads(self.out.read_text())
        return len(reports) == len(wm.DEFAULT_CHECKS) and all(
            r["holds"] for r in reports if not r["skipped"]
        )


class Pairs:
    """One-shot two-matrix calls: distance, geodesic, geometric mean."""

    name = "pairs"
    rate = 200
    trace_ops = 256
    m, lo, hi = 32, 0.5, 100.0
    ts = (0.25, 0.5, 0.75)

    def __init__(self, seed, workdir, pool=512):
        self.inputs = []
        for i in range(pool):
            rng = rng_for(seed, 4, i)
            a = random_spd(rng, self.m, self.lo, self.hi)
            # Every eighth pair is (A, A): the contract d(A, A) = 0.
            b = a.copy() if i % 8 == 7 else random_spd(rng, self.m, self.lo, self.hi)
            self.inputs.append((a, b))

    def run(self, i):
        a, b = self.inputs[i % len(self.inputs)]
        return (
            wm.bw_distance(a, b),
            wm.geodesic(a, b, self.ts[i % 3]),
            wm.geometric_mean(a, b),
        )

    def check(self, i, out):
        a, b = self.inputs[i % len(self.inputs)]
        dist, point, gmean = out
        scale = 0.5 * float(np.trace(a + b).real)
        want_d2 = 0.0 if np.array_equal(a, b) else ref_squared_distance(a, b)
        return (
            abs(dist**2 - want_d2) <= PAIR_RTOL * scale
            and _rel_err(point, ref_geodesic(a, b, self.ts[i % 3])) <= PAIR_RTOL
            and _rel_err(gmean, ref_geometric_mean(a, b)) <= PAIR_RTOL
        )


WORKLOADS = {w.name: w for w in (MeanSmall, MeanLarge, VerifySuite, Pairs)}
