"""Closed-loop runner and latency statistics."""

import time
from collections import Counter
from dataclasses import dataclass, field

# Op time is the process's CPU time (user + system). On a shared 2-vCPU
# virtual machine the wall time of an op also holds the time the scheduler
# gives to other tenants: 15 ms ops were seen taking 32 ms of wall time, and
# the tail latency spread 70% between runs. The package runs on one thread (BLAS is
# pinned to one) and waits on nothing but page-cache file I/O, which counts
# as system time, so its CPU time is the wall time of an undisturbed run. A
# change that makes an op use several threads must measure wall time instead.
CLOCK = time.process_time


@dataclass
class Sample:
    """Outcome of one closed loop.

    ``latencies`` holds the op time of every op whose output passed its
    check; ``busy_s`` sums the op time of every attempted op. ``wrong``
    counts ops that returned an output failing its check, ``errors`` the
    ops that raised, by exception type.
    """

    latencies: list = field(default_factory=list)
    attempted: int = 0
    wrong: int = 0
    busy_s: float = 0.0
    errors: Counter = field(default_factory=Counter)
    messages: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.attempted - len(self.latencies)

    def mean_op_s(self):
        return self.busy_s / self.attempted


def closed_loop(workload, indices, tracer=None, deadline=None):
    """Run ``workload.run(i)`` for each ``i`` in ``indices``, one after the
    other, stopping early after the op that ends past ``deadline`` (a
    ``time.perf_counter`` value), if one is given.

    Only ``run`` is timed, on ``CLOCK``; ``check`` runs after the clock
    stops. A failed op is counted, never retried.
    """
    sample = Sample()
    for i in indices:
        sample.attempted += 1
        start = CLOCK()
        try:
            if tracer is None:
                out = workload.run(i)
            else:
                with tracer.op(i):
                    out = workload.run(i)
        except Exception as exc:  # noqa: BLE001 - a refused op is a measured outcome
            sample.busy_s += CLOCK() - start
            kind = type(exc).__name__
            sample.errors[kind] += 1
            sample.messages.setdefault(kind, str(exc))
        else:
            elapsed = CLOCK() - start
            sample.busy_s += elapsed
            if workload.check(i, out):
                sample.latencies.append(elapsed)
            else:
                sample.wrong += 1
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return sample


def tail(latencies, beyond=10, share=0.01):
    """Latency at the 99th percentile, or lower where that is needed to keep
    ``beyond`` samples above it, as ``(value, percentile)``.

    ``share`` of the samples, but never fewer than ``beyond``, lie above the
    value: with n samples it is the (k+1)-th largest, k = max(beyond,
    floor(share * n)), at percentile 100 * (n - k) / n. A single percentile
    that high rests on a handful of ops, and on a shared host those are the
    ops the host happened to stall. With ``beyond`` samples or fewer no
    percentile qualifies, and the maximum is returned at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = max(beyond, int(share * n))
    return ordered[n - k - 1], 100.0 * (n - k) / n
