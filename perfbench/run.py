#!/usr/bin/env python3
"""Benchmark of the wassmean package: one workload per process, closed loop.

    python3 perfbench/run.py --workload mean-small --seed 0 --seconds 15
    python3 perfbench/run.py --workload all --seconds 15          # all four
    python3 perfbench/run.py --workload pairs --trace 1           # per layer

Run it from the root of a checkout: the package is imported from ``src/``
there, never from an installed copy. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary and the environment.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of a traced pass. See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy is first imported, here and in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("mean-small", "mean-large", "verify-suite", "pairs")
SETUP_PROBES = 9
# Shown in the table but left out of the result line and BENCHMARK.json: on
# a shared host whose speed flips between two modes, the share of each mode
# in a run moves the mean and the median by up to 30% between runs, while
# the tail stays in the slow mode (see perfbench/README.md).
PRINTED_ONLY = ("ops_per_s", "p50_ms")
WARMUP_S = 1.0
# A run stops early, between ops, once its measured ops have taken this many
# times ``--seconds`` of wall time, so that a much slower program still ends
# within the time a run is given. Only then does the plan depend on timing.
MAX_STRETCH = 5
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the plan of measured ops: about this many "
                             "seconds at the reference rate (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced pass")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import numpy and wassmean from this checkout's ``src/``."""
    if not (SRC / "wassmean" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'wassmean'}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import wassmean

    if Path(wassmean.__file__).resolve().parent != SRC / "wassmean":
        raise SystemExit(f"error: imported wassmean from {wassmean.__file__}, not {SRC}")
    return wassmean


def make_workdir(tag):
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def probe(args):
    """One cold start: import the package, then run the workload's first op.

    Prints its set-up time, excluding interpreter start-up and the
    benchmark's own input generation.
    """
    start = time.perf_counter()
    import_package()
    imported = time.perf_counter()
    import workloads

    workdir = make_workdir("probe")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, pool=1)
        op_start = time.perf_counter()
        out = workload.run(0)
        op_s = time.perf_counter() - op_start
        ok = workload.check(0, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": imported - start + op_s, "correct": bool(ok)}))
    return 0


def setup_probe(args):
    """Set-up time of one fresh interpreter (see ``probe``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("error: the first op of a set-up probe gave a wrong output")
    return result["setup_s"]


def environment(wassmean):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(cpus) if cpus else os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "backend": wassmean.BACKEND,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def plan_ops(workload, seconds):
    """Number of ops in a plan meant to take ``seconds`` at the workload's
    reference rate."""
    return max(1, round(seconds * workload.rate))


def end_to_end(workload, args):
    """A fixed plan of ops, inputs 0, 1, 2, ...; the end-to-end metrics.

    The plan has ``plan_ops(workload, args.seconds)`` ops, so the same seed
    gives the same ops, and the same ``attempted`` and ``failed``, whatever
    the host's speed. It is cut into ``SETUP_PROBES`` equal parts with one
    set-up probe before each, so that the probes sample the host's speed
    across the run as the ops do, not only at its start.
    """
    measure.closed_loop(workload, range(plan_ops(workload, WARMUP_S)))
    planned = plan_ops(workload, args.seconds)
    cuts = [planned * k // SETUP_PROBES for k in range(SETUP_PROBES + 1)]
    deadline = time.perf_counter() + MAX_STRETCH * args.seconds
    setup, samples = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        setup.append(setup_probe(args))
        samples.append(measure.closed_loop(workload, range(lo, hi), deadline=deadline))
        if time.perf_counter() >= deadline:
            break
    latencies = [t for s in samples for t in s.latencies]
    busy_s = sum(s.busy_s for s in samples)
    attempted = sum(s.attempted for s in samples)
    if not latencies:
        raise SystemExit(f"error: no op completed correctly: {samples[0].messages}")
    tail_s, tail_pct = measure.tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(latencies) / busy_s, "1/s"),
        "p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "tail_ms": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup),
        "ops_per_s": f"{len(latencies)} correct ops in {busy_s:.3f} s of op time",
        "tail_ms": f"p{tail_pct:.2f}, {len(latencies)} samples",
    }
    if attempted < planned:
        notes["ops_per_s"] += f"; cut at {attempted} of {planned} planned ops"
    return samples, metrics, notes


def per_layer(workload, args):
    """An untraced plan of whole passes over the first ``trace_ops``
    inputs, about half of ``args.seconds`` long, then one traced pass over
    them; per-op metrics."""
    ops = range(workload.trace_ops)
    measure.closed_loop(workload, ops[:plan_ops(workload, WARMUP_S)])
    passes = max(1, round(plan_ops(workload, args.seconds / 2) / len(ops)))
    plain = measure.closed_loop(workload, [i for _ in range(passes) for i in ops])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = measure.closed_loop(workload, ops, tracer=tracer)
    metrics, gap = tracing.layer_metrics(tracer.spans)
    if gap > 1e-9:
        raise SystemExit(f"error: self times miss {gap:.3e} of the traced op time")
    metrics["trace.overhead_ratio"] = metric(traced.mean_op_s() / plain.mean_op_s(), "ratio")
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                             "fields": ["label", "start", "end", "parent", "op", "work"]})
    notes = {
        "trace.overhead_ratio": f"traced over untraced op time ({plain.attempted} untraced ops)",
        "trace.op_ms": f"per op over {traced.attempted} traced ops; spans in {spans_path}",
        "trace.unattributed_ms": f"self times + this = op time to {gap:.1e}",
    }
    return [plain, traced], metrics, notes


def run_workload(args):
    wassmean = import_package()
    import workloads

    print("env " + json.dumps(environment(wassmean)))
    workdir = make_workdir("run")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            samples, metrics, notes = per_layer(workload, args)
        else:
            samples, metrics, notes = end_to_end(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        note = notes.get(name, "") + (" (table only)" if name in PRINTED_ONLY else "")
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<6} {note}")
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    wrong = sum(s.wrong for s in samples)
    errors = sum((s.errors for s in samples), Counter())
    print(f"  {'fail_ratio':<38} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted}: {wrong} wrong output, raised {dict(errors)}")
    messages = {}
    for s in samples:
        for kind, message in s.messages.items():
            messages.setdefault(kind, message)
    for kind, message in messages.items():
        print(f"    first {kind}: {message}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: v for k, v in metrics.items() if k not in PRINTED_ONLY},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    if args.probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
