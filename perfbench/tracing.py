"""Spans around the package's public functions, recorded from outside it.

``install`` rebinds every public function of every ``wassmean`` module in
each namespace that holds it by name (``barycenter.require_spd``,
``io.require_spd``, ... all get the same wrapper), plus ``numpy.linalg.eigh``
and ``eigvalsh`` at the module attribute, the ``Ensemble`` constructor and
the suite's ``CHECK_REGISTRY`` entries. Nothing under ``src/`` is edited.

A span is ``[label, start, end, parent, op, work]``: ``parent`` indexes the
enclosing span (the op's root span has -1), ``op`` is the op id, and ``work``
is a computed amount (``batch * m**3`` for an eigen-solve, bytes for I/O,
iterations for a solve) or None. Times are ``measure.CLOCK`` readings, the
clock of the end-to-end op times. Spans stay in memory until ``dump``.
Calls made outside an op pass straight through.
"""

import contextlib
import functools
import importlib
import json
import math
import os
from collections import defaultdict
from types import FunctionType

from measure import CLOCK

# Package modules and the layer each one is reported as. A metric name must
# start with a letter, so ``_kernels`` is reported as ``kernels``.
MODULE_LAYER = {
    "cli": "cli",
    "io": "io",
    "hermitian": "hermitian",
    "means": "means",
    "barycenter": "barycenter",
    "_kernels": "kernels",
    "bures": "bures",
    "products": "products",
    "checks": "checks",
}
LAYERS = tuple(dict.fromkeys(MODULE_LAYER.values())) + ("linalg",)

# The backend-selected kernel entry points (not their *_np/*_jit twins).
KERNELS = ("wasserstein_solve", "spd_power", "bw_gap", "geometric_mean",
           "mean_equation_residual")

# The 15 checks of ``--checks all``; fixed here so the metric set is stable.
CHECK_NAMES = (
    "fixed_point", "bounds", "det_inequality", "logdet_concavity",
    "phi_geometric_mean", "phi_wass", "self_duality_gap", "tensor_identity",
    "tensor_arithmetic_bound", "hadamard_arithmetic_bound",
    "commuting_quadruple", "hadamard_inverse", "kantorovich_hadamard",
    "jensen_contraction", "sqrt_sum_lower_bound",
)

EIGEN = ("linalg.eigh", "linalg.eigvalsh")


def _eigen_work(args, result):
    shape = args[0].shape
    return math.prod(shape[:-2]) * shape[-1] ** 3


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _text_bytes(args, result):
    return len(result.encode())


def _iterations(args, result):
    return result.iterations


WORK = {
    "linalg.eigh": _eigen_work,
    "linalg.eigvalsh": _eigen_work,
    "io.load_ensemble": _file_bytes,
    "io.load_matrix": _file_bytes,
    "io.load_plan": _file_bytes,
    "io.load_map_spec": _file_bytes,
    "io.dumps_canonical": _text_bytes,
    "barycenter.wasserstein_mean": _iterations,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, CLOCK
        work = WORK.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one operation; its self time is unattributed."""
        span = ["op", 0.0, 0.0, -1, op_id, None]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = CLOCK()
        try:
            yield
        finally:
            span[2] = CLOCK()
            self._stack.pop()
            self._op = None

    def dump(self, path, header):
        """Write the header and every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap the package's public functions and the numpy eigen-solvers."""
    import numpy as np

    import wassmean

    modules = {name: importlib.import_module(f"wassmean.{name}") for name in MODULE_LAYER}
    wrappers = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            if not (isinstance(value, FunctionType) and value.__module__ == module.__name__):
                continue
            if attr.startswith("_") or (name == "_kernels" and attr not in KERNELS):
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = tracer.wrap(f"{MODULE_LAYER[name]}.{attr}", value)
    for attr in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, attr)
        wrappers[id(fn)] = tracer.wrap(f"linalg.{attr}", fn)

    for namespace in (wassmean, np.linalg, *modules.values()):
        for attr, value in list(vars(namespace).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(namespace, attr, wrapper)

    ensemble = modules["barycenter"].Ensemble
    ensemble.__init__ = tracer.wrap("barycenter.Ensemble", ensemble.__init__)
    registry = modules["checks"].CHECK_REGISTRY
    for name, check in list(registry.items()):
        registry[name] = tracer.wrap(f"checks.{name}", check)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread, properly nested calls),
    so their summed durations are the covered part of the parent interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, covered)]


def layer_of(label):
    return label.split(".", 1)[0]


def _is_load(label):
    fn = label.split(".", 1)[1]
    return fn.startswith("load_") or fn.endswith("_from_json_dict")


def _is_dump(label):
    fn = label.split(".", 1)[1]
    return fn.startswith(("save_", "dumps")) or fn.endswith("_to_json_dict")


def _one(*labels):
    return lambda label: label in labels


def _io(pred):
    return lambda label: layer_of(label) == "io" and pred(label)


def _layer(layer):
    return lambda label: layer_of(label) == layer


def _metric_specs():
    """(name, unit, kind, selector): kind is calls, self, total or work, and
    the selector picks span labels."""
    specs = [
        ("linalg.eig_calls", "count", "calls", _one(*EIGEN)),
        ("linalg.eig_ms", "ms", "self", _one(*EIGEN)),
        ("linalg.eig_work_m3", "m3", "work", _one(*EIGEN)),
    ]
    specs += [(f"kernels.{k}_ms", "ms", "self", _one(f"kernels.{k}")) for k in KERNELS]
    specs += [
        ("hermitian.require_spd_calls", "count", "calls", _one("hermitian.require_spd")),
        ("hermitian.require_spd_ms", "ms", "self", _one("hermitian.require_spd")),
        ("hermitian.require_spd_total_ms", "ms", "total", _one("hermitian.require_spd")),
        ("hermitian.loewner_leq_calls", "count", "calls", _one("hermitian.loewner_leq")),
        ("hermitian.loewner_leq_ms", "ms", "self", _one("hermitian.loewner_leq")),
        ("barycenter.ensemble_calls", "count", "calls", _one("barycenter.Ensemble")),
        ("barycenter.ensemble_ms", "ms", "self", _one("barycenter.Ensemble")),
        ("barycenter.objective_ms", "ms", "self", _one("barycenter.objective")),
        ("barycenter.residual_ms", "ms", "self", _one("barycenter.residual")),
        ("barycenter.wasserstein_mean_ms", "ms", "self", _one("barycenter.wasserstein_mean")),
        ("barycenter.solves", "count", "calls", _one("barycenter.wasserstein_mean")),
        ("barycenter.iterations", "count", "work", _one("barycenter.wasserstein_mean")),
        ("means.arithmetic_mean_ms", "ms", "self", _one("means.arithmetic_mean")),
        ("means.validate_weights_calls", "count", "calls", _one("means.validate_weights")),
        ("means.geometric_mean_ms", "ms", "self", _one("means.geometric_mean")),
        ("bures.bw_distance_calls", "count", "calls", _one("bures.bw_distance")),
        ("bures.bw_distance_ms", "ms", "self", _one("bures.bw_distance")),
        ("bures.geodesic_ms", "ms", "self", _one("bures.geodesic")),
        ("io.load_ms", "ms", "self", _io(_is_load)),
        ("io.dump_ms", "ms", "self", _io(_is_dump)),
        ("io.bytes_read", "B", "work", _io(_is_load)),
        ("io.bytes_written", "B", "work", _one("io.dumps_canonical")),
        ("products.ensemble_tensor_ms", "ms", "self", _one("products.ensemble_tensor")),
        ("products.kron_ms", "ms", "self", _one("products.kron")),
        ("products.hadamard_ms", "ms", "self", _one("products.hadamard")),
    ]
    specs += [(f"checks.{c}_ms", "ms", "total", _one(f"checks.{c}")) for c in CHECK_NAMES]
    specs += [(f"{layer}.self_ms", "ms", "self", _layer(layer)) for layer in LAYERS[:-1]]
    return specs


METRIC_SPECS = _metric_specs()

# Together with trace.unattributed_ms these partition the traced op time
# (linalg holds only the eigen-solvers, so linalg.eig_ms is its self time).
SELF_TIME_METRICS = tuple(f"{layer}.self_ms" for layer in LAYERS[:-1]) + ("linalg.eig_ms",)

# Metrics computed outside the span selectors, in this order.
EXTRA_METRICS = (
    ("checks.instances", "count"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans):
    """Per-op metrics of every traced op in ``spans`` (without
    ``trace.overhead_ratio``, which needs an untraced run) and the share of
    op time that the layer self times plus the unattributed time leave
    unexplained, which is 0 up to rounding."""
    selfs = self_times(spans)
    by_label = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0, "work": 0})
    ops = op_s = unattributed_s = 0
    instances = 0
    for span, self_s in zip(spans, selfs):
        label = span[0]
        if label == "op":
            ops += 1
            op_s += span[2] - span[1]
            unattributed_s += self_s
            continue
        agg = by_label[label]
        agg["calls"] += 1
        agg["self"] += self_s
        agg["total"] += span[2] - span[1]
        agg["work"] += span[5] or 0
        parent = spans[span[3]][0]
        if (label.startswith(("checks.check_", "barycenter.check_"))
                and parent.startswith("checks.") and parent[7:] in CHECK_NAMES):
            instances += 1
    unknown = {layer_of(label) for label in by_label} - set(LAYERS)
    if unknown or ops == 0:
        raise ValueError(f"no traced ops or spans outside the known layers: {unknown}")

    metrics = {}
    for name, unit, kind, select in METRIC_SPECS:
        value = sum(agg[kind] for label, agg in by_label.items() if select(label))
        if unit == "ms":
            value *= 1e3
        metrics[name] = {"value": value / ops, "unit": unit}
    metrics["checks.instances"] = {"value": instances / ops, "unit": "count"}
    metrics["trace.op_ms"] = {"value": 1e3 * op_s / ops, "unit": "ms"}
    metrics["trace.unattributed_ms"] = {"value": 1e3 * unattributed_s / ops, "unit": "ms"}

    accounted = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
    accounted += metrics["trace.unattributed_ms"]["value"]
    op_ms = metrics["trace.op_ms"]["value"]
    return metrics, abs(accounted - op_ms) / op_ms
