"""Self-time and tail-percentile arithmetic on synthetic spans.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import tail  # noqa: E402
from tracing import SELF_TIME_METRICS, layer_metrics, self_times  # noqa: E402


def span(label, start, end, parent, op=0, work=None):
    return [label, start, end, parent, op, work]


# op 0 (10 s): a require_spd call holding an eigvalsh, then a solve with
# two eigh calls; 1 s of the op is outside every wrapped call.
OP0 = [
    span("op", 0.0, 10.0, -1),
    span("hermitian.require_spd", 1.0, 4.0, 0),
    span("linalg.eigvalsh", 2.0, 3.0, 1, work=8),
    span("kernels.wasserstein_solve", 4.0, 10.0, 0),
    span("linalg.eigh", 5.0, 6.5, 3, work=27),
    span("linalg.eigh", 7.0, 8.0, 3, work=27),
]


def test_self_time_is_span_minus_direct_children():
    assert self_times(OP0) == pytest.approx([1.0, 2.0, 1.0, 3.5, 1.5, 1.0])


def test_self_times_partition_the_op():
    assert sum(self_times(OP0)) == pytest.approx(OP0[0][2] - OP0[0][1])


def test_layer_metrics_are_per_op_and_add_up():
    # A second op, shifted, with one more require_spd call and no eigen work.
    op1 = [span("op", 20.0, 24.0, -1, op=1),
           span("hermitian.require_spd", 21.0, 23.0, 6, op=1)]
    metrics, gap = layer_metrics(OP0 + op1)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["trace.op_ms"] == pytest.approx(7000.0)
    assert value["trace.unattributed_ms"] == pytest.approx(1500.0)
    assert value["hermitian.require_spd_calls"] == pytest.approx(1.0)
    assert value["hermitian.require_spd_ms"] == pytest.approx(2000.0)
    assert value["hermitian.require_spd_total_ms"] == pytest.approx(2500.0)
    assert value["linalg.eig_calls"] == pytest.approx(1.5)
    assert value["linalg.eig_ms"] == pytest.approx(1750.0)
    assert value["linalg.eig_work_m3"] == pytest.approx(31.0)
    assert value["kernels.wasserstein_solve_ms"] == pytest.approx(1750.0)
    assert value["checks.fixed_point_ms"] == 0.0
    accounted = sum(value[name] for name in SELF_TIME_METRICS)
    assert accounted + value["trace.unattributed_ms"] == pytest.approx(value["trace.op_ms"])
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_layer_metrics_reject_unknown_layers():
    with pytest.raises(ValueError):
        layer_metrics([span("op", 0.0, 1.0, -1), span("nowhere.f", 0.2, 0.4, 0)])


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail([float(x) for x in range(100, 0, -1)])
    assert value == 90.0
    assert pct == pytest.approx(90.0)
    value, pct = tail([float(x) for x in range(1, 12)])
    assert value == 1.0
    assert pct == pytest.approx(100.0 / 11)


def test_tail_of_many_samples_is_the_99th_percentile():
    value, pct = tail([float(x) for x in range(4000, 0, -1)])
    assert value == 3960.0
    assert pct == pytest.approx(99.0)


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
