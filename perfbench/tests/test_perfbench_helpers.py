"""Unit tests of the benchmark's own helpers (no program code is run).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, busy_seconds, self_time, union_length  # noqa: E402


def _span(span_id, parent, start, end, name="x", pid=1):
    return Span(span_id, parent, name, start, end, "run", pid)


# -- tail percentile selection -------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile = stats.tail(values)
    assert value == 90
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_of_1000_samples_is_p99():
    value, percentile = stats.tail([float(v) for v in range(1000)])
    assert percentile == pytest.approx(99.0)
    assert value == 989.0


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert stats.tail(list(range(10))) == (9, 100.0)
    # 12 samples: the 11th largest would sit below the median.
    assert stats.tail(list(range(12))) == (11, 100.0)


def test_tail_from_21_samples_on():
    value, percentile = stats.tail(list(range(21)))
    assert value == 10 and percentile == pytest.approx(100.0 * 11 / 21)


def test_tail_ignores_input_order():
    assert stats.tail([5, 1, 4, 2, 3] * 5) == stats.tail(sorted([5, 1, 4, 2, 3] * 5))


def test_nearest_rank_percentile():
    assert stats.percentile([1, 2, 3, 4], 50) == 2
    assert stats.percentile([1, 2, 3, 4], 99) == 4
    assert stats.percentile([7], 1) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- self-time subtraction ------------------------------------------------
def test_self_time_subtracts_children():
    parent = _span("p", None, 0.0, 10.0)
    children = [_span("a", "p", 1.0, 3.0), _span("b", "p", 5.0, 6.0)]
    assert self_time(parent, children) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # Two forked workers under one parent overlap in time.
    parent = _span("p", None, 0.0, 10.0)
    children = [_span("a", "p", 1.0, 6.0, pid=2), _span("b", "p", 4.0, 9.0, pid=3)]
    assert self_time(parent, children) == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span("p", None, 2.0, 4.0)
    assert self_time(parent, [_span("a", "p", 0.0, 3.0)]) == pytest.approx(1.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_busy_seconds_skips_nested_spans_of_the_same_name():
    spans = [
        _span("1", None, 0.0, 4.0, name="autograd.backward"),
        _span("2", "1", 1.0, 2.0, name="autograd.backward"),
        _span("3", None, 5.0, 6.0, name="autograd.backward"),
    ]
    assert busy_seconds(spans, "autograd.backward") == pytest.approx(5.0)


def test_tracer_records_parents_and_flushes(tmp_path):
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner") as attrs:
            attrs["bytes"] = 3
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"bytes": 3} and inner.run == "run-1"
    tracer.count("hits", 2)
    path = tracer.flush(tmp_path)
    payload = json.loads(path.read_text())
    assert [span["name"] for span in payload["spans"]] == ["inner", "outer"]
    assert payload["counters"] == {"hits": 2}


# -- open-loop lag accounting ---------------------------------------------
def test_latency_counts_from_due_time_not_send_time():
    # The second request was due at t=0.1 but went out at 0.5 behind a stall.
    records = [
        {"due": 0.0, "sent": 0.0, "done": 0.5},
        {"due": 0.1, "sent": 0.5, "done": 0.6},
    ]
    latencies, lags = stats.request_timings(records)
    assert latencies == pytest.approx([500.0, 500.0])
    assert lags == pytest.approx([0.0, 400.0])


def test_early_send_is_not_negative_lag():
    latencies, lags = stats.request_timings([{"due": 1.0, "sent": 0.999, "done": 1.01}])
    assert lags == [0.0]
    assert latencies == pytest.approx([10.0])


# -- the benchmark definition mirrors the code -----------------------------
def test_benchmark_json_lists_every_metric_the_code_prints():
    import run

    definition = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in definition["per_layer"]] == (
        layers.PER_LAYER
    )
    assert [w["name"] for w in definition["workloads"]] == list(run.workloads.WORKLOADS)
