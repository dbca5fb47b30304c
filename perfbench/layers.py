"""Per-layer metrics of the traced run, derived from the recorded spans.

Every metric is printed for every workload; a layer a workload never enters
reads 0.  :data:`PER_LAYER` is the single list of names, units and
directions; ``BENCHMARK.json`` and ``GLOSSARY.md`` mirror it (a unit test
keeps the JSON in step).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import stats
from probes import API_FUNCTIONS, ENDPOINTS
from tracing import Span, busy_seconds, children_of, total_self_seconds, union_length

SERVE_ENDPOINTS = tuple(ENDPOINTS.values())
#: Layers whose self time (span minus children) is reported.
SELF_TIMED = (
    "experiments.run",
    "experiments.build_components",
    "core.step",
    "core.finish",
    "schedulers.sync",
    "api.report_document",
)

PER_LAYER: List[Tuple[str, str, str]] = [
    ("hwmodel.cost_table.calls", "count", "lower"),
    ("hwmodel.cost_table.s", "s", "lower"),
    ("hwmodel.optimal_config.s", "s", "lower"),
    ("evaluator.dataset.calls", "count", "lower"),
    ("evaluator.dataset.s", "s", "lower"),
    ("evaluator.train.calls", "count", "lower"),
    ("evaluator.train.s", "s", "lower"),
    ("experiments.build_components.calls", "count", "lower"),
    ("experiments.build_components.s", "s", "lower"),
    ("core.step.calls", "count", "lower"),
    ("core.step.s", "s", "lower"),
    ("core.step.p50_ms", "ms", "lower"),
    ("core.step.p90_ms", "ms", "lower"),
    ("core.finish.s", "s", "lower"),
    ("core.train_classifier.s", "s", "lower"),
    ("core.final_accuracy", "fraction", "higher"),
    ("core.final_edap", "edap", "lower"),
    ("nas.supernet.forward_s", "s", "lower"),
    ("autograd.backward_s", "s", "lower"),
    ("autograd.plan_cache.hits", "count", "higher"),
    ("autograd.plan_cache.misses", "count", "lower"),
    ("autograd.plan_cache.hit_ratio", "fraction", "higher"),
    ("serialization.save_checkpoint.calls", "count", "lower"),
    ("serialization.save_checkpoint.s", "s", "lower"),
    ("serialization.save_checkpoint.bytes", "bytes", "lower"),
    ("serialization.load_checkpoint.calls", "count", "lower"),
    ("serialization.load_checkpoint.s", "s", "lower"),
    ("serialization.save_json.calls", "count", "lower"),
    ("serialization.save_json.s", "s", "lower"),
    ("sweep.queue.claims", "count", "lower"),
    ("sweep.queue.claim_s", "s", "lower"),
    ("sweep.queue.heartbeats", "count", "lower"),
    ("sweep.queue.heartbeat_s", "s", "lower"),
    ("sweep.worker_wait_s", "s", "lower"),
    ("schedulers.sync.calls", "count", "lower"),
    ("schedulers.sync.s", "s", "lower"),
    ("schedulers.promoted", "count", "higher"),
    ("schedulers.retired", "count", "higher"),
    ("schedulers.useful_step_ratio", "fraction", "higher"),
    ("browser.scan.calls", "count", "lower"),
    ("browser.scan.s", "s", "lower"),
    ("browser.parsed", "count", "lower"),
    ("browser.reused", "count", "higher"),
    ("browser.reuse_ratio", "fraction", "higher"),
]
for _endpoint in SERVE_ENDPOINTS:
    PER_LAYER += [
        (f"serve.{_endpoint}.p50_ms", "ms", "lower"),
        (f"serve.{_endpoint}.tail_ms", "ms", "lower"),
    ]
PER_LAYER += [(f"api.{name}.s", "s", "lower") for name in API_FUNCTIONS]
PER_LAYER += [
    ("serve.open_loop.p50_ms", "ms", "lower"),
    ("serve.open_loop.tail_ms", "ms", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.cost_tables.builds", "count", "lower"),
    ("serve.cost_tables.hits", "count", "higher"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
]
PER_LAYER += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
PER_LAYER += [
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _calls(spans: Sequence[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(
    spans: Sequence[Span],
    counters: Sequence[Mapping[str, float]],
    root: Span,
    span_cost_s: float,
) -> Dict[str, float]:
    """Every span-derived per-layer metric (the serve/loadgen ones come from the client)."""
    values: Dict[str, float] = {}

    def timed(prefix: str, name: str) -> None:
        values[f"{prefix}.calls"] = _calls(spans, name)
        values[f"{prefix}.s"] = busy_seconds(spans, name)

    timed("hwmodel.cost_table", "hwmodel.cost_table")
    values["hwmodel.optimal_config.s"] = busy_seconds(spans, "hwmodel.optimal_config")
    timed("evaluator.dataset", "evaluator.dataset")
    timed("evaluator.train", "evaluator.train")
    timed("experiments.build_components", "experiments.build_components")
    timed("core.step", "core.step")
    steps_ms = [1000.0 * span.duration for span in spans if span.name == "core.step"]
    values["core.step.p50_ms"] = stats.percentile(steps_ms, 50) if steps_ms else 0.0
    values["core.step.p90_ms"] = stats.percentile(steps_ms, 90) if steps_ms else 0.0
    values["core.finish.s"] = busy_seconds(spans, "core.finish")
    values["core.train_classifier.s"] = busy_seconds(spans, "core.train_classifier")
    values["nas.supernet.forward_s"] = busy_seconds(spans, "nas.supernet.forward")
    values["autograd.backward_s"] = busy_seconds(spans, "autograd.backward")
    hits = sum(counter.get("plan_cache.hits", 0.0) for counter in counters)
    misses = sum(counter.get("plan_cache.misses", 0.0) for counter in counters)
    values["autograd.plan_cache.hits"] = hits
    values["autograd.plan_cache.misses"] = misses
    values["autograd.plan_cache.hit_ratio"] = _ratio(hits, hits + misses)

    timed("serialization.save_checkpoint", "serialization.save_checkpoint")
    values["serialization.save_checkpoint.bytes"] = sum(
        span.attrs.get("bytes", 0) for span in spans if span.name == "serialization.save_checkpoint"
    )
    timed("serialization.load_checkpoint", "serialization.load_checkpoint")
    timed("serialization.save_json", "serialization.save_json")

    values["sweep.queue.claims"] = _calls(spans, "sweep.queue.claim")
    values["sweep.queue.claim_s"] = busy_seconds(spans, "sweep.queue.claim")
    values["sweep.queue.heartbeats"] = _calls(spans, "sweep.queue.heartbeat")
    values["sweep.queue.heartbeat_s"] = busy_seconds(spans, "sweep.queue.heartbeat")
    values["sweep.worker_wait_s"] = worker_wait_seconds(spans)
    timed("schedulers.sync", "schedulers.sync")

    timed("browser.scan", "browser.scan")
    scans = [span for span in spans if span.name == "browser.scan"]
    parsed = sum(span.attrs.get("parsed", 0) for span in scans)
    reused = sum(span.attrs.get("reused", 0) for span in scans)
    values["browser.parsed"] = parsed
    values["browser.reused"] = reused
    values["browser.reuse_ratio"] = _ratio(reused, parsed + reused)

    for name in API_FUNCTIONS:
        values[f"api.{name}.s"] = busy_seconds(spans, f"api.{name}")
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = total_self_seconds(spans, name)

    values["trace.wall_s"] = root.duration
    values["trace.coverage"] = coverage(spans, root)
    values["trace.spans"] = len(spans)
    values["trace.overhead_s"] = len(spans) * span_cost_s
    return values


def worker_wait_seconds(spans: Sequence[Span]) -> float:
    """Sweep-worker wall time spent outside runs (claim polling, syncs, sleeps)."""
    waited = 0.0
    for worker in (span for span in spans if span.name == "sweep.worker"):
        inside = [
            (span.start, span.end)
            for span in spans
            if span.pid == worker.pid and span.name == "experiments.run"
        ]
        waited += worker.duration - union_length(inside)
    return waited


def coverage(spans: Sequence[Span], root: Span) -> float:
    """Share of the root span covered by its children's spans."""
    kids = children_of(spans).get(root.id, [])
    covered = union_length(
        [(max(kid.start, root.start), min(kid.end, root.end)) for kid in kids]
    )
    return _ratio(covered, root.duration)
