"""The three workloads: what each runs, what it measures and what it checks.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  The program only ever sees the inputs generated here from
the workload seed; it is driven through its public entry points
(``Runner.run``, ``run_sweep``, ``create_server`` over HTTP).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import stats
from tracing import Span, Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dance_fig5", "asha_sweep", "serve_mixed")

#: λ2 values of the Figure-5 style sweep (default DANCE config otherwise).
DANCE_LAMBDAS = (0.0, 0.5, 2.0)
#: ASHA sweep: 8 baseline candidates, scaled down so a run fits the time budget.
ASHA_CONFIG = {"method": "baseline", "num_searchable": 6, "image_samples": 128}
ASHA_CANDIDATES = 8
ASHA_ETA = 2
ASHA_MIN_STEPS = 1
SWEEP_JOBS = 2
#: Lock ttl of the sweep: 3x the longest gap between heartbeats of this
#: scaled config, so idle workers poll every 2 s instead of the default 5 s.
SWEEP_LOCK_TTL = 8.0

#: serve_mixed: open-loop reference rate, connections and burst size.
REFERENCE_RPS = 10.0
CONNECTIONS = 2
BURST_REQUESTS = 150


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    records: Path
    tracer: Optional[Tracer]


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]]
    #: The traced root span (trace runs only) and per-layer values the
    #: workload measures itself (client-side serve numbers, scheduler tallies).
    root: Optional[Span] = None
    layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _root_span(context: Context):
    return context.tracer.span("workload") if context.tracer is not None else nullcontext({})


def _last_root(context: Context) -> Optional[Span]:
    if context.tracer is None:
        return None
    return next(span for span in reversed(context.tracer.spans) if span.name == "workload")


def dir_megabytes(path: Path) -> float:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total / 1e6


def peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _edap_check(config: Any, results: Sequence[Any]) -> Tuple[bool, str]:
    """Each result's EDAP equals the cost table's metrics for its design."""
    from repro.experiments import build_hw_space, build_search_space
    from repro.hwmodel.cost_model import CostTable

    table = CostTable(build_search_space(config), build_hw_space(config))
    for result in results:
        expected = table.metrics_for(result.op_indices, result.hardware).edap
        if expected != result.edap:
            return False, f"EDAP {result.edap!r} != cost table {expected!r}"
    return True, f"{len(results)} results"


def _result_payload(results: Sequence[Any]) -> List[Dict[str, Any]]:
    """The float64 outcome of each run: op indices, hardware, accuracy, EDAP."""
    return [
        {
            "op_indices": [int(index) for index in result.op_indices],
            "hardware": result.hardware.as_dict(),
            "accuracy": result.accuracy,
            "edap": result.edap,
        }
        for result in results
    ]


def _repeat_checks(
    context: Context, workload: str, iterations: Sequence[Dict[str, Any]]
) -> List[Tuple[str, bool, str]]:
    """Float64 results of one seed repeat exactly: across the iterations of
    this run, and across runs (the first run of a seed records its digest)."""
    payloads = [_result_payload(iteration["results"]) for iteration in iterations]
    checks = [
        (
            "repeats_within_run",
            all(payload == payloads[0] for payload in payloads),
            f"{len(payloads)} iteration(s) compared",
        )
    ]
    digest = hashlib.sha256(json.dumps(payloads[0], sort_keys=True).encode("utf-8")).hexdigest()
    context.records.mkdir(parents=True, exist_ok=True)
    path = context.records / f"{workload}-seed{context.seed}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))["digest"]
        checks.append(
            (
                "repeats_across_runs",
                previous == digest,
                f"digest {digest[:12]} vs recorded {previous[:12]}",
            )
        )
    else:
        path.write_text(json.dumps({"digest": digest, "results": payloads[0]}), encoding="utf-8")
        checks.append(
            ("repeats_across_runs", True, f"first run of this seed, recorded {digest[:12]}")
        )
    return checks


def _iterate(context: Context, once: Callable[[int], Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Whole iterations while another one fits in ``--seconds`` (at least one;
    exactly one when traced), so a run's length does not hinge on whether the
    last iteration happened to start just before the deadline."""
    start = time.perf_counter()
    iterations = [once(0)]
    while context.tracer is None:
        elapsed = time.perf_counter() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > context.seconds:
            break
        iterations.append(once(len(iterations)))
    return iterations


def _sweep_metrics(iterations: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        key: stats.median([iteration[key] for iteration in iterations])
        for key in ("wall_s", "disk_mb", "latency_p50_ms", "latency_tail_ms", "max_rps")
    }


def _quality(results: Sequence[Any]) -> Dict[str, float]:
    """Search quality of a set of results: mean accuracy, geometric-mean EDAP."""
    return {
        "core.final_accuracy": sum(result.accuracy for result in results) / len(results),
        "core.final_edap": stats.geomean(result.edap for result in results),
    }


# ----------------------------------------------------------------------
# dance_fig5: Figure-5 style λ2 sweep of full DANCE runs
# ----------------------------------------------------------------------
def dance_fig5(context: Context) -> Outcome:
    from repro.experiments import ExperimentConfig, Runner

    experiment_seed = context.seed % 100_000
    configs = [
        ExperimentConfig(method="dance", seed=experiment_seed, lambda_2=value)
        for value in DANCE_LAMBDAS
    ]
    attempted = failed = 0
    all_results: List[Any] = []

    def once(index: int) -> Dict[str, Any]:
        nonlocal attempted, failed
        runs_root = context.work / f"dance-{index}"
        results, run_seconds = [], []
        start = time.perf_counter()
        with _root_span(context):
            for config in configs:
                attempted += 1
                run_start = time.perf_counter()
                try:
                    result = Runner(runs_root).run(
                        config, workdir=runs_root / f"lambda-{config.lambda_2}"
                    )
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                run_seconds.append(time.perf_counter() - run_start)
                results.append(result)
        wall = time.perf_counter() - start
        all_results.extend(results)
        if not results:
            raise RuntimeError("every DANCE run failed")
        return {
            "results": results,
            "wall_s": wall,
            "disk_mb": dir_megabytes(runs_root),
            "latency_p50_ms": 1000.0 * stats.median(run_seconds),
            "latency_tail_ms": 1000.0 * stats.tail(run_seconds)[0],
            "max_rps": len(results) / wall,
        }

    iterations = _iterate(context, once)
    root = _last_root(context)
    checks = [
        ("edap_matches_cost_table", *_edap_check(configs[0], all_results)),
        *_repeat_checks(context, "dance_fig5", iterations),
        ("no_failed_runs", failed == 0, f"{failed} of {attempted} runs failed"),
    ]
    return Outcome(
        metrics=_sweep_metrics(iterations),
        attempted=attempted,
        failed=failed,
        checks=checks,
        root=root,
        layer=_quality(iterations[0]["results"]),
        info={
            "iterations": len(iterations),
            "finished_steps": sum(len(result.history) for result in iterations[0]["results"]),
        },
    )


# ----------------------------------------------------------------------
# asha_sweep: ASHA over 8 baseline candidates on 2 forked workers
# ----------------------------------------------------------------------
def asha_sweep(context: Context) -> Outcome:
    from repro.experiments import ExperimentConfig, SweepPlan, run_sweep
    from repro.experiments.schedulers import ASHA, PROMOTED, load_state

    base = ExperimentConfig(**ASHA_CONFIG)
    seeds = sorted(random.Random(context.seed).sample(range(100_000), ASHA_CANDIDATES))
    plan = SweepPlan.from_grid(base, seeds=seeds)
    attempted = failed = 0
    checks: List[Tuple[str, bool, str]] = []
    all_results: List[Any] = []
    tallies: Dict[str, float] = {}

    def once(index: int) -> Dict[str, Any]:
        nonlocal attempted, failed
        runs_root = context.work / f"asha-{index}"
        started_at = time.time()
        start = time.perf_counter()
        with _root_span(context):
            outcome = run_sweep(
                plan,
                base_dir=runs_root,
                jobs=SWEEP_JOBS,
                lock_ttl=SWEEP_LOCK_TTL,
                scheduler=ASHA(eta=ASHA_ETA, min_steps=ASHA_MIN_STEPS),
            )
        wall = time.perf_counter() - start
        failed_runs = sum(
            1 for item in plan.items if (runs_root / item.name / "FAILED.txt").exists()
        )
        attempted += len(plan.items)
        failed += max(failed_runs, len(outcome.unfinished))
        checks.append(
            (
                "asha_promotes_4_retires_4",
                len(outcome.results) == ASHA_CANDIDATES // ASHA_ETA
                and len(outcome.retired) == ASHA_CANDIDATES // ASHA_ETA
                and not outcome.unfinished,
                f"{len(outcome.results)} finished, {len(outcome.retired)} retired, "
                f"{len(outcome.unfinished)} unfinished",
            )
        )
        # Time from the sweep's start until each candidate reached a terminal
        # artefact: its result, or its retirement marker.
        decided = []
        for item in plan.items:
            for marker in ("result.json", "RETIRED.txt"):
                path = runs_root / item.name / marker
                if path.exists():
                    decided.append(path.stat().st_mtime - started_at)
                    break
        # Later rungs also rank finished runs on paper; count candidates, not verdicts.
        state = load_state(runs_root)
        promoted = {
            name
            for table in state.decisions.values()
            for name, verdict in table.items()
            if verdict == PROMOTED
        }
        tallies["schedulers.promoted"] = len(promoted)
        tallies["schedulers.retired"] = len(outcome.retired)
        tallies["finished_steps"] = sum(len(result.history) for result in outcome.results)
        results = outcome.results
        all_results.extend(results)
        if not results:
            raise RuntimeError("the ASHA sweep finished no run")
        return {
            "results": results,
            "wall_s": wall,
            "disk_mb": dir_megabytes(runs_root),
            "latency_p50_ms": 1000.0 * stats.median(decided),
            "latency_tail_ms": 1000.0 * stats.tail(decided)[0],
            "max_rps": len(results) / wall,
        }

    iterations = _iterate(context, once)
    checks += [
        ("edap_matches_cost_table", *_edap_check(base, all_results)),
        *_repeat_checks(context, "asha_sweep", iterations),
        ("no_failed_runs", failed == 0, f"{failed} of {attempted} runs failed"),
    ]
    return Outcome(
        metrics=_sweep_metrics(iterations),
        attempted=attempted,
        failed=failed,
        checks=checks,
        root=_last_root(context),
        layer={
            "schedulers.promoted": tallies["schedulers.promoted"],
            "schedulers.retired": tallies["schedulers.retired"],
            **_quality(iterations[0]["results"]),
        },
        info={
            "iterations": len(iterations),
            "finished_steps": tallies["finished_steps"],
            "candidates": len(plan.items),
        },
    )


# ----------------------------------------------------------------------
# serve_mixed: open-loop mixed traffic against an in-process server
# ----------------------------------------------------------------------
class _LoadPhase:
    """Runs one request schedule through the load generator process."""

    def __init__(self, url: str, work: Path) -> None:
        self.url = url
        self.work = work
        self.count = 0
        self.records: List[Dict[str, Any]] = []

    def __call__(self, requests: Sequence[Any], tag: str) -> List[Dict[str, Any]]:
        self.count += 1
        schedule = self.work / f"schedule-{self.count}.json"
        output = self.work / f"records-{self.count}.json"
        schedule.write_text(
            json.dumps(
                {
                    "url": self.url,
                    "connections": CONNECTIONS,
                    "requests": [
                        request.to_dict() | {"id": f"{tag}-{index}"}
                        for index, request in enumerate(requests)
                    ],
                }
            ),
            encoding="utf-8",
        )
        subprocess.run(
            [sys.executable, str(HERE / "loadgen.py"), str(schedule), str(output)],
            check=True,
            timeout=170,
        )
        records = json.loads(output.read_text(encoding="utf-8"))
        for record, request in zip(records, requests):
            record["endpoint"] = request.path
        self.records += records
        return records


def _ok(record: Dict[str, Any]) -> bool:
    return 200 <= record["status"] < 300


def serve_prepare(work: Path, seed: int):
    from runs_tree import build_runs_tree

    return build_runs_tree(work / "serve_runs", seed)


def serve_mixed(context: Context, tree: Any) -> Outcome:
    from repro import api
    from repro.core.results import SearchResult
    from repro.serve.app import create_server
    from runs_tree import RequestFactory

    from probes import endpoint_of

    (tree.root / ".browser_cache.json").unlink(missing_ok=True)
    factory = RequestFactory(tree, context.seed)
    with _root_span(context):
        server = create_server(tree.root, port=0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            with urllib.request.urlopen(f"{server.url}/v1/report", timeout=60) as response:
                response.read()
            phase = _LoadPhase(server.url, context.work)
            burst = phase(factory.burst(BURST_REQUESTS), "burst")
            reference = phase(factory.poisson(REFERENCE_RPS, context.seconds), "reference")
            wall = max(record["done"] for record in burst) - min(record["sent"] for record in burst)
            with urllib.request.urlopen(f"{server.url}/v1/report", timeout=60) as response:
                served = response.read().decode("utf-8")
            cost_tables = server.cost_tables.stats()
            expected = api.report_document(tree.root, lock_ttl=server.lock_ttl).render() + "\n"
        finally:
            server.shutdown()
            thread.join()
            server.server_close()

    # Back-to-back callers see each request's own time (a closed loop): the
    # end-to-end latency.  The open-loop reference phase times requests from
    # when they were due and feeds the per-layer serve and loadgen metrics.
    service = [1000.0 * (record["done"] - record["sent"]) for record in burst]
    service_tail, service_tail_percentile = stats.tail(service)
    latencies, lags = stats.request_timings(reference)
    open_tail, open_tail_percentile = stats.tail(latencies)
    document = json.loads(served)
    results = [SearchResult.from_dict(entry) for entry in document["results"]]
    records_all = phase.records
    failed = sum(1 for record in records_all if not _ok(record))
    jobs_on_disk = sum(1 for name in factory.jobs if (tree.root / name / "config.json").exists())
    checks = [
        ("report_equals_api_document", served == expected, f"{len(served)} bytes served"),
        ("all_requests_2xx", failed == 0, f"{failed} of {len(records_all)} requests failed"),
        (
            "submitted_jobs_queued",
            jobs_on_disk == len(factory.jobs),
            f"{jobs_on_disk} of {len(factory.jobs)} job configs on disk",
        ),
        ("edap_matches_cost_table", *_edap_check(tree.config, results)),
    ]
    metrics = {
        "wall_s": wall,
        "disk_mb": dir_megabytes(tree.root),
        "latency_p50_ms": stats.median(service),
        "latency_tail_ms": service_tail,
        "max_rps": len(burst) / wall,
    }
    layer: Dict[str, float] = {
        **_quality(results),
        "serve.cost_tables.builds": cost_tables["builds"],
        "serve.cost_tables.hits": cost_tables["hits"],
        "loadgen.sent": sum(1 for record in reference if record["status"]),
        "loadgen.lag_p99_ms": stats.percentile(lags, 99),
        "serve.open_loop.p50_ms": stats.median(latencies),
        "serve.open_loop.tail_ms": open_tail,
    }
    by_endpoint: Dict[str, List[float]] = {}
    for record, latency in zip(reference, latencies):
        by_endpoint.setdefault(endpoint_of(record["endpoint"]), []).append(latency)
    for endpoint, values in by_endpoint.items():
        layer[f"serve.{endpoint}.p50_ms"] = stats.median(values)
        layer[f"serve.{endpoint}.tail_ms"] = stats.tail(values)[0]
    root = _last_root(context)
    if root is not None:
        layer["serve.wait_ms"] = _median_wait_ms(context.tracer.spans, latencies)
    return Outcome(
        metrics=metrics,
        attempted=len(records_all),
        failed=failed,
        checks=checks,
        root=root,
        layer=layer,
        info={
            "reference_requests": len(reference),
            "latency_tail_percentile": round(service_tail_percentile, 2),
            "open_loop_tail_percentile": round(open_tail_percentile, 2),
            "burst_requests": len(burst),
            "jobs_submitted": len(factory.jobs),
            "runs_in_tree": len(tree.names),
        },
    )


def _median_wait_ms(spans: Sequence[Span], latencies: Sequence[float]) -> float:
    """Median of client latency minus the time the request spent inside ``repro.api``."""
    requests = {
        span.attrs.get("rid"): span for span in spans if span.name == "serve.request"
    }
    api_time: Dict[str, float] = {}
    for span in spans:
        if span.name.startswith("api.") and span.parent is not None:
            api_time[span.parent] = api_time.get(span.parent, 0.0) + span.duration
    waits = []
    for index, latency in enumerate(latencies):
        request = requests.get(f"reference-{index}")
        if request is not None:
            waits.append(latency - 1000.0 * api_time.get(request.id, 0.0))
    return stats.median(waits) if waits else 0.0
