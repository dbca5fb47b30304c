"""Spans around the calls into each layer, installed from outside the program.

:func:`instrument` replaces each layer's public entry point with a traced
wrapper.  A function that other modules import by name (``runner.py`` does
``from repro.utils.serialization import save_checkpoint``) is replaced in
every ``repro`` module that holds it, i.e. at its call sites; methods are
replaced on their class.  Sweep workers are forked, so they inherit the
wrappers; :func:`instrument` also wraps the worker entry points so each
worker records its own counters and flushes its spans before it exits.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict

from tracing import Tracer

#: Serve endpoints as named in the metrics, keyed by request path prefix.
ENDPOINTS = {
    "/v1/report": "report",
    "/v1/summary": "summary",
    "/v1/pareto": "pareto",
    "/v1/runs/": "runs",
    "/v1/cost": "cost",
    "/v1/jobs": "jobs",
}

#: ``repro.api`` builders timed as ``api.<name>``.
API_FUNCTIONS = (
    "report_document",
    "summary_document",
    "pareto_document",
    "run_document",
    "cost_document",
    "submit_job",
    "job_document",
)


def endpoint_of(path: str) -> str:
    for prefix, name in ENDPOINTS.items():
        if path.startswith(prefix):
            return name
    return "other"


def _replace_everywhere(original: Callable[..., Any], traced: Callable[..., Any]) -> int:
    """Rebind every ``repro`` module attribute that is ``original`` to ``traced``."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, traced)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no call site found for {original!r}")
    return replaced


def _trace_function(tracer: Tracer, original, name: str, after=None) -> None:
    _replace_everywhere(original, tracer.wrap(original, name, after))


def _trace_method(tracer: Tracer, cls: type, method: str, name: str, after=None) -> None:
    setattr(cls, method, tracer.wrap(cls.__dict__.get(method, getattr(cls, method)), name, after))


def _record_bytes(attrs: Dict[str, Any], result: Any, args: tuple, kwargs: dict) -> None:
    attrs["bytes"] = os.path.getsize(result)


def _record_scan(attrs: Dict[str, Any], outcome: Any, args: tuple, kwargs: dict) -> None:
    attrs["parsed"] = outcome.parsed
    attrs["reused"] = outcome.reused


def instrument(tracer: Tracer, trace_dir: Path) -> Dict[str, int]:
    """Install every layer probe (call once, after the workload imported ``repro``).

    Returns this process's plan-cache counters, the base of its delta.
    """
    import repro.api as api
    import repro.experiments.browser as browser
    import repro.experiments.sweep as sweep
    from repro.autograd import plan_cache_info
    from repro.autograd.tensor import Tensor
    from repro.core.baselines import BaselineSearcher
    from repro.core.co_explore import DanceSearcher
    from repro.core.rl_coexplore import RLCoExplorationSearcher
    from repro.core.train_utils import train_classifier
    from repro.evaluator import generate_evaluator_dataset, train_evaluator
    from repro.experiments.factory import build_components
    from repro.experiments.runner import Runner
    from repro.experiments.schedulers.coordinator import ScheduleCoordinator
    from repro.hwmodel.cost_model import CostTable
    from repro.nas.supernet import SuperNet
    from repro.serve.app import _Handler
    from repro.utils import serialization

    # hwmodel, evaluator, experiments (factory/runner)
    _trace_method(tracer, CostTable, "__init__", "hwmodel.cost_table")
    _trace_method(tracer, CostTable, "optimal_config", "hwmodel.optimal_config")
    _trace_function(tracer, generate_evaluator_dataset, "evaluator.dataset")
    _trace_function(tracer, train_evaluator, "evaluator.train")
    _trace_function(tracer, build_components, "experiments.build_components")
    _trace_method(tracer, Runner, "run", "experiments.run")
    _trace_function(tracer, sweep.run_sweep, "experiments.run_sweep")

    # core, nas, autograd
    for searcher in (DanceSearcher, BaselineSearcher, RLCoExplorationSearcher):
        _trace_method(tracer, searcher, "setup", "core.setup")
        _trace_method(tracer, searcher, "step", "core.step")
        _trace_method(tracer, searcher, "finish", "core.finish")
    _trace_function(tracer, train_classifier, "core.train_classifier")
    _trace_method(tracer, SuperNet, "__call__", "nas.supernet.forward")
    _trace_method(tracer, Tensor, "backward", "autograd.backward")

    # utils.serialization
    _trace_function(
        tracer, serialization.save_checkpoint, "serialization.save_checkpoint", _record_bytes
    )
    _trace_function(tracer, serialization.load_checkpoint, "serialization.load_checkpoint")
    _trace_function(tracer, serialization.save_json, "serialization.save_json")

    # experiments.sweep, experiments.schedulers, experiments.browser
    _trace_method(tracer, sweep.WorkQueue, "try_claim", "sweep.queue.claim")
    _trace_method(tracer, sweep.WorkQueue, "heartbeat", "sweep.queue.heartbeat")
    _trace_method(tracer, ScheduleCoordinator, "sync", "schedulers.sync")
    _trace_function(tracer, browser.browse, "browser.scan", _record_scan)

    # api / serve
    for name in API_FUNCTIONS:
        setattr(api, name, tracer.wrap(getattr(api, name), f"api.{name}"))
    for verb in ("do_GET", "do_POST"):
        _trace_request(tracer, _Handler, verb)

    for entry in ("_sweep_worker", "_scheduled_sweep_worker"):
        setattr(sweep, entry, _worker_entry(tracer, getattr(sweep, entry), trace_dir))
    return plan_cache_info()


def _count_plan_cache(tracer: Tracer, before: Dict[str, int]) -> None:
    from repro.autograd import plan_cache_info

    after = plan_cache_info()
    tracer.count("plan_cache.hits", after["hits"] - before["hits"])
    tracer.count("plan_cache.misses", after["misses"] - before["misses"])


def _trace_request(tracer: Tracer, handler: type, verb: str) -> None:
    """One root span per HTTP request, carrying the client's request id."""
    original = getattr(handler, verb)

    def traced(self: Any) -> None:
        request_id = self.headers.get("X-Request-Id")
        with tracer.span("serve.request", rid=request_id, endpoint=endpoint_of(self.path)):
            original(self)

    setattr(handler, verb, traced)


def _worker_entry(tracer: Tracer, entry: Callable[..., None], trace_dir: Path):
    """A forked sweep worker: fresh span list, own counters, flushed at exit."""

    def worker(*args: Any, **kwargs: Any) -> None:
        from repro.autograd import plan_cache_info

        tracer.reset_after_fork()
        before = plan_cache_info()
        try:
            with tracer.span("sweep.worker"):
                entry(*args, **kwargs)
        finally:
            _count_plan_cache(tracer, before)
            tracer.flush(trace_dir)

    return worker


def finish_parent(tracer: Tracer, trace_dir: Path, plan_cache_before: Dict[str, int]) -> None:
    """Record the benchmark process's own plan-cache delta and flush its spans."""
    _count_plan_cache(tracer, plan_cache_before)
    tracer.flush(trace_dir)
