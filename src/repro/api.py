"""``repro.api`` — the one versioned facade over every report/serve surface.

Before this module, each machine-readable surface (``report --format json``,
``--summary``, the Pareto records) was an ad-hoc dict assembled inside
:class:`~repro.experiments.runner.Runner`, and a third-party consumer had no
stability contract.  This facade defines the contract:

* every response is a frozen *document* dataclass carrying
  ``schema_version`` (:data:`SCHEMA_VERSION`) as its first key;
* every document renders through the one strict-RFC-8259 encoder
  (:func:`repro.utils.serialization.dumps_strict`), so the CLI
  (``print(document.render())``) and the :mod:`repro.serve` HTTP server
  (``document.render() + "\\n"``) emit byte-identical JSON for the same
  runs directory — asserted end-to-end by ``tests/test_serve.py`` and the
  CI serve smoke job;
* builder functions (:func:`report_document`, :func:`pareto_document`,
  :func:`summary_document`, :func:`run_document`, :func:`cost_document`,
  :func:`submit_job`) are the single implementation both the CLI and the
  server call; ``Runner.report`` and ``report --summary`` render text from
  the same builders.

Schema policy: additive changes (new keys) keep the version; renaming or
removing a key, or changing a value's meaning, bumps :data:`SCHEMA_VERSION`
for *all* documents (one version, one contract — see ``docs/serve.md``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.utils.serialization import dumps_strict, json_safe, load_json
from repro.utils.text import did_you_mean as _did_you_mean

#: Version stamped into every document this facade emits.  Bumped only on a
#: breaking change to any document shape; additive keys keep it.
SCHEMA_VERSION = 1


class UnknownRunError(LookupError):
    """A run/job name that does not exist under the runs directory."""


class JobConflictError(RuntimeError):
    """A job submission naming a run directory that already exists."""


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
class _Document:
    """Shared rendering of the versioned response dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def render(self) -> str:
        """The canonical JSON text of this document (no trailing newline).

        The CLI prints it (stdout gains the newline from ``print``); the
        server sends ``render() + "\\n"`` — so the two byte streams agree.
        """
        return dumps_strict(self.to_dict())


@dataclass(frozen=True)
class ReportDocument(_Document):
    """``report --format json`` / ``GET /v1/report``: results + queue status."""

    root: str
    results: List[Dict[str, Any]]
    pareto: List[Dict[str, Any]]
    runs: Dict[str, Dict[str, Any]]
    summary: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "results": self.results,
            "pareto": self.pareto,
            "runs": self.runs,
            "summary": self.summary,
        }


@dataclass(frozen=True)
class ParetoDocument(_Document):
    """``report --pareto --format json`` / ``GET /v1/pareto``."""

    root: str
    records: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "records": self.records,
        }


@dataclass(frozen=True)
class SummaryDocument(_Document):
    """``report --summary --format json`` / ``GET /v1/summary``.

    ``scheduler`` is the per-rung tally block of an adaptive sweep
    (``.scheduler_state.json`` present under the root, see
    ``docs/schedulers.md``), or ``None`` for plain grid sweeps — an
    additive key, so the schema version is unchanged.
    """

    root: str
    runs: int
    states: Dict[str, int]
    slices: List[Dict[str, Any]]
    scheduler: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "runs": self.runs,
            "states": self.states,
            "slices": self.slices,
            "scheduler": self.scheduler,
        }


@dataclass(frozen=True)
class ScheduleDocument(_Document):
    """``GET /v1/sweep/schedule``: the adaptive-sweep promotion ladder.

    ``scheduler`` is the same per-rung tally block as
    :class:`SummaryDocument`; ``candidates`` lists every candidate with its
    current rung, queue state, sticky decision and per-rung scores.  Both
    are empty (``None`` / ``[]``) when the runs directory holds no
    ``.scheduler_state.json``.
    """

    root: str
    scheduler: Optional[Dict[str, Any]]
    candidates: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "scheduler": self.scheduler,
            "candidates": self.candidates,
        }


@dataclass(frozen=True)
class RunDocument(_Document):
    """One run (or queued job) with its live queue state.

    ``result`` is the run's full ``result.json`` payload when finished and
    parseable, else ``None`` — the lean states (pending / running / ...)
    need no artefact reads on a warm cache.
    """

    root: str
    name: str
    state: str
    step: Optional[int]
    method: Optional[str]
    task: Optional[str]
    backend: Optional[str]
    seed: Optional[int]
    result: Optional[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "name": self.name,
            "state": self.state,
            "step": self.step,
            "method": self.method,
            "task": self.task,
            "backend": self.backend,
            "seed": self.seed,
            "result": self.result,
        }


@dataclass(frozen=True)
class CostDocument(_Document):
    """``GET /v1/cost``: per-layer cost breakdown from a resident cost table."""

    backend: str
    task: str
    hw_space: str
    arch: List[int]
    config: Dict[str, Any]
    configs_matched: int
    layers: List[Dict[str, Any]]
    totals: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "backend": self.backend,
            "task": self.task,
            "hw_space": self.hw_space,
            "arch": self.arch,
            "config": self.config,
            "configs_matched": self.configs_matched,
            "layers": self.layers,
            "totals": self.totals,
        }


# ----------------------------------------------------------------------
# Shared browse plumbing
# ----------------------------------------------------------------------
def _browse(
    root: Union[str, Path],
    lock_ttl: Optional[float],
    use_cache: bool,
    refresh: bool,
    filters: Optional[Mapping[str, str]],
):
    """One incremental-browser scan plus filter slice: ``(root, summaries, ttl)``."""
    from repro.experiments.browser import browse, filter_summaries
    from repro.experiments.sweep import DEFAULT_LOCK_TTL

    root = Path(root)
    ttl = DEFAULT_LOCK_TTL if lock_ttl is None else lock_ttl
    outcome = browse(root, use_cache=use_cache, refresh=refresh)
    summaries = filter_summaries(outcome.summaries, filters, root, ttl)
    return root, summaries, ttl


def run_states(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Queue state of every direct-child run directory (``config.json`` marker).

    The facade home of what ``sweep_status`` computes: artefact flags and
    checkpoint steps come from the mtime-cached summaries, only each run's
    ``LOCK`` file is statted live.
    """
    from repro.experiments.browser import status_view

    root, summaries, ttl = _browse(root, lock_ttl, use_cache, refresh, filters)
    return status_view(summaries, root, ttl)


# ----------------------------------------------------------------------
# Builders: report / pareto / summary
# ----------------------------------------------------------------------
def pareto_records(named_results: Sequence[Tuple[str, Any]]) -> List[Dict[str, Any]]:
    """Error-vs-EDAP records of finished runs, flagging the Pareto front.

    Dominance is computed with :func:`repro.hwmodel.metrics.pareto_front`
    over ``(error, EDAP)``; runs without a finite accuracy
    (``retrain_final=false``) have no error coordinate and are excluded.
    Records are sorted by EDAP, so the surviving points read as the
    Figure-5 front left to right.
    """
    from repro.hwmodel.metrics import HardwareMetrics, pareto_front

    named = [
        (name, result) for name, result in named_results if math.isfinite(result.accuracy)
    ]
    # Index payloads keep front membership per *run*, immune to any name
    # collision between results passed in by a caller.
    points = [
        (index, HardwareMetrics(result.error, result.edap, 0.0))
        for index, (_, result) in enumerate(named)
    ]
    front = {index for index, _ in pareto_front(points)}
    records = [
        {
            "run": name,
            "method": result.method,
            "backend": result.backend_name,
            "accuracy": result.accuracy,
            "error": result.error,
            "edap": result.edap,
            "on_front": index in front,
        }
        for index, (name, result) in enumerate(named)
    ]
    return sorted(records, key=lambda record: (record["edap"], record["error"]))


def _browsed_named_results(root: Path, summaries) -> List[Tuple[str, Any]]:
    from repro.experiments.browser import results_view

    return [(name, summary.to_result()) for name, summary in results_view(summaries, root)]


def pareto_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> ParetoDocument:
    """Pareto records of every finished run under ``root`` (browser-served)."""
    root, summaries, _ = _browse(root, lock_ttl, use_cache, refresh, filters)
    records = pareto_records(_browsed_named_results(root, summaries))
    return ParetoDocument(root=str(root), records=json_safe(records))


def report_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> ReportDocument:
    """The machine-readable report: saved results plus sweep/queue status.

    The browser scan decides *which* runs appear (and serves the state
    table from its cache), but the ``results`` array needs the full
    payloads — ``history``, ``op_indices``, the hardware dict — so each
    listed ``result.json`` is re-read here; a run whose file vanishes or
    is corrupted between the scan and the read is skipped rather than
    crashing the dump.
    """
    from repro.core.results import SearchResult
    from repro.experiments.browser import results_view, status_view
    from repro.experiments.runner import RESULT_FILE

    root, summaries, ttl = _browse(root, lock_ttl, use_cache, refresh, filters)
    named: List[Tuple[str, SearchResult]] = []
    for name, summary in results_view(summaries, root):
        path = root / summary.name / RESULT_FILE
        try:
            named.append((name, SearchResult.from_dict(load_json(path))))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue
    results = [result for _, result in named]
    status = status_view(summaries, root, ttl)
    states: Dict[str, int] = {}
    for entry in status.values():
        states[entry["state"]] = states.get(entry["state"], 0) + 1
    return ReportDocument(
        root=str(root),
        results=json_safe([result.to_dict() for result in results]),
        pareto=json_safe(pareto_records(named)),
        runs=json_safe(status),
        summary={
            "results": len(results),
            "run_dirs": len(status),
            "states": states,
        },
    )


def summary_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> SummaryDocument:
    """One-shot sweep-progress aggregation over every scanned run.

    Unlike :func:`report_document`'s ``runs`` table (direct children with a
    ``config.json``, mirroring the work queue), this counts *every* run
    directory the browser discovered at any depth: overall state totals,
    plus a finished/total breakdown per ``(backend, task)`` slice.
    """
    root, summaries, ttl = _browse(root, lock_ttl, use_cache, refresh, filters)
    states: Dict[str, int] = {}
    live: Dict[str, str] = {}
    slices: Dict[Tuple[str, str], Dict[str, int]] = {}
    for relpath in sorted(summaries):
        summary = summaries[relpath]
        state = summary.state(root, ttl)
        states[state] = states.get(state, 0) + 1
        live[relpath] = state
        key = (summary.backend_label or "?", summary.task or "?")
        bucket = slices.setdefault(key, {"finished": 0, "total": 0})
        bucket["total"] += 1
        if state == "finished":
            bucket["finished"] += 1
    return SummaryDocument(
        root=str(root),
        runs=len(summaries),
        states=dict(sorted(states.items())),
        slices=[
            {
                "backend": backend,
                "task": task,
                "finished": bucket["finished"],
                "total": bucket["total"],
            }
            for (backend, task), bucket in sorted(slices.items())
        ],
        scheduler=_schedule_overview(root, live),
    )


def _schedule_overview(
    root: Path, live_states: Optional[Mapping[str, str]]
) -> Optional[Dict[str, Any]]:
    """Per-rung tallies of the schedule under ``root``, or ``None``.

    A present-but-unreadable state file yields ``None`` too: the progress
    surfaces must keep reporting a sweep whose schedule got corrupted (the
    sweep workers themselves fail loudly on it).
    """
    from repro.experiments.schedulers import load_state, schedule_overview

    try:
        state = load_state(root)
    except ValueError:
        return None
    if state is None:
        return None
    return json_safe(schedule_overview(state, live_states))


def schedule_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> ScheduleDocument:
    """The adaptive-sweep schedule under ``root`` (``GET /v1/sweep/schedule``)."""
    from repro.experiments.schedulers import load_state, candidate_rows, schedule_overview

    root, summaries, ttl = _browse(root, lock_ttl, use_cache, refresh, None)
    try:
        state = load_state(root)
    except ValueError:
        state = None
    if state is None:
        return ScheduleDocument(root=str(root), scheduler=None, candidates=[])
    live = {
        relpath: summaries[relpath].state(root, ttl)
        for relpath in state.candidates
        if relpath in summaries
    }
    return ScheduleDocument(
        root=str(root),
        scheduler=json_safe(schedule_overview(state, live)),
        candidates=json_safe(candidate_rows(state, live)),
    )


# ----------------------------------------------------------------------
# Builders: single runs and queued jobs
# ----------------------------------------------------------------------
def run_document(
    root: Union[str, Path],
    name: str,
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> RunDocument:
    """One run's live state plus (when finished) its full result payload.

    Raises :class:`UnknownRunError` — with a closest-match hint — when no
    run directory of that name exists in the scan.
    """
    from repro.experiments.runner import RESULT_FILE

    root, summaries, ttl = _browse(root, lock_ttl, use_cache, refresh, None)
    summary = summaries.get(name)
    if summary is None:
        raise UnknownRunError(
            f"unknown run {name!r} under {root}{_did_you_mean(name, summaries)}"
        )
    state = summary.state(root, ttl)
    result: Optional[Dict[str, Any]] = None
    if summary.has_result and not summary.corrupt:
        try:
            result = load_json(root / summary.name / RESULT_FILE)
        except (OSError, json.JSONDecodeError):
            result = None
    return RunDocument(
        root=str(root),
        name=name,
        state=state,
        step=summary.checkpoint_step,
        method=summary.method or summary.result_method,
        task=summary.task,
        backend=summary.backend_label,
        seed=summary.seed,
        result=json_safe(result),
    )


def submit_job(root: Union[str, Path], data: Mapping[str, Any]):
    """Queue one ``ExperimentConfig`` JSON payload as a pending on-disk run.

    Writes ``<root>/<config.name>/config.json`` — exactly the marker an
    ordinary ``sweep --queue`` worker claims through the crash-safe
    :class:`~repro.experiments.sweep.WorkQueue` — and returns the validated
    config.  Raises ``ValueError`` (with did-you-mean hints, via
    ``ExperimentConfig.from_dict``) on a malformed payload and
    :class:`JobConflictError` when the run directory already holds a
    config or result.

    The payload may carry three extra, non-config keys — ``scheduler``
    (registry name), ``eta`` and ``min_steps`` — to register the run as a
    candidate of the adaptive schedule under ``root``
    (``docs/schedulers.md``).  Registration validates parameter agreement
    with any existing schedule and rejects new candidates once promotion
    decisions were made; ``scheduler: "grid"`` (and omitting the key)
    queues a plain run.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import CONFIG_FILE, RESULT_FILE

    if not isinstance(data, Mapping):
        raise ValueError(f"job payload must be a JSON object, got {type(data).__name__}")
    payload = dict(data)
    scheduler_name = payload.pop("scheduler", None)
    eta = payload.pop("eta", None)
    min_steps = payload.pop("min_steps", None)
    scheduler = None
    if scheduler_name is not None:
        from repro.experiments.schedulers import build_scheduler

        scheduler = build_scheduler(
            str(scheduler_name),
            eta=3 if eta is None else int(eta),
            min_steps=1 if min_steps is None else int(min_steps),
        )
    elif eta is not None or min_steps is not None:
        raise ValueError(
            "job payload sets eta/min_steps without a scheduler; "
            "add \"scheduler\": \"halving\" or \"asha\""
        )
    config = ExperimentConfig.from_dict(payload)
    workdir = Path(root) / config.name
    if (workdir / CONFIG_FILE).exists() or (workdir / RESULT_FILE).exists():
        raise JobConflictError(
            f"run {config.name!r} already exists under {root}; "
            f"query it via /v1/jobs/{config.name} or choose a different seed/method"
        )
    if scheduler is not None and scheduler.name != "grid":
        # Validate the registration (parameter agreement, no decisions yet)
        # BEFORE the config lands: a rejected candidate must not linger as
        # a pending run the schedule will never admit.
        from repro.experiments.schedulers import register_candidates
        from repro.experiments.sweep import DEFAULT_LOCK_TTL

        register_candidates(root, scheduler, [config.name], DEFAULT_LOCK_TTL)
    config.save(workdir / CONFIG_FILE)
    return config


def job_document(
    root: Union[str, Path],
    name: str,
    lock_ttl: Optional[float] = None,
) -> RunDocument:
    """Status of a submitted job — the same shape as :func:`run_document`.

    Jobs *are* runs (a queued job is a run directory with only a
    ``config.json``), so one document serves both; the scan refreshes so a
    just-submitted job is visible immediately.
    """
    return run_document(root, name, lock_ttl=lock_ttl, refresh=True)


# ----------------------------------------------------------------------
# Builder: cost queries from resident tables
# ----------------------------------------------------------------------
#: Module-level residency for callers without their own (the server keeps
#: its own instance so tests can assert build counts in isolation).
_RESIDENT_TABLES = None


def _default_tables():
    from repro.hwmodel.cost_model import ResidentCostTables

    global _RESIDENT_TABLES
    if _RESIDENT_TABLES is None:
        _RESIDENT_TABLES = ResidentCostTables()
    return _RESIDENT_TABLES


def _coerce_field_value(name: str, choices: Sequence[Any], raw: str) -> Any:
    """Coerce a query-string constraint to the field's value type."""
    for choice in choices:
        # Direct equality first: str-valued enums (e.g. Dataflow) compare
        # equal to their value while str() would give the member name.
        if choice == raw or str(choice) == raw:
            return choice
    try:
        numeric = int(raw)
    except ValueError:
        pass
    else:
        if any(choice == numeric for choice in choices):
            return numeric
    raise ValueError(
        f"value {raw!r} is not a candidate of field {name!r}; "
        f"choices: {list(choices)}"
    )


def cost_document(
    backend: str = "eyeriss",
    task: str = "cifar",
    hw_space: str = "tiny",
    arch: Optional[Sequence[int]] = None,
    constraints: Optional[Mapping[str, str]] = None,
    tables=None,
) -> CostDocument:
    """Per-layer/EDAP cost answer from a lazily-built resident cost table.

    ``backend``/``task``/``hw_space`` are validated through
    ``ExperimentConfig`` (so unknown names raise the canonical did-you-mean
    ``ValueError``); the :class:`~repro.hwmodel.cost_model.CostTable` for
    the ``(backend, task, hw_space)`` key is built once and then resident
    (µs-scale lookups thereafter).  ``arch`` defaults to the all-zeros
    architecture; ``constraints`` restricts the configuration search to
    matching field values (e.g. ``{"pe_rows": "8"}``), and the minimum-EDAP
    configuration among the matches is reported with its per-layer
    breakdown.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.hwmodel.metrics import HardwareMetrics

    # Validates all three names (plus nothing else: remaining fields are
    # defaults) and raises the canonical did-you-mean errors on typos.
    config = ExperimentConfig(task=task, backend=backend, hw_space=hw_space)
    key: Hashable = (config.backend, config.task, config.hw_space)
    resident = tables if tables is not None else _default_tables()
    table = resident.get(key, lambda: _build_table(config))

    nas_space = table.nas_space
    if arch is None:
        arch = [0] * nas_space.num_searchable
    indices = nas_space.validate_indices(list(arch))

    space = table.hw_space
    field_names = list(space.field_names)
    matched = list(range(len(table.configs)))
    if constraints:
        for name, raw in constraints.items():
            if name not in field_names:
                raise ValueError(
                    f"unknown field {name!r} for backend {config.backend!r}; "
                    f"expected one of {field_names}{_did_you_mean(name, field_names)}"
                )
            wanted = _coerce_field_value(name, space.field_choices(name), str(raw))
            matched = [
                index
                for index in matched
                if table.backend.config_to_dict(table.configs[index]).get(name) == wanted
            ]
    if not matched:
        raise ValueError(
            f"no configuration of backend {config.backend!r} ({config.hw_space} space) "
            f"matches the constraints {dict(constraints or {})}"
        )

    latency, energy, area = table.metrics_per_config(indices)
    best = min(
        matched, key=lambda index: HardwareMetrics(latency[index], energy[index], area[index]).edap
    )
    best_config = table.configs[best]
    metrics = HardwareMetrics(
        latency_ms=float(latency[best]),
        energy_mj=float(energy[best]),
        area_mm2=float(area[best]),
    )
    workload = nas_space.build_workload(indices)
    layers = [
        {
            "layer": report.layer_name,
            "latency_ms": report.latency_ms,
            "energy_mj": report.energy_mj,
            "utilization": report.spatial_utilization,
        }
        for report in table.cost_model.evaluate_detailed(workload, best_config)
    ]
    return CostDocument(
        backend=config.backend,
        task=config.task,
        hw_space=config.hw_space,
        arch=[int(index) for index in indices],
        config=json_safe(table.backend.config_to_dict(best_config)),
        configs_matched=len(matched),
        layers=json_safe(layers),
        totals=json_safe(
            {
                "latency_ms": metrics.latency_ms,
                "energy_mj": metrics.energy_mj,
                "area_mm2": metrics.area_mm2,
                "edap": metrics.edap,
            }
        ),
    )


def _build_table(config):
    """Build the (nas_space, hw_space) cost table of one validated config."""
    from repro.experiments.factory import build_hw_space, build_search_space
    from repro.hwmodel.cost_model import CostTable

    return CostTable(build_search_space(config), build_hw_space(config))


__all__ = [
    "SCHEMA_VERSION",
    "CostDocument",
    "JobConflictError",
    "ParetoDocument",
    "ReportDocument",
    "RunDocument",
    "ScheduleDocument",
    "SummaryDocument",
    "UnknownRunError",
    "cost_document",
    "job_document",
    "pareto_document",
    "pareto_records",
    "report_document",
    "run_document",
    "run_states",
    "schedule_document",
    "submit_job",
    "summary_document",
]
