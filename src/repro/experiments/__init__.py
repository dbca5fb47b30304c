"""Unified experiment orchestration: one API to launch, checkpoint, resume
and sweep every search method.

* :class:`~repro.experiments.base.Searcher` — the stepwise protocol all
  three search loops (DANCE, the baselines, the RL comparator) implement;
* :class:`~repro.experiments.config.ExperimentConfig` — one flat,
  JSON-round-trippable description of a run;
* :mod:`~repro.experiments.factory` — deterministic component assembly
  (fixed per-stage seed offsets);
* :class:`~repro.experiments.runner.Runner` — the step loop with periodic
  lossless checkpointing and bit-identical resume, plus multi-method /
  multi-seed sweeps and result reporting;
* :mod:`~repro.experiments.sweep` — parallel sharded sweep execution:
  :class:`~repro.experiments.sweep.SweepPlan` (grid expansion + CI shard
  slicing), :class:`~repro.experiments.sweep.WorkQueue` (crash-safe
  file-lock work queue over run directories) and
  :func:`~repro.experiments.sweep.run_sweep` (``--jobs N`` workers,
  results bit-identical to the serial path);
* :mod:`~repro.experiments.browser` — the incremental read path over run
  directories: lean per-run summaries behind a versioned mtime/size-keyed
  on-disk cache, serving ``report`` over thousand-run sweeps without
  re-parsing unchanged runs (see ``docs/browser.md``).

The ``python -m repro`` CLI (see ``docs/cli.md``) is a thin wrapper over
this package.
"""

from repro.experiments.base import Searcher
from repro.experiments.browser import BrowserCache, RunSummary, browse, scan_runs
from repro.experiments.config import METHODS, ExperimentConfig
from repro.experiments.factory import (
    ExperimentComponents,
    build_components,
    build_cost_function,
    build_datasets,
    build_evaluator,
    build_hw_space,
    build_search_space,
)
from repro.experiments.runner import Runner
from repro.experiments.sweep import (
    SweepPlan,
    WorkItem,
    WorkQueue,
    execute_queued,
    parse_shard,
    run_sweep,
)

__all__ = [
    "Searcher",
    "BrowserCache",
    "RunSummary",
    "browse",
    "scan_runs",
    "METHODS",
    "ExperimentConfig",
    "ExperimentComponents",
    "build_components",
    "build_cost_function",
    "build_datasets",
    "build_evaluator",
    "build_hw_space",
    "build_search_space",
    "Runner",
    "SweepPlan",
    "WorkItem",
    "WorkQueue",
    "execute_queued",
    "parse_shard",
    "run_sweep",
]
