"""Adaptive sweep scheduling over the checkpointed work queue.

Grid sweeps stop scaling past thousands of configurations; the
checkpointed :class:`~repro.experiments.runner.Runner` with ``max_steps``
pausing makes successive halving nearly free: run every candidate a few
steps, promote the best fraction from their checkpoints, retire the rest.
This package is that scheduling layer:

* :mod:`~repro.experiments.schedulers.base` — the
  :class:`~repro.experiments.schedulers.base.SweepScheduler` protocol, the
  rung-ladder arithmetic and the shared lower-is-better candidate score;
* :mod:`~repro.experiments.schedulers.grid` — today's run-everything
  behaviour as an explicit scheduler (byte-identical output);
* :mod:`~repro.experiments.schedulers.halving` — synchronous
  :class:`SuccessiveHalving` and asynchronous :class:`ASHA` cut rules;
* :mod:`~repro.experiments.schedulers.state` — the atomic, versioned
  ``<runs>/.scheduler_state.json`` score ledger and its crash-safe lock;
* :mod:`~repro.experiments.schedulers.coordinator` — the per-worker sync
  cycle (harvest scores → record decidable cuts → plan runnable work).

``python -m repro sweep --scheduler asha --eta 3 --min-steps K`` wires it
into the parallel sweep (any number of ``--jobs``/``--queue`` workers can
drain one schedule); design notes and the determinism argument live in
``docs/schedulers.md``.
"""

from repro.experiments.schedulers.base import (
    PROMOTED,
    RETIRED,
    RungLadder,
    SweepScheduler,
    build_ladder,
    rung_score,
    score_order,
)
from repro.experiments.schedulers.coordinator import (
    Assignment,
    ScheduleCoordinator,
    SchedulePlan,
    candidate_rows,
    schedule_overview,
)
from repro.experiments.schedulers.grid import GridScheduler
from repro.experiments.schedulers.halving import ASHA, SuccessiveHalving
from repro.experiments.schedulers.registry import (
    SCHEDULERS,
    available_schedulers,
    build_scheduler,
)
from repro.experiments.schedulers.state import (
    RETIRED_FILE,
    STATE_FILE,
    STATE_LOCK_FILE,
    ScheduleState,
    load_state,
    register_candidates,
    save_state,
)

__all__ = [
    "ASHA",
    "Assignment",
    "GridScheduler",
    "PROMOTED",
    "RETIRED",
    "RETIRED_FILE",
    "RungLadder",
    "SCHEDULERS",
    "STATE_FILE",
    "STATE_LOCK_FILE",
    "ScheduleCoordinator",
    "SchedulePlan",
    "ScheduleState",
    "SuccessiveHalving",
    "SweepScheduler",
    "available_schedulers",
    "build_ladder",
    "build_scheduler",
    "candidate_rows",
    "load_state",
    "register_candidates",
    "rung_score",
    "save_state",
    "schedule_overview",
    "score_order",
]
