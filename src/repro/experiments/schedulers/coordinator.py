"""The schedule coordinator: one sync turns disk state into decisions.

Every worker of a scheduled sweep owns a :class:`ScheduleCoordinator` and
calls :meth:`~ScheduleCoordinator.sync` at the top of its drain loop.  A
sync, under the schedule lock:

1. **harvests** — reads candidate scores through the incremental results
   browser (one cached scan): a finished run contributes its
   ``result.json`` score, a paused run whose checkpoint reached the rung
   budget contributes its checkpoint score — and appends them to the
   ledger;
2. **decides** — re-runs the scheduler's cut rule over each rung's ledger
   and records any newly decidable promotions/retirements (existing
   decisions are sticky; the rules are monotone, so recomputation always
   agrees with them);
3. **repairs** — ensures every retired candidate carries its
   ``RETIRED.txt`` marker, so a worker SIGKILLed between recording a
   decision and writing the marker leaves nothing permanently half-done;

then (outside the lock) derives a :class:`SchedulePlan`: which candidates
are runnable right now (and to what cumulative step budget), which are
terminal, and which are gated awaiting a cut.  Because decisions are pure
functions of the deterministic ledger, any number of workers syncing in
any order converge on the same plan sequence and the same final promotion
set (see ``docs/schedulers.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.schedulers.base import PROMOTED, RETIRED, SweepScheduler, build_ladder
from repro.experiments.schedulers.state import (
    RETIRED_FILE,
    STATE_LOCK_FILE,
    ScheduleState,
    load_state,
    register_candidates,
    save_state,
    state_lock_ttl,
)
from repro.utils.files import FileLock
from repro.utils.logging import get_logger
from repro.utils.serialization import save_json

logger = get_logger("experiments.schedulers.coordinator")


@dataclass(frozen=True)
class Assignment:
    """One unit of runnable work: resume ``name`` up to ``budget`` steps."""

    name: str
    rung: int
    #: Cumulative step budget of the rung (``None``: run to completion).
    budget: Optional[int]


@dataclass
class SchedulePlan:
    """What one sync found: runnable, terminal and gated candidates."""

    assignments: List[Assignment] = field(default_factory=list)
    #: Candidate name -> terminal state (``finished`` / ``corrupt`` / ``retired``).
    terminal: Dict[str, str] = field(default_factory=dict)
    #: Candidates admitted to no rung yet (their gate cut is undecided).
    waiting: List[str] = field(default_factory=list)

    @property
    def all_terminal(self) -> bool:
        return not self.assignments and not self.waiting


class ScheduleCoordinator:
    """Drives one scheduled sweep's state file from one worker's viewpoint."""

    def __init__(
        self,
        base_dir: Union[str, Path],
        scheduler: SweepScheduler,
        candidates: Sequence[str],
        lock_ttl: float,
    ) -> None:
        self.base_dir = Path(base_dir)
        self.scheduler = scheduler
        self.lock = FileLock(self.base_dir / STATE_LOCK_FILE, state_lock_ttl(lock_ttl))
        # Registers this worker's candidates (validating scheduler-parameter
        # agreement with any pre-existing schedule) and pins the ladder.
        state = register_candidates(self.base_dir, scheduler, candidates, lock_ttl)
        self.ladder = scheduler.ladder(len(state.candidates))

    # -- the sync cycle -------------------------------------------------
    def sync(self) -> SchedulePlan:
        """Harvest scores, record decidable cuts, and plan runnable work."""
        summaries = self._summaries()
        with self.lock.hold():
            state = load_state(self.base_dir)
            if state is None:  # pragma: no cover - register_candidates wrote it
                raise RuntimeError(f"schedule state vanished under {self.base_dir}")
            if len(state.candidates) != self.ladder.populations[0]:
                # Another submitter grew the candidate set (only possible
                # before any decision); adopt the new geometry.
                self.ladder = self.scheduler.ladder(len(state.candidates))
            changed = self._harvest(state, summaries)
            changed |= self._decide(state)
            if changed:
                save_state(state, self.base_dir)
            self._ensure_retired_markers(state, summaries)
        return self._plan(state, summaries)

    def _summaries(self) -> Dict[str, Any]:
        """One incremental browser scan of the runs directory."""
        from repro.experiments.browser import browse

        return browse(self.base_dir).summaries

    def _harvest(self, state: ScheduleState, summaries: Mapping[str, Any]) -> bool:
        """Record every newly available rung score; ``True`` if any was."""
        changed = False
        for name in state.candidates:
            if state.is_retired(name):
                continue
            rung = min(state.candidate_rung(name), self.ladder.num_rungs - 1)
            budget = self.ladder.budgets[rung]
            if budget is None or not state.gated_in(name, rung):
                continue  # final rung needs no score; gated candidates wait
            summary = summaries.get(name)
            if summary is None:
                continue
            score: Optional[float] = None
            available = False
            if summary.has_result:
                # Finished (or corrupt: score None ranks last) — its final
                # score stands in at this and every later cut.
                score, available = summary.result_score, True
            elif summary.checkpoint_step is not None and summary.checkpoint_step >= budget:
                score, available = summary.checkpoint_score, True
            if available:
                state.scores.setdefault(str(rung), {})[name] = score
                changed = True
        return changed

    def _decide(self, state: ScheduleState) -> bool:
        """Append newly decidable promotions/retirements; ``True`` if any."""
        changed = False
        for rung in range(self.ladder.num_rungs):
            quota = self.ladder.quotas[rung]
            if quota <= 0:
                continue
            scores = state.rung_scores(rung)
            if not scores:
                continue
            outcome = self.scheduler.decide(scores, self.ladder.populations[rung], quota)
            recorded = state.decisions.setdefault(str(rung), {})
            for name, verdict in outcome.items():
                if name not in recorded:
                    recorded[name] = verdict
                    changed = True
                    logger.info("rung %d: %s %s", rung, verdict, name)
        return changed

    def _ensure_retired_markers(
        self, state: ScheduleState, summaries: Mapping[str, Any]
    ) -> None:
        """Idempotently write ``RETIRED.txt`` for every retired candidate.

        Runs every sync (not just on fresh decisions): a worker killed
        after saving the state but before writing a marker is repaired by
        the next sync on any worker.  Finished runs are skipped — a result
        on disk outranks a late retirement.
        """
        for rung_key, table in state.decisions.items():
            for name, verdict in table.items():
                if verdict != RETIRED:
                    continue
                summary = summaries.get(name)
                if summary is not None and summary.has_result:
                    continue
                marker = self.base_dir / name / RETIRED_FILE
                if marker.exists():
                    continue
                rung = int(rung_key)
                save_json(
                    {
                        "state": "retired",
                        "scheduler": state.scheduler,
                        "rung": rung,
                        "score": state.rung_scores(rung).get(name),
                        "quota": self.ladder.quotas[rung],
                    },
                    marker,
                )

    def _plan(self, state: ScheduleState, summaries: Mapping[str, Any]) -> SchedulePlan:
        plan = SchedulePlan()
        for name in state.candidates:
            if state.is_retired(name):
                plan.terminal[name] = "retired"
                continue
            summary = summaries.get(name)
            if summary is not None and summary.has_result:
                plan.terminal[name] = "corrupt" if summary.corrupt else "finished"
                continue
            rung = min(state.candidate_rung(name), self.ladder.num_rungs - 1)
            if not state.gated_in(name, rung):
                plan.waiting.append(name)
                continue
            plan.assignments.append(Assignment(name, rung, self.ladder.budgets[rung]))
        return plan


# ----------------------------------------------------------------------
# Report/serve overviews of a schedule
# ----------------------------------------------------------------------
def schedule_overview(
    state: ScheduleState, live_states: Optional[Mapping[str, str]] = None
) -> Dict[str, Any]:
    """The per-rung tally block rendered by ``report --summary`` and serve.

    ``live_states`` (name -> queue state, from the browser's status view)
    feeds the ``running`` tallies; without it they are 0.
    """
    ladder = build_ladder(len(state.candidates), state.eta, state.min_steps)
    live_states = live_states or {}
    positions: Dict[str, int] = {}
    for name in state.candidates:
        if not state.is_retired(name):
            positions[name] = min(state.candidate_rung(name), ladder.num_rungs - 1)
    rungs = []
    for rung in range(ladder.num_rungs):
        decisions = state.rung_decisions(rung)
        rungs.append(
            {
                "rung": rung,
                "budget": ladder.budgets[rung],
                "population": ladder.populations[rung],
                "quota": ladder.quotas[rung],
                "scored": len(state.rung_scores(rung)),
                "running": sum(
                    1
                    for name, position in positions.items()
                    if position == rung and live_states.get(name) == "running"
                ),
                "promoted": sum(1 for v in decisions.values() if v == PROMOTED),
                "retired": sum(1 for v in decisions.values() if v == RETIRED),
            }
        )
    return {
        "name": state.scheduler,
        "eta": state.eta,
        "min_steps": state.min_steps,
        "candidates": len(state.candidates),
        "rungs": rungs,
    }


def candidate_rows(
    state: ScheduleState, live_states: Optional[Mapping[str, str]] = None
) -> List[Dict[str, Any]]:
    """Per-candidate schedule rows for the serve ``/v1/sweep/schedule`` body."""
    ladder = build_ladder(len(state.candidates), state.eta, state.min_steps)
    live_states = live_states or {}
    rows = []
    for name in sorted(state.candidates):
        decision: Optional[str] = None
        decision_rung: Optional[int] = None
        for rung_key in sorted(state.decisions, key=int):
            verdict = state.decisions[rung_key].get(name)
            if verdict is not None:
                decision, decision_rung = verdict, int(rung_key)
        rung = (
            decision_rung
            if decision == RETIRED and decision_rung is not None
            else min(state.candidate_rung(name), ladder.num_rungs - 1)
        )
        rows.append(
            {
                "name": name,
                "rung": rung,
                "state": live_states.get(name),
                "decision": decision,
                "scores": {
                    rung_key: table[name]
                    for rung_key, table in sorted(state.scores.items(), key=lambda kv: int(kv[0]))
                    if name in table
                },
            }
        )
    return rows
