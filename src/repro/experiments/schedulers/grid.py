"""The do-nothing scheduler: every candidate runs to completion.

``GridScheduler`` is the plain sweep behaviour expressed in the scheduler
protocol so ``--scheduler grid`` is an explicit choice rather than an
absence.  Its ladder is one final rung (budget ``None``, quota 0) and it
never emits a decision, so :func:`~repro.experiments.sweep.run_sweep`
drains grid sweeps from the same static plan as a scheduler-less sweep
(every unfinished run, to completion) — the output stays byte-identical,
no schedule state file is created, and no checkpoint pauses are
introduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.experiments.schedulers.base import RungLadder, SweepScheduler


@dataclass(frozen=True)
class GridScheduler(SweepScheduler):
    """Run the full grid to completion — no rungs, no cuts."""

    name: str = "grid"

    def ladder(self, num_candidates: int) -> RungLadder:
        if num_candidates < 1:
            raise ValueError(f"need at least one candidate, got {num_candidates}")
        return RungLadder(populations=(num_candidates,), quotas=(0,), budgets=(None,))

    def decide(
        self, scores: Mapping[str, Optional[float]], population: int, quota: int
    ) -> Dict[str, str]:
        return {}
