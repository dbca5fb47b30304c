"""The on-disk schedule: ``<runs>/.scheduler_state.json`` plus its lock.

One scheduled sweep keeps exactly one state file next to its run
directories.  The file is primarily an **append-only score ledger** — the
rung decisions are recomputable pure functions of the scores (see
:mod:`~.halving`), and are cached in the file only so reports and the
serve API can render them without re-deriving::

    {
      "schema_version": 1,
      "scheduler": "asha",          # registry name
      "eta": 3,
      "min_steps": 2,
      "candidates": ["a", "b", ...],   # sorted; fixes the ladder geometry
      "scores":    {"0": {"a": 0.93, "b": null, ...}, ...},   # per rung
      "decisions": {"0": {"a": "promoted", "b": "retired", ...}, ...}
    }

Crash-safety discipline (the two primitives of :mod:`repro.utils.files`
that every run artefact and the work queue's ``LOCK`` files use too,
asserted by ``tests/test_schedulers.py``):

* the file itself is written atomically (:func:`~repro.utils.
  serialization.save_json` through :func:`~repro.utils.files.atomic_write`:
  temp file + rename), so a worker SIGKILLed mid-promotion leaves either
  the old or the new complete document, never a torn one;
* read-modify-write cycles run under ``.scheduler_state.lock``, a
  :class:`~repro.utils.files.FileLock` — an ``O_CREAT | O_EXCL`` claim
  recording ``(host, pid, random token)``, broken via atomic rename once
  its mtime exceeds the ttl, released only by the token holder.  Because
  the ledger is append-only and decisions are deterministic
  recomputations, losing the lock mid-update costs at most a redundant
  (identical) write — never a divergent schedule;
* a retired candidate additionally gets a ``RETIRED.txt`` marker in its
  run directory (deterministic content), which the results browser
  classifies as the ``retired`` state, distinct from ``failed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.schedulers.base import RETIRED, SweepScheduler
from repro.utils.files import FileLock
from repro.utils.serialization import save_json

STATE_FILE = ".scheduler_state.json"
STATE_LOCK_FILE = ".scheduler_state.lock"
#: Marker dropped into a retired run's directory (JSON content; the name
#: parallels ``FAILED.txt`` and is an artefact of the results browser).
RETIRED_FILE = "RETIRED.txt"
STATE_VERSION = 1

#: The state lock guards millisecond read-modify-write cycles, not search
#: steps, so its staleness ttl is capped well below the work-queue ttl: a
#: worker SIGKILLed while holding it must not stall the schedule for an
#: hour.
STATE_LOCK_TTL_CAP = 60.0


def state_lock_ttl(lock_ttl: float) -> float:
    return min(float(lock_ttl), STATE_LOCK_TTL_CAP)


@dataclass
class ScheduleState:
    """In-memory form of the schedule document (see module docstring)."""

    scheduler: str
    eta: int
    min_steps: int
    candidates: List[str]
    scores: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    decisions: Dict[str, Dict[str, str]] = field(default_factory=dict)

    # -- queries --------------------------------------------------------
    @property
    def has_decisions(self) -> bool:
        return any(self.decisions.get(rung) for rung in self.decisions)

    def rung_scores(self, rung: int) -> Dict[str, Optional[float]]:
        return self.scores.get(str(rung), {})

    def rung_decisions(self, rung: int) -> Dict[str, str]:
        return self.decisions.get(str(rung), {})

    def is_retired(self, name: str) -> bool:
        return any(rung.get(name) == RETIRED for rung in self.decisions.values())

    def candidate_rung(self, name: str) -> int:
        """The first rung this candidate has no recorded score at.

        Scores are recorded rung by rung (a candidate cannot skip a cut),
        so the presence set is a prefix and this is the candidate's
        current position on the ladder.
        """
        rung = 0
        while name in self.rung_scores(rung):
            rung += 1
        return rung

    def gated_in(self, name: str, rung: int) -> bool:
        """Whether the candidate is admitted to ``rung`` (0, or promoted)."""
        return rung == 0 or self.rung_decisions(rung - 1).get(name) == "promoted"

    # -- round-trip -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": STATE_VERSION,
            "scheduler": self.scheduler,
            "eta": self.eta,
            "min_steps": self.min_steps,
            "candidates": list(self.candidates),
            "scores": {rung: dict(table) for rung, table in sorted(self.scores.items())},
            "decisions": {
                rung: dict(table) for rung, table in sorted(self.decisions.items())
            },
        }

    @classmethod
    def from_dict(cls, data: object) -> "ScheduleState":
        if not isinstance(data, dict):
            raise ValueError(f"schedule state must be a JSON object, got {type(data).__name__}")
        if data.get("schema_version") != STATE_VERSION:
            raise ValueError(
                f"unsupported schedule state version {data.get('schema_version')!r} "
                f"(this build reads version {STATE_VERSION})"
            )
        candidates = data.get("candidates")
        if not isinstance(candidates, list) or not all(isinstance(n, str) for n in candidates):
            raise ValueError("schedule state candidates must be a list of run names")
        scores = data.get("scores", {})
        decisions = data.get("decisions", {})
        if not isinstance(scores, dict) or not isinstance(decisions, dict):
            raise ValueError("schedule state scores/decisions must be JSON objects")
        return cls(
            scheduler=str(data.get("scheduler")),
            eta=int(data.get("eta", 0)),
            min_steps=int(data.get("min_steps", 0)),
            candidates=list(candidates),
            scores={str(r): dict(t) for r, t in scores.items()},
            decisions={str(r): dict(t) for r, t in decisions.items()},
        )


def state_path(base_dir: Union[str, Path]) -> Path:
    return Path(base_dir) / STATE_FILE


def load_state(base_dir: Union[str, Path]) -> Optional[ScheduleState]:
    """The schedule under ``base_dir``, or ``None`` when there is none.

    Raises ``ValueError`` on a present-but-unreadable state file: a torn
    or wrong-version schedule must stop a scheduled sweep loudly rather
    than silently restart every candidate from rung 0.
    """
    path = state_path(base_dir)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"unreadable schedule state {path}: {error}") from error
    return ScheduleState.from_dict(payload)


def save_state(state: ScheduleState, base_dir: Union[str, Path]) -> Path:
    return save_json(state.to_dict(), state_path(base_dir))


def register_candidates(
    base_dir: Union[str, Path],
    scheduler: SweepScheduler,
    names: Sequence[str],
    lock_ttl: float,
) -> ScheduleState:
    """Create or extend the schedule under ``base_dir`` with ``names``.

    The candidate set fixes the ladder geometry (populations and quotas),
    so growing it is only sound while no cut has been made: once any
    decision is recorded, adding a candidate raises ``ValueError`` —
    submit late arrivals to a fresh runs directory instead.  Re-registering
    existing candidates is a no-op, but the scheduler parameters must match
    the recorded ones exactly (two workers disagreeing on ``eta`` would
    compute different ladders over the same ledger).
    """
    eta = getattr(scheduler, "eta", 0)
    min_steps = getattr(scheduler, "min_steps", 0)
    with FileLock(Path(base_dir) / STATE_LOCK_FILE, state_lock_ttl(lock_ttl)).hold():
        state = load_state(base_dir)
        if state is None:
            state = ScheduleState(
                scheduler=scheduler.name,
                eta=int(eta),
                min_steps=int(min_steps),
                candidates=sorted(set(names)),
            )
            save_state(state, base_dir)
            return state
        if (state.scheduler, state.eta, state.min_steps) != (
            scheduler.name,
            int(eta),
            int(min_steps),
        ):
            raise ValueError(
                f"schedule under {base_dir} was created with "
                f"--scheduler {state.scheduler} --eta {state.eta} "
                f"--min-steps {state.min_steps}; relaunch with the same "
                f"parameters (got {scheduler.name}/{eta}/{min_steps})"
            )
        missing = sorted(set(names) - set(state.candidates))
        if not missing:
            return state
        if state.has_decisions:
            raise ValueError(
                f"schedule under {base_dir} already made promotion decisions; "
                f"cannot add candidates {missing} — use a fresh runs directory"
            )
        state.candidates = sorted(set(state.candidates) | set(missing))
        save_state(state, base_dir)
        return state
