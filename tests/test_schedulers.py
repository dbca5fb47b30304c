"""Tests for the adaptive promotion-sweep subsystem
(`repro.experiments.schedulers`): ladder math, the SHA/ASHA cut rules and
their determinism guarantees, the crash-safe schedule state file and its
lock, and end-to-end scheduled sweeps — including the ISSUE acceptance
criteria (jobs-count independence of the promotion set, grid byte-identity,
and crash recovery to the same schedule).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, Runner, SweepPlan, WorkQueue, run_sweep
from repro.experiments.runner import CHECKPOINT_FILE, RESULT_FILE
from repro.experiments.schedulers import (
    ASHA,
    PROMOTED,
    RETIRED,
    GridScheduler,
    ScheduleCoordinator,
    ScheduleState,
    SuccessiveHalving,
    available_schedulers,
    build_ladder,
    build_scheduler,
    load_state,
    register_candidates,
    rung_score,
    save_state,
    schedule_overview,
    score_order,
)
from repro.experiments.schedulers.state import (
    RETIRED_FILE,
    STATE_FILE,
    STATE_LOCK_FILE,
    state_lock_ttl,
)
from repro.experiments.sweep import FAILED_FILE, LOCK_FILE, item_state
from repro.utils.files import FileLock

from test_parallel_sweep import TINY_SWEEP, age_file, normalized_result_bytes


def tiny_config(**overrides) -> ExperimentConfig:
    """A sub-second run with enough search steps for a two-cut ladder."""
    return ExperimentConfig(
        **{"method": "baseline", "seed": 0, **TINY_SWEEP, "search_epochs": 4, **overrides}
    )


def asha_plan(base_dir: Path):
    """The canonical 4-candidate ASHA fixture: ladder (4,2,1) at eta=2."""
    plan = SweepPlan.from_grid(tiny_config(), methods=["baseline"], seeds=[0, 1, 2, 3])
    return plan, ASHA(eta=2, min_steps=1)


# ----------------------------------------------------------------------
# Ladder math
# ----------------------------------------------------------------------
class TestLadder:
    def test_textbook_ladder(self):
        ladder = build_ladder(4, eta=2, min_steps=1)
        assert ladder.populations == (4, 2, 1)
        assert ladder.quotas == (2, 1, 0)
        assert ladder.budgets == (1, 2, None)
        assert ladder.num_rungs == 3

    def test_budgets_scale_with_min_steps(self):
        ladder = build_ladder(9, eta=3, min_steps=5)
        assert ladder.populations == (9, 3, 1)
        assert ladder.budgets == (5, 15, None)

    def test_non_power_populations_floor(self):
        ladder = build_ladder(10, eta=3, min_steps=1)
        assert ladder.populations == (10, 3, 1)
        assert ladder.quotas == (3, 1, 0)

    def test_fewer_candidates_than_eta_degenerates_to_grid(self):
        ladder = build_ladder(2, eta=3, min_steps=1)
        assert ladder.populations == (2,)
        assert ladder.quotas == (0,)
        assert ladder.budgets == (None,)

    def test_grid_scheduler_ladder_is_one_final_rung(self):
        ladder = GridScheduler().ladder(7)
        assert (ladder.populations, ladder.quotas, ladder.budgets) == ((7,), (0,), (None,))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            build_ladder(0, eta=2, min_steps=1)
        with pytest.raises(ValueError, match="eta"):
            build_ladder(4, eta=1, min_steps=1)
        with pytest.raises(ValueError, match="min_steps"):
            build_ladder(4, eta=2, min_steps=0)
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalving(eta=1)
        with pytest.raises(ValueError, match="min_steps"):
            ASHA(min_steps=0)


# ----------------------------------------------------------------------
# Scores and the total order
# ----------------------------------------------------------------------
class TestRungScore:
    def test_known_signals(self):
        assert rung_score({"reward": 0.8}) == pytest.approx(-0.8)
        assert rung_score({"train_ce": 1.25}) == pytest.approx(1.25)
        assert rung_score({"accuracy": 0.9}) == pytest.approx(-0.9)
        # reward outranks the other keys when several are present
        assert rung_score({"reward": 1.0, "train_ce": 2.0}) == pytest.approx(-1.0)

    def test_unusable_records_are_none(self):
        assert rung_score(None) is None
        assert rung_score([1, 2]) is None
        assert rung_score({"loss": 1.0}) is None
        assert rung_score({"train_ce": "soup"}) is None
        assert rung_score({"train_ce": float("nan")}) is None
        assert rung_score({"reward": math.inf}) is None

    def test_none_ranks_behind_every_finite_score(self):
        assert score_order(None, "a") > score_order(1e12, "z")
        assert score_order(0.5, "b") < score_order(0.5, "c")  # name tie-break


# ----------------------------------------------------------------------
# Cut rules: SHA barrier, ASHA guaranteed top-k, determinism
# ----------------------------------------------------------------------
LEDGER = {"a": 0.3, "b": 0.1, "c": 0.5, "d": 0.1, "e": None}


class TestDecide:
    def test_halving_waits_for_the_full_rung(self):
        sha = SuccessiveHalving(eta=2)
        partial = {k: LEDGER[k] for k in ("a", "b", "c", "d")}
        assert sha.decide(partial, population=5, quota=2) == {}

    def test_halving_cuts_top_quota_with_name_tiebreak(self):
        decisions = SuccessiveHalving(eta=2).decide(LEDGER, population=5, quota=2)
        # 0.1 ties between b and d: the name breaks it; None ranks last.
        assert decisions == {
            "b": PROMOTED,
            "d": PROMOTED,
            "a": RETIRED,
            "c": RETIRED,
            "e": RETIRED,
        }

    def test_asha_promotes_only_guaranteed_top_k(self):
        asha = ASHA(eta=2)
        # One score known of five, quota 2: rank 0 + 4 pending >= 2 — nothing
        # is safe to promote, and rank 0 < quota so nothing retires either.
        assert asha.decide({"b": 0.1}, population=5, quota=2) == {}
        # Three known, two pending: the leader is still not guaranteed top-2
        # (both pending could beat it), but rank 2 is already out.
        assert asha.decide(
            {"b": 0.1, "a": 0.3, "c": 0.5}, population=5, quota=2
        ) == {"c": RETIRED}
        # Complete ledger: ASHA equals the synchronous cut.
        assert asha.decide(LEDGER, population=5, quota=2) == SuccessiveHalving(eta=2).decide(
            LEDGER, population=5, quota=2
        )

    def test_zero_quota_never_decides(self):
        assert SuccessiveHalving(eta=2).decide(LEDGER, population=5, quota=0) == {}
        assert ASHA(eta=2).decide(LEDGER, population=5, quota=0) == {}
        assert GridScheduler().decide(LEDGER, population=5, quota=0) == {}

    def test_asha_early_decisions_agree_with_the_complete_ledger(self):
        """The monotonicity guarantee: for every arrival order and every
        prefix of it, each ASHA verdict equals the verdict the complete
        ledger assigns — so the async promotion set is arrival-independent."""
        asha = ASHA(eta=2)
        final = SuccessiveHalving(eta=2).decide(LEDGER, population=5, quota=2)
        for order in itertools.permutations(LEDGER):
            for cut in range(1, len(order) + 1):
                seen = {name: LEDGER[name] for name in order[:cut]}
                for name, verdict in asha.decide(seen, population=5, quota=2).items():
                    assert verdict == final[name], (order, cut, name)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_names_and_parameters(self):
        assert available_schedulers() == ["asha", "grid", "halving"]
        scheduler = build_scheduler("asha", eta=2, min_steps=3)
        assert (scheduler.name, scheduler.eta, scheduler.min_steps) == ("asha", 2, 3)
        assert build_scheduler("grid").name == "grid"

    def test_unknown_name_hints(self):
        with pytest.raises(ValueError, match="asha"):
            build_scheduler("ahsa")


# ----------------------------------------------------------------------
# Schedule state: round-trip, validation, lock discipline
# ----------------------------------------------------------------------
class TestScheduleState:
    def test_round_trip(self, tmp_path):
        state = ScheduleState(
            scheduler="asha",
            eta=2,
            min_steps=1,
            candidates=["a", "b"],
            scores={"0": {"a": 0.5, "b": None}},
            decisions={"0": {"a": PROMOTED, "b": RETIRED}},
        )
        save_state(state, tmp_path)
        loaded = load_state(tmp_path)
        assert loaded == state
        assert loaded.rung_scores(0) == {"a": 0.5, "b": None}
        assert loaded.is_retired("b") and not loaded.is_retired("a")
        assert loaded.candidate_rung("a") == 1 and loaded.candidate_rung("c") == 0
        assert loaded.gated_in("a", 1) and not loaded.gated_in("b", 1)

    def test_missing_state_is_none_and_torn_state_raises(self, tmp_path):
        assert load_state(tmp_path) is None
        (tmp_path / STATE_FILE).write_text('{"schema_version": 1, "cand', encoding="utf-8")
        with pytest.raises(ValueError, match="unreadable"):
            load_state(tmp_path)

    def test_from_dict_validation(self):
        with pytest.raises(ValueError, match="JSON object"):
            ScheduleState.from_dict([1])
        with pytest.raises(ValueError, match="version"):
            ScheduleState.from_dict({"schema_version": 99})
        with pytest.raises(ValueError, match="candidates"):
            ScheduleState.from_dict({"schema_version": 1, "candidates": "abc"})

    def test_lock_is_exclusive_and_token_checked(self, tmp_path):
        holder = FileLock(tmp_path / STATE_LOCK_FILE, ttl=60)
        other = FileLock(tmp_path / STATE_LOCK_FILE, ttl=60)
        assert holder.try_acquire()
        assert not other.try_acquire()
        other.release()  # never held it: must not unlink the holder's file
        assert (tmp_path / STATE_LOCK_FILE).exists()
        holder.release()
        assert not (tmp_path / STATE_LOCK_FILE).exists()

    def test_stale_lock_is_broken_after_ttl(self, tmp_path):
        """A worker SIGKILLed while holding the schedule lock must not stall
        the schedule: the next acquire breaks the lock once it goes stale."""
        dead = FileLock(tmp_path / STATE_LOCK_FILE, ttl=60)
        assert dead.try_acquire()
        survivor = FileLock(tmp_path / STATE_LOCK_FILE, ttl=60)
        assert not survivor.try_acquire()
        age_file(tmp_path / STATE_LOCK_FILE, 120)
        assert survivor.try_acquire()
        dead.release()  # token no longer matches: must not unlink
        assert (tmp_path / STATE_LOCK_FILE).exists()
        survivor.release()

    def test_state_lock_ttl_is_capped(self):
        assert state_lock_ttl(3600) == 60.0
        assert state_lock_ttl(5) == 5.0


class TestRegisterCandidates:
    def test_create_then_extend_then_freeze(self, tmp_path):
        asha = ASHA(eta=2)
        state = register_candidates(tmp_path, asha, ["b", "a"], lock_ttl=60)
        assert state.candidates == ["a", "b"]  # sorted: fixes the ladder
        state = register_candidates(tmp_path, asha, ["c"], lock_ttl=60)
        assert state.candidates == ["a", "b", "c"]
        # Once any cut is recorded the geometry is frozen.
        state.decisions["0"] = {"c": RETIRED}
        save_state(state, tmp_path)
        register_candidates(tmp_path, asha, ["a"], lock_ttl=60)  # re-register: no-op
        with pytest.raises(ValueError, match="fresh runs directory"):
            register_candidates(tmp_path, asha, ["d"], lock_ttl=60)

    def test_parameter_mismatch_is_rejected(self, tmp_path):
        register_candidates(tmp_path, ASHA(eta=2), ["a"], lock_ttl=60)
        with pytest.raises(ValueError, match="--eta 2"):
            register_candidates(tmp_path, ASHA(eta=3), ["a"], lock_ttl=60)
        with pytest.raises(ValueError, match="relaunch"):
            register_candidates(tmp_path, SuccessiveHalving(eta=2), ["a"], lock_ttl=60)


# ----------------------------------------------------------------------
# End-to-end scheduled sweeps: the ISSUE acceptance criteria
# ----------------------------------------------------------------------
class TestScheduledSweep:
    def run_asha(self, base_dir: Path, jobs: int):
        plan, scheduler = asha_plan(base_dir)
        return run_sweep(plan, base_dir=base_dir, jobs=jobs, lock_ttl=60, scheduler=scheduler)

    def test_asha_retires_down_the_ladder(self, tmp_path):
        outcome = self.run_asha(tmp_path, jobs=1)
        assert outcome.complete
        assert len(outcome.results) == 1 and len(outcome.retired) == 3
        state = load_state(tmp_path)
        # Ladder (4, 2, 1): two cut at rung 0, one more at rung 1.
        assert sorted(state.rung_decisions(0).values()) == [PROMOTED, PROMOTED, RETIRED, RETIRED]
        assert sorted(state.rung_decisions(1).values()) == [PROMOTED, RETIRED]
        for name in outcome.retired:
            marker = tmp_path / name / RETIRED_FILE
            assert json.loads(marker.read_text())["state"] == "retired"
            assert not (tmp_path / name / RESULT_FILE).exists()
            assert item_state(tmp_path / name, lock_ttl=60) == "retired"
        survivors = [path.parent.name for path in tmp_path.glob(f"*/{RESULT_FILE}")]
        assert len(survivors) == 1 and survivors[0] not in outcome.retired
        assert not list(tmp_path.rglob(LOCK_FILE))

    def test_promotion_set_is_independent_of_worker_count(self, tmp_path):
        """The acceptance criterion: `--scheduler asha --jobs 2` retires the
        same candidates as `--jobs 1` and the survivor's result.json is
        byte-identical (modulo wall-clock)."""
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial = self.run_asha(serial_dir, jobs=1)
        parallel = self.run_asha(parallel_dir, jobs=2)
        assert load_state(serial_dir).decisions == load_state(parallel_dir).decisions
        assert sorted(serial.retired) == sorted(parallel.retired)
        names = {path.parent.name for path in serial_dir.glob(f"*/{RESULT_FILE}")}
        assert names == {path.parent.name for path in parallel_dir.glob(f"*/{RESULT_FILE}")}
        for name in names:
            assert normalized_result_bytes(
                serial_dir / name / RESULT_FILE
            ) == normalized_result_bytes(parallel_dir / name / RESULT_FILE)

    def test_survivor_matches_an_uninterrupted_run(self, tmp_path):
        """Rung pauses + resumes must not perturb the survivor's training:
        its result is bit-identical to the same config run in one go."""
        scheduled = tmp_path / "scheduled"
        outcome = self.run_asha(scheduled, jobs=1)
        assert outcome.complete
        survivor_dir = next(scheduled.glob(f"*/{RESULT_FILE}")).parent
        seed = int(survivor_dir.name.rsplit("seed", 1)[1])
        reference = tmp_path / "reference"
        Runner(base_dir=reference).run(tiny_config(seed=seed))
        assert normalized_result_bytes(survivor_dir / RESULT_FILE) == normalized_result_bytes(
            reference / survivor_dir.name / RESULT_FILE
        )

    def test_crashed_worker_mid_promotion_converges(self, tmp_path):
        """Satellite: kill a worker mid-promotion — state saved, one RETIRED
        marker unwritten, the schedule lock and a run lock left behind — and
        a surviving sweep reaches the reference promotion set."""
        reference_dir = tmp_path / "reference"
        self.run_asha(reference_dir, jobs=1)
        reference = load_state(reference_dir)

        crashed = tmp_path / "crashed"
        plan, scheduler = asha_plan(crashed)
        runner = Runner(base_dir=crashed)
        for item in plan:  # every candidate paused at the rung-0 budget
            assert runner.run(item.config, max_steps=1) is None
        coordinator = ScheduleCoordinator(
            crashed, scheduler, [item.name for item in plan], lock_ttl=60
        )
        coordinator.sync()  # harvests rung 0 and cuts it
        state = load_state(crashed)
        retired_names = [n for n in state.candidates if state.is_retired(n)]
        assert len(retired_names) == 2
        # The "crash": one retirement marker never got written, the worker
        # still holds the schedule lock and a claim on a promoted run.
        (crashed / retired_names[0] / RETIRED_FILE).unlink()
        (crashed / STATE_LOCK_FILE).write_text('{"token": "dead-worker"}')
        age_file(crashed / STATE_LOCK_FILE, 120)
        promoted = next(n for n in state.candidates if not state.is_retired(n))
        (crashed / promoted / LOCK_FILE).write_text('{"token": "dead-worker"}')
        age_file(crashed / promoted / LOCK_FILE, 120)

        outcome = run_sweep(plan, base_dir=crashed, jobs=1, lock_ttl=60, scheduler=scheduler)
        assert outcome.complete
        assert load_state(crashed).decisions == reference.decisions
        assert (crashed / retired_names[0] / RETIRED_FILE).exists()  # repaired
        survivor = next(crashed.glob(f"*/{RESULT_FILE}")).parent.name
        assert normalized_result_bytes(
            crashed / survivor / RESULT_FILE
        ) == normalized_result_bytes(reference_dir / survivor / RESULT_FILE)

    def test_grid_scheduler_is_byte_identical_to_no_scheduler(self, tmp_path):
        """`--scheduler grid` drains the same static plan as no scheduler:
        same bytes, no schedule state file, nothing retired."""
        plain_dir, grid_dir = tmp_path / "plain", tmp_path / "grid"
        plan = SweepPlan.from_grid(tiny_config(), methods=["baseline"], seeds=[0, 1])
        plain = run_sweep(plan, base_dir=plain_dir, jobs=1, lock_ttl=60)
        grid = run_sweep(
            plan, base_dir=grid_dir, jobs=1, lock_ttl=60, scheduler=GridScheduler()
        )
        assert plain.complete and grid.complete and not grid.retired
        assert not (grid_dir / STATE_FILE).exists()
        for item in plan:
            assert normalized_result_bytes(
                plain_dir / item.name / RESULT_FILE
            ) == normalized_result_bytes(grid_dir / item.name / RESULT_FILE)

    def test_failed_candidate_retires_nobody_and_ends_the_sweep(self, tmp_path, monkeypatch):
        """A candidate that crashes (FAILED.txt, no score) blocks its rung's
        quota forever; the sweep must report it unfinished and exit instead
        of spinning."""
        plan, scheduler = asha_plan(tmp_path)
        original = Runner.run

        def failing_run(self, cfg, *args, **kwargs):
            if cfg.seed == 0:
                raise RuntimeError("boom")
            return original(self, cfg, *args, **kwargs)

        monkeypatch.setattr(Runner, "run", failing_run)
        outcome = run_sweep(plan, base_dir=tmp_path, jobs=1, lock_ttl=60, scheduler=scheduler)
        assert "baseline-cifar-seed0" in outcome.unfinished
        assert (tmp_path / "baseline-cifar-seed0" / FAILED_FILE).exists()
        assert item_state(tmp_path / "baseline-cifar-seed0", lock_ttl=60) == "failed"

    @pytest.mark.parametrize("scheduler", [None, ASHA(eta=2, min_steps=1)], ids=["grid", "asha"])
    def test_stale_lock_on_a_failed_candidate_does_not_hang_the_drain(
        self, tmp_path, monkeypatch, scheduler
    ):
        """Only a *live* lock keeps a worker waiting: a dead peer's expired
        lock on a candidate this worker already failed must not stall the
        drain forever.  The sweep runs in a daemon thread so a hang fails
        the test instead of the suite."""
        plan, _ = asha_plan(tmp_path)
        failing = "baseline-cifar-seed0"
        original_run, original_release = Runner.run, WorkQueue.release

        def failing_run(self, cfg, *args, **kwargs):
            if cfg.name == failing:
                raise RuntimeError("boom")
            return original_run(self, cfg, *args, **kwargs)

        def release_then_dead_peer_lock(self, name):
            original_release(self, name)
            if name == failing:  # a peer claims the failed run, then dies
                lock = self.lock_path(name)
                lock.write_text('{"token": "dead-peer"}')
                age_file(lock, 3600)

        monkeypatch.setattr(Runner, "run", failing_run)
        monkeypatch.setattr(WorkQueue, "release", release_then_dead_peer_lock)
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(
                sweep=run_sweep(plan, base_dir=tmp_path, jobs=1, lock_ttl=2, scheduler=scheduler)
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "drain still waiting on an expired lock"
        assert failing in outcome["sweep"].unfinished
        assert item_state(tmp_path / failing, lock_ttl=2) == "stale"


# ----------------------------------------------------------------------
# Browser/report integration
# ----------------------------------------------------------------------
class TestReporting:
    def test_retired_state_is_distinct_from_failed(self, tmp_path):
        workdir = tmp_path / "run"
        workdir.mkdir()
        (workdir / RETIRED_FILE).write_text('{"state": "retired"}')
        assert item_state(workdir, lock_ttl=60) == "retired"
        (workdir / FAILED_FILE).write_text("boom")
        assert item_state(workdir, lock_ttl=60) == "retired"  # outranks failed
        (workdir / RESULT_FILE).write_text("{}")
        assert item_state(workdir, lock_ttl=60) == "finished"  # result outranks all

    def test_retired_runs_are_not_replanned(self, tmp_path):
        from repro.experiments.runner import CONFIG_FILE

        workdir = tmp_path / tiny_config().name
        workdir.mkdir()
        (workdir / CONFIG_FILE).write_text(json.dumps(tiny_config().to_dict()))
        assert len(SweepPlan.from_directory(tmp_path)) == 1
        (workdir / RETIRED_FILE).write_text('{"state": "retired"}')
        assert len(SweepPlan.from_directory(tmp_path)) == 0

    def test_schedule_overview_tallies(self):
        state = ScheduleState(
            scheduler="asha",
            eta=2,
            min_steps=1,
            candidates=["a", "b", "c", "d"],
            scores={"0": {"a": 0.1, "b": 0.2, "c": 0.3}},
            decisions={"0": {"a": PROMOTED, "c": RETIRED}},
        )
        overview = schedule_overview(state, live_states={"a": "running"})
        assert (overview["name"], overview["candidates"]) == ("asha", 4)
        rung0, rung1, rung2 = overview["rungs"]
        assert (rung0["population"], rung0["quota"], rung0["budget"]) == (4, 2, 1)
        assert (rung0["scored"], rung0["promoted"], rung0["retired"]) == (3, 1, 1)
        assert rung1["running"] == 1  # "a" is past rung 0 and running
        assert (rung2["budget"], rung2["quota"]) == (None, 0)

    def test_report_summary_renders_the_schedule(self, tmp_path, capsys):
        from repro.__main__ import main

        sets = [f"--set={k}={v}" for k, v in {**TINY_SWEEP, "search_epochs": 4}.items()]
        argv = ["--runs-dir", str(tmp_path), "sweep", "--methods", "baseline",
                "--seeds", "0", "1", "2", "3", "--scheduler", "asha", "--eta", "2", *sets]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 run(s) retired by the asha scheduler" in out
        assert main(["--runs-dir", str(tmp_path), "report", "--summary"]) == 0
        summary = capsys.readouterr().out
        assert "Scheduler: asha" in summary
        assert "Retired" in summary
        retired_line = [l for l in summary.splitlines() if l.startswith("2 ")]
        assert retired_line  # final rung row renders with budget "full"

    def test_cli_rejects_bad_scheduler_flags(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--runs-dir", str(tmp_path), "sweep", "--scheduler", "warp"])
        with pytest.raises(SystemExit):
            main(["--runs-dir", str(tmp_path), "sweep", "--scheduler", "asha",
                  "--min-steps", "0"])
