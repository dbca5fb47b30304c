"""Tests for the parallel sharded sweep subsystem (`repro.experiments.sweep`):
plan expansion/sharding, the crash-safe file-lock work queue, bit-identity of
parallel vs serial execution, and partial-sweep reporting."""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentConfig,
    Runner,
    SweepPlan,
    WorkQueue,
    parse_shard,
    run_sweep,
)
from repro.experiments.runner import CHECKPOINT_FILE, RESULT_FILE
from repro.experiments.sweep import (
    FAILED_FILE,
    LOCK_FILE,
    format_sweep_status,
    item_state,
    sweep_status,
)

#: Small enough for a sub-second run; retrain_final=False keeps it cheap.
TINY_SWEEP = dict(
    num_searchable=3,
    trainable_base_channels=4,
    image_samples=64,
    search_epochs=1,
    final_epochs=1,
    retrain_final=False,
)

GRID = dict(methods=["baseline", "baseline_flops"], seeds=[0, 1])


def tiny_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{"method": "baseline", "seed": 0, **TINY_SWEEP, **overrides})


def age_file(path: Path, seconds: float) -> None:
    """Backdate a file's mtime, as if its owner stopped heartbeating."""
    past = time.time() - seconds
    os.utime(path, (past, past))


def normalized_result_bytes(path: Path) -> bytes:
    """result.json bytes with the wall-clock field (the only nondeterministic
    one) normalised away, for byte-level comparisons across executions."""
    data = json.loads(path.read_text(encoding="utf-8"))
    data["search_seconds"] = 0.0
    return json.dumps(data, sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# Plan expansion and sharding
# ----------------------------------------------------------------------
class TestSweepPlan:
    def test_grid_expansion_is_method_major(self):
        plan = SweepPlan.from_grid(tiny_config(), **GRID)
        assert [item.name for item in plan] == [
            "baseline-cifar-seed0",
            "baseline-cifar-seed1",
            "baseline_flops-cifar-seed0",
            "baseline_flops-cifar-seed1",
        ]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            SweepPlan.from_grid(tiny_config(), methods=["evolution"])

    def test_duplicate_runs_rejected(self):
        with pytest.raises(ValueError, match="same directory"):
            SweepPlan.from_grid(tiny_config(), methods=["baseline", "baseline"], seeds=[0])

    def test_shards_partition_the_grid(self):
        plan = SweepPlan.from_grid(tiny_config(), **GRID)
        shards = [plan.shard(index, 3) for index in (1, 2, 3)]
        names = [item.name for shard in shards for item in shard]
        assert sorted(names) == sorted(item.name for item in plan)
        assert len(set(names)) == len(plan)

    def test_shard_validation(self):
        plan = SweepPlan.from_grid(tiny_config(), **GRID)
        with pytest.raises(ValueError):
            plan.shard(0, 2)
        with pytest.raises(ValueError):
            plan.shard(3, 2)

    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard(" 2/3 ") == (2, 3)
        for bad in ("0/3", "4/3", "1-3", "x/y", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)


# ----------------------------------------------------------------------
# Work queue: claiming, heartbeats, crash recovery
# ----------------------------------------------------------------------
class TestWorkQueue:
    def test_each_item_claimed_exactly_once(self, tmp_path):
        queue = WorkQueue(tmp_path, ["a", "b"], lock_ttl=60)
        other = WorkQueue(tmp_path, ["a", "b"], lock_ttl=60)
        assert queue.try_claim("a")
        assert not other.try_claim("a")  # "a" is locked by `queue`
        assert other.try_claim("b")
        assert not other.try_claim("a") and not other.try_claim("b")
        assert not queue.try_claim("b")

    def test_finished_items_are_not_claimable(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / RESULT_FILE).write_text("{}")
        assert not WorkQueue(tmp_path, ["a"], lock_ttl=60).try_claim("a")

    def test_killed_workers_claim_expires_and_is_reclaimable(self, tmp_path):
        """The crash-safety core: a dead worker's item frees after lock_ttl."""
        dead = WorkQueue(tmp_path, ["a"], lock_ttl=60)
        assert dead.try_claim("a")
        survivor = WorkQueue(tmp_path, ["a"], lock_ttl=60)
        assert not survivor.try_claim("a")  # fresh lock: still owned
        age_file(dead.lock_path("a"), 120)  # the worker "died" (no heartbeat)
        assert survivor.try_claim("a")
        assert item_state(tmp_path / "a", lock_ttl=60) == "running"

    def test_heartbeat_keeps_the_claim_alive(self, tmp_path):
        queue = WorkQueue(tmp_path, ["a"], lock_ttl=60)
        assert queue.try_claim("a")
        age_file(queue.lock_path("a"), 120)
        queue.heartbeat("a")  # a live worker refreshes its lock every step
        assert not WorkQueue(tmp_path, ["a"], lock_ttl=60).try_claim("a")

    def test_stalled_worker_cannot_release_anothers_lock(self, tmp_path):
        """After a takeover, the original (stalled) worker's release is a no-op."""
        stalled = WorkQueue(tmp_path, ["a"], lock_ttl=60)
        assert stalled.try_claim("a")
        age_file(stalled.lock_path("a"), 120)
        takeover = WorkQueue(tmp_path, ["a"], lock_ttl=60)
        assert takeover.try_claim("a")
        stalled.release("a")  # token no longer matches: must not unlink
        assert stalled.lock_path("a").exists()
        takeover.complete("a")
        assert not takeover.lock_path("a").exists()

    def test_release_makes_item_claimable_again(self, tmp_path):
        queue = WorkQueue(tmp_path, ["a"], lock_ttl=60)
        assert queue.try_claim("a")
        queue.release("a")
        assert WorkQueue(tmp_path, ["a"], lock_ttl=60).try_claim("a")


# ----------------------------------------------------------------------
# Parallel execution: the ISSUE acceptance criterion
# ----------------------------------------------------------------------
class TestParallelSweep:
    def _sweep_args(self, runs_dir: str, extra=()):
        sets = [f"--set={key}={value}" for key, value in TINY_SWEEP.items()]
        return [
            "--runs-dir",
            runs_dir,
            "sweep",
            "--methods",
            *GRID["methods"],
            "--seeds",
            *map(str, GRID["seeds"]),
            *extra,
            *sets,
        ]

    def test_jobs2_bit_identical_to_serial(self, tmp_path):
        """`python -m repro sweep --jobs 2` on a 4-run grid produces result.json
        files byte-identical (modulo the wall-clock field) to `--jobs 1`."""
        from repro.__main__ import main

        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(self._sweep_args(str(serial))) == 0
        assert main(self._sweep_args(str(parallel), extra=["--jobs", "2"])) == 0
        names = [f"{m}-cifar-seed{s}" for m in GRID["methods"] for s in GRID["seeds"]]
        for name in names:
            assert normalized_result_bytes(serial / name / RESULT_FILE) == normalized_result_bytes(
                parallel / name / RESULT_FILE
            ), f"{name} differs between --jobs 1 and --jobs 2"
        assert (parallel / "REPORT.txt").exists()
        # No claim survives a finished sweep.
        assert not list(parallel.rglob(LOCK_FILE))

    def test_shards_compose_into_the_full_grid(self, tmp_path):
        from repro.__main__ import main

        runs = tmp_path / "sharded"
        assert main(self._sweep_args(str(runs), extra=["--shard", "1/2"])) == 0
        assert len(list(runs.glob(f"*/{RESULT_FILE}"))) == 2
        assert main(self._sweep_args(str(runs), extra=["--shard", "2/2"])) == 0
        assert len(list(runs.glob(f"*/{RESULT_FILE}"))) == 4

    def test_crashed_run_is_resumed_from_its_checkpoint(self, tmp_path):
        """A claimed-then-killed item (stale lock + checkpoint) is re-claimed by
        the next sweep and finishes bit-identical to an uninterrupted run."""
        config = tiny_config(search_epochs=3)
        reference = tmp_path / "reference"
        uninterrupted = Runner(base_dir=reference).run(config)

        crashed = tmp_path / "crashed"
        runner = Runner(base_dir=crashed)
        assert runner.run(config, max_steps=1) is None  # killed mid-run
        workdir = runner.workdir_for(config)
        assert (workdir / CHECKPOINT_FILE).exists()
        (workdir / LOCK_FILE).write_text('{"token": "dead-worker"}')
        age_file(workdir / LOCK_FILE, 120)

        plan = SweepPlan.from_grid(config)
        outcome = run_sweep(plan, base_dir=crashed, jobs=1, lock_ttl=60)
        assert outcome.complete
        assert normalized_result_bytes(workdir / RESULT_FILE) == normalized_result_bytes(
            reference / config.name / RESULT_FILE
        )
        assert uninterrupted is not None

    def test_sweep_waits_out_a_dead_workers_fresh_lock(self, tmp_path):
        """A lock that is still fresh when the sweep starts (worker just died)
        is waited out: the sweep takes the item over once the ttl expires,
        instead of returning it as unfinished."""
        config = tiny_config()
        workdir = tmp_path / config.name
        workdir.mkdir(parents=True)
        (workdir / LOCK_FILE).write_text('{"token": "dead-worker"}')  # fresh mtime
        outcome = run_sweep(SweepPlan.from_grid(config), base_dir=tmp_path, jobs=1, lock_ttl=2)
        assert outcome.complete
        assert (workdir / RESULT_FILE).exists()

    def test_failed_run_is_recorded_and_does_not_stall_the_queue(self, tmp_path, monkeypatch):
        config = tiny_config()
        plan = SweepPlan.from_grid(config, methods=["baseline", "baseline_flops"])
        original = Runner.run

        def failing_run(self, cfg, *args, **kwargs):
            if cfg.method == "baseline":
                raise RuntimeError("boom")
            return original(self, cfg, *args, **kwargs)

        monkeypatch.setattr(Runner, "run", failing_run)
        outcome = run_sweep(plan, base_dir=tmp_path, jobs=1, lock_ttl=60)
        assert outcome.unfinished == ["baseline-cifar-seed0"]
        assert len(outcome.results) == 1
        failure = tmp_path / "baseline-cifar-seed0" / FAILED_FILE
        assert "boom" in failure.read_text()
        # The failed item's lock was released: a later launch can retry it.
        monkeypatch.setattr(Runner, "run", original)
        retry = run_sweep(plan, base_dir=tmp_path, jobs=1, lock_ttl=60)
        assert retry.complete
        assert not failure.exists()

    def test_worker_waits_for_a_live_retry_of_a_run_it_failed(self, tmp_path, monkeypatch):
        """A worker does not retry its own failure, but while a live peer
        holds the failed run's lock it waits for that retry to end, so the
        sweep reports the peer's result instead of an unfinished run."""
        config = tiny_config()
        original_run, original_release = Runner.run, WorkQueue.release
        peers = []

        def failing_run(self, cfg, *args, **kwargs):
            raise RuntimeError("boom")

        def peer_retry(workdir: Path) -> None:
            try:
                original_run(Runner(base_dir=tmp_path), config, workdir=workdir, resume=True)
            finally:
                (workdir / LOCK_FILE).unlink()

        def release_then_peer_claims(self, name):
            original_release(self, name)
            self.lock_path(name).write_text('{"token": "live-peer"}')
            peers.append(threading.Thread(target=peer_retry, args=(self.workdir(name),)))
            peers[-1].start()

        monkeypatch.setattr(Runner, "run", failing_run)
        monkeypatch.setattr(WorkQueue, "release", release_then_peer_claims)
        outcome = run_sweep(SweepPlan.from_grid(config), base_dir=tmp_path, jobs=1, lock_ttl=8)
        for peer in peers:
            peer.join(timeout=60)
            assert not peer.is_alive()
        assert outcome.complete
        assert (tmp_path / config.name / FAILED_FILE).exists()  # this worker did fail it

    def test_runner_sweep_raises_on_unfinished(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            Runner, "run", lambda self, cfg, *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(RuntimeError, match="unfinished"):
            Runner(base_dir=tmp_path).sweep(tiny_config())


# ----------------------------------------------------------------------
# Partial-sweep status reporting
# ----------------------------------------------------------------------
class TestSweepStatus:
    def test_states_and_report_aggregation(self, tmp_path):
        runner = Runner(base_dir=tmp_path)
        finished = tiny_config(seed=0)
        runner.run(finished)
        paused = tiny_config(seed=1, search_epochs=3)
        assert runner.run(paused, max_steps=1) is None

        status = sweep_status(tmp_path, lock_ttl=60)
        assert status[finished.name]["state"] == "finished"
        assert status[paused.name]["state"] == "checkpointed"
        assert status[paused.name]["step"] == 1

        rendered = format_sweep_status(status)
        assert "1/2 runs finished" in rendered
        assert paused.name in rendered

        report = runner.report()
        assert "checkpointed" in report
        # Once everything finishes, the report drops the status section.
        runner.resume(workdir=runner.workdir_for(paused))
        assert "checkpointed" not in runner.report()

    def test_running_and_stale_states(self, tmp_path):
        config = tiny_config(search_epochs=3)
        runner = Runner(base_dir=tmp_path)
        assert runner.run(config, max_steps=1) is None
        workdir = runner.workdir_for(config)
        queue = WorkQueue(tmp_path, [config.name], lock_ttl=60)
        assert queue.try_claim(config.name)
        assert sweep_status(tmp_path, lock_ttl=60)[config.name]["state"] == "running"
        age_file(queue.lock_path(config.name), 120)
        assert sweep_status(tmp_path, lock_ttl=60)[config.name]["state"] == "stale"
        assert item_state(workdir, lock_ttl=60) == "stale"
