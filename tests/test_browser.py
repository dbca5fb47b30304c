"""Hardening sweep for the incremental results browser
(`repro.experiments.browser`): fault injection on every artefact, cache
invalidation and poisoning resistance, cold-vs-warm byte parity of every
report surface, filter slicing, and concurrent scan/write safety.

The synthetic-run helpers here build artefact trees by hand (valid
``result.json`` payloads modelled on :meth:`SearchResult.to_dict`), so most
tests run in milliseconds; only the end-to-end parity tests execute real
tiny searches (reusing the fixtures of ``test_parallel_sweep``).
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import pytest

from repro import api
from repro.__main__ import main
from repro.core.results import SearchResult
from repro.experiments import Runner
from repro.experiments.browser import (
    CACHE_FILE,
    CACHE_VERSION,
    BrowserCache,
    browse,
    parse_filters,
    results_view,
    scan_runs,
    status_view,
    summarize_run_dir,
)
from repro.experiments.browser.run_summary import RunSummary
from repro.experiments.runner import RESULT_FILE
from repro.experiments.sweep import LOCK_FILE, WorkQueue, item_state, sweep_status
from repro.utils.serialization import save_json

from test_parallel_sweep import age_file, tiny_config

# ----------------------------------------------------------------------
# Synthetic artefact payloads (shape of SearchResult.to_dict)
# ----------------------------------------------------------------------
def result_payload(**overrides) -> dict:
    payload = {
        "method": "DANCE (w/ FF)",
        "op_indices": [1, 2, 3],
        "accuracy": 0.5,
        "backend": "eyeriss",
        "hardware": {"pe_x": 8, "pe_y": 16, "rf_size": 64, "dataflow": "RS"},
        "metrics": {"latency_ms": 0.4, "energy_mj": 0.5, "area_mm2": 6.9952},
        "search_seconds": 1.5,
        "candidates_trained": 2,
        "history": [{"epoch": 0.0, "train_ce": 2.5}],
    }
    payload.update(overrides)
    return payload


def config_payload(**overrides) -> dict:
    payload = {"method": "dance", "task": "cifar", "backend": "eyeriss", "seed": 0}
    payload.update(overrides)
    return payload


def make_run(
    root: Path,
    name: str,
    *,
    result=None,
    config=None,
    checkpoint: str = None,
    failed: str = None,
    raw_result: bytes = None,
) -> Path:
    workdir = root / name
    workdir.mkdir(parents=True, exist_ok=True)
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    if result is not None:
        (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    if raw_result is not None:
        (workdir / "result.json").write_bytes(raw_result)
    if checkpoint is not None:
        (workdir / "checkpoint.json").write_text(checkpoint, encoding="utf-8")
    if failed is not None:
        (workdir / "FAILED.txt").write_text(failed, encoding="utf-8")
    return workdir


def mixed_tree(root: Path) -> Path:
    """A tree exercising every state: finished, corrupt, checkpointed,
    failed, pending, plus a nested run and adversarially-sorting names."""
    make_run(root, "a-run", result=result_payload(accuracy=0.42), config=config_payload())
    make_run(  # "-" < "/": flat-string sorting would order this before a-run
        root,
        "a-run-b",
        result=result_payload(method="baseline", accuracy=0.6),
        config=config_payload(method="baseline", seed=1),
    )
    make_run(
        root,
        "chk-run",
        config=config_payload(seed=2),
        checkpoint='{"steps_completed": 7, "weights": [0.1, 0.2]}',
    )
    make_run(root, "fail-run", config=config_payload(seed=3), failed="boom\n")
    make_run(root, "pending-run", config=config_payload(seed=4))
    make_run(
        root,
        "corrupt-run",
        config=config_payload(seed=5),
        raw_result=b'{"method": "DANCE", "accura',  # truncated mid-write
    )
    make_run(root, "nested/deep-run", result=result_payload(accuracy=0.9))
    return root


def report_surfaces(root: Path, **options) -> tuple:
    """Every user-visible report output for one scan configuration."""
    runner = Runner(base_dir=root)
    return (
        runner.report(root=root, include_pareto=True, **options),
        json.dumps(api.report_document(root, **options).to_dict(), allow_nan=False),
        runner.format_progress(api.summary_document(root, **options).to_dict()),
    )


# ----------------------------------------------------------------------
# RunSummary: extraction, fault injection, round-trip
# ----------------------------------------------------------------------
class TestRunSummary:
    def _summary(self, root: Path, relpath: str) -> RunSummary:
        outcome = scan_runs(root)
        assert relpath in outcome.summaries, sorted(outcome.summaries)
        return outcome.summaries[relpath]

    def test_valid_run_extraction(self, tmp_path):
        make_run(
            tmp_path,
            "run",
            result=result_payload(),
            config=config_payload(seed=3),
            checkpoint='{"steps_completed": 11, "bulk": "' + "x" * 4096 + '"}',
        )
        summary = self._summary(tmp_path, "run")
        assert not summary.corrupt
        assert summary.method == "dance"
        assert summary.task == "cifar"
        assert summary.backend == "eyeriss"
        assert summary.seed == 3
        assert summary.checkpoint_step == 11
        assert summary.result_method == "DANCE (w/ FF)"
        assert summary.accuracy == 0.5
        assert len(summary.config_digest) == 16
        assert summary.state(tmp_path, lock_ttl=60) == "finished"

    @pytest.mark.parametrize(
        "raw",
        [
            b"",  # empty file
            b'{"method": "DANCE", "accura',  # truncated mid-write
            b"\x00\xff garbage not json",
            b"[1, 2, 3]",  # not an object
            json.dumps(result_payload(metrics={"latency_ms": 1.0})).encode(),  # missing metric keys
            json.dumps({k: v for k, v in result_payload().items() if k != "accuracy"}).encode(),
            json.dumps(result_payload(accuracy="not-a-number")).encode(),
            json.dumps(result_payload(method=7)).encode(),
            json.dumps(
                result_payload(metrics={"latency_ms": -1.0, "energy_mj": 1.0, "area_mm2": 1.0})
            ).encode(),  # negative metric: HardwareMetrics would reject at render time
        ],
    )
    def test_corrupt_result_degrades_not_crashes(self, tmp_path, raw):
        make_run(tmp_path, "run", raw_result=raw, config=config_payload())
        summary = self._summary(tmp_path, "run")
        assert summary.corrupt
        assert summary.corrupt_reason.startswith("result.json:")
        assert summary.state(tmp_path, lock_ttl=60) == "corrupt"
        with pytest.raises(ValueError, match="no usable result"):
            summary.to_result()
        # The corrupt run is excluded from results but visible in status.
        assert results_view({"run": summary}, tmp_path) == []
        assert status_view({"run": summary}, tmp_path, 60)["run"]["state"] == "corrupt"

    def test_legacy_result_defaults_to_eyeriss(self, tmp_path):
        legacy = result_payload()
        del legacy["backend"]
        make_run(tmp_path, "run", result=legacy)
        summary = self._summary(tmp_path, "run")
        assert not summary.corrupt
        assert summary.result_backend == "eyeriss"

    def test_garbage_config_only_loses_labels(self, tmp_path):
        make_run(tmp_path, "run", result=result_payload())
        (tmp_path / "run" / "config.json").write_bytes(b"{broken")
        summary = self._summary(tmp_path, "run")
        assert not summary.corrupt
        assert summary.config_digest is not None  # digest is over raw bytes
        assert summary.method is None and summary.task is None
        assert summary.state(tmp_path, lock_ttl=60) == "finished"

    def test_garbage_checkpoint_head_yields_no_step(self, tmp_path):
        make_run(tmp_path, "run", config=config_payload(), checkpoint="\x00\xffgarbage")
        summary = self._summary(tmp_path, "run")
        assert summary.checkpoint_step is None
        assert summary.state(tmp_path, lock_ttl=60) == "checkpointed"

    def test_facade_renders_identically_to_full_result(self, tmp_path):
        runner = Runner(base_dir=tmp_path)
        payload = result_payload(accuracy=float("nan"))  # retrain_final=false shape
        make_run(tmp_path, "run", result=payload)
        facade = self._summary(tmp_path, "run").to_result()
        full = SearchResult.from_dict(payload)
        assert runner.format_report([facade]) == runner.format_report([full])
        assert runner.format_pareto(
            api.pareto_records([("run", facade)])
        ) == runner.format_pareto(api.pareto_records([("run", full)]))

    def test_cache_record_round_trip(self, tmp_path):
        make_run(tmp_path, "run", result=result_payload(), config=config_payload())
        summary = self._summary(tmp_path, "run")
        clone = RunSummary.from_dict(summary.to_dict())
        assert clone == summary

    @pytest.mark.parametrize("record", [{"signature": {}}, {"name": 3, "signature": {}}, {"name": "x", "signature": []}])
    def test_malformed_cache_record_rejected(self, record):
        with pytest.raises((TypeError, ValueError)):
            RunSummary.from_dict(record)


# ----------------------------------------------------------------------
# Scanner: incremental semantics and view ordering
# ----------------------------------------------------------------------
class TestScanner:
    def test_warm_scan_reuses_everything(self, tmp_path):
        mixed_tree(tmp_path)
        cold = scan_runs(tmp_path)
        assert cold.parsed == len(cold.summaries) > 0 and cold.reused == 0
        warm = scan_runs(tmp_path, cached=cold.summaries)
        assert warm.parsed == 0 and warm.reused == len(cold.summaries)
        assert warm.summaries == cold.summaries

    def test_lock_heartbeat_does_not_invalidate(self, tmp_path):
        mixed_tree(tmp_path)
        cold = scan_runs(tmp_path)
        (tmp_path / "chk-run" / LOCK_FILE).write_text('{"token": "worker"}')
        warm = scan_runs(tmp_path, cached=cold.summaries)
        assert warm.parsed == 0  # LOCK is not part of the signature

    def test_only_the_changed_run_is_reparsed(self, tmp_path):
        mixed_tree(tmp_path)
        cold = scan_runs(tmp_path)
        target = tmp_path / "a-run" / RESULT_FILE
        save_json(result_payload(accuracy=0.77), target)
        warm = scan_runs(tmp_path, cached=cold.summaries)
        assert warm.parsed == 1 and warm.reused == len(cold.summaries) - 1
        assert warm.summaries["a-run"].accuracy == 0.77

    def test_deleted_run_drops_out(self, tmp_path):
        mixed_tree(tmp_path)
        cold = scan_runs(tmp_path)
        for artefact in (tmp_path / "fail-run").iterdir():
            artefact.unlink()
        (tmp_path / "fail-run").rmdir()
        warm = scan_runs(tmp_path, cached=cold.summaries)
        assert "fail-run" not in warm.summaries

    def test_dangling_symlink_treated_as_absent(self, tmp_path):
        make_run(tmp_path, "run", config=config_payload())
        (tmp_path / "run" / RESULT_FILE).symlink_to(tmp_path / "vanished.json")
        outcome = scan_runs(tmp_path)
        summary = outcome.summaries["run"]
        assert not summary.has_result
        assert summary.state(tmp_path, lock_ttl=60) == "pending"

    def test_results_view_matches_rglob_order(self, tmp_path):
        mixed_tree(tmp_path)
        make_run(tmp_path, "nested/a-run", result=result_payload())
        expected = [
            str(path.parent.relative_to(tmp_path)) for path in sorted(tmp_path.rglob(RESULT_FILE))
        ]
        # Drop corrupt-run: usable results only (rglob has no such notion).
        expected.remove("corrupt-run")
        view = results_view(scan_runs(tmp_path).summaries, tmp_path)
        assert [name for name, _ in view] == expected

    def test_root_as_run_dir_uses_real_name(self, tmp_path):
        root = tmp_path / "solo-run"
        make_run(tmp_path, "solo-run", result=result_payload())
        view = results_view(scan_runs(root).summaries, root)
        assert [name for name, _ in view] == ["solo-run"]


# ----------------------------------------------------------------------
# Cache: versioning, poisoning resistance, atomicity
# ----------------------------------------------------------------------
class TestCache:
    def test_browse_writes_then_reuses_cache(self, tmp_path):
        mixed_tree(tmp_path)
        cold = browse(tmp_path)
        assert cold.parsed > 0
        assert (tmp_path / CACHE_FILE).exists()
        warm = browse(tmp_path)
        assert warm.parsed == 0 and warm.summaries == cold.summaries

    def test_no_cache_mode_touches_no_file(self, tmp_path):
        mixed_tree(tmp_path)
        outcome = browse(tmp_path, use_cache=False)
        assert outcome.parsed > 0
        assert not (tmp_path / CACHE_FILE).exists()

    def test_refresh_ignores_poisoned_entries(self, tmp_path):
        mixed_tree(tmp_path)
        browse(tmp_path)
        # Poison one cached summary (simulates any stale-cache bug)...
        cache = BrowserCache(tmp_path)
        poisoned = cache.load()
        poisoned["a-run"].accuracy = 0.999
        cache.save(poisoned)
        assert browse(tmp_path).summaries["a-run"].accuracy == 0.999  # trusted
        # ...and --refresh repairs it from disk.
        assert browse(tmp_path, refresh=True).summaries["a-run"].accuracy == 0.42

    @pytest.mark.parametrize(
        "raw",
        [
            b"",  # truncated to nothing
            b'{"schema_version": 1, "entries"',  # truncated mid-write
            b"\x00\xff not json at all",
            b"[]",  # wrong top-level type
            b'{"schema_version": 999, "entries": {}}',  # future/old schema
            b'{"entries": {}}',  # missing version
            b'{"schema_version": 1, "entries": []}',  # wrong entries type
        ],
    )
    def test_unusable_cache_degrades_to_cold_scan(self, tmp_path, raw):
        mixed_tree(tmp_path)
        (tmp_path / CACHE_FILE).write_bytes(raw)
        assert BrowserCache(tmp_path).load() == {}
        outcome = browse(tmp_path)
        assert outcome.parsed == len(outcome.summaries) > 0
        # The scan atomically rewrote a valid current-schema cache.
        repaired = json.loads((tmp_path / CACHE_FILE).read_text())
        assert repaired["schema_version"] == CACHE_VERSION
        assert browse(tmp_path).parsed == 0

    def test_single_malformed_entry_is_skipped_not_fatal(self, tmp_path):
        mixed_tree(tmp_path)
        browse(tmp_path)
        payload = json.loads((tmp_path / CACHE_FILE).read_text())
        payload["entries"]["a-run"] = {"signature": "not-a-dict"}
        payload["entries"]["chk-run"] = 42
        (tmp_path / CACHE_FILE).write_text(json.dumps(payload))
        cached = BrowserCache(tmp_path).load()
        assert "a-run" not in cached and "chk-run" not in cached
        assert "a-run-b" in cached
        warm = browse(tmp_path)
        assert warm.parsed == 2  # only the two skipped entries re-parse

    def test_corrupt_run_does_not_poison_cache(self, tmp_path):
        make_run(tmp_path, "run", raw_result=b"{broken", config=config_payload())
        assert browse(tmp_path).summaries["run"].corrupt
        # Fixing the file changes its signature: the next warm scan re-parses.
        save_json(result_payload(), tmp_path / "run" / RESULT_FILE)
        healed = browse(tmp_path)
        assert not healed.summaries["run"].corrupt
        assert healed.summaries["run"].state(tmp_path, lock_ttl=60) == "finished"

    def test_unwritable_cache_is_nonfatal(self, tmp_path, monkeypatch):
        mixed_tree(tmp_path)

        def refuse(obj, path, compact=False):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("repro.experiments.browser.cache.save_json", refuse)
        outcome = browse(tmp_path)  # must not raise
        assert outcome.parsed > 0
        assert not BrowserCache(tmp_path).save(outcome.summaries)


# ----------------------------------------------------------------------
# Report parity: cold / warm / no-cache / refresh are byte-identical,
# and match the pre-browser composition of the same report.
# ----------------------------------------------------------------------
class TestReportParity:
    def test_all_cache_modes_byte_identical(self, tmp_path):
        mixed_tree(tmp_path)
        no_cache = report_surfaces(tmp_path, use_cache=False)
        assert not (tmp_path / CACHE_FILE).exists()
        cold = report_surfaces(tmp_path)  # writes the cache
        warm = report_surfaces(tmp_path)
        refresh = report_surfaces(tmp_path, refresh=True)
        assert no_cache == cold == warm == refresh

    def test_text_report_matches_pre_browser_composition(self, tmp_path):
        """The browser-backed report equals the legacy recipe reassembled
        from the primitive pieces: full result loads in rglob order, plus
        the live per-directory state scan."""
        from repro.experiments.sweep import format_sweep_status

        mixed_tree(tmp_path)
        (tmp_path / "corrupt-run" / RESULT_FILE).unlink()  # legacy loader would crash on it
        runner = Runner(base_dir=tmp_path)
        named = runner.collect_named_results(tmp_path)
        expected = runner.format_report(
            [result for _, result in named], title=f"Results under {tmp_path}"
        )
        expected += "\n\n" + runner.format_pareto(api.pareto_records(named))
        legacy_status = {
            path.parent.name: {"state": item_state(path.parent, lock_ttl=60)}
            for path in sorted(tmp_path.glob("*/config.json"))
        }
        for name, entry in legacy_status.items():
            if entry["state"] in ("checkpointed", "running", "stale", "failed"):
                entry["step"] = scan_runs(tmp_path).summaries[name].checkpoint_step
        expected += "\n\n" + format_sweep_status(legacy_status)
        assert runner.report(root=tmp_path, include_pareto=True, lock_ttl=60) == expected

    def test_queue_states_bypass_the_warm_cache(self, tmp_path):
        """A LOCK heartbeat never invalidates the cache, yet running-vs-stale
        classification is always live: warming the cache while a run is
        claimed, then ageing the lock, must flip the state on the next warm
        report without a single re-parse."""
        mixed_tree(tmp_path)
        queue = WorkQueue(tmp_path, ["chk-run"], lock_ttl=60)
        assert queue.try_claim("chk-run")
        browse(tmp_path)  # warm the cache with the lock in place
        assert sweep_status(tmp_path, lock_ttl=60)["chk-run"]["state"] == "running"
        age_file(queue.lock_path("chk-run"), 120)
        assert browse(tmp_path).parsed == 0
        status = sweep_status(tmp_path, lock_ttl=60)
        assert status["chk-run"] == {"state": "stale", "step": 7}
        queue.release("chk-run")
        assert sweep_status(tmp_path, lock_ttl=60)["chk-run"]["state"] == "checkpointed"

    def test_warm_state_classification_is_one_stat(self, tmp_path, monkeypatch):
        """Satellite 5: on a warm cache the stale-lock path must not re-open
        any artefact — the checkpoint step rides in the summary, so only the
        lock stat hits the filesystem."""
        mixed_tree(tmp_path)
        browse(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("warm path re-parsed an artefact")

        monkeypatch.setattr(
            "repro.experiments.browser.run_summary.summarize_run_dir", forbidden
        )
        monkeypatch.setattr(
            "repro.experiments.browser.scanner.summarize_run_dir", forbidden
        )
        status = sweep_status(tmp_path, lock_ttl=60)
        assert status["chk-run"] == {"state": "checkpointed", "step": 7}

    def test_real_sweep_runs_report_identically_warm(self, tmp_path):
        """End-to-end on real artefacts: one finished and one checkpointed
        tiny search, reported cold and warm, byte-identical."""
        runner = Runner(base_dir=tmp_path)
        runner.run(tiny_config(seed=0))
        assert runner.run(tiny_config(seed=1, search_epochs=3), max_steps=1) is None
        cold = report_surfaces(tmp_path, use_cache=False)
        warm_first = report_surfaces(tmp_path)
        warm_second = report_surfaces(tmp_path)
        assert cold == warm_first == warm_second
        assert "checkpointed" in warm_second[0]


# ----------------------------------------------------------------------
# Filter slicing and the progress summary
# ----------------------------------------------------------------------
class TestFilters:
    def test_parse_filters(self):
        assert parse_filters(["backend=eyeriss,task=cifar", "seed=1"]) == {
            "backend": "eyeriss",
            "task": "cifar",
            "seed": "1",
        }
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_filters(["backend"])
        with pytest.raises(ValueError, match="did you mean 'backend'"):
            parse_filters(["backened=eyeriss"])

    def test_filtered_pareto_front_is_recomputed_on_the_slice(self, tmp_path):
        # globally dominated run: strictly worse than a-run on both axes
        make_run(
            tmp_path,
            "dominated",
            result=result_payload(
                accuracy=0.3,
                metrics={"latency_ms": 0.9, "energy_mj": 0.9, "area_mm2": 9.0},
            ),
            config=config_payload(seed=9, task="detection"),
        )
        make_run(tmp_path, "a-run", result=result_payload(accuracy=0.42), config=config_payload())
        full = {r["run"]: r["on_front"] for r in api.pareto_document(tmp_path).records}
        assert full == {"a-run": True, "dominated": False}
        sliced = api.report_document(tmp_path, filters={"task": "detection"}).to_dict()
        assert [(r["run"], r["on_front"]) for r in sliced["pareto"]] == [("dominated", True)]
        assert sliced["summary"]["results"] == 1

    def test_state_and_method_filters(self, tmp_path):
        mixed_tree(tmp_path)
        failed = api.summary_document(tmp_path, filters={"state": "failed"}).to_dict()
        assert failed["states"] == {"failed": 1}
        # method matches the config key or the result display name
        by_key = api.summary_document(tmp_path, filters={"method": "baseline"}).to_dict()
        by_name = api.summary_document(tmp_path, filters={"method": "DANCE (w/ FF)"}).to_dict()
        assert by_key["runs"] == 1
        assert by_name["runs"] >= 1

    def test_progress_summary_counts(self, tmp_path):
        mixed_tree(tmp_path)
        runner = Runner(base_dir=tmp_path)
        progress = api.summary_document(tmp_path).to_dict()
        assert progress["runs"] == 7
        assert progress["states"] == {
            "checkpointed": 1,
            "corrupt": 1,
            "failed": 1,
            "finished": 3,
            "pending": 1,
        }
        slices = {(s["backend"], s["task"]): (s["finished"], s["total"]) for s in progress["slices"]}
        assert slices[("eyeriss", "cifar")] == (2, 6)
        assert slices[("eyeriss", "?")] == (1, 1)  # nested run has no config
        rendered = runner.format_progress(progress)
        assert "runs: 7" in rendered and "corrupt: 1" in rendered and "2/6" in rendered

    def test_cli_summary_filter_and_cache_flags(self, tmp_path, capsys):
        mixed_tree(tmp_path)
        argv = ["--runs-dir", str(tmp_path), "report"]
        assert main(argv + ["--summary", "--no-cache"]) == 0
        assert "Sweep progress" in capsys.readouterr().out
        assert not (tmp_path / CACHE_FILE).exists()
        assert main(argv + ["--filter", "backend=nonexistent"]) == 0
        assert "(no results found)" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="unknown filter key"):
            main(argv + ["--filter", "bogus=1"])
        assert main(argv + ["--refresh", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["states"]["corrupt"] == 1


# ----------------------------------------------------------------------
# Concurrency: scanners racing a writer never crash or corrupt the cache
# ----------------------------------------------------------------------
def _scan_forever(args):
    root, iterations = args
    sizes = []
    for _ in range(iterations):
        outcome = browse(Path(root))
        sizes.append(len(outcome.summaries))
    return sizes


class TestConcurrency:
    def test_two_scanners_race_a_writer(self, tmp_path):
        """Two processes browse (read + rewrite the cache) while the parent
        mutates the tree like a sweep worker: results land atomically, runs
        appear and disappear, locks heartbeat.  Nothing may crash, and the
        cache must stay loadable and converge to the truth."""
        mixed_tree(tmp_path)
        iterations = 20
        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            scans = pool.map_async(
                _scan_forever, [(str(tmp_path), iterations)] * 2
            )
            for index in range(iterations):
                save_json(  # atomic result landing, like a finishing worker
                    result_payload(accuracy=0.1 + index / 100),
                    tmp_path / "a-run" / RESULT_FILE,
                )
                make_run(tmp_path, f"new-run-{index}", config=config_payload(seed=index))
                (tmp_path / "chk-run" / LOCK_FILE).write_text('{"token": "w"}')
                if index % 3 == 0:
                    victim = tmp_path / f"new-run-{index}" / "config.json"
                    victim.unlink()
                    victim.parent.rmdir()
            sizes = scans.get(timeout=120)  # raises if a scanner crashed
        assert len(sizes) == 2 and all(len(s) == iterations for s in sizes)
        # The cache is valid JSON in the current schema and a final warm
        # scan agrees byte-for-byte with a from-scratch cold scan.
        payload = json.loads((tmp_path / CACHE_FILE).read_text())
        assert payload["schema_version"] == CACHE_VERSION
        warm = browse(Path(tmp_path))
        cold = scan_runs(Path(tmp_path))
        assert warm.summaries == cold.summaries


# ----------------------------------------------------------------------
# summarize_run_dir edge: directory vanishing mid-parse
# ----------------------------------------------------------------------
class TestMidScanDeletion:
    def test_artefacts_vanishing_between_stat_and_read(self, tmp_path):
        make_run(tmp_path, "run", result=result_payload(), config=config_payload())
        signature = scan_runs(tmp_path).summaries["run"].signature
        for artefact in (tmp_path / "run").iterdir():
            artefact.unlink()
        assert summarize_run_dir(tmp_path, "run", signature) is None
