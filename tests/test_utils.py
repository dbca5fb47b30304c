"""Tests for the shared utility helpers (seeding, logging, serialisation,
the atomic writer and the file lock)."""

from __future__ import annotations

import ast
import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.utils import (
    get_logger,
    global_rng,
    load_json,
    save_checkpoint,
    save_json,
    seed_everything,
)
from repro.utils.files import FileLock
from repro.utils.seeding import as_rng

SRC = Path(__file__).resolve().parent.parent / "src"
PRIMITIVES = SRC / "repro" / "utils" / "files.py"


class TestSeeding:
    def test_seed_everything_is_deterministic(self):
        seed_everything(42)
        first = global_rng().normal(size=5)
        seed_everything(42)
        second = global_rng().normal(size=5)
        assert np.allclose(first, second)

    def test_as_rng_accepts_none_int_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)
        assert isinstance(as_rng(3), np.random.Generator)
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_int_is_deterministic(self):
        assert np.allclose(as_rng(5).normal(size=3), as_rng(5).normal(size=3))


class TestLogging:
    def test_logger_namespacing(self):
        logger = get_logger("core.test")
        assert logger.name == "repro.core.test"
        already_prefixed = get_logger("repro.foo")
        assert already_prefixed.name == "repro.foo"

    def test_logger_is_singleton_per_name(self):
        assert get_logger("same") is get_logger("same")

    def test_root_has_single_handler(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1


class TestSerialization:
    def test_roundtrip_plain_types(self, tmp_path):
        payload = {"a": 1, "b": [1.5, 2.5], "c": "text"}
        path = save_json(payload, tmp_path / "plain.json")
        assert load_json(path) == payload

    def test_numpy_values_serialised(self, tmp_path):
        payload = {
            "scalar": np.float64(2.5),
            "integer": np.int64(7),
            "flag": np.bool_(True),
            "array": np.arange(3),
        }
        loaded = load_json(save_json(payload, tmp_path / "numpy.json"))
        assert loaded == {"scalar": 2.5, "integer": 7, "flag": True, "array": [0, 1, 2]}

    def test_dataclass_serialised(self, tmp_path):
        @dataclasses.dataclass
        class Record:
            name: str
            value: float

        loaded = load_json(save_json({"record": Record("x", 1.0)}, tmp_path / "dc.json"))
        assert loaded == {"record": {"name": "x", "value": 1.0}}

    def test_nested_directory_created(self, tmp_path):
        path = save_json({"k": 1}, tmp_path / "nested" / "deep" / "file.json")
        assert path.exists()

    @pytest.mark.parametrize("save", [save_json, save_checkpoint], ids=["json", "checkpoint"])
    def test_failed_write_keeps_the_previous_file_and_leaves_no_temp(self, tmp_path, save):
        """An unencodable value must neither tear the previous file nor leak
        the temp file: the drain's ``*.tmp`` sweep never reaches the runs
        root, where the browser cache and the schedule ledger live."""
        path = save({"a": 1}, tmp_path / "state.json")
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save({"a": object()}, path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestFiles:
    def test_lock_body_records_its_owner(self, tmp_path):
        lock = FileLock(tmp_path / "LOCK", ttl=60)
        assert lock.try_acquire()
        body = load_json(tmp_path / "LOCK")
        assert sorted(body) == ["claimed_at", "host", "pid", "token"]
        lock.release()
        with lock.hold():
            assert (tmp_path / "LOCK").exists()
        assert not (tmp_path / "LOCK").exists()

    def test_one_lock_and_one_temp_writer_in_src(self):
        """``O_EXCL`` and ``*.tmp`` temp names appear only in
        ``repro/utils/files.py``: every lock is a ``FileLock`` and every
        temp-and-rename write goes through ``atomic_write``."""
        sites = {path: crash_safety_sites(path) for path in sorted(SRC.rglob("*.py"))}
        assert {"O_EXCL", ".tmp"} <= {kind for _, kind in sites.pop(PRIMITIVES)}
        strays = [
            f"{path.relative_to(SRC)}:{line} {kind}"
            for path, found in sites.items()
            for line, kind in found
        ]
        assert not strays, f"lock or temp-file code outside repro/utils/files.py: {strays}"


def crash_safety_sites(path: Path):
    """``(line, kind)`` of every ``O_EXCL`` use and ``.tmp`` string in code
    (docstrings and comments excluded)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    sites = []
    for node in ast.walk(tree):
        if "O_EXCL" in (getattr(node, "id", None), getattr(node, "attr", None)):
            sites.append((node.lineno, "O_EXCL"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and ".tmp" in node.value
            and id(node) not in docstrings
        ):
            sites.append((node.lineno, ".tmp"))
    return sites
