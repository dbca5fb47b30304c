"""The two crash-safety primitives every on-disk artefact goes through.

* :func:`atomic_write` — the one temp-file + rename writer.  A reader (or a
  worker that treats ``result.json`` as the run's done marker) sees either
  the previous complete file or the new complete file, never a torn one;
  a write that raises leaves the previous file untouched and no temp file
  behind.
* :class:`FileLock` — the one ``O_CREAT | O_EXCL`` owner-token lock.  It
  guards each run directory of the work queue (``<run>/LOCK``, see
  :mod:`repro.experiments.sweep`) and the schedule ledger
  (``.scheduler_state.lock``, see :mod:`repro.experiments.schedulers.state`).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, TextIO, Union

from repro.utils.logging import get_logger

logger = get_logger("utils.files")

#: Matches every temp file :func:`atomic_write` creates; a writer killed
#: mid-write leaves one behind, which the sweep drain clears before a run.
TEMP_GLOB = "*.tmp"


def atomic_write(path: Union[str, Path], write: Callable[[TextIO], object]) -> Path:
    """Create ``path`` by calling ``write`` on a temp file, then renaming it.

    The temp name is per-process *and* per-thread
    (``<name>.<pid>-<thread>.tmp``): two sweep workers racing on the same
    run (a pathological lock takeover), or two ``repro.serve`` handler
    threads rewriting the browser cache, each rename a complete file into
    place.  If ``write`` raises, the temp file is removed and the error
    re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            write(handle)
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


class FileLock:
    """Cooperative ``O_CREAT | O_EXCL`` file lock with an owner token.

    :meth:`try_acquire` creates ``path`` exclusively (atomic on every POSIX
    filesystem), so exactly one contender wins, and records its owner as
    ``{host, pid, token, claimed_at}``.  The holder refreshes the file's
    mtime with :meth:`heartbeat`; a lock whose mtime is older than ``ttl``
    seconds counts as abandoned by a crashed holder and is broken by an
    atomic rename, of which again exactly one contender wins.
    :meth:`heartbeat` and :meth:`release` re-check the token first, so a
    holder that stalled past the ttl can neither refresh nor delete the lock
    of the contender that took over.
    """

    def __init__(self, path: Union[str, Path], ttl: float) -> None:
        self.path = Path(path)
        self.ttl = float(ttl)
        self._token: Optional[str] = None

    def try_acquire(self) -> bool:
        """Attempt to take the lock once; ``True`` if this object now holds it."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and not self._break_if_stale():
            return False
        token = f"{socket.gethostname()}-{os.getpid()}-{os.urandom(8).hex()}"
        try:
            descriptor = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                    "token": token,
                    "claimed_at": time.time(),
                },
                handle,
            )
        self._token = token
        return True

    def _break_if_stale(self) -> bool:
        """``True`` if the lock file is gone (possibly because we just broke it)."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except FileNotFoundError:
            return True
        if age < self.ttl:
            return False
        # Atomic rename: of all contenders seeing the stale lock, exactly one
        # wins.  (A lock re-created in the stat->rename window could in
        # principle be swept up too; the window is microseconds wide and the
        # re-creator only got there by breaking the same expired lock, so
        # the lock still ends with at most one owner.)
        corpse = self.path.with_name(f"{self.path.name}.broken-{os.getpid()}-{time.monotonic_ns()}")
        try:
            os.rename(self.path, corpse)
        except FileNotFoundError:
            return True
        corpse.unlink(missing_ok=True)
        logger.warning(
            "broke stale lock %s (no heartbeat for %.0fs > ttl %.0fs)", self.path, age, self.ttl
        )
        return True

    def _owned(self) -> bool:
        """Whether the lock file still carries this object's token."""
        if self._token is None:
            return False
        try:
            owner = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return isinstance(owner, dict) and owner.get("token") == self._token

    def heartbeat(self) -> None:
        """Refresh the lock's mtime so contenders keep treating it as alive."""
        if self._owned():
            try:
                os.utime(self.path)
            except FileNotFoundError:
                pass

    def release(self) -> None:
        """Delete the lock file if this object still owns it."""
        if self._owned():
            self.path.unlink(missing_ok=True)
        self._token = None

    @contextmanager
    def hold(self) -> Iterator[None]:
        """Spin until the lock is held, and release it on exit.

        For short critical sections only (the schedule ledger's
        read-modify-write cycles): a contender polls rather than queues.
        """
        poll = max(0.01, min(0.25, self.ttl / 20))
        while not self.try_acquire():
            time.sleep(poll)
        try:
            yield
        finally:
            self.release()
