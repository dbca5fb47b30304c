"""In-memory span recorder for the traced benchmark run (stdlib only).

A span is one call into a layer: name, start, end, the span that caused it
and the run id, plus a few attributes.  Spans are kept in memory and written
out once, at the end: the benchmark process writes its own, and each forked
sweep worker writes its spans to ``spans-<pid>.json`` before it exits, so a
worker's spans survive the worker.  Span ids carry the pid, so a worker's
first span can name the parent-process span it was forked under.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    run: str
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters for one process (reset in forked children)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset_after_fork(self) -> None:
        """Drop what the parent recorded; keep its open spans as parents."""
        self.spans = []
        self.counters = {}
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the body as a span; the yielded dict collects extra attributes."""
        stack = self._stack()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(span_id, parent, name, start, end, self.run_id, os.getpid(), attrs)
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Dict[str, Any], Any, tuple, dict], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(attrs, result, args, kwargs)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(attrs, result, args, kwargs)
                return result

        traced.__wrapped_by_perfbench__ = fn  # type: ignore[attr-defined]
        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -- persistence ----------------------------------------------------
    def flush(self, directory: Path) -> Path:
        """Write this process's spans and counters to ``spans-<pid>.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{os.getpid()}.json"
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "spans": [asdict(span) for span in self.spans],
                "counters": dict(self.counters),
            }
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(payload), encoding="utf-8")
        temporary.replace(path)
        return path


def load_flushed(directory: Path) -> Tuple[List[Span], List[Dict[str, float]]]:
    """Spans and per-process counters of every ``spans-*.json`` under ``directory``."""
    spans: List[Span] = []
    counters: List[Dict[str, float]] = []
    for path in sorted(directory.glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(Span(**record) for record in payload["spans"])
        counters.append(payload["counters"])
    return spans, counters


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def children_of(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent workers or threads under one
    parent), so the union of their intervals, clipped to the span, is taken.
    """
    clipped = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end > span.start and child.start < span.end
    ]
    return span.duration - union_length(clipped)


def outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans named ``name`` with no ancestor of the same name (no double counting)."""
    by_id = {span.id: span for span in spans}
    chosen = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent else None
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent) if parent.parent else None
        if not nested:
            chosen.append(span)
    return chosen


def busy_seconds(spans: Sequence[Span], name: str) -> float:
    return sum(span.duration for span in outermost(spans, name))


def total_self_seconds(spans: Sequence[Span], name: str) -> float:
    kids = children_of(spans)
    return sum(self_time(span, kids.get(span.id, [])) for span in spans if span.name == name)


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of recording one span around a no-op call (overhead estimate)."""
    tracer = Tracer("calibration")
    noop = tracer.wrap(lambda: None, "noop")
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    return (time.perf_counter() - start) / samples
