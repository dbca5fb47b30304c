"""Incremental results browser over run directories.

``python -m repro report`` used to re-read and re-parse every
``result.json``/``checkpoint.json`` under the runs directory on each
invocation — fine at 10 runs, wrong at the thousand-run sweeps the work
queue produces.  This package is the read path that scales:

* :mod:`~repro.experiments.browser.run_summary` — one lean, normalised
  :class:`RunSummary` per run directory (config digest, backend/task,
  checkpoint step, result metrics, Pareto triple), tolerant of partial,
  corrupt and legacy artefacts;
* :mod:`~repro.experiments.browser.scanner` — a single-pass walk that
  *stats before it parses*: a run is re-read only when the
  ``(mtime_ns, size)`` signature of its artefacts changed.  Queue ``LOCK``
  files bypass the cache entirely (their state is classified live);
* :mod:`~repro.experiments.browser.cache` — the versioned on-disk summary
  cache (``<runs>/.browser_cache.json``), written atomically, invalidated
  by schema version and per-run source signatures.

:func:`browse` ties the three together and is what ``Runner.report``,
the :mod:`repro.api` builders and the ``report`` CLI run on; it is also
the read half of ``python -m repro serve`` and of the sweep schedule
coordinator.  Design notes in ``docs/browser.md``.
"""

from pathlib import Path

from repro.experiments.browser.cache import CACHE_FILE, CACHE_VERSION, BrowserCache
from repro.experiments.browser.run_summary import RunSummary, summarize_run_dir
from repro.experiments.browser.scanner import (
    FILTER_KEYS,
    ScanOutcome,
    filter_summaries,
    matches_filters,
    parse_filters,
    results_view,
    run_name,
    scan_runs,
    status_view,
)

__all__ = [
    "BrowserCache",
    "CACHE_FILE",
    "CACHE_VERSION",
    "FILTER_KEYS",
    "RunSummary",
    "ScanOutcome",
    "browse",
    "filter_summaries",
    "matches_filters",
    "parse_filters",
    "results_view",
    "run_name",
    "scan_runs",
    "status_view",
    "summarize_run_dir",
]


def browse(root, use_cache: bool = True, refresh: bool = False) -> ScanOutcome:
    """Scan ``root`` through the summary cache and keep the cache fresh.

    ``use_cache=False`` neither reads nor writes ``.browser_cache.json``
    (a pure cold scan, the ``report --no-cache`` escape hatch);
    ``refresh=True`` ignores every cached entry — re-parsing the whole
    tree — but rewrites the cache afterwards (``report --refresh``, the
    repair path for a cache suspected stale).  The cache is only written
    when its contents actually changed, so a warm ``report`` performs no
    writes at all.
    """
    root = Path(root)
    if not use_cache:
        return scan_runs(root)
    cache = BrowserCache(root)
    cached = {} if refresh else cache.load()
    outcome = scan_runs(root, cached=cached)
    if root.is_dir() and (refresh or outcome.summaries != cached):
        cache.save(outcome.summaries)
    return outcome
