"""Small statistics helpers shared by the workloads (stdlib only).

Everything here is pure and unit-tested in ``tests/test_perfbench_helpers.py``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ``beyond`` samples above it.

    With ``n`` samples that is the ``beyond + 1``-th largest sample, at
    percentile ``100 * (n - beyond) / n``.  When that would not lie above the
    median (``n < 2 * beyond + 1``) the sample is too small for a tail: the
    maximum is returned with percentile 100, and the caller prints the
    sample count next to it.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * beyond + 1:
        return float(ordered[-1]), 100.0
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values]
    if not logs:
        raise ValueError("geometric mean of no samples")
    return math.exp(sum(logs) / len(logs))


# ----------------------------------------------------------------------
# Open-loop request accounting
# ----------------------------------------------------------------------
def request_timings(records: Sequence[Dict[str, float]]) -> Tuple[List[float], List[float]]:
    """Latency and send lag (ms) of open-loop request records.

    Each record carries ``due`` (when the schedule wanted it sent), ``sent``
    and ``done`` on one clock.  Latency counts from ``due``, so a stall that
    delays later sends is charged to every request it delayed; lag is how
    late the request went out against the schedule.
    """
    latencies = [1000.0 * (record["done"] - record["due"]) for record in records]
    lags = [1000.0 * max(record["sent"] - record["due"], 0.0) for record in records]
    return latencies, lags

