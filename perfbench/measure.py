"""Metric arithmetic of the benchmark, kept free of the program under test.

Everything here is plain Python over numbers the workloads collected:
percentiles with a minimum tail, shares with explicit denominators,
counter deltas against a start-of-run snapshot, and span self times.
``test_measure.py`` covers each rule.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Iterable, Mapping

#: a percentile is only reported when at least this many samples lie
#: strictly above it, so one outlier cannot be the whole tail
MIN_BEYOND = 10


def tail_percentile(values: Iterable[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples rank
    above the percentile: p90 needs at least 100 samples, p50 at least
    20.  The rank is ``ceil(q/100 * n)`` (1-based), so the samples beyond
    it number ``n - rank``."""
    ordered = sorted(values)
    n = len(ordered)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it, "
                         f"fewer than {min_beyond}")
    return ordered[rank - 1]


def share(part: float, whole: float) -> float:
    """``part / whole``; an empty denominator is a share of 0."""
    return part / whole if whole else 0.0


def failed_share(failed: int, attempted: int) -> float:
    """Failed records over *attempted* candidates — every candidate
    that was submitted, ok or not, so a run that fails everything reads
    1.0 and not 0/0."""
    if failed > attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return share(failed, attempted)


def hit_ratio(hits: int, misses: int) -> float:
    """Hits over lookups (hits + misses)."""
    return share(hits, hits + misses)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def median_items(items: Iterable, key: Callable, value: Callable) -> list:
    """Per group of ``key``, the item whose ``value`` is the group's
    (lower) median — e.g. the median-time pass of each repeated round.
    Groups come back in first-seen order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return [sorted(group, key=value)[(len(group) - 1) // 2]
            for group in groups.values()]


def quartile_spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median — the
    run-to-run spread rule applied to ten runs of one workload."""
    vals = list(values)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return share(q3 - q1, statistics.median(vals))


class CounterSnapshot:
    """Deltas of counters that outlive a run.

    ``read`` returns the current counters (e.g. a process-wide cache's
    hit/miss totals); the snapshot taken at construction is subtracted
    from every later reading, so a warm process cannot lend its history
    to the run being measured."""

    def __init__(self, read: Callable[[], Mapping[str, float]]):
        self._read = read
        self._start = dict(read())

    def delta(self) -> dict:
        now = self._read()
        return {k: now[k] - self._start.get(k, 0) for k in now}


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``
    intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover
    (children are clipped to the span)."""
    clipped = [(max(s, start), min(e, end)) for s, e in children
               if e > start and s < end]
    return (end - start) - union_length(clipped)
