"""Pure arithmetic shared by every workload: percentiles, the tail rule,
due-time latency and the ledger residual.  ``test_perfbench.py`` pins
each function, so the metric definitions cannot drift silently."""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Optional, Sequence

#: Percentiles the tail rule may pick, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = math.ceil(pos)
    if low == high:
        return float(ordered[low])
    frac = pos - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile
    (rounded, so that 99.9 is not undone by binary fractions)."""
    return round(n * (100.0 - q) / 100.0, 9)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile on :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it, or None below 20 samples."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def due_latency_ms(due_s: float, done_s: float) -> float:
    """Open-loop latency: from when the request was due, not when it was
    sent, so a backlog in front of it counts against it."""
    return (done_s - due_s) * 1000.0


def lateness_ms(due_s: float, free_s: float, sent_s: float) -> float:
    """How late the generator itself sent: time past the later of the due
    time and the moment its connection became free.  Waiting for the
    previous response is backlog (counted in latency), not lateness."""
    return max(0.0, (sent_s - max(due_s, free_s)) * 1000.0)


def residual(whole: float, parts: Mapping[str, float]) -> float:
    """What ``parts`` leave of ``whole``: the unattributed remainder."""
    return whole - sum(parts.values())


def share(part: float, whole: float) -> float:
    """``part / whole``, 0 for an empty whole."""
    return part / whole if whole > 0 else 0.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0
