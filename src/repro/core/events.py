"""The engine's typed events, the stall-cause taxonomy, and event sinks.

A :class:`~repro.core.engine.Simulator` with a sink emits one
:class:`Event` at every decision it makes (fetch issue, eviction, stall,
disk dispatch, fault handling, ...), each stamped with the *simulated*
time and the id of the process it belongs to.  A sink is anything with an
``emit(event)`` method: :class:`~repro.core.timeline.Timeline` only
records the compact tuples ``SimConfig(record_timeline=True)`` asks for
(which ``result_digest`` includes), and ``repro.obs.Observer`` keeps the
full stream plus metrics, stall episodes with their causes, and per-disk
busy time.  Without a sink the engine builds no events at all.

The ``kind`` vocabulary is dotted and closed: exporters and tests match on
the constants below, never on ad-hoc strings.  See
``docs/OBSERVABILITY.md`` for the per-kind field semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence

# -- event kinds ------------------------------------------------------------------

#: The application consumed a reference that was resident (no wait).
REF_HIT = "ref.hit"
#: The application consumed a reference it had to stall for.
REF_MISS = "ref.miss"
#: The application consumed a reference to a block with no surviving copy
#: (partial-data mode; see docs/FAULTS.md).
REF_UNREADABLE = "ref.unreadable"
#: A whole-block write miss allocated a buffer without a disk read.
WRITE_ALLOCATE = "write.allocate"

#: A read fetch entered a disk queue (``cause`` is "demand"/"prefetch").
FETCH_ISSUE = "fetch.issue"
#: A read fetch completed; ``dur_ms`` is issue-to-completion latency
#: (queue wait + service, including any retries and failovers).
FETCH_DONE = "fetch.done"
#: A failed demand fetch was resubmitted after its backoff expired.
FETCH_RETRY = "fetch.retry"
#: A failed demand fetch scheduled an exponential-backoff retry
#: (``value`` is the attempt number).
FETCH_BACKOFF = "fetch.backoff"
#: An in-flight fetch was abandoned (failed prefetch, or lost block).
FETCH_ABANDON = "fetch.abandon"
#: A request was rerouted to its mirror twin (``disk``) after a
#: dead-spindle failure.
FETCH_FAILOVER = "fetch.failover"

#: A write-behind flush of an evicted dirty block entered a disk queue.
FLUSH_ISSUE = "flush.issue"
#: A write-behind flush finished.
FLUSH_DONE = "flush.done"

#: A resident block was evicted; ``value`` is its forward distance (next
#: use minus cursor, in references), -1.0 when it is never used again;
#: ``cause`` is what took its buffer: "fetch" or "write".
EVICT = "evict"

#: The application began waiting for a block; ``cause`` is the stall
#: cause the engine assigned (fault handling may reassign it).
STALL_BEGIN = "stall.begin"
#: The wait ended; ``dur_ms`` is the stall quantum charged to ``cause``.
STALL_END = "stall.end"

#: A disk serviced one request: a span of ``dur_ms`` starting at ``t_ms``
#: (``cause`` is the request kind, ``detail`` the service breakdown).
#: Gaps between consecutive spans on one disk are its idle time.
DISK_BUSY = "disk.busy"
#: Sample of a disk's queue length (``value``); ``cause`` says when it
#: was taken: "submit" (after a request joined) or "dispatch" (after one
#: left for service).
QUEUE_DEPTH = "disk.queue"
#: Sample of cache occupancy — resident plus in-flight buffers
#: (``value``), taken at fetch issue/completion boundaries.
CACHE_OCCUPANCY = "cache.occupancy"

#: A request finished with an injected fault (``cause`` is the outcome:
#: "transient" or "dead"); the recovery action follows as its own event.
FAULT = "fault"

#: The engine consulted the policy; one kind per hook.  Sinks count
#: these rather than store them.
POLICY_BEFORE_REFERENCE = "policy.before_reference"
POLICY_ON_DISK_IDLE = "policy.on_disk_idle"
POLICY_ON_MISS = "policy.on_miss"
POLICY_ON_EVICT = "policy.on_evict"

#: Every kind an :class:`Event` may carry.
KINDS = frozenset(
    {
        REF_HIT,
        REF_MISS,
        REF_UNREADABLE,
        WRITE_ALLOCATE,
        FETCH_ISSUE,
        FETCH_DONE,
        FETCH_RETRY,
        FETCH_BACKOFF,
        FETCH_ABANDON,
        FETCH_FAILOVER,
        FLUSH_ISSUE,
        FLUSH_DONE,
        EVICT,
        STALL_BEGIN,
        STALL_END,
        DISK_BUSY,
        QUEUE_DEPTH,
        CACHE_OCCUPANCY,
        FAULT,
        POLICY_BEFORE_REFERENCE,
        POLICY_ON_DISK_IDLE,
        POLICY_ON_MISS,
        POLICY_ON_EVICT,
    }
)

# -- stall causes -----------------------------------------------------------------

#: The app parked on a miss it could not even issue: every buffer was
#: pinned by fetches already riding the (saturated) array.
CAUSE_ALL_DISKS_BUSY = "all-disks-busy"
#: The needed block's fetch was issued in an *earlier* step but had not
#: completed when the app arrived — the prefetch was simply too late.
CAUSE_PREFETCH_TOO_LATE = "prefetch-too-late"
#: The fetch was only issued in the very step that stalled on it — the
#: block was never prefetched ahead of need.
CAUSE_DEMAND_MISS = "demand-miss-never-prefetched"
#: The wait was extended by transient-error retries with backoff; once a
#: stalled fetch enters the retry path its whole quantum is charged here
#: (see docs/OBSERVABILITY.md for the reassignment rule).
CAUSE_FAULT_RETRY = "fault-retry"
#: The wait was extended by a dead spindle failing over to its mirror.
CAUSE_FAILOVER = "failover"

#: All causes, in reporting order.  Every stall quantum is charged to
#: exactly one of these; their totals sum to ``stall_ms``.
STALL_CAUSES = (
    CAUSE_ALL_DISKS_BUSY,
    CAUSE_PREFETCH_TOO_LATE,
    CAUSE_DEMAND_MISS,
    CAUSE_FAULT_RETRY,
    CAUSE_FAILOVER,
)


@dataclass
class Event:
    """One simulated-time event.

    Only ``t_ms`` and ``kind`` are always meaningful; the other fields
    default to sentinels (-1 / 0.0 / "" / None) and are populated per
    kind as documented on the kind constants.  ``pid`` is the process
    the event belongs to (0 for a lone Simulator).
    """

    t_ms: float
    kind: str
    block: int = -1
    disk: int = -1
    dur_ms: float = 0.0
    cursor: int = -1
    value: float = 0.0
    cause: str = ""
    detail: Optional[Dict[str, object]] = None
    pid: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Compact JSON-ready form: sentinel-valued fields (and pid 0)
        are omitted."""
        row: Dict[str, object] = {"t_ms": self.t_ms, "kind": self.kind}
        if self.block != -1:
            row["block"] = self.block
        if self.disk != -1:
            row["disk"] = self.disk
        if self.dur_ms:
            row["dur_ms"] = self.dur_ms
        if self.cursor != -1:
            row["cursor"] = self.cursor
        if self.value != 0.0:
            row["value"] = self.value
        if self.cause:
            row["cause"] = self.cause
        if self.detail is not None:
            row["detail"] = self.detail
        if self.pid:
            row["pid"] = self.pid
        return row


@dataclass(frozen=True)
class StallEpisode:
    """One contiguous wait for a block.

    ``duration_ms`` is ``end_ms - start_ms``, the exact quantum the engine
    adds to ``stall_ms``; ``cause`` is the stall cause it was charged to
    and ``cursor`` the reference the application was waiting at.
    """

    start_ms: float
    end_ms: float
    block: int
    cursor: int
    cause: str
    pid: int

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class Sink(Protocol):
    """Receives every event a Simulator emits, in emission order."""

    def emit(self, event: Event) -> None: ...


class Fanout:
    """One sink that forwards each event to several, in order."""

    def __init__(self, sinks: Sequence[Sink]) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)
