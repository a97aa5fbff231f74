"""Run observability: a timeline of fetches, completions, and stalls.

The paper's tables aggregate each run to six numbers; understanding *why*
a configuration stalls needs the time axis back.  With
``SimConfig(record_timeline=True)`` the engine sends its events to a
:class:`Timeline`, which keeps every fetch issue, completion, eviction by a
fetch, stall episode and fault as a compact ``(time, kind, block, disk)``
tuple, and this module summarizes them: stall-episode distributions,
per-disk busy/idle structure, and fetch lead times (how long each fetch
took from issue to completion, queueing included).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import events as ev
from repro.core.events import StallEpisode

FETCH_ISSUED = "fetch"
FETCH_DONE = "done"
EVICTION = "evict"
STALL_START = "stall"
STALL_END = "resume"
# Fault-injection events (see repro.faults):
FAULT_INJECTED = "fault"  # a request failed (transient error or dead disk)
FETCH_RETRY = "retry"  # a failed demand fetch was resubmitted after backoff
FAILOVER = "failover"  # a read was rerouted to the mirror twin of a dead disk

#: Engine event kind -> the tuple kind a Timeline records for it.  An
#: eviction is recorded only when a fetch took the buffer.
_TUPLE_KINDS = {
    ev.FETCH_ISSUE: FETCH_ISSUED,
    ev.FETCH_DONE: FETCH_DONE,
    ev.STALL_BEGIN: STALL_START,
    ev.STALL_END: STALL_END,
    ev.FAULT: FAULT_INJECTED,
    ev.FETCH_RETRY: FETCH_RETRY,
    ev.FETCH_FAILOVER: FAILOVER,
}


@dataclass
class Timeline:
    """Event log of one simulation run."""

    events: List[Tuple[float, str, int, int]] = field(default_factory=list)
    # (time, kind, block, disk) — disk is -1 where not applicable

    # Cached time-ordered view.  Events arrive in near-time order, so the
    # occasional re-sort is a cheap (timsort) catch-up; the cache keys on
    # the event count, which also invalidates direct ``events.append``.
    _sorted_view: Optional[List[Tuple[float, str, int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sorted_count: int = field(default=-1, init=False, repr=False, compare=False)

    def record(self, time: float, kind: str, block: int, disk: int = -1) -> None:
        self.events.append((time, kind, block, disk))
        self._sorted_view = None

    def emit(self, event: ev.Event) -> None:
        """The engine's sink: record the events this timeline keeps."""
        kind = event.kind
        if kind == ev.EVICT:
            if event.cause == "fetch":
                self.record(event.t_ms, EVICTION, event.block)
            return
        name = _TUPLE_KINDS.get(kind)
        if name is not None:
            self.record(event.t_ms, name, event.block, event.disk)

    def sorted_events(self) -> List[Tuple[float, str, int, int]]:
        """The events in time order, computed once per batch of records
        instead of on every consumer call."""
        if self._sorted_view is None or self._sorted_count != len(self.events):
            self._sorted_view = sorted(self.events)
            self._sorted_count = len(self.events)
        return self._sorted_view

    # -- derived views ---------------------------------------------------------

    def stall_episodes(self) -> List[StallEpisode]:
        episodes: List[StallEpisode] = []
        open_start: Optional[Tuple[float, int]] = None
        for time, kind, block, _disk in self.events:
            if kind == STALL_START:
                open_start = (time, block)
            elif kind == STALL_END and open_start is not None:
                episodes.append(
                    StallEpisode(open_start[0], time, open_start[1])
                )
                open_start = None
        return episodes

    def fetch_lead_times(self) -> Dict[int, float]:
        """Per block, the time from issue to completion of its latest
        completed fetch (queueing plus service) — the disk's view, not how
        early the block arrived before the application used it."""
        issued: Dict[int, float] = {}
        leads: Dict[int, float] = {}
        for time, kind, block, _disk in self.events:
            if kind == FETCH_ISSUED:
                issued[block] = time
            elif kind == FETCH_DONE and block in issued:
                leads[block] = time - issued.pop(block)
        return leads

    def per_disk_fetches(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for _time, kind, _block, disk in self.events:
            if kind == FETCH_ISSUED:
                counts[disk] = counts.get(disk, 0) + 1
        return counts

    def busy_intervals(self, disk: int) -> List[Tuple[float, float]]:
        """(start, end) spans during which ``disk`` had a request in
        service, merged across back-to-back requests."""
        spans: List[Tuple[float, float]] = []
        start: Optional[float] = None
        pending = 0
        for time, kind, _block, event_disk in self.sorted_events():
            if event_disk != disk:
                continue
            if kind == FETCH_ISSUED:
                if pending == 0:
                    start = time
                pending += 1
            elif kind == FETCH_DONE and pending > 0:
                pending -= 1
                if pending == 0 and start is not None:
                    spans.append((start, time))
                    start = None
        return spans

    def fault_events(self) -> List[Tuple[float, str, int, int]]:
        """The fault-related events (injections, retries, failovers), in
        time order — the forensic view of a degraded run."""
        kinds = (FAULT_INJECTED, FETCH_RETRY, FAILOVER)
        return [event for event in self.events if event[1] in kinds]

    def summary(self) -> Dict[str, float]:
        episodes = self.stall_episodes()
        durations = [e.duration_ms for e in episodes]
        per_disk = self.per_disk_fetches()
        balance = (
            min(per_disk.values()) / max(per_disk.values())
            if per_disk and max(per_disk.values()) > 0
            else 1.0
        )
        return {
            "stall_episodes": len(episodes),
            "stall_total_ms": round(sum(durations), 3),
            "stall_mean_ms": round(
                sum(durations) / len(durations), 3
            ) if durations else 0.0,
            "stall_max_ms": round(max(durations), 3) if durations else 0.0,
            "fetches": sum(per_disk.values()),
            "disk_balance": round(balance, 3),
        }
