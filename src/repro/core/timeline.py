"""The compact event record that ``SimConfig(record_timeline=True)`` asks for.

A :class:`Timeline` is a sink of the engine's events that keeps every
fetch issue, completion, eviction by a fetch, stall begin and end, and
fault as a ``(time, kind, block, disk)`` tuple, in emission order.
``result_digest`` includes these tuples, so their kinds and order are
part of a cell's pinned result.  A timeline only records: stall
episodes with their causes, per-disk busy time and every fetch's
latency come from a ``repro.obs.Observer`` on the same run.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core import events as ev

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

    def emit(self, event: ev.Event) -> None:
        """The engine's sink: record the events this timeline keeps."""
        kind = event.kind
        if kind == ev.EVICT:
            if event.cause == "fetch":
                self.events.append((event.t_ms, EVICTION, event.block, -1))
            return
        name = _TUPLE_KINDS.get(kind)
        if name is not None:
            self.events.append((event.t_ms, name, event.block, event.disk))
