"""Exporters: Chrome ``trace_event`` JSON (Perfetto) and JSONL streams.

The Chrome export opens directly in https://ui.perfetto.dev (or
``chrome://tracing``): one track per disk carrying its busy spans, one
application track per simulated process carrying its stall episodes, and
counter tracks for cache occupancy and per-disk queue depth.  Timestamps
convert simulated milliseconds to the format's microseconds; the *exact*
millisecond values ride along in ``args`` so re-parsers never depend on
the unit conversion.

This module is the one place in ``repro.obs`` allowed to read the host
wall clock (simlint SL002 allowlist): with ``stamp=True`` the export
records *when it was generated* for artifact provenance.  Simulated time
never comes from the host clock.
"""

from __future__ import annotations

import json
import time
from typing import IO, Dict, Iterator, List

from repro.core import events as ev
from repro.obs.observer import Observer

#: The simulated machine's process id in the trace.
PID = 1
#: Thread id of the (first) application track; disk ``d`` uses ``d + 1``
#: and simulated process ``p > 0`` uses ``disks + p``.
TID_APP = 0

#: Kinds exported as thread-scoped instants by default (fault handling is
#: rare and load-bearing for debugging; per-reference kinds are not).
_INSTANT_KINDS = frozenset(
    {
        ev.FAULT,
        ev.FETCH_RETRY,
        ev.FETCH_BACKOFF,
        ev.FETCH_ABANDON,
        ev.FETCH_FAILOVER,
    }
)
#: Additional kinds exported as instants with ``full=True``.
_FULL_INSTANT_KINDS = frozenset(
    {
        ev.REF_HIT,
        ev.REF_MISS,
        ev.REF_UNREADABLE,
        ev.WRITE_ALLOCATE,
        ev.FETCH_ISSUE,
        ev.FETCH_DONE,
        ev.FLUSH_ISSUE,
        ev.FLUSH_DONE,
        ev.EVICT,
    }
)


def _app_tid(pid: int, num_disks: int) -> int:
    return TID_APP if pid == 0 else num_disks + pid


def _tid(event: ev.Event, num_disks: int) -> int:
    if event.disk >= 0:
        return event.disk + 1
    return _app_tid(event.pid, num_disks)


def chrome_trace(
    observer: Observer, full: bool = False, stamp: bool = False
) -> Dict[str, object]:
    """Render an observer's events as a Chrome ``trace_event`` document.

    ``full`` additionally exports per-reference and per-fetch instants
    (large but exhaustive); the default keeps spans, counters, and fault
    handling.  ``stamp`` adds a host-clock capture time to the metadata.
    """
    rows: List[Dict[str, object]] = []
    disks = observer.num_disks
    several = len(observer.process_names) > 1
    for event in observer.events:
        kind = event.kind
        if kind == ev.DISK_BUSY:
            rows.append(
                {
                    "ph": "X", "pid": PID, "tid": _tid(event, disks),
                    "ts": event.t_ms * 1000.0, "dur": event.dur_ms * 1000.0,
                    "name": event.cause or "io", "cat": kind,
                    "args": {
                        "block": event.block,
                        "start_ms": event.t_ms,
                        "service_ms": event.dur_ms,
                        "detail": event.detail or {},
                    },
                }
            )
        elif kind == ev.STALL_END:
            start_ms = event.t_ms - event.dur_ms
            rows.append(
                {
                    "ph": "X", "pid": PID, "tid": _app_tid(event.pid, disks),
                    "ts": start_ms * 1000.0, "dur": event.dur_ms * 1000.0,
                    "name": event.cause or "stall", "cat": "stall",
                    "args": {
                        "block": event.block,
                        "cursor": event.cursor,
                        "start_ms": start_ms,
                        "stall_ms": event.dur_ms,
                    },
                }
            )
        elif kind == ev.CACHE_OCCUPANCY:
            rows.append(
                {
                    "ph": "C", "pid": PID, "tid": _app_tid(event.pid, disks),
                    "ts": event.t_ms * 1000.0,
                    "name": f"cache occupancy p{event.pid}" if several
                    else "cache occupancy",
                    "args": {"buffers": event.value},
                }
            )
        elif kind == ev.QUEUE_DEPTH:
            rows.append(
                {
                    "ph": "C", "pid": PID, "tid": _tid(event, disks),
                    "ts": event.t_ms * 1000.0,
                    "name": f"queue depth d{event.disk}",
                    "args": {"requests": event.value},
                }
            )
        elif kind in _INSTANT_KINDS or (full and kind in _FULL_INSTANT_KINDS):
            args: Dict[str, object] = {"block": event.block}
            if event.cause:
                args["cause"] = event.cause
            if event.value != 0.0:
                args["value"] = event.value
            rows.append(
                {
                    "ph": "i", "pid": PID, "tid": _tid(event, disks),
                    "ts": event.t_ms * 1000.0, "s": "t",
                    "name": kind, "cat": kind, "args": args,
                }
            )
    # Perfetto does not require ordering, but a sorted stream lets
    # re-parsers assert per-track monotonicity directly.  Python's sort is
    # stable, so same-timestamp rows keep their recording order.
    def _row_ts(row: Dict[str, object]) -> float:
        ts = row["ts"]
        assert isinstance(ts, float)
        return ts

    rows.sort(key=_row_ts)
    metadata: List[Dict[str, object]] = [
        {
            "ph": "M", "pid": PID, "tid": TID_APP, "name": "process_name",
            "args": {
                "name": f"repro-sim {observer.trace_name}/"
                f"{observer.policy_name} d{observer.num_disks}"
            },
        },
    ]
    for pid, name in enumerate(observer.process_names):
        metadata.append(
            {
                "ph": "M", "pid": PID, "tid": _app_tid(pid, disks),
                "name": "thread_name",
                "args": {
                    "name": f"application p{pid} {name}" if several
                    else "application"
                },
            }
        )
    for disk in range(observer.num_disks):
        metadata.append(
            {
                "ph": "M", "pid": PID, "tid": disk + 1, "name": "thread_name",
                "args": {"name": f"disk {disk}"},
            }
        )
    meta: Dict[str, object] = {
        "trace": observer.trace_name,
        "policy": observer.policy_name,
        "disks": observer.num_disks,
        "elapsed_ms": observer.elapsed_ms,
        "stall_breakdown_ms": dict(observer.stall_breakdown),
    }
    if stamp:
        meta["captured_unix_s"] = time.time()
    return {
        "traceEvents": metadata + rows,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome_trace(
    observer: Observer, path: str, full: bool = False, stamp: bool = False
) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    document = chrome_trace(observer, full=full, stamp=stamp)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")


def iter_jsonl_rows(
    observer: Observer, stamp: bool = False
) -> Iterator[Dict[str, object]]:
    """Yield the JSONL export row by row: one ``meta`` header, every
    event, then the aggregates (metrics, stall breakdown, result)."""
    meta: Dict[str, object] = {
        "type": "meta",
        "trace": observer.trace_name,
        "policy": observer.policy_name,
        "disks": observer.num_disks,
        "elapsed_ms": observer.elapsed_ms,
        "events": len(observer.events),
    }
    if stamp:
        meta["captured_unix_s"] = time.time()
    yield meta
    for event in observer.events:
        row: Dict[str, object] = {"type": "event"}
        row.update(event.as_dict())
        yield row
    metrics = observer.metrics
    for counter in metrics.counters.values():
        yield {"type": "counter", "name": counter.name, "value": counter.value}
    for gauge in metrics.gauges.values():
        row = {"type": "gauge"}
        row.update(gauge.as_dict())
        yield row
    for histogram in metrics.histograms.values():
        row = {"type": "histogram"}
        row.update(histogram.as_dict())
        yield row
    yield {
        "type": "stall_breakdown",
        "stall_breakdown_ms": dict(observer.stall_breakdown),
        "episodes": len(observer.stall_episodes),
    }
    if observer.result is not None:
        row = {"type": "result"}
        row.update(observer.result.to_dict())
        yield row


def write_jsonl(observer: Observer, path: str, stamp: bool = False) -> None:
    """Write the full event stream and aggregates as JSON Lines."""
    with open(path, "w", encoding="utf-8") as handle:
        _dump_rows(observer, handle, stamp=stamp)


def _dump_rows(observer: Observer, handle: IO[str], stamp: bool) -> None:
    for row in iter_jsonl_rows(observer, stamp=stamp):
        handle.write(json.dumps(row, separators=(",", ":")))
        handle.write("\n")
