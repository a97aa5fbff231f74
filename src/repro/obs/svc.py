"""Request-scoped service telemetry: correlation IDs and typed spans.

PR 4 gave the *simulator* a timeline (``repro.obs.export``); this module
gives the *service tier* the same treatment.  A request entering
``repro-sim serve`` is assigned a correlation ID at HTTP accept and the
layers it crosses emit typed spans against that ID:

``http.parse``
    Reading and parsing the request off the socket.
``singleflight.join``
    A coalesced follower waiting on another request's in-flight compute.
``admission.wait``
    The flight leader's path from store miss through the admission
    checks to pool submission (rejections end the span early).
``pool.queue``
    Submission to dispatch: time spent waiting for a free worker.
``worker.execute``
    ``execute_cell`` inside the forked worker — measured *in the worker*
    with the same monotonic clock (comparable across ``fork`` on Linux,
    where the clock is system-wide) and shipped back over the duplex
    pipe in the record's telemetry block.
``store.get`` / ``store.put``
    Result-store lookups and durable writes.
``overload.shed``
    A request refused before any work happened — deadline-aware shed,
    queue full, or draining — with the reason, projected wait,
    and retry hint in its args (PR 10's overload control).

Spans export into the same Chrome ``trace_event`` document as the
simulator's events: :meth:`ServiceTracer.chrome_trace` merges the
service spans (pid 1, one track per span kind) with every simulation
timeline shipped back by traced workers (one pid per request, its rows
stamped with the correlation ID) — so ui.perfetto.dev shows a request's
service overhead and its inner simulation side by side.

Like the Observer and profiler, tracing is strictly opt-in: an untraced
service holds no tracer and the instrumented call sites collapse to the
plain code path (``maybe_span`` returns a no-op context).  This module
reads the host monotonic clock by design and is allowlisted by simlint
SL002; nothing here may be imported from ``repro.core``/``repro.disk``
(SL015/SL016 guard the other direction).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

#: The closed span vocabulary (docs/OBSERVABILITY.md, "Service telemetry").
SPAN_HTTP_PARSE = "http.parse"
SPAN_SINGLEFLIGHT_JOIN = "singleflight.join"
SPAN_ADMISSION_WAIT = "admission.wait"
SPAN_POOL_QUEUE = "pool.queue"
SPAN_WORKER_EXECUTE = "worker.execute"
SPAN_STORE_GET = "store.get"
SPAN_STORE_PUT = "store.put"
SPAN_OVERLOAD_SHED = "overload.shed"

#: Service spans share pid 1 with nothing (simulations are re-homed onto
#: their own pids); each span kind gets its own track for readability.
SERVICE_PID = 1
_SPAN_TIDS: Dict[str, int] = {
    SPAN_HTTP_PARSE: 0,
    SPAN_SINGLEFLIGHT_JOIN: 1,
    SPAN_ADMISSION_WAIT: 2,
    SPAN_POOL_QUEUE: 3,
    SPAN_WORKER_EXECUTE: 4,
    SPAN_STORE_GET: 5,
    SPAN_STORE_PUT: 6,
    SPAN_OVERLOAD_SHED: 7,
}
#: Embedded simulation timelines start at this pid, one per request.
SIM_PID_BASE = 100

_request_counter = itertools.count(1)


def new_correlation_id() -> str:
    """A process-unique request ID: ``r<pid-hex>-<sequence>``.

    Cheap enough to mint on every request even with tracing off (an
    X-Correlation-Id header and event stamps are always useful); the
    pid component keeps IDs distinct across service restarts over the
    same store."""
    return f"r{os.getpid():x}-{next(_request_counter):06d}"


@dataclass
class ServiceSpan:
    """One completed span: host-monotonic start, duration, request ID."""

    name: str
    corr_id: str
    start_ms: float
    dur_ms: float
    args: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "corr_id": self.corr_id,
            "start_ms": self.start_ms,
            "dur_ms": self.dur_ms,
            "args": dict(self.args),
        }


class ServiceTracer:
    """Thread-safe span collector for one service instance.

    Spans arrive from the event loop, the pool supervision thread, and
    (indirectly, via shipped telemetry blocks) forked workers, so every
    mutation holds one lock.  Memory is bounded: the oldest spans and
    simulation timelines fall off ring buffers — an ops console wants
    the recent window, not the service's whole life.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        max_spans: int = 8192,
        max_sim_traces: int = 64,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: Deque[ServiceSpan] = deque(maxlen=max_spans)
        self._sim_traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._max_sim_traces = max_sim_traces

    def now_ms(self) -> float:
        """Host-monotonic milliseconds (the spans' shared timebase)."""
        return self._clock() * 1000.0

    def add_span(
        self,
        name: str,
        corr_id: str,
        start_ms: float,
        dur_ms: float,
        **args: Any,
    ) -> ServiceSpan:
        """Record an externally measured span (e.g. one shipped back from
        a forked worker, or a queue wait measured by the pool)."""
        span = ServiceSpan(name, corr_id, start_ms, dur_ms, args)
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, corr_id: str, **args: Any) -> Iterator[None]:
        """Measure the enclosed block as one span (records on exit, even
        when the block raises — a rejected request still shows where its
        time went)."""
        start_ms = self.now_ms()
        try:
            yield
        finally:
            self.add_span(
                name, corr_id, start_ms, self.now_ms() - start_ms, **args
            )

    def attach_simulation(
        self, corr_id: str, document: Dict[str, Any]
    ) -> None:
        """Adopt a worker-shipped simulation timeline (a full
        :func:`repro.obs.export.chrome_trace` document) for ``corr_id``."""
        with self._lock:
            self._sim_traces[corr_id] = document
            self._sim_traces.move_to_end(corr_id)
            while len(self._sim_traces) > self._max_sim_traces:
                self._sim_traces.popitem(last=False)

    @property
    def spans(self) -> List[ServiceSpan]:
        with self._lock:
            return list(self._spans)

    def spans_for(self, corr_id: str) -> List[ServiceSpan]:
        with self._lock:
            return [s for s in self._spans if s.corr_id == corr_id]

    def sim_trace_for(self, corr_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._sim_traces.get(corr_id)

    # -- export ------------------------------------------------------------

    def chrome_trace(self, stamp: bool = False) -> Dict[str, Any]:
        """One merged Chrome ``trace_event`` document: service spans on
        pid 1 (one track per span kind) plus every retained simulation
        timeline on its own pid, each row stamped with its correlation
        ID.  Opens directly in ui.perfetto.dev next to (or merged with)
        PR 4's simulation exports.

        Timebases differ by design — service spans are host-monotonic
        milliseconds, simulation rows are *simulated* milliseconds — so
        they live on separate pids and are linked by ``corr_id``, never
        by timestamp arithmetic.
        """
        with self._lock:
            spans = list(self._spans)
            sims = list(self._sim_traces.items())
        tids = dict(_SPAN_TIDS)
        rows: List[Dict[str, Any]] = []
        for span in spans:
            tid = tids.setdefault(span.name, len(tids))
            args: Dict[str, Any] = {
                "corr_id": span.corr_id,
                # Exact values ride along so re-parsers never depend on
                # the µs unit conversion (same contract as repro.obs
                # .export).
                "start_ms": span.start_ms,
                "dur_ms": span.dur_ms,
            }
            args.update(span.args)
            rows.append(
                {
                    "ph": "X", "pid": SERVICE_PID, "tid": tid,
                    "ts": span.start_ms * 1000.0,
                    "dur": span.dur_ms * 1000.0,
                    "name": span.name, "cat": "svc", "args": args,
                }
            )
        rows.sort(key=lambda row: float(row["ts"]))
        metadata: List[Dict[str, Any]] = [
            {
                "ph": "M", "pid": SERVICE_PID, "tid": 0,
                "name": "process_name",
                "args": {"name": "repro-svc service tier"},
            }
        ]
        for name, tid in sorted(tids.items(), key=lambda item: item[1]):
            metadata.append(
                {
                    "ph": "M", "pid": SERVICE_PID, "tid": tid,
                    "name": "thread_name", "args": {"name": name},
                }
            )
        sim_rows: List[Dict[str, Any]] = []
        for index, (corr_id, document) in enumerate(sims):
            sim_rows.extend(
                _rehome_sim_rows(document, SIM_PID_BASE + index, corr_id)
            )
        meta: Dict[str, Any] = {
            "source": "repro.obs.svc",
            "spans": len(spans),
            "simulations": [corr_id for corr_id, _ in sims],
        }
        if stamp:
            meta["captured_unix_s"] = time.time()
        return {
            "traceEvents": metadata + rows + sim_rows,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }


def _rehome_sim_rows(
    document: Dict[str, Any], pid: int, corr_id: str
) -> List[Dict[str, Any]]:
    """A simulation document's rows re-homed onto ``pid`` and stamped
    with the owning request's correlation ID."""
    rows: List[Dict[str, Any]] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return rows
    for original in events:
        if not isinstance(original, dict):
            continue
        row = dict(original)
        row["pid"] = pid
        args = dict(row.get("args") or {})
        if row.get("ph") == "M" and row.get("name") == "process_name":
            args["name"] = f"{args.get('name', 'sim')} [{corr_id}]"
        args["corr_id"] = corr_id
        row["args"] = args
        rows.append(row)
    return rows


def maybe_span(
    tracer: Optional[ServiceTracer],
    name: str,
    corr_id: str,
    **args: Any,
) -> ContextManager[None]:
    """``tracer.span(...)`` when tracing is on, a free no-op otherwise —
    lets instrumented call sites stay a single ``with`` statement."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, corr_id, **args)


def reconstruct_durations(
    document: Dict[str, Any], corr_id: str
) -> Dict[str, Tuple[float, float]]:
    """Re-parse a merged trace document: ``{span name: (start_ms,
    dur_ms)}`` for one request, taken from the exact values in ``args``
    (the round-trip contract tests pin)."""
    durations: Dict[str, Tuple[float, float]] = {}
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return durations
    for row in events:
        if not isinstance(row, dict) or row.get("cat") != "svc":
            continue
        args = row.get("args") or {}
        if args.get("corr_id") != corr_id:
            continue
        name = row.get("name")
        if isinstance(name, str):
            durations[name] = (
                float(args["start_ms"]), float(args["dur_ms"])
            )
    return durations
