"""A hardened HTTP/1.1 JSON front end over :class:`SimulationService`.

The container ships no async HTTP framework, so this is a deliberately
small hand-rolled server on :func:`asyncio.start_server`: request line +
headers + ``Content-Length`` body, JSON in, JSON out.  Connections close
after one request by default; a client sending ``Connection:
keep-alive`` may reuse the socket up to the configured per-connection
request cap.  That is all the surface the service needs, and it keeps
the robustness story auditable end to end.

The network is assumed **hostile** (docs/SERVICE.md, "Overload and
hostile networks").  Every byte and every second a client may cost the
server is bounded by a :class:`~repro.svc.limits.ProtocolLimits`:

- request line / header block over the limit → **431** (with hard
  ceilings no configuration can raise);
- declared or actual body over the limit → **413**;
- headers or body arriving slower than the per-phase deadline
  (slowloris, drip-fed bodies) → **408**;
- more open connections than ``max_connections`` → **503** +
  ``Retry-After`` at accept, before any parsing;
- compute requests (``POST /v1/cells``, ``/v1/sweeps``) beyond the
  priority lane (``max_connections - reserved_read_connections``) →
  **429**, so O(1) cached reads are never starved by compute traffic;
- a ``/v1/events`` consumer that stops reading → bounded write buffer,
  drain deadline, then ``transport.abort()`` — a stalled reader cannot
  grow server memory.

Routes (all JSON):

``GET /v1/healthz``
    ``200 {"ok": true}`` — or ``503`` once draining.
``GET /v1/status``
    Admission, pool, store, and HTTP-limit status.
``GET /v1/metrics``
    Content-negotiated: the full :class:`repro.obs.MetricsRegistry`
    JSON export by default (unchanged), or Prometheus text exposition
    when the request carries ``Accept: text/plain`` (or ``openmetrics``)
    or ``?format=prometheus``.
``GET /v1/trace``
    The merged service+simulation Perfetto timeline
    (:meth:`repro.obs.svc.ServiceTracer.chrome_trace`); ``404`` unless
    the service was started with tracing on.
``GET /v1/store``
    Store stats alone (hit ratio, residency, corrupt lines).
``GET /v1/results/<config-hash>``
    The stored record, or ``404`` on a miss (never triggers compute).
``POST /v1/cells``
    Body: a cell spec.  ``200`` with ``{"served": "store"|"computed"|
    "coalesced", "record": ...}``; ``400`` bad spec; ``429``/``503``
    backpressure (with ``Retry-After``); ``504`` request timeout;
    ``500`` with the failure record when the cell itself failed.
``POST /v1/sweeps``
    Body: ``{"cells": [spec, ...]}``.  One entry per cell plus bundle
    stats (hits/computed/coalesced and the store hit ratio).
``GET /v1/events?since=N``
    Chunked JSONL stream of service progress events.  ``since`` is
    **exclusive**: events with ``seq`` strictly greater than N are
    returned, so resuming with the last ``seq`` you saw never repeats
    an event; ``since=0`` (the default) streams everything buffered.
    Every event names its originating request under ``corr_id``.  When
    the ring buffer overflowed past a consumer, a ``{"type": "gap",
    "missed": N}`` line is interposed (and ``svc.events.gaps``
    counted) — silent loss would defeat the stream's resume contract.

Every response carries ``X-Correlation-Id``: the request ID minted at
accept, threaded through the service layers and (for computed cells)
into the forked worker.  ``serve_forever`` wires SIGINT/SIGTERM to a
graceful drain and returns the runner's resumable exit codes (75
interrupted / 76 deadline).
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.logging import get_logger
from repro.obs.metrics import REQUEST_BUCKETS_MS
from repro.obs.prom import labeled, render_prometheus
from repro.obs.svc import SPAN_HTTP_PARSE, new_correlation_id
from repro.svc.limits import ProtocolLimits
from repro.svc.service import (
    Overloaded,
    RequestTimedOut,
    ServiceConfig,
    SimulationService,
    SpecError,
    cell_from_spec,
)

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry
    from repro.obs.svc import ServiceTracer

#: Prometheus text exposition format 0.0.4 (what ``promtool`` expects).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_log = get_logger("repro.svc.http")

#: Exact paths → route labels for the per-route latency histograms.
_ROUTE_LABELS = {
    "/v1/healthz": "healthz",
    "/v1/status": "status",
    "/v1/metrics": "metrics",
    "/v1/store": "store",
    "/v1/cells": "cells",
    "/v1/sweeps": "sweeps",
    "/v1/trace": "trace",
}

#: Routes that consume simulation capacity — the priority-lane cap
#: applies to these only; reads always pass.
_COMPUTE_ROUTES = frozenset({"/v1/cells", "/v1/sweeps"})


def _route_label(path: str) -> str:
    """A bounded route label (never the raw path: config hashes and
    unknown paths would explode the metric's cardinality)."""
    path = path.partition("?")[0]
    if path.startswith("/v1/results/"):
        return "results"
    if path.startswith("/v1/events"):
        return "events"
    return _ROUTE_LABELS.get(path, "other")


def _parse_query(path: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    if "?" in path:
        for pair in path.split("?", 1)[1].split("&"):
            name, _, value = pair.partition("=")
            params[name] = value
    return params


def _wants_prometheus(query: Dict[str, str], accept: str) -> bool:
    """Content negotiation for ``/v1/metrics``: an explicit ``format``
    query parameter wins; otherwise the Accept header decides.  JSON
    stays the default so existing clients are untouched."""
    fmt = query.get("format")
    if fmt in ("prometheus", "prom", "text"):
        return True
    if fmt == "json":
        return False
    accept = accept.lower()
    return "text/plain" in accept or "openmetrics" in accept

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Protocol-limit statuses → the bounded ``reason`` label on the
#: ``svc.http.limited`` counter.
_LIMIT_REASONS = {408: "timeout", 413: "body", 431: "header"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _ConnectionClosed(Exception):
    """The peer closed between requests — a clean end, not an error."""


class _TextBody:
    """Marker for a non-JSON response body (Prometheus exposition)."""

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


def _response_bytes(
    status: int,
    payload: Any,
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    if isinstance(payload, _TextBody):
        body = payload.text.encode()
        content_type = payload.content_type
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        content_type = "application/json"
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


def _with_corr(
    extra: Optional[Dict[str, str]], corr_id: str
) -> Dict[str, str]:
    headers = dict(extra or {})
    headers.setdefault("X-Correlation-Id", corr_id)
    return headers


async def _read_request(
    reader: asyncio.StreamReader,
    limits: ProtocolLimits,
    header_timeout_s: Optional[float] = None,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: ``(method, path, headers, body)``.

    Every read phase carries a deadline and a size bound from
    ``limits`` — a hostile peer can neither out-wait nor out-buffer the
    server.  ``header_timeout_s`` overrides the header-phase deadline
    (the keep-alive loop passes the idle timeout between requests).
    Raises :class:`_ConnectionClosed` on a clean EOF before any bytes.
    """
    if header_timeout_s is None:
        header_timeout_s = limits.header_timeout_s
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), header_timeout_s
        )
    except asyncio.TimeoutError:
        raise _HttpError(
            408, f"timed out reading request headers "
            f"(limit {header_timeout_s:g}s)"
        ) from None
    except asyncio.LimitOverrunError:
        raise _HttpError(
            431, f"headers too large (limit {limits.max_header_bytes} bytes)"
        ) from None
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        partial = getattr(exc, "partial", b"")
        if not partial:
            raise _ConnectionClosed() from None
        raise _HttpError(400, "truncated request") from None
    if len(head) > limits.max_header_bytes:
        raise _HttpError(
            431, f"headers too large (limit {limits.max_header_bytes} bytes)"
        )
    lines = head.decode("latin-1").split("\r\n")
    if len(lines[0]) > limits.max_request_line_bytes:
        raise _HttpError(
            431, f"request line too large "
            f"(limit {limits.max_request_line_bytes} bytes)"
        )
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # The service speaks Content-Length only; accepting a framing we
        # do not parse would desynchronize the connection (request
        # smuggling shape), so refuse it outright.
        raise _HttpError(
            400, "Transfer-Encoding is not supported; use Content-Length"
        )
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > limits.max_body_bytes:
            raise _HttpError(
                413, f"body too large ({length} bytes; "
                f"limit {limits.max_body_bytes})"
            )
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), limits.body_timeout_s
            )
        except asyncio.TimeoutError:
            raise _HttpError(
                408, f"timed out reading request body "
                f"(limit {limits.body_timeout_s:g}s)"
            ) from None
        except (asyncio.IncompleteReadError, ConnectionError):
            raise _HttpError(400, "truncated body") from None
    return method, path, headers, body


def _parse_json_body(body: bytes) -> Any:
    if not body:
        raise _HttpError(400, "a JSON body is required")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from None


class ServiceServer:
    """The asyncio server wrapping one :class:`SimulationService`."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 8642,
                 limits: Optional[ProtocolLimits] = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else service.config.limits
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live sockets, counted at accept and released in the handler's
        #: ``finally`` — the 503 connection cap and its gauge.
        self.open_connections = 0
        #: Compute requests currently being served (the priority lane).
        self.compute_in_flight = 0

    @property
    def bound_port(self) -> int:
        """The actual port (useful when constructed with port 0)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        if not self.service.started:
            await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            # The stream buffer bound: readuntil overruns past it raise
            # (→ 431) instead of buffering an unbounded header block.
            limit=self.limits.max_header_bytes,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -----------------------------------------------

    def _observe_http(self, path: str, status: int, started: float) -> None:
        self.service.metrics.histogram(
            labeled(
                "svc.http.request_ms",
                route=_route_label(path), code=str(status),
            ),
            REQUEST_BUCKETS_MS,
        ).observe((time.monotonic() - started) * 1000.0)

    def _count_limited(self, reason: str) -> None:
        self.service.metrics.inc(labeled("svc.http.limited", reason=reason))

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = self.service.metrics
        if self.open_connections >= self.limits.max_connections:
            # Refuse at accept, before reading a byte: parsing a request
            # we cannot serve would spend the very resource being
            # protected.
            self._count_limited("connections")
            try:
                writer.write(_response_bytes(
                    503,
                    {"error": f"connection limit reached "
                              f"({self.limits.max_connections})"},
                    _with_corr({"Retry-After": "1"}, new_correlation_id()),
                ))
                await asyncio.wait_for(writer.drain(), 5.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            finally:
                await _close_writer(writer)
            return
        self.open_connections += 1
        metrics.gauge("svc.http.open_connections").set(
            float(self.open_connections)
        )
        try:
            served = 0
            while True:
                keep_alive = await self._handle_request(
                    reader, writer, request_index=served
                )
                served += 1
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            await _close_writer(writer)
            self.open_connections -= 1
            metrics.gauge("svc.http.open_connections").set(
                float(self.open_connections)
            )

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        request_index: int,
    ) -> bool:
        """Serve one request; returns True to keep the connection open."""
        tracer = self.service.tracer
        corr_id = new_correlation_id()
        started = time.monotonic()
        limits = self.limits
        # Between keep-alive requests the clock is the idle timeout; a
        # quiet expiry there is the normal end of a reused connection,
        # not a protocol offence.
        header_timeout_s = (
            limits.header_timeout_s if request_index == 0
            else limits.keepalive_idle_s
        )
        parse_start = tracer.now_ms() if tracer is not None else 0.0
        try:
            method, path, headers, body = await _read_request(
                reader, limits, header_timeout_s
            )
        except _ConnectionClosed:
            return False
        except asyncio.TimeoutError:
            return False
        except _HttpError as exc:
            if exc.status == 408 and request_index > 0:
                return False  # idle keep-alive expiry: close silently
            if exc.status in _LIMIT_REASONS:
                self._count_limited(_LIMIT_REASONS[exc.status])
            try:
                writer.write(_response_bytes(
                    exc.status, {"error": exc.message},
                    _with_corr(exc.headers, corr_id),
                ))
                await asyncio.wait_for(writer.drain(), 5.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            self._observe_http("", exc.status, started)
            return False  # framing may be lost; never reuse the socket
        if tracer is not None:
            tracer.add_span(
                SPAN_HTTP_PARSE, corr_id, parse_start,
                tracer.now_ms() - parse_start,
                method=method, path=path,
            )
        if path.startswith("/v1/events") and method == "GET":
            await self._stream_events(writer, path)
            return False
        # Keep-alive is opt-in (the client must ask) and capped.
        keep_alive = (
            headers.get("connection", "").lower() == "keep-alive"
            and request_index + 1 < self.limits.max_requests_per_connection
        )
        route = path.partition("?")[0]
        lane_claimed = False
        try:
            if method == "POST" and route in _COMPUTE_ROUTES:
                self._check_compute_request()
                self.compute_in_flight += 1
                lane_claimed = True
            try:
                status, payload, extra = await self._dispatch(
                    method, path, headers, body, corr_id
                )
            finally:
                if lane_claimed:
                    self.compute_in_flight -= 1
        except _HttpError as exc:
            status, payload, extra = (
                exc.status, {"error": exc.message}, exc.headers
            )
        writer.write(_response_bytes(
            status, payload, _with_corr(extra, corr_id),
            keep_alive=keep_alive,
        ))
        try:
            await asyncio.wait_for(writer.drain(), limits.body_timeout_s)
        except asyncio.TimeoutError:
            # The client stopped reading its own response: abort rather
            # than let close() linger flushing to a dead peer.
            self._count_limited("drain")
            transport = writer.transport
            if isinstance(transport, asyncio.WriteTransport):
                transport.abort()
            keep_alive = False
        self._observe_http(path, status, started)
        _log.info(
            "request", extra={
                "method": method, "path": path, "status": status,
                "corr_id": corr_id,
                "dur_ms": round((time.monotonic() - started) * 1000.0, 3),
            },
        )
        return keep_alive

    def _check_compute_request(self) -> None:
        """The priority lane for compute routes.

        Read routes never pass through here: however saturated the
        compute lane is, `/v1/results` and the health/metrics surface
        keep answering — the starvation-freedom half of overload
        control.
        """
        if self.compute_in_flight >= self.limits.compute_connections:
            self._count_limited("lane")
            raise _HttpError(
                429,
                f"compute lane full "
                f"({self.limits.compute_connections} concurrent compute "
                "requests); cached reads are unaffected",
                {"Retry-After": "1"},
            )

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes,
        corr_id: str,
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        service = self.service
        route = path.partition("?")[0]
        if route == "/v1/healthz" and method == "GET":
            if service.draining:
                return 503, {"ok": False, "draining": True}, None
            return 200, {"ok": True, "resident": len(service.store)}, None
        if route == "/v1/status" and method == "GET":
            status = service.status()
            status["http"] = self.http_status()
            return 200, status, None
        if route == "/v1/metrics" and method == "GET":
            service.sample_gauges()
            if _wants_prometheus(_parse_query(path), headers.get("accept", "")):
                return 200, _TextBody(
                    render_prometheus(service.metrics), PROM_CONTENT_TYPE
                ), None
            return 200, service.metrics.to_dict(), None
        if route == "/v1/trace" and method == "GET":
            if service.tracer is None:
                return 404, {
                    "error": "tracing is off; start the service with --trace",
                }, None
            return 200, service.tracer.chrome_trace(stamp=True), None
        if route == "/v1/store" and method == "GET":
            return 200, service.store.stats(), None
        if route.startswith("/v1/results/") and method == "GET":
            config_hash = route[len("/v1/results/"):]
            # Same deliberate on-loop store read as run_cell: one journal
            # line, and on-loop serialization is the store's only
            # concurrency control (see SimulationService.run_cell).
            record = service.store.get(config_hash)  # simlint: disable=SL010
            if record is None:
                return 404, {"error": f"no stored result for {config_hash}"}, None
            return 200, {"served": "store", "record": record}, None
        if route == "/v1/cells" and method == "POST":
            return await self._post_cell(_parse_json_body(body), corr_id)
        if route == "/v1/sweeps" and method == "POST":
            return await self._post_sweep(_parse_json_body(body), corr_id)
        if route in ("/v1/healthz", "/v1/status", "/v1/metrics", "/v1/store",
                     "/v1/cells", "/v1/sweeps", "/v1/trace"):
            raise _HttpError(405, f"{method} not allowed on {route}")
        raise _HttpError(404, f"unknown path {route}")

    def http_status(self) -> Dict[str, Any]:
        """The connection-layer view for ``/v1/status``."""
        limits = self.limits
        return {
            "open_connections": self.open_connections,
            "max_connections": limits.max_connections,
            "compute_in_flight": self.compute_in_flight,
            "compute_connections": limits.compute_connections,
            "limits": {
                "max_header_bytes": limits.max_header_bytes,
                "max_body_bytes": limits.max_body_bytes,
                "max_request_line_bytes": limits.max_request_line_bytes,
                "header_timeout_s": limits.header_timeout_s,
                "body_timeout_s": limits.body_timeout_s,
                "keepalive_idle_s": limits.keepalive_idle_s,
                "max_requests_per_connection":
                    limits.max_requests_per_connection,
            },
        }

    async def _post_cell(
        self, spec: Any, corr_id: str
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        try:
            cell = cell_from_spec(spec)
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from None
        try:
            record, served = await self.service.run_cell(
                cell, corr_id=corr_id
            )
        except Overloaded as exc:
            raise _HttpError(
                exc.status, exc.reason,
                {"Retry-After": str(max(1, round(exc.retry_after_s)))},
            ) from None
        except RequestTimedOut as exc:
            raise _HttpError(504, str(exc)) from None
        payload = {"served": served, "record": record}
        if record["status"] != "ok":
            return 500, payload, None
        return 200, payload, None

    async def _post_sweep(
        self, body: Any, corr_id: str
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        if not isinstance(body, dict) or not isinstance(
            body.get("cells"), list
        ):
            raise _HttpError(
                400, 'sweep body must be {"cells": [spec, ...]}'
            )
        if not body["cells"]:
            raise _HttpError(400, "sweep needs at least one cell")
        try:
            cells = [cell_from_spec(spec) for spec in body["cells"]]
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from None
        results = await self.service.run_cells(cells, corr_id=corr_id)
        entries: List[Dict[str, Any]] = []
        counts = {"store": 0, "computed": 0, "coalesced": 0,
                  "failed": 0, "rejected": 0, "timeout": 0}
        for cell, (record, served) in zip(cells, results):
            entry: Dict[str, Any] = {
                "cell_id": cell.cell_id,
                "hash": cell.config_hash,
                "served": served,
            }
            if record is None:
                counts["rejected" if served.startswith("rejected") else
                       "timeout"] += 1
            else:
                entry["status"] = record["status"]
                if record["status"] == "ok":
                    entry["digest"] = record["digest"]
                    counts[served] += 1
                else:
                    entry["failure"] = record.get("failure")
                    counts["failed"] += 1
            entries.append(entry)
        store = self.service.store
        payload = {
            "cells": entries,
            "counts": counts,
            "store": {"hit_ratio": round(store.hit_ratio, 6),
                      "hits": store.hits, "misses": store.misses},
        }
        return 200, payload, None

    async def _stream_events(
        self, writer: asyncio.StreamWriter, path: str
    ) -> None:
        """Chunked JSONL event stream; ends when the client goes away,
        stalls past the drain deadline, or the service is draining with
        no record left to deliver.

        ``since`` is exclusive: only events with ``seq`` strictly greater
        than it are sent, so a client that reconnects with the last seq it
        saw never receives a duplicate (pinned by
        ``tests/test_obs_svc.py::TestEventsSince``).

        Slow-consumer bounds: the transport's write buffer is capped at
        ``events_buffer_bytes`` so ``drain()`` blocks as soon as the
        client stops reading, the drain carries
        ``events_drain_timeout_s``, and expiry aborts the transport —
        the kernel socket buffer, not server heap, is the only backlog a
        stalled reader ever holds.  Ring-buffer overflow past a consumer
        is surfaced as an explicit gap line, never silent loss.
        """
        limits = self.limits
        metrics = self.service.metrics
        since = 0
        if "?" in path:
            for pair in path.split("?", 1)[1].split("&"):
                name, _, value = pair.partition("=")
                if name == "since":
                    try:
                        since = int(value)
                    except ValueError:
                        pass
        raw_transport = writer.transport
        transport: Optional[asyncio.WriteTransport] = (
            raw_transport
            if isinstance(raw_transport, asyncio.WriteTransport) else None
        )
        if transport is not None:
            transport.set_write_buffer_limits(high=limits.events_buffer_bytes)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/jsonl\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent_any = since > 0
        try:
            # A draining service ends a caught-up stream at once, but only
            # after the records of cells still in flight have been sent.
            while not self.service.events_exhausted(since):
                events = await self.service.events_since(since, timeout_s=5.0)
                if events and sent_any and events[0]["seq"] > since + 1:
                    missed = events[0]["seq"] - since - 1
                    metrics.inc("svc.events.gaps", missed)
                    gap = (json.dumps(
                        {"type": "gap", "missed": missed}, sort_keys=True
                    ) + "\n").encode()
                    writer.write(b"%x\r\n%s\r\n" % (len(gap), gap))
                for event in events:
                    since = max(since, event["seq"])
                    sent_any = True
                    line = (json.dumps(event, sort_keys=True) + "\n").encode()
                    writer.write(b"%x\r\n%s\r\n" % (len(line), line))
                try:
                    await asyncio.wait_for(
                        writer.drain(), limits.events_drain_timeout_s
                    )
                except asyncio.TimeoutError:
                    # The consumer stopped reading: abort rather than
                    # buffer for it.  Reconnecting with its last seq
                    # resumes (or reports the gap) — losing the slowest
                    # reader beats losing the server.
                    metrics.inc("svc.events.stalled")
                    if transport is not None:
                        transport.abort()
                    return
            writer.write(b"0\r\n\r\n")
            await asyncio.wait_for(
                writer.drain(), limits.events_drain_timeout_s
            )
        except (ConnectionError, asyncio.CancelledError, asyncio.TimeoutError):
            pass


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def serve_async(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 8642,
    deadline_s: Optional[float] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> int:
    """Run the service until SIGINT/SIGTERM (or ``deadline_s``); returns
    the process exit code (75 interrupted, 76 deadline)."""
    # Opening the store (one journal scan that builds the offset index)
    # runs on the loop, but at startup, before the listener exists —
    # nothing to stall yet, and recovering before accepting is what makes
    # restart crash-safe.
    service = SimulationService(config, metrics=metrics)  # simlint: disable=SL010
    server = ServiceServer(service, host, port)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    reason = {"value": "signal"}

    def _on_signal() -> None:
        reason["value"] = "signal"
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _on_signal)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        if deadline_s is not None:
            try:
                await asyncio.wait_for(stop.wait(), deadline_s)
            except asyncio.TimeoutError:
                reason["value"] = "deadline"
        else:
            await stop.wait()
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.stop()
    exit_code = await service.drain(reason["value"])
    if service.tracer is not None and config.trace_out:
        # Post-drain: the listener is closed and every request finished,
        # so this one blocking write has nothing left to stall.
        _write_trace_artifact(service.tracer, config.trace_out)  # simlint: disable=SL010
    return exit_code


def _write_trace_artifact(tracer: "ServiceTracer", path: str) -> None:
    """Persist the merged service+simulation timeline on shutdown (the
    ``--trace-out`` artifact CI uploads)."""
    import os

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(tracer.chrome_trace(stamp=True), handle, sort_keys=True)
        handle.write("\n")


def serve_forever(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 8642,
    deadline_s: Optional[float] = None,
) -> int:
    """Blocking entry point for ``repro-sim serve``."""
    return asyncio.run(serve_async(config, host, port, deadline_s))
