"""Hostile-network hardening of the service tier (docs/SERVICE.md,
"Overload and hostile networks").

Three layers under test, each over real sockets where the behaviour is
wire-visible:

* **protocol limits** — the malformed-request corpus (split CRLFs,
  oversized request lines, bad framing, premature EOF, pipelined
  garbage) must each produce the documented 4xx and never an exception
  on the event loop; the hard size ceilings must hold for *any*
  configuration;
* **overload control** — deadline-aware shedding, the compute priority
  lane, and the connection cap;
* **event-stream bounds** — a stalled ``/v1/events`` consumer is
  disconnected, ring-buffer overflow is surfaced as an explicit gap.
"""

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry
from repro.svc import (
    HARD_MAX_BODY_BYTES,
    HARD_MAX_HEADER_BYTES,
    ProtocolLimits,
    ServiceConfig,
    ServiceServer,
    SimulationService,
)
from repro.svc.admission import AdmissionController

from tests.test_runner import kind_cell, test_kinds  # noqa: F401
from tests.test_svc_http import fetch, http_test


INSTANT_SPEC = {"trace": "ld", "policy": "demand", "disks": 1,
                "kind": "instant", "params": {"n": 5}}


async def raw_exchange(port, payload, timeout_s=10.0, eof_after=None):
    """Send raw bytes, return the decoded response (or b"" on reset).

    ``eof_after``: send only that prefix, then half-close the write side
    (premature EOF) and read whatever the server answers.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if eof_after is not None:
            writer.write(payload[:eof_after])
            await writer.drain()
            writer.write_eof()
        else:
            writer.write(payload)
            await writer.drain()
        try:
            return await asyncio.wait_for(reader.read(), timeout_s)
        except (ConnectionError, OSError):
            return b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def status_of(raw):
    assert raw, "server closed the connection without a response"
    return int(raw.split(b"\r\n", 1)[0].split(b" ")[1])


# -- hard ceilings: no configuration is memory-unbounded --------------------------------


class TestHardCeilings:
    def test_header_ceiling_clamps_any_configuration(self):
        limits = ProtocolLimits(max_header_bytes=10**9)
        assert limits.max_header_bytes == HARD_MAX_HEADER_BYTES

    def test_body_ceiling_clamps_any_configuration(self):
        limits = ProtocolLimits(max_body_bytes=10**12)
        assert limits.max_body_bytes == HARD_MAX_BODY_BYTES

    def test_request_line_never_exceeds_header_limit(self):
        limits = ProtocolLimits(max_header_bytes=2048,
                                max_request_line_bytes=10**9)
        assert limits.max_request_line_bytes == 2048

    def test_defaults_are_already_bounded(self):
        limits = ProtocolLimits()
        assert limits.max_header_bytes <= HARD_MAX_HEADER_BYTES
        assert limits.max_body_bytes <= HARD_MAX_BODY_BYTES

    def test_nonpositive_limits_rejected(self):
        with pytest.raises(ValueError, match="max_connections"):
            ProtocolLimits(max_connections=0)
        with pytest.raises(ValueError, match="header_timeout_s"):
            ProtocolLimits(header_timeout_s=0.0)
        with pytest.raises(ValueError, match="reserved_read_connections"):
            ProtocolLimits(reserved_read_connections=-1)

    def test_compute_lane_has_floor_one(self):
        limits = ProtocolLimits(max_connections=4,
                                reserved_read_connections=100)
        assert limits.compute_connections == 1
        wide = ProtocolLimits(max_connections=100,
                              reserved_read_connections=30)
        assert wide.compute_connections == 70


# -- the malformed-request corpus -------------------------------------------------------


class TestMalformedCorpus:
    """Every entry must produce the documented 4xx (or a clean close)
    over a real socket — never an unhandled exception on the loop."""

    def run(self, scenario, tmp_path, **limit_kwargs):
        limits = ProtocolLimits(**limit_kwargs) if limit_kwargs else \
            ProtocolLimits()
        return http_test(scenario, store_dir=str(tmp_path / "store"),
                         jobs=1, limits=limits)

    def test_oversized_request_line_is_431(self, tmp_path):
        async def scenario(service, port):
            path = "/" + "a" * 6000
            raw = await raw_exchange(
                port, f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            )
            assert status_of(raw) == 431
            assert b"request line too large" in raw

        self.run(scenario, tmp_path)

    def test_oversized_header_block_is_431(self, tmp_path):
        async def scenario(service, port):
            filler = "".join(
                f"X-Pad-{i}: {'y' * 64}\r\n" for i in range(40)
            )
            raw = await raw_exchange(
                port,
                f"GET /v1/healthz HTTP/1.1\r\n{filler}\r\n".encode(),
            )
            assert status_of(raw) == 431
            counters = service.metrics.to_dict()["counters"]
            assert counters.get('svc.http.limited{reason="header"}') == 1

        self.run(scenario, tmp_path, max_header_bytes=1024)

    def test_oversized_declared_body_is_413(self, tmp_path):
        async def scenario(service, port):
            raw = await raw_exchange(
                port,
                b"POST /v1/cells HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 999999999\r\n\r\n",
            )
            assert status_of(raw) == 413
            counters = service.metrics.to_dict()["counters"]
            assert counters.get('svc.http.limited{reason="body"}') == 1

        self.run(scenario, tmp_path, max_body_bytes=4096)

    def test_bad_content_length_is_400(self, tmp_path):
        async def scenario(service, port):
            for value in (b"banana", b"-5"):
                raw = await raw_exchange(
                    port,
                    b"POST /v1/cells HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + value + b"\r\n\r\n",
                )
                assert status_of(raw) == 400
                assert b"bad Content-Length" in raw

        self.run(scenario, tmp_path)

    def test_transfer_encoding_is_refused(self, tmp_path):
        async def scenario(service, port):
            raw = await raw_exchange(
                port,
                b"POST /v1/cells HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n",
            )
            assert status_of(raw) == 400
            assert b"Transfer-Encoding" in raw

        self.run(scenario, tmp_path)

    def test_premature_eof_mid_body_is_400(self, tmp_path):
        async def scenario(service, port):
            request = (
                b"POST /v1/cells HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n" + b"{" * 3
            )
            raw = await raw_exchange(port, request, eof_after=len(request))
            assert status_of(raw) == 400
            assert b"truncated body" in raw

        self.run(scenario, tmp_path)

    def test_garbage_request_line_is_400(self, tmp_path):
        async def scenario(service, port):
            raw = await raw_exchange(port, b"\x00\x01GARBAGE\r\n\r\n")
            assert status_of(raw) == 400

        self.run(scenario, tmp_path)

    def test_split_crlfs_still_parse(self, tmp_path):
        """Headers arriving one byte at a time (within the deadline) are
        legitimate — pacing is not a protocol offence."""

        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for byte in b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n":
                writer.write(bytes([byte]))
                await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            assert status_of(raw) == 200

        self.run(scenario, tmp_path)

    def test_pipelined_garbage_after_request_is_ignored(self, tmp_path):
        """Without keep-alive the connection closes after one response;
        pipelined trailing bytes are never interpreted as a request."""

        async def scenario(service, port):
            before = service.metrics.to_dict()["counters"].get(
                "svc.requests", 0
            )
            raw = await raw_exchange(
                port,
                b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                b"\x00\xff NOT HTTP AT ALL \r\n\r\n",
            )
            assert status_of(raw) == 200
            after = service.metrics.to_dict()["counters"].get(
                "svc.requests", 0
            )
            assert after == before  # healthz is not a cell request

        self.run(scenario, tmp_path)

    def test_header_slowloris_is_408(self, tmp_path):
        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost")  # ...stall
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            assert status_of(raw) == 408
            counters = service.metrics.to_dict()["counters"]
            assert counters.get('svc.http.limited{reason="timeout"}') == 1

        self.run(scenario, tmp_path, header_timeout_s=0.3)

    def test_drip_fed_body_is_408(self, tmp_path):
        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /v1/cells HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 64\r\n\r\n{"  # 1 of 64 bytes, then stall
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            assert status_of(raw) == 408
            assert b"body" in raw

        self.run(scenario, tmp_path, body_timeout_s=0.3)

    def test_bare_lf_head_never_completes_and_times_out(self, tmp_path):
        async def scenario(service, port):
            raw = await raw_exchange(
                port, b"GET /v1/healthz HTTP/1.1\nHost: t\n\n"
            )
            assert status_of(raw) == 408

        self.run(scenario, tmp_path, header_timeout_s=0.3)


# -- connection cap, keep-alive, priority lane ------------------------------------------


class TestConnectionLimits:
    def test_connection_cap_refuses_with_503(self, test_kinds, tmp_path):
        async def scenario(service, port):
            holder_reader, holder = await asyncio.open_connection(
                "127.0.0.1", port
            )
            await asyncio.sleep(0.05)  # let the accept register
            try:
                raw = await raw_exchange(
                    port, b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                assert status_of(raw) == 503
                head = raw.split(b"\r\n\r\n")[0].decode().lower()
                assert "retry-after" in head
                counters = service.metrics.to_dict()["counters"]
                assert counters.get(
                    'svc.http.limited{reason="connections"}') == 1
            finally:
                holder.close()
                await holder.wait_closed()
            # Once the holder leaves, the server accepts again.
            await asyncio.sleep(0.05)
            status, _, payload = await fetch(port, "GET", "/v1/healthz")
            assert status == 200 and payload["ok"] is True

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  limits=ProtocolLimits(max_connections=1))

    def test_keep_alive_is_opt_in_and_capped(self, test_kinds, tmp_path):
        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def one(expect_keep_alive):
                writer.write(
                    b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: keep-alive\r\n\r\n"
                )
                await writer.drain()
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), 10.0
                )
                lines = head.decode().lower()
                length = int(
                    [line for line in lines.split("\r\n")
                     if line.startswith("content-length")][0].split(":")[1]
                )
                await asyncio.wait_for(reader.readexactly(length), 10.0)
                assert status_of(head) == 200
                if expect_keep_alive:
                    assert "connection: keep-alive" in lines
                else:
                    assert "connection: close" in lines

            await one(expect_keep_alive=True)
            await one(expect_keep_alive=False)  # request cap reached
            # The server closes the socket after the capped request.
            assert await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()
            await writer.wait_closed()

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  limits=ProtocolLimits(max_requests_per_connection=2))

    def test_without_keep_alive_header_connection_closes(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, headers, _ = await fetch(port, "GET", "/v1/healthz")
            assert status == 200
            assert headers["connection"] == "close"

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_compute_lane_full_is_429_but_reads_pass(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            spec = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "sleep", "params": {"sleep_s": 2.0}}
            slow = asyncio.create_task(
                fetch(port, "POST", "/v1/cells", spec, timeout_s=30.0)
            )
            # Wait until the slow cell holds the (width-1) compute lane.
            for _ in range(100):
                await asyncio.sleep(0.05)
                if service.admission.in_system > 0:
                    break
            status, headers, payload = await fetch(
                port, "POST", "/v1/cells", INSTANT_SPEC
            )
            assert status == 429
            assert "compute lane full" in payload["error"]
            assert "retry-after" in headers
            # Reads are never starved by a saturated compute lane.
            status, _, _ = await fetch(port, "GET", "/v1/status")
            assert status == 200
            counters = service.metrics.to_dict()["counters"]
            assert counters.get('svc.http.limited{reason="lane"}') == 1
            status, _, _ = await slow
            assert status == 200

        http_test(
            scenario, store_dir=str(tmp_path / "store"), jobs=1,
            limits=ProtocolLimits(max_connections=16,
                                  reserved_read_connections=15),
        )

    def test_status_exposes_http_and_admission_blocks(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, payload = await fetch(port, "GET", "/v1/status")
            assert status == 200
            http = payload["http"]
            assert http["max_connections"] == 256
            assert http["compute_connections"] == 224
            assert http["limits"]["max_body_bytes"] == 4 * 1024 * 1024
            assert "rate_limiter" not in payload
            assert "shed" in payload["admission"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)


# -- deadline-aware admission -----------------------------------------------------------


class TestAdmissionShedding:
    def test_ewma_tracks_service_times(self):
        controller = AdmissionController(limit=8)
        controller.note_service_time(10.0)
        assert controller.service_time_ewma_s == 10.0
        controller.note_service_time(20.0)
        assert controller.service_time_ewma_s == pytest.approx(11.5)
        controller.note_service_time(-1.0)  # ignored
        assert controller.service_time_ewma_s == pytest.approx(11.5)

    def test_no_shedding_before_first_sample(self):
        controller = AdmissionController(limit=8)
        controller.in_system = 6
        assert controller.projected_wait_s(1) == 0.0
        admitted, reason, _ = controller.admit(0.001, 1)
        assert admitted and reason == "ok"

    def test_projected_wait_math(self):
        controller = AdmissionController(limit=100)
        controller.note_service_time(10.0)
        controller.in_system = 5
        # 4 queued ahead of the single worker, 10s each.
        assert controller.projected_wait_s(1) == pytest.approx(40.0)
        # Two workers halve the wait: 3 queued ahead / (2 per 10s).
        assert controller.projected_wait_s(2) == pytest.approx(15.0)
        controller.in_system = 1
        assert controller.projected_wait_s(2) == 0.0

    def test_deadline_shed_is_early_and_counted(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(limit=100, metrics=metrics)
        controller.note_service_time(10.0)
        controller.in_system = 5
        admitted, reason, retry = controller.admit(5.0, 1)
        assert not admitted and reason == "deadline"
        assert retry == pytest.approx(35.0)  # projected 40 - deadline 5
        assert controller.shed == 1 and controller.rejected == 1
        assert controller.in_system == 5  # a shed request never held a slot
        counters = metrics.to_dict()["counters"]
        assert counters["svc.admission.shed"] == 1
        assert counters["svc.admission.rejected"] == 1

    def test_queue_full_still_wins_over_deadline(self):
        controller = AdmissionController(limit=3)
        controller.note_service_time(10.0)
        controller.in_system = 3
        admitted, reason, retry = controller.admit(5.0, 1)
        assert not admitted and reason == "queue_full"
        assert retry >= 1.0
        assert controller.shed == 0

    def test_generous_deadline_admits(self):
        controller = AdmissionController(limit=100)
        controller.note_service_time(0.01)
        controller.in_system = 3
        admitted, reason, _ = controller.admit(60.0, 1)
        assert admitted and reason == "ok"
        assert controller.in_system == 4

    def test_deadline_shed_over_http_with_observability(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            # Prime the controller as if a long backlog of slow cells
            # were in the system: the next request projects a queue wait
            # far past its 2s deadline and must be shed *now*.
            service.admission.note_service_time(100.0)
            service.admission.in_system = 10
            try:
                status, headers, payload = await fetch(
                    port, "POST", "/v1/cells", INSTANT_SPEC
                )
            finally:
                service.admission.in_system = 0
            assert status == 429
            assert "shed early" in payload["error"]
            assert int(headers["retry-after"]) >= 1
            counters = service.metrics.to_dict()["counters"]
            assert counters.get('svc.overload.shed{reason="deadline"}') == 1
            # The shed decision carries the request's correlation ID in
            # both the event stream and (tracing on) a span.
            events = await service.events_since(0, timeout_s=0.1)
            shed_events = [e for e in events if e["type"] == "shed"]
            assert shed_events and shed_events[0]["reason"] == "deadline"
            assert shed_events[0]["corr_id"] == headers["x-correlation-id"]
            spans = service.tracer.chrome_trace()["traceEvents"]
            shed_spans = [s for s in spans
                          if s.get("name") == "overload.shed"]
            assert shed_spans
            assert shed_spans[0]["args"]["corr_id"] == \
                headers["x-correlation-id"]
            assert shed_spans[0]["args"]["reason"] == "deadline"

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  request_timeout_s=2.0, trace=True)


# -- /v1/events under a slow or resumed consumer ----------------------------------------


class RecordingTransport(asyncio.WriteTransport):
    def __init__(self):
        super().__init__()
        self.aborted = False
        self.buffer_limits = None

    def set_write_buffer_limits(self, high=None, low=None):
        self.buffer_limits = (high, low)

    def abort(self):
        self.aborted = True


class FakeStreamWriter:
    """Just enough of StreamWriter for ``_stream_events``: captures
    written bytes; ``drain`` either returns or stalls forever."""

    def __init__(self, stall=False):
        self.transport = RecordingTransport()
        self.chunks = []
        self.stall = stall

    def write(self, data):
        self.chunks.append(data)

    async def drain(self):
        if self.stall:
            await asyncio.Event().wait()  # a consumer that never reads

    def payload(self):
        return b"".join(self.chunks)


def events_server(tmp_path, limits=None, event_buffer=1024):
    config = ServiceConfig(store_dir=str(tmp_path / "store"),
                           event_buffer=event_buffer)
    service = SimulationService(config)
    return service, ServiceServer(service, port=0, limits=limits)


class TestEventStreamBounds:
    def test_stalled_consumer_is_aborted_not_buffered(self, tmp_path):
        service, server = events_server(
            tmp_path,
            limits=ProtocolLimits(events_drain_timeout_s=0.2,
                                  events_buffer_bytes=2048),
        )
        service._publish({"type": "test"})
        writer = FakeStreamWriter(stall=True)

        async def main():
            await asyncio.wait_for(
                server._stream_events(writer, "/v1/events"), 10.0
            )

        asyncio.run(main())
        assert writer.transport.aborted
        # The write buffer was bounded before anything was streamed.
        assert writer.transport.buffer_limits == (2048, None)
        counters = service.metrics.to_dict()["counters"]
        assert counters["svc.events.stalled"] == 1

    def test_ring_overflow_surfaces_an_explicit_gap(self, tmp_path):
        service, server = events_server(tmp_path, event_buffer=4)
        for index in range(10):  # seqs 1..10; ring keeps 7..10
            service._publish({"type": "test", "index": index})
        service.draining = True  # let the stream end after one batch
        writer = FakeStreamWriter()

        async def main():
            await asyncio.wait_for(
                server._stream_events(writer, "/v1/events?since=2"), 10.0
            )

        asyncio.run(main())
        lines = [json.loads(chunk.split(b"\r\n", 1)[1][:-2])
                 for chunk in writer.chunks[1:] if chunk != b"0\r\n\r\n"]
        assert lines[0] == {"missed": 4, "type": "gap"}  # seqs 3..6 lost
        assert [line["seq"] for line in lines[1:]] == [7, 8, 9, 10]
        counters = service.metrics.to_dict()["counters"]
        assert counters["svc.events.gaps"] == 4

    def test_fresh_consumer_sees_no_spurious_gap(self, tmp_path):
        service, server = events_server(tmp_path, event_buffer=4)
        for index in range(10):
            service._publish({"type": "test", "index": index})
        service.draining = True
        writer = FakeStreamWriter()

        async def main():
            await server._stream_events(writer, "/v1/events")

        asyncio.run(main())
        payload = writer.payload()
        assert b'"gap"' not in payload  # since=0: nothing was promised
        counters = service.metrics.to_dict()["counters"]
        assert "svc.events.gaps" not in counters
