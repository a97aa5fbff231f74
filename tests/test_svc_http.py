"""The service's HTTP front end, driven over real sockets.

Each test starts a :class:`ServiceServer` on an ephemeral port inside one
event loop and speaks raw HTTP/1.1 through ``asyncio.open_connection`` —
the same framing any external client uses, so header casing, status
lines, Content-Length bodies, and the chunked event stream are all
exercised for real.
"""

import asyncio
import json

from repro.svc import ServiceConfig, ServiceServer, SimulationService

from tests.test_runner import kind_cell, test_kinds  # noqa: F401


async def fetch(port, method, path, body=None, timeout_s=30.0,
                extra_headers=None):
    """One HTTP exchange: ``(status, headers, body)``.

    The body is parsed JSON for ``application/json`` responses (the
    default everywhere) and the decoded text otherwise (the Prometheus
    exposition of ``/v1/metrics``).
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    request_headers = f"Content-Length: {len(payload)}\r\n"
    for name, value in (extra_headers or {}).items():
        request_headers += f"{name}: {value}\r\n"
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"{request_headers}\r\n"
    ).encode() + payload
    writer.write(request)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout_s)
    writer.close()
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if not body_bytes.strip():
        parsed = None
    elif headers.get("content-type", "").startswith("application/json"):
        parsed = json.loads(body_bytes)
    else:
        parsed = body_bytes.decode()
    return status, headers, parsed


def http_test(scenario, **config_kwargs):
    """Run ``scenario(service, port)`` against a live server in tmp dirs
    supplied by the caller via config_kwargs["store_dir"]."""

    async def main():
        config = ServiceConfig(**config_kwargs)
        service = SimulationService(config)
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await scenario(service, server.bound_port)
        finally:
            await server.stop()
            await service.drain("signal")

    return asyncio.run(main())


SPEC = {"trace": "ld", "policy": "demand", "disks": 1, "scale": 0.05}


class TestHttpSurface:
    def test_healthz_metrics_status_store(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, payload = await fetch(port, "GET", "/v1/healthz")
            assert status == 200 and payload["ok"] is True
            status, _, payload = await fetch(port, "GET", "/v1/status")
            assert status == 200
            assert payload["admission"]["in_system"] == 0
            status, _, payload = await fetch(port, "GET", "/v1/metrics")
            assert status == 200 and "counters" in payload
            status, _, payload = await fetch(port, "GET", "/v1/store")
            assert status == 200 and payload["resident"] == 0

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_post_cell_compute_then_store_hit(self, test_kinds, tmp_path):
        async def scenario(service, port):
            cell = kind_cell("instant", n=5)
            spec = {"trace": cell.trace, "policy": cell.policy,
                    "disks": cell.disks, "kind": "instant",
                    "params": {"n": 5}}
            status, _, first = await fetch(port, "POST", "/v1/cells", spec)
            assert status == 200
            assert first["served"] == "computed"
            assert first["record"]["digest"] == "digest-5"
            status, _, second = await fetch(port, "POST", "/v1/cells", spec)
            assert status == 200
            assert second["served"] == "store"
            # Served bytes are identical either way.
            assert second["record"] == first["record"]
            status, _, got = await fetch(
                port, "GET", "/v1/results/" + first["record"]["hash"]
            )
            assert status == 200 and got["record"] == first["record"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_results_miss_is_404_and_never_computes(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, payload = await fetch(port, "GET", "/v1/results/feed")
            assert status == 404 and "error" in payload
            assert service.pool.counters["dispatched"] == 0

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_bad_specs_and_bad_requests_are_400(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, payload = await fetch(
                port, "POST", "/v1/cells", dict(SPEC, trace="nope")
            )
            assert status == 400 and "unknown trace" in payload["error"]
            # An unregistered kind is refused here, not in a worker.
            status, _, payload = await fetch(
                port, "POST", "/v1/cells", dict(SPEC, kind="nope")
            )
            assert status == 400 and "unknown cell kind 'nope'" in (
                payload["error"]
            )
            assert "valid kinds:" in payload["error"]
            assert service.pool.counters["dispatched"] == 0
            status, _, payload = await fetch(port, "POST", "/v1/cells")
            assert status == 400 and "JSON body" in payload["error"]
            # Raw garbage body.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /v1/cells HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 3\r\n\r\n{{{"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            assert b"400" in raw.split(b"\r\n", 1)[0]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_unhonourable_config_overrides_are_400_before_dispatch(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            for overrides, named in (
                ({"bogus": 1}, "bogus"),
                ({"faults": "x"}, "faults"),
                ({"geometry": {}}, "geometry"),
                ({"driver_overhead_ms": "fast"}, "driver_overhead_ms"),
                ({"cache_blocks": 1.5}, "cache_blocks"),
                ({"mirrored": 1}, "mirrored"),
                # The wire's JSON admits NaN; SimConfig does not.
                ({"simple_access_ms": float("nan")}, "simple_access_ms"),
            ):
                status, _, payload = await fetch(
                    port, "POST", "/v1/cells",
                    dict(SPEC, config_overrides=overrides),
                )
                assert status == 400, overrides
                assert named in payload["error"], payload
            assert service.pool.counters["dispatched"] == 0
            # A valid override still computes; an int stands for a float.
            status, _, payload = await fetch(
                port, "POST", "/v1/cells",
                dict(SPEC, policy="forestall",
                     config_overrides={"driver_overhead_ms": 0}),
            )
            assert status == 200 and payload["served"] == "computed"
            assert payload["record"]["result"]["driver_ms"] == 0.0
            assert payload["record"]["cell"]["config_overrides"] == {
                "driver_overhead_ms": 0.0,
            }

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_refused_policy_kwargs_are_400_before_dispatch(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            # JSON admits NaN; a NaN fetch-time estimate used to reach a
            # worker whose planner never returned.
            status, _, payload = await fetch(
                port, "POST", "/v1/cells",
                dict(SPEC, policy="reverse-aggressive",
                     policy_kwargs={"fetch_time_estimate": float("nan")}),
            )
            assert status == 400, payload
            assert "fetch_time_estimate" in payload["error"]
            status, _, payload = await fetch(
                port, "POST", "/v1/cells",
                dict(SPEC, policy="forestall", policy_kwargs={"history": 0}),
            )
            assert status == 400 and "history" in payload["error"]
            assert service.pool.counters["dispatched"] == 0

        # Short timeouts, so that a service that admits the cell fails this
        # test instead of waiting on the spinning worker.
        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  request_timeout_s=5.0, cell_timeout_s=5.0)

    def test_unknown_path_404_wrong_method_405(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, _ = await fetch(port, "GET", "/v2/nope")
            assert status == 404
            status, _, _ = await fetch(port, "POST", "/v1/healthz")
            assert status == 405
            status, _, _ = await fetch(port, "GET", "/v1/cells")
            assert status == 405

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_failure_record_maps_to_500(self, test_kinds, tmp_path):
        async def scenario(service, port):
            for kind, failure, message in (
                ("always-fail", "exception", "injected deterministic failure"),
                # The worker's exit status, not a None read before reaping.
                ("always-crash", "crash", "exited with code 3"),
            ):
                status, _, payload = await fetch(
                    port, "POST", "/v1/cells",
                    {"trace": "ld", "policy": "demand", "disks": 1,
                     "kind": kind},
                )
                assert status == 500, kind
                assert payload["record"]["failure"] == failure
                assert message in payload["record"]["error"]["message"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  max_retries=1, retry_backoff_s=0.05)

    def test_queue_full_is_429_with_retry_after(self, test_kinds, tmp_path):
        async def scenario(service, port):
            slow = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "sleep", "params": {"sleep_s": 0.6}}
            task = asyncio.ensure_future(
                fetch(port, "POST", "/v1/cells", slow)
            )
            await asyncio.sleep(0.1)
            status, headers, payload = await fetch(
                port, "POST", "/v1/cells", dict(slow, params={"sleep_s": 0.7})
            )
            assert status == 429
            assert "admission queue full" in payload["error"]
            assert int(headers["retry-after"]) >= 1
            status, _, first = await task
            assert status == 200 and first["record"]["status"] == "ok"

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  queue_limit=1)

    def test_request_timeout_is_504(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, payload = await fetch(
                port, "POST", "/v1/cells",
                {"trace": "ld", "policy": "demand", "disks": 1,
                 "kind": "sleep", "params": {"sleep_s": 60.0}},
            )
            assert status == 504
            assert "timed out" in payload["error"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1,
                  request_timeout_s=0.3)

    def test_sweep_bundle_reports_hit_ratio(self, test_kinds, tmp_path):
        async def scenario(service, port):
            specs = [
                {"trace": "ld", "policy": "demand", "disks": 1,
                 "kind": "instant", "params": {"n": n}}
                for n in (1, 2)
            ]
            status, _, first = await fetch(
                port, "POST", "/v1/sweeps", {"cells": specs}
            )
            assert status == 200
            assert first["counts"]["computed"] == 2
            # The identical sweep again: pure store hits, zero new work.
            dispatched = service.pool.counters["dispatched"]
            status, _, again = await fetch(
                port, "POST", "/v1/sweeps", {"cells": specs}
            )
            assert status == 200
            assert again["counts"]["store"] == 2
            assert again["counts"]["computed"] == 0
            assert service.pool.counters["dispatched"] == dispatched
            by_hash = {c["hash"]: c for c in again["cells"]}
            for entry in first["cells"]:
                assert by_hash[entry["hash"]]["digest"] == entry["digest"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=2)

    def test_sweep_body_validation(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, _ = await fetch(port, "POST", "/v1/sweeps", {})
            assert status == 400
            status, _, _ = await fetch(
                port, "POST", "/v1/sweeps", {"cells": []}
            )
            assert status == 400

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_event_stream_carries_progress(self, test_kinds, tmp_path):
        async def scenario(service, port):
            spec = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "instant", "params": {"n": 3}}
            status, _, _ = await fetch(port, "POST", "/v1/cells", spec)
            assert status == 200
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /v1/events?since=0 HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(
                reader.readuntil(b'"served": "computed"'), 10
            )
            writer.close()
            assert b"Transfer-Encoding: chunked" in raw
            assert b'"type": "record"' in raw
            assert b'"status": "ok"' in raw

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_healthz_503_when_draining(self, test_kinds, tmp_path):
        async def scenario(service, port):
            service.draining = True
            status, _, payload = await fetch(port, "GET", "/v1/healthz")
            assert status == 503 and payload["draining"] is True
            status, _, _ = await fetch(port, "POST", "/v1/cells", SPEC)
            assert status == 503

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)


class TestServeForever:
    def test_deadline_drains_with_exit_76(self, test_kinds, tmp_path):
        from repro.svc import serve_async

        async def main():
            config = ServiceConfig(store_dir=str(tmp_path / "store"), jobs=1)
            return await serve_async(
                config, host="127.0.0.1", port=0, deadline_s=0.3
            )

        assert asyncio.run(main()) == 76


class TestTelemetryHttp:
    """ISSUE 9's HTTP surface: content-negotiated metrics, correlation
    headers, the merged trace endpoint, and exclusive event resumption."""

    def test_metrics_json_default_preserved(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, headers, payload = await fetch(port, "GET", "/v1/metrics")
            assert status == 200
            assert headers["content-type"].startswith("application/json")
            assert isinstance(payload, dict) and "counters" in payload

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_metrics_negotiates_prometheus_text(self, test_kinds, tmp_path):
        from repro.obs import validate_exposition

        async def scenario(service, port):
            spec = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "instant", "params": {"n": 8}}
            status, _, _ = await fetch(port, "POST", "/v1/cells", spec)
            assert status == 200
            for how in (
                {"extra_headers": {"Accept": "text/plain"}},
                {"extra_headers": {
                    "Accept": "application/openmetrics-text"}},
            ):
                status, headers, text = await fetch(
                    port, "GET", "/v1/metrics", **how
                )
                assert status == 200
                assert headers["content-type"].startswith(
                    "text/plain; version=0.0.4"
                )
                assert isinstance(text, str)
                assert validate_exposition(text) == []
                assert "repro_svc_requests_total 1" in text
            # The query parameter wins regardless of Accept.
            status, headers, text = await fetch(
                port, "GET", "/v1/metrics?format=prometheus"
            )
            assert status == 200 and isinstance(text, str)
            assert validate_exposition(text) == []
            # Scrape-time gauges are refreshed on every export.
            assert "repro_svc_store_hit_ratio 0" in text
            status, _, payload = await fetch(
                port, "GET", "/v1/metrics?format=json",
                extra_headers={"Accept": "text/plain"},
            )
            assert status == 200 and isinstance(payload, dict)

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_every_response_carries_a_correlation_id(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            _, first_headers, _ = await fetch(port, "GET", "/v1/healthz")
            _, second_headers, _ = await fetch(port, "GET", "/v1/status")
            first = first_headers["x-correlation-id"]
            second = second_headers["x-correlation-id"]
            assert first and second and first != second
            # Errors carry one too.
            status, headers, _ = await fetch(port, "GET", "/v1/nope")
            assert status == 404 and headers["x-correlation-id"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_trace_endpoint_404_when_tracing_off(self, test_kinds, tmp_path):
        async def scenario(service, port):
            status, _, payload = await fetch(port, "GET", "/v1/trace")
            assert status == 404 and "--trace" in payload["error"]

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_trace_endpoint_serves_the_merged_document(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            spec = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "instant", "params": {"n": 6}}
            status, headers, payload = await fetch(
                port, "POST", "/v1/cells", spec
            )
            assert status == 200
            corr_id = headers["x-correlation-id"]
            status, _, doc = await fetch(port, "GET", "/v1/trace")
            assert status == 200
            events = doc["traceEvents"]
            svc_names = {
                row["name"] for row in events if row.get("cat") == "svc"
            }
            assert "http.parse" in svc_names
            assert "worker.execute" in svc_names
            # The computed request's spans are linked by the same ID the
            # response header reported.
            assert any(
                row.get("args", {}).get("corr_id") == corr_id
                for row in events if row.get("cat") == "svc"
            )
            assert doc["otherData"]["source"] == "repro.obs.svc"
            assert "captured_unix_s" in doc["otherData"]

        http_test(
            scenario, store_dir=str(tmp_path / "store"), jobs=1, trace=True
        )

    def test_events_since_is_exclusive_over_http(self, test_kinds, tmp_path):
        async def scenario(service, port):
            spec = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "instant", "params": {"n": 4}}
            status, _, _ = await fetch(port, "POST", "/v1/cells", spec)
            assert status == 200
            last_seq = (await service.events_since(0))[-1]["seq"]
            # Draining ends the stream once the buffer is exhausted, so
            # the whole chunked body can be read to EOF.
            service.draining = True

            async def read_stream(since):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET /v1/events?since={since} HTTP/1.1\r\n"
                    "Host: t\r\n\r\n".encode()
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), 10)
                writer.close()
                body = raw.partition(b"\r\n\r\n")[2]
                events = []
                for line in body.split(b"\r\n"):
                    if line.startswith(b"{"):
                        events.append(json.loads(line))
                return events

            # Resuming from the last seq seen replays nothing ...
            assert await read_stream(last_seq) == []
            # ... and from one before it replays exactly the last event.
            tail = await read_stream(last_seq - 1)
            assert [event["seq"] for event in tail] == [last_seq]
            # Every replayed event names its originating request.
            full = await read_stream(0)
            assert [e["seq"] for e in full] == list(
                range(1, last_seq + 1)
            )
            typed = [e for e in full
                     if e["type"] in ("queued", "record", "request")]
            assert typed and all("corr_id" in event for event in typed)

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)

    def test_drain_delivers_in_flight_records_then_ends_streams(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            slow = {"trace": "ld", "policy": "demand", "disks": 1,
                    "kind": "sleep", "params": {"sleep_s": 0.5}}
            post = asyncio.ensure_future(
                fetch(port, "POST", "/v1/cells", slow)
            )
            while service.pool.counters["dispatched"] < 1:
                await asyncio.sleep(0.01)
            since = (await service.events_since(0))[-1]["seq"]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"GET /v1/events?since={since} HTTP/1.1\r\n"
                "Host: t\r\n\r\n".encode()
            )
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")  # caught up and streaming
            drain = asyncio.ensure_future(service.drain("signal"))
            # Ends once the slow cell's record is out — well before the
            # 5 s heartbeat a caught-up stream would otherwise wait.
            raw = await asyncio.wait_for(reader.read(), 3.0)
            writer.close()
            status, _, payload = await post
            assert status == 200
            events = [
                json.loads(line) for line in raw.split(b"\r\n")
                if line.startswith(b"{")
            ]
            records = [e for e in events if e["type"] == "record"]
            assert [e["hash"] for e in records] == [payload["record"]["hash"]]
            assert raw.endswith(b"0\r\n\r\n")
            assert await drain == 75

        http_test(scenario, store_dir=str(tmp_path / "store"), jobs=1)
