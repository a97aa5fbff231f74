"""Service-tier telemetry: spans, Prometheus exposition, JSON logs, top.

The acceptance criteria this file pins (ISSUE 9 / docs/OBSERVABILITY.md,
"Service telemetry"):

* one merged Perfetto timeline contains both the service spans
  (admission/queue/store/worker) and the inner simulation's events for
  the same request, linked by correlation ID;
* ``render_prometheus`` produces valid text exposition (own validator);
* all 14 golden digests are unchanged with telemetry on (the off case is
  pinned by tests/test_svc_chaos.py's acceptance sweep and
  tests/test_golden_results.py itself);
* zero-shadowing: an untraced service holds no tracer and untraced pool
  records carry no telemetry fields at all;
* ``/v1/events?since=N`` is exclusive in N and stamps every event with
  the originating request's correlation ID.
"""

import asyncio
import io
import json
import logging as stdlib_logging

import pytest

from repro.obs.logging import (
    JsonFormatter,
    _JsonHandler,
    configure_logging,
    get_correlation_id,
    get_logger,
    reset_correlation_id,
    set_correlation_id,
)
from repro.obs.metrics import Histogram, MetricsRegistry, REQUEST_BUCKETS_MS
from repro.obs.prom import (
    labeled,
    metric_name,
    render_prometheus,
    split_labels,
    validate_exposition,
)
from repro.obs.svc import (
    SERVICE_PID,
    SIM_PID_BASE,
    SPAN_ADMISSION_WAIT,
    SPAN_HTTP_PARSE,
    SPAN_POOL_QUEUE,
    SPAN_STORE_GET,
    SPAN_WORKER_EXECUTE,
    ServiceTracer,
    maybe_span,
    new_correlation_id,
    reconstruct_durations,
)
from repro.runner.pool import SupervisedPool
from repro.svc import ServiceConfig, SimulationService
from repro.svc.top import render_top, run_top

from tests import test_golden_results as golden
from tests.test_runner import (  # noqa: F401 — fixture re-export
    FakeClock,
    golden_plan,
    kind_cell,
    test_kinds,
)


# -- Histogram: +Inf bucket, sum/count, cumulative export -------------------------------


class TestHistogramExposition:
    def test_cumulative_ends_with_inf_equal_to_count(self):
        hist = Histogram("t", (1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 7.0, 100.0, 200.0):
            hist.observe(value)
        pairs = hist.cumulative()
        assert pairs == [("1", 2), ("5", 3), ("10", 4), ("+Inf", 6)]
        # Cumulative counts are monotone and the +Inf bucket is the total.
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)
        assert pairs[-1] == ("+Inf", hist.count)

    def test_float_bounds_keep_exact_labels(self):
        hist = Histogram("t", (0.25, 2.5, 10.0))
        hist.observe(0.1)
        labels = [label for label, _ in hist.cumulative()]
        # Integral bounds render bare, fractional ones via repr — both
        # round-trip exactly (no float formatting drift between scrapes).
        assert labels == ["0.25", "2.5", "10", "+Inf"]

    def test_as_dict_gains_sum_and_inf_bucket_keeps_legacy_keys(self):
        hist = Histogram("t", (1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        payload = hist.as_dict()
        # Backward compatibility: every pre-existing JSON key survives.
        for legacy in ("name", "count", "mean", "min", "max", "buckets",
                       "overflow"):
            assert legacy in payload
        assert payload["sum"] == pytest.approx(55.5)
        assert payload["count"] == 3
        # The appended +Inf bucket carries the overflow (non-cumulative)
        # count, exactly like every other JSON bucket entry.
        assert payload["buckets"][-1] == {"le": "+Inf", "count": 1}
        assert payload["buckets"][:-1] == [
            {"le": 1.0, "count": 1}, {"le": 10.0, "count": 1},
        ]
        assert payload["overflow"] == 1


# -- Prometheus rendering and validation ------------------------------------------------


class TestLabeled:
    def test_labels_sort_and_round_trip(self):
        name = labeled("svc.http.request_ms", route="cells", code="200")
        assert name == 'svc.http.request_ms{code="200",route="cells"}'
        base, block = split_labels(name)
        assert base == "svc.http.request_ms"
        assert block == '{code="200",route="cells"}'

    def test_no_labels_is_identity(self):
        assert labeled("svc.requests") == "svc.requests"
        assert split_labels("svc.requests") == ("svc.requests", "")

    def test_escaping(self):
        name = labeled("m", msg='say "hi"\nback\\slash')
        _, block = split_labels(name)
        assert '\\"hi\\"' in block and "\\n" in block and "\\\\" in block

    def test_metric_name_sanitizes_and_prefixes(self):
        assert metric_name("svc.request_ms") == "repro_svc_request_ms"
        assert metric_name("svc.http.request-ms") == "repro_svc_http_request_ms"


class TestRenderPrometheus:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.inc("svc.requests", 3)
        registry.inc(labeled("svc.http.requests", route="cells"), 2)
        registry.gauge("svc.pool.queue_depth").set(4.0)
        hist = registry.histogram("svc.request_ms", (1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 500.0):
            hist.observe(value)
        for code in ("200", "404"):
            registry.histogram(
                labeled("svc.http.request_ms", route="cells", code=code),
                (1.0, 10.0),
            ).observe(2.0)
        return registry

    def test_exposition_is_valid(self):
        text = render_prometheus(self.build_registry())
        assert validate_exposition(text) == []

    def test_counter_total_suffix_and_values(self):
        text = render_prometheus(self.build_registry())
        assert "repro_svc_requests_total 3" in text
        assert 'repro_svc_http_requests_total{route="cells"} 2' in text

    def test_histogram_buckets_sum_count(self):
        text = render_prometheus(self.build_registry())
        assert 'repro_svc_request_ms_bucket{le="1"} 1' in text
        assert 'repro_svc_request_ms_bucket{le="10"} 2' in text
        assert 'repro_svc_request_ms_bucket{le="100"} 2' in text
        assert 'repro_svc_request_ms_bucket{le="+Inf"} 3' in text
        assert "repro_svc_request_ms_sum 505.5" in text
        assert "repro_svc_request_ms_count 3" in text

    def test_label_variants_share_one_family_header(self):
        text = render_prometheus(self.build_registry())
        # Two labelled series, exactly one HELP/TYPE header for the family.
        assert text.count("# TYPE repro_svc_http_request_ms histogram") == 1
        assert (
            'repro_svc_http_request_ms_bucket{code="200",route="cells",le="1"}'
            in text
        )
        assert (
            'repro_svc_http_request_ms_bucket{code="404",route="cells",le="1"}'
            in text
        )

    def test_validator_catches_structural_damage(self):
        assert validate_exposition("this is not a metric line\n")
        missing_inf = (
            "# HELP repro_x histogram\n# TYPE repro_x histogram\n"
            'repro_x_bucket{le="1"} 1\nrepro_x_sum 1\nrepro_x_count 1\n'
        )
        assert any("+Inf" in e for e in validate_exposition(missing_inf))
        non_cumulative = (
            "# HELP repro_x h\n# TYPE repro_x histogram\n"
            'repro_x_bucket{le="1"} 5\nrepro_x_bucket{le="+Inf"} 3\n'
        )
        assert any(
            "cumulative" in e for e in validate_exposition(non_cumulative)
        )

    def test_live_service_registry_renders_valid(self, test_kinds, tmp_path):
        async def scenario(service):
            await service.run_cell(kind_cell("instant", n=1))
            await service.run_cell(kind_cell("instant", n=1))
            service.sample_gauges()
            text = render_prometheus(service.metrics)
            assert validate_exposition(text) == []
            assert "repro_svc_requests_total 2" in text
            assert "repro_svc_store_hit_ratio 0.5" in text
            assert (
                'repro_svc_request_outcome_ms_count{served="store"} 1' in text
            )

        run_service(tmp_path, scenario)


# -- structured JSON logging ------------------------------------------------------------


def capture_logs(level="info"):
    """(stream, handler): configure_logging onto an in-memory stream."""
    stream = io.StringIO()
    handler = configure_logging(stream=stream, level=level)
    return stream, handler


def detach(handler):
    stdlib_logging.getLogger("repro").removeHandler(handler)


class TestJsonLogging:
    def test_records_are_json_with_extras(self):
        stream, handler = capture_logs()
        try:
            get_logger("repro.svc.test").info(
                "hello", extra={"route": "cells", "status": 200}
            )
        finally:
            detach(handler)
        payload = json.loads(stream.getvalue())
        assert payload["msg"] == "hello"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.svc.test"
        assert payload["route"] == "cells" and payload["status"] == 200
        assert isinstance(payload["ts"], float)
        assert "corr_id" not in payload  # none bound

    def test_correlation_id_rides_the_contextvar(self):
        stream, handler = capture_logs()
        token = set_correlation_id("r-test-1")
        try:
            assert get_correlation_id() == "r-test-1"
            get_logger("repro.svc.test").warning("traced")
        finally:
            reset_correlation_id(token)
            detach(handler)
        assert get_correlation_id() is None
        assert json.loads(stream.getvalue())["corr_id"] == "r-test-1"

    def test_explicit_record_corr_id_wins(self):
        stream, handler = capture_logs()
        token = set_correlation_id("context-id")
        try:
            get_logger("repro.svc.test").info(
                "x", extra={"corr_id": "explicit-id"}
            )
        finally:
            reset_correlation_id(token)
            detach(handler)
        assert json.loads(stream.getvalue())["corr_id"] == "explicit-id"

    def test_exceptions_serialize_under_exc(self):
        stream, handler = capture_logs()
        try:
            try:
                raise ValueError("boom")
            except ValueError:
                get_logger("repro.svc.test").exception("failed")
        finally:
            detach(handler)
        payload = json.loads(stream.getvalue())
        assert "ValueError: boom" in payload["exc"]

    def test_unserializable_extras_fall_back_to_repr(self):
        stream, handler = capture_logs()
        try:
            get_logger("repro.svc.test").info("x", extra={"obj": object()})
        finally:
            detach(handler)
        assert "object object" in json.loads(stream.getvalue())["obj"]

    def test_configure_is_idempotent(self):
        first_stream, first = capture_logs()
        second_stream, second = capture_logs()
        try:
            root = stdlib_logging.getLogger("repro")
            json_handlers = [
                h for h in root.handlers if isinstance(h, _JsonHandler)
            ]
            assert json_handlers == [second]
            get_logger("repro.svc.test").info("once")
        finally:
            detach(second)
        assert first_stream.getvalue() == ""
        assert json.loads(second_stream.getvalue())["msg"] == "once"

    def test_unconfigured_process_is_silent(self, capsys):
        # Strict opt-in: without configure_logging even WARNING+ must not
        # reach stderr (logging.lastResort would print it if the repro
        # root had no NullHandler parked by get_logger).
        get_logger("repro.svc.test").warning("should stay silent")
        captured = capsys.readouterr()
        assert "should stay silent" not in captured.err
        assert "should stay silent" not in captured.out


# -- ServiceTracer ----------------------------------------------------------------------


def make_tracer(**kwargs):
    clock = FakeClock(now=0.0)
    tracer = ServiceTracer(clock=clock, **kwargs)
    return tracer, clock


def sim_document():
    """A miniature repro.obs.export-shaped document."""
    return {
        "traceEvents": [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "sim ld/forestall"}},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 0.0, "dur": 1500.0,
             "name": "disk.busy", "cat": "disk", "args": {"disk": 0}},
        ],
        "displayTimeUnit": "ms",
    }


class TestServiceTracer:
    def test_span_context_manager_measures_with_injected_clock(self):
        tracer, clock = make_tracer()
        with tracer.span(SPAN_STORE_GET, "r-1", hash="abcd"):
            clock.advance(0.25)
        (span,) = tracer.spans
        assert span.name == SPAN_STORE_GET
        assert span.corr_id == "r-1"
        assert span.start_ms == 0.0
        assert span.dur_ms == pytest.approx(250.0)
        assert span.args == {"hash": "abcd"}

    def test_span_records_even_when_the_block_raises(self):
        tracer, clock = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span(SPAN_ADMISSION_WAIT, "r-2"):
                clock.advance(0.1)
                raise RuntimeError("rejected")
        (span,) = tracer.spans
        assert span.name == SPAN_ADMISSION_WAIT
        assert span.dur_ms == pytest.approx(100.0)

    def test_ring_buffers_bound_memory(self):
        tracer, _ = make_tracer(max_spans=3, max_sim_traces=2)
        for index in range(5):
            tracer.add_span(SPAN_HTTP_PARSE, f"r-{index}", 0.0, 1.0)
        assert [s.corr_id for s in tracer.spans] == ["r-2", "r-3", "r-4"]
        for index in range(3):
            tracer.attach_simulation(f"r-{index}", sim_document())
        assert tracer.sim_trace_for("r-0") is None
        assert tracer.sim_trace_for("r-2") is not None

    def test_spans_for_filters_by_correlation_id(self):
        tracer, _ = make_tracer()
        tracer.add_span(SPAN_POOL_QUEUE, "r-a", 0.0, 1.0)
        tracer.add_span(SPAN_WORKER_EXECUTE, "r-b", 1.0, 2.0)
        tracer.add_span(SPAN_WORKER_EXECUTE, "r-a", 1.0, 3.0)
        assert [s.name for s in tracer.spans_for("r-a")] == [
            SPAN_POOL_QUEUE, SPAN_WORKER_EXECUTE,
        ]

    def test_chrome_trace_merges_service_and_sim_rows(self):
        tracer, clock = make_tracer()
        with tracer.span(SPAN_ADMISSION_WAIT, "r-7", hash="h7"):
            clock.advance(0.05)
        tracer.add_span(SPAN_WORKER_EXECUTE, "r-7", 50.0, 400.0, worker=0)
        tracer.attach_simulation("r-7", sim_document())
        doc = tracer.chrome_trace()
        events = doc["traceEvents"]
        svc_rows = [e for e in events if e.get("cat") == "svc"]
        assert {row["pid"] for row in svc_rows} == {SERVICE_PID}
        assert all(row["args"]["corr_id"] == "r-7" for row in svc_rows)
        # Distinct tracks per span kind, labelled via thread_name metadata.
        thread_names = {
            meta["args"]["name"]
            for meta in events
            if meta.get("ph") == "M" and meta.get("name") == "thread_name"
        }
        assert {SPAN_ADMISSION_WAIT, SPAN_WORKER_EXECUTE} <= thread_names
        # The simulation's rows are re-homed onto their own pid, stamped
        # with the correlation ID, and keep their simulated timestamps.
        sim_rows = [e for e in events if e.get("pid", 0) >= SIM_PID_BASE]
        assert sim_rows, "simulation rows missing from the merged document"
        assert all(row["args"]["corr_id"] == "r-7" for row in sim_rows)
        renamed = [
            row for row in sim_rows
            if row.get("ph") == "M" and row.get("name") == "process_name"
        ]
        assert renamed and "[r-7]" in renamed[0]["args"]["name"]
        assert doc["otherData"]["simulations"] == ["r-7"]

    def test_reconstruct_durations_round_trips_exact_values(self):
        tracer, clock = make_tracer()
        clock.advance(1.0)
        with tracer.span(SPAN_ADMISSION_WAIT, "r-9"):
            clock.advance(0.125)
        tracer.add_span(SPAN_WORKER_EXECUTE, "r-9", 1125.0, 917.25)
        tracer.add_span(SPAN_WORKER_EXECUTE, "r-other", 0.0, 1.0)
        durations = reconstruct_durations(tracer.chrome_trace(), "r-9")
        assert durations[SPAN_ADMISSION_WAIT] == (1000.0, 125.0)
        assert durations[SPAN_WORKER_EXECUTE] == (1125.0, 917.25)
        assert set(durations) == {SPAN_ADMISSION_WAIT, SPAN_WORKER_EXECUTE}

    def test_maybe_span_without_tracer_is_free(self):
        with maybe_span(None, SPAN_STORE_GET, "r-0"):
            pass  # must not raise, must not need a tracer

    def test_correlation_ids_are_unique(self):
        ids = {new_correlation_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(corr_id.startswith("r") for corr_id in ids)


# -- service harness --------------------------------------------------------------------


def service_config(tmp_path, **kwargs):
    kwargs.setdefault("store_dir", str(tmp_path / "store"))
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("request_timeout_s", 60.0)
    return ServiceConfig(**kwargs)


def run_service(tmp_path, scenario, **config_kwargs):
    async def main():
        service = SimulationService(service_config(tmp_path, **config_kwargs))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.drain("signal")

    return asyncio.run(main())


# -- /v1/events?since=N semantics -------------------------------------------------------


class TestEventsSince:
    """Regression pin: ``since`` is **exclusive** (seq strictly greater).

    Referenced by the docstrings of ``SimulationService.events_since``
    and ``ServiceServer._stream_events`` — renaming this class breaks
    that contract trail on purpose.
    """

    def test_since_is_exclusive_and_zero_returns_everything(
            self, test_kinds, tmp_path):
        async def scenario(service):
            await service.run_cell(
                kind_cell("instant", n=1), corr_id="req-a"
            )
            everything = await service.events_since(0)
            seqs = [event["seq"] for event in everything]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            pivot = seqs[len(seqs) // 2]
            tail = await service.events_since(pivot)
            # Strictly greater: the pivot event itself is never resent.
            assert [e["seq"] for e in tail] == [s for s in seqs if s > pivot]
            assert await service.events_since(seqs[-1], timeout_s=0.05) == []

        run_service(tmp_path, scenario)

    def test_every_event_is_stamped_with_the_originating_corr_id(
            self, test_kinds, tmp_path):
        async def scenario(service):
            await service.run_cell(
                kind_cell("instant", n=2), corr_id="req-b"
            )
            events = await service.events_since(0)
            by_type = {}
            for event in events:
                by_type.setdefault(event["type"], []).append(event)
            # The computed path publishes queued → record → request, all
            # carrying the leader's correlation ID.
            assert by_type["queued"][0]["corr_id"] == "req-b"
            assert by_type["record"][0]["corr_id"] == "req-b"
            assert by_type["request"][0]["corr_id"] == "req-b"
            # A store hit publishes a request event for its own corr_id.
            await service.run_cell(
                kind_cell("instant", n=2), corr_id="req-c"
            )
            events = await service.events_since(0)
            hits = [e for e in events if e.get("served") == "store"]
            assert hits and hits[-1]["corr_id"] == "req-c"

        run_service(tmp_path, scenario)


# -- zero-shadowing when telemetry is off -----------------------------------------------


class TestZeroShadow:
    def test_untraced_service_holds_no_tracer(self, test_kinds, tmp_path):
        async def scenario(service):
            assert service.tracer is None
            assert service.pool.tracer is None
            record, served = await service.run_cell(
                kind_cell("instant", n=3)
            )
            assert served == "computed"
            # The returned (and stored) record carries no transport
            # fields — byte-identical to the journal schema.
            assert "telemetry" not in record and "corr_id" not in record
            status = service.status()
            assert status["telemetry"] == {"tracing": False, "spans": 0}

        run_service(tmp_path, scenario)

    def test_batch_pool_records_carry_no_telemetry_fields(
            self, test_kinds, tmp_path):
        # The runner's batch path (sweeps, resume) never passes task
        # metadata: the journal schema must stay byte-identical to PR 5.
        pool = SupervisedPool(jobs=1)
        records = []
        pool.run([kind_cell("instant", n=4)], records.append)
        (record,) = records
        assert record["status"] == "ok"
        assert "telemetry" not in record
        assert "corr_id" not in record

    def test_traced_service_strips_transport_fields_from_responses(
            self, test_kinds, tmp_path):
        async def scenario(service):
            assert service.tracer is not None
            record, _ = await service.run_cell(
                kind_cell("instant", n=5), corr_id="req-t"
            )
            # Telemetry crossed the pipe (the tracer adopted it) but the
            # response record matches what a store hit will return.
            assert "telemetry" not in record and "corr_id" not in record
            hit, served = await service.run_cell(
                kind_cell("instant", n=5), corr_id="req-u"
            )
            assert served == "store" and hit == record
            names = {span.name for span in service.tracer.spans_for("req-t")}
            assert SPAN_WORKER_EXECUTE in names

        run_service(tmp_path, scenario, trace=True)


# -- the acceptance criterion: golden digests + merged timeline -------------------------


class TestGoldenThroughTracedService:
    def test_golden_sweep_traced_and_logged_is_bit_identical(self, tmp_path):
        """All 14 golden cells through a *traced, logging* service match
        the pinned digests, and one merged Perfetto document carries the
        service spans and the inner simulation events for the same
        request, linked by correlation ID."""
        stream = io.StringIO()
        handler = configure_logging(stream=stream)
        try:
            async def main():
                config = service_config(
                    tmp_path, jobs=2, request_timeout_s=600.0, trace=True
                )
                service = SimulationService(config)
                await service.start()
                try:
                    results = await service.run_cells(
                        golden_plan(), corr_id="golden"
                    )
                    digests = {}
                    for (record, served), gcell in zip(results, golden.CELLS):
                        assert record is not None and record["status"] == "ok"
                        assert served == "computed"
                        digests[golden.cell_id(gcell)] = record["digest"]
                    assert digests == golden.EXPECTED
                    return service.tracer
                finally:
                    await service.drain("signal")

            tracer = asyncio.run(main())
        finally:
            detach(handler)

        # Every member request produced an in-worker execute span and an
        # adopted simulation timeline (all golden cells are plain runs).
        for index in range(len(golden.CELLS)):
            corr_id = f"golden.{index}"
            names = {span.name for span in tracer.spans_for(corr_id)}
            assert SPAN_WORKER_EXECUTE in names, corr_id
            assert SPAN_ADMISSION_WAIT in names, corr_id
            assert SPAN_POOL_QUEUE in names, corr_id
            assert SPAN_STORE_GET in names, corr_id
            assert tracer.sim_trace_for(corr_id) is not None, corr_id

        # Perfetto round-trip: reconstruct the admission-wait and
        # worker-execute durations for one request from the exported span
        # args alone and compare them to the live spans, exactly.
        doc = tracer.chrome_trace()
        corr_id = "golden.0"
        durations = reconstruct_durations(doc, corr_id)
        live = {
            span.name: (span.start_ms, span.dur_ms)
            for span in tracer.spans_for(corr_id)
        }
        assert durations[SPAN_ADMISSION_WAIT] == live[SPAN_ADMISSION_WAIT]
        assert durations[SPAN_WORKER_EXECUTE] == live[SPAN_WORKER_EXECUTE]
        # ... and the same document holds that request's simulation rows.
        sim_rows = [
            row for row in doc["traceEvents"]
            if row.get("pid", 0) >= SIM_PID_BASE
            and row.get("args", {}).get("corr_id") == corr_id
            and row.get("ph") == "X"
        ]
        assert sim_rows, "no simulation events for golden.0 in the merge"

        # The structured log captured the run, every line parseable JSON.
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert lines
        parsed = [json.loads(line) for line in lines]
        assert any(entry["msg"] == "service started" for entry in parsed)
        assert any(entry["msg"] == "service drained" for entry in parsed)


# -- repro-sim top ----------------------------------------------------------------------


def sample_status():
    return {
        "draining": False,
        "telemetry": {"tracing": True, "spans": 42},
        "admission": {"limit": 8, "in_system": 2, "admitted": 10,
                      "rejected": 1},
        "pool": {"jobs": 2, "queue_depth": 3,
                 "utilization": {"0": 0.75, "1": 0.25},
                 "counters": {"crashes": 2, "respawns": 3}},
        "store": {"hit_ratio": 0.5, "resident": 7, "corrupt": 0},
        "requests": {"svc.requests": 11, "svc.served_store": 6,
                     "svc.served_computed": 4, "svc.request_timeouts": 1},
    }


def sample_metrics():
    registry = MetricsRegistry()
    hist = registry.histogram("svc.request_ms", REQUEST_BUCKETS_MS)
    for value in (0.5, 2.0, 40.0, 900.0):
        hist.observe(value)
    registry.histogram("runner.journal_fsync_ms", (1.0, 10.0)).observe(0.3)
    return registry.to_dict()


class TestTopConsole:
    def test_render_top_is_a_pure_frame(self):
        frame = render_top(sample_status(), sample_metrics(), width=100)
        assert "tracing: on (42 spans)" in frame
        assert "2/8 in system" in frame
        assert "queue depth 3" in frame and "crashes 2 respawns 3" in frame
        assert ("requests: 11   store=6 computed=4 coalesced=0"
                "   timeouts=1") in frame
        assert "w0:" in frame and "75.0% busy" in frame
        assert "50.0% hits" in frame and "resident 7 " in frame
        assert "latency: n=4" in frame and "p50=" in frame
        assert "store fsync: n=1" in frame
        assert all(len(line) <= 100 for line in frame.splitlines())

    def test_render_top_draining_service(self):
        status = dict(sample_status(), draining=True)
        frame = render_top(status, {"histograms": {}})
        assert "DRAINING" in frame

    def test_run_top_against_dead_port_fails_cleanly(self, capsys):
        # Port 1 is never listening on CI boxes; --once exits 1 with a
        # message, never a traceback.
        assert run_top(host="127.0.0.1", port=1, iterations=1) == 1
        assert "unreachable" in capsys.readouterr().out

    def test_run_top_once_against_live_service(self, test_kinds, tmp_path,
                                               capsys):
        from repro.svc import ServiceServer

        async def main():
            config = service_config(tmp_path, trace=True)
            service = SimulationService(config)
            server = ServiceServer(service, port=0)
            await server.start()
            try:
                cell = kind_cell("instant", n=9)
                await service.run_cell(cell)
                await service.run_cell(cell)
                port = server.bound_port
                code = await asyncio.to_thread(
                    run_top, "127.0.0.1", port, 0.01, 1
                )
                return code
            finally:
                await server.stop()
                await service.drain("signal")

        assert asyncio.run(main()) == 0
        # The service's own counter names reach the frame.
        frame = capsys.readouterr().out
        assert ("requests: 2   store=1 computed=1 coalesced=0"
                "   timeouts=0") in frame
