"""repro.svc units: store, breaker, admission, single-flight, service.

The chaos suite (``tests/test_svc_chaos.py``) attacks the crash windows;
this file pins the normal-operation semantics each component promises:
store hits are bit-identical and O(1), the breaker's state machine
follows closed → open → half-open → closed, admission rejects above the
limit, single-flight computes once for N concurrent waiters, and the
service composes them in the documented order.
"""

import asyncio
import json
import os

import pytest

from repro.obs import MetricsRegistry
from repro.runner import Cell, Journal
from repro.runner.execute import CELL_KINDS
from repro.svc import (
    AdmissionController,
    CircuitBreaker,
    CLOSED,
    HALF_OPEN,
    OPEN,
    Overloaded,
    RequestTimedOut,
    ResultStore,
    ServiceConfig,
    SimulationService,
    SingleFlight,
    SpecError,
    cell_from_spec,
)

from tests.test_runner import (
    FakeClock,
    _kind_always_crash,
    _kind_always_fail,
    _kind_instant,
    _kind_sleep,
    kind_cell,
    test_kinds,  # noqa: F401 — fixture re-export
)


def ok_record(config_hash, digest="digest-1", **extra):
    record = {
        "kind": "cell", "hash": config_hash, "cell_id": "t/p/d1/cscan",
        "status": "ok", "digest": digest, "wall_s": 0.01,
        "result": {"elapsed_ms": 1.5},
    }
    record.update(extra)
    return record


# -- ResultStore ------------------------------------------------------------------------


class TestResultStore:
    def test_miss_then_put_then_bit_identical_hit(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        assert store.get("h1") is None
        record = ok_record("h1", v=1)
        assert store.put("h1", record) is True
        got = store.get("h1")
        assert got == record
        assert store.hits == 1 and store.misses == 1
        assert store.hit_ratio == 0.5
        # One log: the store directory holds the run journal and nothing
        # else.
        assert os.listdir(str(tmp_path / "store")) == ["journal.jsonl"]
        store.close()

    def test_reopen_recovers_residency_from_log_and_files(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put("aaaa", ok_record("aaaa", digest="d-a"))
        store.put("bbbb", ok_record("bbbb", digest="d-b"))
        store.close()
        reopened = ResultStore(root)
        assert len(reopened) == 2
        assert "aaaa" in reopened and "bbbb" in reopened
        assert reopened.get("aaaa") == ok_record("aaaa", digest="d-a", v=1)

    def test_put_is_idempotent_for_identical_digest(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        record = ok_record("h1")
        assert store.put("h1", record) is True
        assert store.put("h1", dict(record)) is False
        assert store.writes == 1 and store.put_dedup == 1
        # Only one record ever reaches the journal: no duplicate
        # computation is recorded.
        assert len(store.journal.records()) == 1
        store.close()

    def test_rejects_failure_records_and_hash_mismatch(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ValueError, match="storable"):
            store.put("h1", {"hash": "h1", "status": "failed"})
        with pytest.raises(ValueError, match="!="):
            store.put("h1", ok_record("other"))

    def test_torn_result_file_is_quarantined_into_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("h0", ok_record("h0"))
        store.put("h1", ok_record("h1"))
        path = store.journal.journal_path
        with open(path, "rb") as handle:
            lines = handle.readlines()
        with open(path, "wb") as handle:
            handle.write(lines[0] + lines[1][: len(lines[1]) // 2])
        assert store.get("h1") is None
        assert store.corrupt == 1
        assert "h1" not in store  # dropped from the index: will recompute
        assert store.get("h0") is not None  # the earlier record stays
        # The recompute is appended afresh, after the fragment.
        assert store.put("h1", ok_record("h1")) is True
        store.close()
        reopened = ResultStore(str(tmp_path / "store"))
        assert reopened.get("h1") == ok_record("h1", v=1)
        assert reopened.stats()["skipped_log_lines"] == 1

    def test_wrong_hash_inside_file_is_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("h1", ok_record("h1"))
        with open(store.journal.journal_path, "w") as handle:
            handle.write(json.dumps(ok_record("h2"), sort_keys=True) + "\n")
        assert store.get("h1") is None
        assert store.corrupt == 1
        store.close()

    def test_malformed_log_lines_are_skipped_and_counted(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put("h1", ok_record("h1"))
        store.close()
        with open(os.path.join(root, "journal.jsonl"), "a") as handle:
            handle.write('{"kind": "cell", "hash": "h2", "dig\n')
        reopened = ResultStore(root)
        assert reopened.stats()["skipped_log_lines"] == 1
        assert len(reopened) == 1

    def test_stale_tmp_files_swept_at_first_put(self, tmp_path):
        # A sweep killed mid-manifest-write leaves .manifest.json.*.tmp;
        # the journal sweeps it when the store first writes.
        root = tmp_path / "store"
        root.mkdir()
        (root / ".manifest.json.1.tmp").write_text("{")
        store = ResultStore(str(root))
        store.put("h1", ok_record("h1"))
        store.close()
        assert store.journal.swept_tmp == 1
        assert os.listdir(str(root)) == ["journal.jsonl"]

    def test_latest_successful_record_wins(self, tmp_path):
        root = str(tmp_path / "store")
        journal = Journal(root)
        journal.append(ok_record("h1", digest="old"))
        journal.append({"kind": "cell", "hash": "h1", "status": "failed"})
        journal.append(ok_record("h1", digest="new"))
        journal.close()
        assert ResultStore(root).get("h1")["digest"] == "new"

    def test_counters_mirror_into_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(str(tmp_path / "store"), metrics=metrics)
        store.get("h1")
        store.put("h1", ok_record("h1"))
        store.get("h1")
        exported = metrics.to_dict()
        counters = exported["counters"]
        assert counters["svc.store.misses"] == 1
        assert counters["svc.store.writes"] == 1
        assert counters["svc.store.hits"] == 1
        # One fsync histogram for the one log.
        assert exported["histograms"]["runner.journal_fsync_ms"]["count"] == 1
        store.close()


class TestTornTailRestart:
    def test_restart_after_torn_tail_keeps_the_next_result(
            self, test_kinds, tmp_path):
        """A service restarted over a torn final line stores its next
        result on a fresh line, so one more restart still serves it."""
        store_dir = str(tmp_path / "store")

        def serve(cell):
            async def main():
                service = SimulationService(
                    ServiceConfig(store_dir=store_dir, jobs=1)
                )
                await service.start()
                try:
                    return await service.run_cell(cell)
                finally:
                    await service.drain("signal")

            return asyncio.run(main())

        first, second = kind_cell("instant", n=1), kind_cell("instant", n=2)
        serve(first)
        with open(os.path.join(store_dir, "journal.jsonl"), "ab") as handle:
            handle.write(b'{"kind": "cell", "hash": "torn", "sta')
        record, served = serve(second)
        assert served == "computed"
        again, served = serve(second)
        assert served == "store" and again == record
        assert serve(first)[1] == "store"


# -- CircuitBreaker ---------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout_s", 30.0)
        return CircuitBreaker(clock=clock, **kwargs)

    def test_trips_after_consecutive_failures_only(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_probe_after_cooldown_then_close_on_success(self):
        clock = FakeClock(now=0.0)
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(29.9)
        assert not breaker.allow()
        assert breaker.retry_after_s == pytest.approx(0.1)
        clock.advance(0.1)
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # second request: probe slot taken
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_for_full_cooldown(self):
        clock = FakeClock(now=0.0)
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(29.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()

    def test_stale_probe_unblocks_after_another_cooldown(self):
        clock = FakeClock(now=0.0)
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()  # probe claimed, outcome never reported
        clock.advance(29.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()  # a new probe may go

    def test_metrics_record_transitions_and_state(self):
        metrics = MetricsRegistry()
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=clock, metrics=metrics)
        breaker.record_failure()
        assert metrics.to_dict()["gauges"]["svc.breaker.state"]["value"] == 2.0
        clock.advance(5.0)
        breaker.allow()
        breaker.record_success()
        counters = metrics.to_dict()["counters"]
        assert counters["svc.breaker.to_open"] == 1
        assert counters["svc.breaker.to_half_open"] == 1
        assert counters["svc.breaker.to_closed"] == 1


# -- AdmissionController ----------------------------------------------------------------


class TestAdmission:
    def test_rejects_above_limit_until_release(self):
        admission = AdmissionController(limit=2)
        assert admission.admit(0.0, 1)[0] and admission.admit(0.0, 1)[0]
        assert admission.admit(0.0, 1) == (False, "queue_full", 1.0)
        assert admission.rejected == 1
        admission.release()
        assert admission.admit(0.0, 1)[0]
        assert admission.status()["in_system"] == 2

    def test_release_never_goes_negative(self):
        admission = AdmissionController(limit=1)
        admission.release()
        assert admission.in_system == 0
        assert admission.available == 1

    def test_limit_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            AdmissionController(limit=0)


# -- SingleFlight -----------------------------------------------------------------------


class TestSingleFlight:
    def test_one_leader_many_followers_one_result(self):
        async def scenario():
            flights = SingleFlight()
            f1, lead1 = flights.join("k")
            f2, lead2 = flights.join("k")
            assert lead1 and not lead2
            assert f1 is f2
            assert flights.resolve("k", {"answer": 42}) is True
            assert await f1 == {"answer": 42}
            assert "k" not in flights

        asyncio.run(scenario())

    def test_last_leaver_drops_the_flight(self):
        async def scenario():
            flights = SingleFlight()
            flights.join("k")
            flights.join("k")
            assert flights.leave("k") == 1  # one waiter remains
            assert "k" in flights
            assert flights.leave("k") == 0  # last leaver: flight dropped
            assert "k" not in flights
            # A late resolve is benign (the cancelled-then-completed race).
            assert flights.resolve("k", {}) is False

        asyncio.run(scenario())


# -- spec validation --------------------------------------------------------------------


class TestCellFromSpec:
    def test_minimal_spec_builds_a_cell(self):
        cell = cell_from_spec({"trace": "ld", "policy": "demand", "disks": 2})
        assert isinstance(cell, Cell)
        assert cell.cell_id == "ld/demand/d2/cscan"

    def test_int_scale_coerces_to_float(self):
        cell = cell_from_spec(
            {"trace": "ld", "policy": "demand", "disks": 1, "scale": 1}
        )
        assert cell.scale == 1.0

    @pytest.mark.parametrize("spec,message", [
        ("nope", "must be a JSON object"),
        ({"trace": "ld"}, "missing required"),
        ({"trace": "ld", "policy": "demand", "disks": 1, "bogus": 1},
         "unknown cell field"),
        ({"trace": "ld", "policy": "demand", "disks": "two"},
         "must be int"),
        ({"trace": "ld", "policy": "demand", "disks": True},
         "must be int"),
        ({"trace": "nope", "policy": "demand", "disks": 1},
         "unknown trace"),
        ({"trace": "ld", "policy": "nope", "disks": 1},
         "unknown policy"),
        # Values SimConfig refuses are refused here, before any dispatch.
        ({"trace": "ld", "policy": "demand", "disks": 0}, "disks"),
        ({"trace": "ld", "policy": "demand", "disks": 1, "cpu_speedup": -1.0},
         "cpu_speedup"),
        ({"trace": "ld", "policy": "demand", "disks": 1, "cpu_speedup": 0},
         "cpu_speedup"),
        ({"trace": "ld", "policy": "demand", "disks": 1, "cache_blocks": 0},
         "cache_blocks"),
        ({"trace": "ld", "policy": "demand", "disks": 1,
          "discipline": "bogus"}, "discipline"),
        ({"trace": "ld", "policy": "demand", "disks": 1, "disk_model": "nope"},
         "disk_model"),
        ({"trace": "ld", "policy": "demand", "disks": 1,
          "config_overrides": {"placement": "nope"}}, "placement"),
        ({"trace": "ld", "policy": "forestall", "disks": 1,
          "config_overrides": {"driver_overhead_ms": -0.5}},
         "driver_overhead_ms"),
        ({"trace": "ld", "policy": "demand", "disks": 1,
          "config_overrides": {"disk_model": "simple",
                               "simple_access_ms": float("nan")}},
         "simple_access_ms"),
    ])
    def test_bad_specs_raise_spec_error(self, spec, message):
        with pytest.raises(SpecError, match=message):
            cell_from_spec(spec)


# -- SimulationService ------------------------------------------------------------------


def service_config(tmp_path, **kwargs):
    kwargs.setdefault("store_dir", str(tmp_path / "store"))
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("request_timeout_s", 60.0)
    return ServiceConfig(**kwargs)


def run_service(tmp_path, scenario, **config_kwargs):
    """Start a service, run the async scenario, always drain."""
    async def main():
        service = SimulationService(service_config(tmp_path, **config_kwargs))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.drain("signal")

    return asyncio.run(main())


class TestSimulationService:
    def test_compute_then_store_hit_bit_identical(self, test_kinds, tmp_path):
        async def scenario(service):
            cell = kind_cell("instant", n=7)
            first, served1 = await service.run_cell(cell)
            second, served2 = await service.run_cell(cell)
            assert served1 == "computed" and served2 == "store"
            assert first == second  # byte-for-byte the same record
            assert first["digest"] == "digest-7"
            assert service.store.writes == 1

        run_service(tmp_path, scenario)

    def test_concurrent_identical_requests_coalesce(self, test_kinds, tmp_path):
        async def scenario(service):
            cell = kind_cell("sleep", sleep_s=0.3)
            results = await asyncio.gather(
                service.run_cell(cell), service.run_cell(cell),
                service.run_cell(cell),
            )
            served = sorted(s for _, s in results)
            assert served == ["coalesced", "coalesced", "computed"]
            records = [r for r, _ in results]
            assert records[0] == records[1] == records[2]
            # One computation, one store write, one admission slot.
            assert service.pool.counters["dispatched"] == 1
            assert service.store.writes == 1
            assert service.admission.admitted == 1

        run_service(tmp_path, scenario)

    def test_deterministic_failure_served_not_stored_not_breaking(
            self, test_kinds, tmp_path):
        async def scenario(service):
            record, served = await service.run_cell(kind_cell("always-fail"))
            assert served == "computed"
            assert record["status"] == "failed"
            assert record["failure"] == "exception"
            # Not cached: a failure is not a result.
            assert len(service.store) == 0
            # And not a breaker strike: the worker executed correctly.
            assert service.breaker.state == CLOSED
            assert service.breaker.consecutive_failures == 0

        run_service(tmp_path, scenario)

    def test_crashes_trip_the_breaker_and_reject_503(self, test_kinds, tmp_path):
        async def scenario(service):
            for n in range(2):
                record, _ = await service.run_cell(
                    kind_cell("always-crash", n=n)
                )
                assert record["failure"] == "crash"
            assert service.breaker.state == OPEN
            with pytest.raises(Overloaded) as exc_info:
                await service.run_cell(kind_cell("instant", n=1))
            assert exc_info.value.status == 503
            assert exc_info.value.retry_after_s > 0
            # The rejected cell never reached the pool.
            assert service.pool.counters["dispatched"] == 2 * 2  # 1 + retry

        run_service(tmp_path, scenario, breaker_failures=2, max_retries=1,
                    retry_backoff_s=0.05)

    def test_admission_rejects_429_beyond_queue_limit(self, test_kinds, tmp_path):
        async def scenario(service):
            slow = [kind_cell("sleep", sleep_s=0.5, n=n) for n in range(2)]
            tasks = [asyncio.ensure_future(service.run_cell(c)) for c in slow]
            await asyncio.sleep(0.05)  # both admitted (limit 2, jobs 1)
            with pytest.raises(Overloaded) as exc_info:
                await service.run_cell(kind_cell("instant", n=9))
            assert exc_info.value.status == 429
            for record, _ in await asyncio.gather(*tasks):
                assert record["status"] == "ok"
            # Slots released on completion: the same request now admits.
            record, _ = await service.run_cell(kind_cell("instant", n=9))
            assert record["status"] == "ok"

        run_service(tmp_path, scenario, queue_limit=2)

    def test_request_timeout_cancels_pool_work(self, test_kinds, tmp_path):
        async def scenario(service):
            stuck = kind_cell("sleep", sleep_s=60.0)
            with pytest.raises(RequestTimedOut):
                await service.run_cell(stuck)
            # The flight is gone and the pool was told to cancel.
            assert stuck.config_hash not in service.flights
            deadline = asyncio.get_event_loop().time() + 30.0
            while service.admission.in_system > 0:
                assert asyncio.get_event_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert service.pool.counters["cancelled"] == 1
            # The worker was respawned: new work completes fine.
            record, _ = await service.run_cell(kind_cell("instant", n=3))
            assert record["status"] == "ok"

        run_service(tmp_path, scenario, request_timeout_s=0.3)

    def test_one_timed_out_waiter_does_not_sink_the_others(
            self, test_kinds, tmp_path):
        async def scenario(service):
            cell = kind_cell("sleep", sleep_s=0.5)

            async def impatient():
                return await service.run_cell(cell, timeout_s=0.1)

            async def patient():
                await asyncio.sleep(0.02)  # join as a follower
                return await service.run_cell(cell)

            results = await asyncio.gather(
                impatient(), patient(), return_exceptions=True
            )
            assert isinstance(results[0], RequestTimedOut)
            record, served = results[1]
            assert record["status"] == "ok"
            # The patient waiter kept the flight alive: no cancellation.
            assert service.pool.counters["cancelled"] == 0

        run_service(tmp_path, scenario)

    def test_draining_rejects_new_requests(self, test_kinds, tmp_path):
        async def scenario(service):
            service.draining = True
            with pytest.raises(Overloaded) as exc_info:
                await service.run_cell(kind_cell("instant", n=1))
            assert exc_info.value.status == 503

        run_service(tmp_path, scenario)

    def test_run_cells_bundle_mixes_hits_and_computes(self, test_kinds, tmp_path):
        async def scenario(service):
            warm = kind_cell("instant", n=1)
            await service.run_cell(warm)
            results = await service.run_cells(
                [warm, kind_cell("instant", n=2)]
            )
            assert [served for _, served in results] == ["store", "computed"]
            events = await service.events_since(0, timeout_s=0.1)
            assert any(e["type"] == "record" for e in events)

        run_service(tmp_path, scenario)

    def test_drain_returns_resumable_exit_codes(self, test_kinds, tmp_path):
        async def main():
            service = SimulationService(service_config(tmp_path))
            await service.start()
            assert await service.drain("deadline") == 76
            # Drain is idempotent.
            assert await service.drain("deadline") == 76

        asyncio.run(main())

    def test_status_surfaces_all_components(self, test_kinds, tmp_path):
        async def scenario(service):
            await service.run_cell(kind_cell("instant", n=1))
            status = service.status()
            assert status["breaker"]["state"] == CLOSED
            assert status["admission"]["limit"] == service.admission.limit
            assert status["store"]["writes"] == 1
            assert status["pool"]["counters"]["ok"] == 1
            assert status["requests"]["svc.served_computed"] == 1

        run_service(tmp_path, scenario)


class TestEventPublishTaskRefs:
    """Regression: `_publish` used to fire-and-forget its notify task.

    The event loop keeps only weak references to tasks, so an
    unreferenced `ensure_future(_notify(cond))` could be garbage
    collected before waking streaming readers (simlint SL012 caught
    this).  The service must hold a strong reference until the task
    completes, then drop it.
    """

    def test_publish_holds_strong_reference_until_notify_runs(self, tmp_path):
        async def scenario(service):
            before = len(service._events)
            service._publish({"type": "probe"})
            # The notify task is pinned while pending ...
            assert service._notify_tasks
            for _ in range(10):
                if not service._notify_tasks:
                    break
                await asyncio.sleep(0)
            # ... and released once done (no unbounded growth).
            assert not service._notify_tasks
            events = await service.events_since(before, timeout_s=0.1)
            assert any(e["type"] == "probe" for e in events)

        run_service(tmp_path, scenario)

    def test_waiter_is_woken_by_publish(self, tmp_path):
        async def scenario(service):
            seq = service._event_seq

            async def waiter():
                return await service.events_since(seq, timeout_s=5.0)

            task = asyncio.create_task(waiter())
            await asyncio.sleep(0)  # park the waiter on the condition
            service._publish({"type": "wake"})
            events = await asyncio.wait_for(task, 5.0)
            assert any(e["type"] == "wake" for e in events)

        run_service(tmp_path, scenario)
