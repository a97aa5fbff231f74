"""An in-process mini-soak: the hardened server behind a fault-injecting
:class:`ChaosProxy`, driven by the open-loop load generator.

This is the pytest-sized sibling of ``scripts/soak_smoke.py`` (which
runs the real thing across processes in CI).  The invariants are the
ones that define "shaped, not collapsed" overload behaviour:

* no result is ever lost or duplicated — every digest observed for a
  config hash is the same digest, and it is the *correct* one;
* every connection the proxy opened is closed again (no leaks);
* the whole run is reproducible from its seeds: same loadgen plan
  fingerprint, same chaos plan counts;
* the Prometheus exposition stays structurally valid mid-chaos and the
  request counter is monotone;
* overload answers are 4xx + Retry-After, never a 5xx from resource
  exhaustion.
"""

import asyncio

from repro.loadgen import LoadgenConfig, build_plan, run_loadgen
from repro.obs.prom import validate_exposition
from repro.svc import (
    ChaosProxy,
    NetChaosSchedule,
    ProtocolLimits,
    ServiceConfig,
    ServiceServer,
    SimulationService,
)

from tests.test_runner import test_kinds  # noqa: F401
from tests.test_svc_http import fetch


INSTANT_SPEC = {"trace": "ld", "policy": "demand", "disks": 1,
                "kind": "instant", "params": {"n": 7}}
EXPECTED_DIGEST = "digest-7"

CHAOS = dict(seed=42, reset_fraction=0.15, slowloris_fraction=0.1,
             throttle_fraction=0.15, latency_ms=1.0, jitter_ms=2.0,
             reset_after_bytes=128, throttle_bytes_per_s=65536.0,
             chunk_bytes=512, drip_chunk_bytes=32, drip_delay_ms=2.0)

LOAD = dict(rate_per_s=40.0, duration_s=1.5, seed=7,
            mix={"cells": 0.5, "results": 0.3, "status": 0.2})


def soak(scenario, tmp_path, **config_kwargs):
    """loadgen → ChaosProxy → ServiceServer, all in one event loop."""

    async def main():
        config = ServiceConfig(store_dir=str(tmp_path / "store"), jobs=1,
                               **config_kwargs)
        service = SimulationService(config)
        server = ServiceServer(service, port=0)
        await server.start()
        proxy = ChaosProxy("127.0.0.1", server.bound_port,
                           NetChaosSchedule(**CHAOS))
        await proxy.start()
        try:
            return await scenario(service, server, proxy)
        finally:
            await proxy.stop()
            await server.stop()
            await service.drain("signal")

    return asyncio.run(main())


class TestMiniSoak:
    def test_invariants_hold_under_seeded_chaos(self, test_kinds, tmp_path):
        async def scenario(service, server, proxy):
            config = LoadgenConfig(port=proxy.bound_port,
                                   specs=[dict(INSTANT_SPEC)], **LOAD)
            report = await run_loadgen(config)

            # -- nothing lost, nothing duplicated -----------------------
            assert report["digest_conflicts"] == []
            for digests in report["digests"].values():
                assert digests == [EXPECTED_DIGEST]

            # -- the run accounted for every planned arrival ------------
            arrivals = report["plan"]["arrivals"]
            assert arrivals > 0
            assert report["completed"] == arrivals
            answered = sum(report["status_counts"].values())
            errored = sum(report["errors"].values())
            assert answered + errored == arrivals
            # Chaos (resets, drops) produces client-side errors, but a
            # healthy majority of requests still complete.
            assert answered > arrivals // 2

            # -- overload is shaped, never collapsed --------------------
            for status in report["status_counts"]:
                assert not status.startswith("5"), (
                    f"5xx under chaos: {report['status_counts']}"
                )

            # -- every proxied connection was closed again --------------
            for _ in range(100):
                if proxy.open_connections == 0:
                    break
                await asyncio.sleep(0.05)
            assert proxy.open_connections == 0
            assert proxy.counters["closed"] == proxy.counters["connections"]
            assert proxy.counters["connections"] == \
                arrivals - report["chaos_dropped"]

            # -- telemetry stayed valid mid-chaos -----------------------
            status, headers, text = await fetch(
                server.bound_port, "GET", "/v1/metrics",
                extra_headers={"Accept": "text/plain"},
            )
            assert status == 200
            assert validate_exposition(text) == []
            assert "repro_svc_requests_total" in text

            # -- the request counter is monotone ------------------------
            first = service.metrics.to_dict()["counters"].get(
                "svc.requests", 0
            )
            status, _, _ = await fetch(
                server.bound_port, "POST", "/v1/cells", INSTANT_SPEC,
            )
            assert status == 200
            second = service.metrics.to_dict()["counters"].get(
                "svc.requests", 0
            )
            assert second == first + 1

            return report

        report = soak(scenario, tmp_path)
        # The chaos actually bit: the proxy injected at least one of
        # each configured fault class over this many connections.
        assert report["plan"]["arrivals"] >= 30

    def test_run_is_reproducible_from_its_seeds(self, test_kinds, tmp_path):
        load = LoadgenConfig(port=1, specs=[dict(INSTANT_SPEC)], **LOAD)
        plan_a, print_a = build_plan(load)
        plan_b, print_b = build_plan(
            LoadgenConfig(port=2, specs=[dict(INSTANT_SPEC)], **LOAD)
        )
        # The loadgen plan is pure in its seed — the port (or any other
        # runtime detail) never leaks into the timetable.
        assert plan_a == plan_b and print_a == print_b
        # The chaos schedule's fault fingerprint is equally pure.
        connections = len(plan_a)
        assert NetChaosSchedule(**CHAOS).plan_counts(connections) == \
            NetChaosSchedule(**CHAOS).plan_counts(connections)

    def test_queue_limited_soak_sheds_deterministically(
            self, test_kinds, tmp_path):
        """With the one admission slot held by a cell that outlasts the
        run, exactly one compute request is admitted and every other
        distinct cell is refused 429 — reproducible shed accounting
        under chaos."""
        specs = [
            {"trace": "ld", "policy": "demand", "disks": 1, "kind": "sleep",
             "params": {"sleep_s": 2.0, "n": n}}
            for n in range(16)
        ]

        async def scenario(service, server, proxy):
            config = LoadgenConfig(port=proxy.bound_port, specs=specs,
                                   **LOAD)
            report = await run_loadgen(config)
            cell_statuses = report["kind_status"].get("cells", {})
            cells_sent = sum(cell_statuses.values())
            # Every cell request that got an answer either shared the
            # admitted cell (200) or was refused by the full queue.
            admitted = cell_statuses.get("200", 0)
            limited = cell_statuses.get("429", 0)
            assert service.admission.admitted == 1
            assert limited == cells_sent - admitted
            assert service.admission.rejected >= limited
            assert report["shed"].get("429", 0) == limited
            assert report["retry_after_present"] >= limited
            return report

        soak(scenario, tmp_path, queue_limit=1, limits=ProtocolLimits())
