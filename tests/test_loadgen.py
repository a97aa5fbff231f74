"""The open-loop load generator (src/repro/loadgen.py): seeded plan
determinism, request mapping, and a short live run against the service.
"""

import asyncio
import json

import pytest

from repro.loadgen import (
    DEFAULT_MIX,
    Arrival,
    LoadgenConfig,
    _Report,
    _request_for,
    build_plan,
    run_loadgen,
)
from repro.svc import NetChaosSchedule, ServiceConfig, ServiceServer, \
    SimulationService
from repro.svc.service import cell_from_spec

from tests.test_runner import test_kinds  # noqa: F401


INSTANT_SPEC = {"trace": "ld", "policy": "demand", "disks": 1,
                "kind": "instant", "params": {"n": 7}}


class TestBuildPlan:
    def test_same_seed_same_plan_and_fingerprint(self):
        config = LoadgenConfig(rate_per_s=50.0, duration_s=2.0, seed=9)
        plan_a, print_a = build_plan(config)
        plan_b, print_b = build_plan(
            LoadgenConfig(rate_per_s=50.0, duration_s=2.0, seed=9)
        )
        assert plan_a == plan_b
        assert print_a == print_b

    def test_different_seed_different_fingerprint(self):
        base = dict(rate_per_s=50.0, duration_s=2.0)
        _, print_a = build_plan(LoadgenConfig(seed=1, **base))
        _, print_b = build_plan(LoadgenConfig(seed=2, **base))
        assert print_a != print_b

    def test_arrivals_respect_rate_and_duration(self):
        config = LoadgenConfig(rate_per_s=100.0, duration_s=3.0, seed=4)
        arrivals, _ = build_plan(config)
        assert all(0.0 < a.at_s < 3.0 for a in arrivals)
        assert [a.index for a in arrivals] == list(range(len(arrivals)))
        # Open loop at rate R for D seconds: ~R*D arrivals.
        assert 200 <= len(arrivals) <= 400

    def test_mix_controls_the_kind_distribution(self):
        config = LoadgenConfig(rate_per_s=200.0, duration_s=2.0, seed=0,
                               mix={"cells": 1.0})
        arrivals, _ = build_plan(config)
        assert arrivals and all(a.kind == "cells" for a in arrivals)


class TestConfigValidation:
    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            LoadgenConfig(rate_per_s=0.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            LoadgenConfig(duration_s=-1.0)

    def test_unknown_mix_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mix kind"):
            LoadgenConfig(mix={"cells": 0.5, "teapots": 0.5})

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            LoadgenConfig(mix={})

    def test_zero_weight_mix_rejected(self):
        with pytest.raises(ValueError, match="sum to > 0"):
            LoadgenConfig(mix={"cells": 0.0})

    def test_default_mix_is_valid(self):
        assert LoadgenConfig().mix == DEFAULT_MIX


class TestRequestMapping:
    def test_cells_is_a_post(self):
        config = LoadgenConfig(specs=[dict(INSTANT_SPEC)])
        method, path, body = _request_for(
            config, Arrival(0, 0.0, "cells", 0)
        )
        assert (method, path) == ("POST", "/v1/cells")
        assert json.loads(body) == INSTANT_SPEC

    def test_results_targets_the_spec_hash(self):
        config = LoadgenConfig(specs=[dict(INSTANT_SPEC)])
        method, path, body = _request_for(
            config, Arrival(0, 0.0, "results", 0)
        )
        expected = cell_from_spec(INSTANT_SPEC).config_hash
        assert (method, body) == ("GET", None)
        assert path == f"/v1/results/{expected}"

    def test_read_kinds_are_gets(self):
        config = LoadgenConfig()
        for kind, path in (("status", "/v1/status"),
                           ("metrics", "/v1/metrics"),
                           ("healthz", "/v1/healthz")):
            method, got, body = _request_for(
                config, Arrival(0, 0.0, kind, 0)
            )
            assert (method, got, body) == ("GET", path, None)


class TestReportLedger:
    def test_digest_ledger_collects_per_hash(self):
        report = _Report()
        payload = {"record": {"hash": "h1", "digest": "d1", "status": "ok"}}
        report.record("cells", 200, 5.0, {}, payload)
        report.record("cells", 200, 6.0, {}, payload)
        assert report.digests == {"h1": {"d1"}}

    def test_conflicting_digests_are_visible(self):
        report = _Report()
        report.record("cells", 200, 5.0, {},
                      {"record": {"hash": "h1", "digest": "d1"}})
        report.record("results", 200, 5.0, {},
                      {"record": {"hash": "h1", "digest": "d2"}})
        assert report.digests["h1"] == {"d1", "d2"}

    def test_retry_after_counted(self):
        report = _Report()
        report.record("cells", 429, 1.0, {"retry-after": "2"}, {})
        assert report.retry_after_present == 1
        assert report.status_counts == {"429": 1}


def loadgen_test(scenario, tmp_path, **config_kwargs):
    """Run ``scenario(service, port)`` with a live hardened server."""

    async def main():
        config = ServiceConfig(store_dir=str(tmp_path / "store"), jobs=1,
                               **config_kwargs)
        service = SimulationService(config)
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await scenario(service, server.bound_port)
        finally:
            await server.stop()
            await service.drain("signal")

    return asyncio.run(main())


class TestLiveRun:
    def test_run_produces_a_consistent_report(self, test_kinds, tmp_path):
        async def scenario(service, port):
            config = LoadgenConfig(
                port=port, rate_per_s=40.0, duration_s=1.0, seed=3,
                mix={"cells": 0.4, "results": 0.3, "healthz": 0.3},
                specs=[dict(INSTANT_SPEC)],
            )
            report = await run_loadgen(config)
            _, fingerprint = build_plan(config)
            assert report["plan"]["fingerprint"] == fingerprint
            assert report["plan"]["arrivals"] > 0
            total = sum(report["status_counts"].values())
            errors = sum(report["errors"].values())
            assert total + errors == report["plan"]["arrivals"]
            assert report["completed"] == report["plan"]["arrivals"]
            # Instant cells all succeed; every digest agrees.
            assert report["digest_conflicts"] == []
            assert report["status_counts"].get("200", 0) > 0
            for kind, summary in report["latency_ms"].items():
                assert summary["p50_ms"] <= summary["p99_ms"] <= \
                    summary["max_ms"]
            return report

        loadgen_test(scenario, tmp_path)

    def test_client_side_chaos_drops_are_deterministic(
            self, test_kinds, tmp_path):
        async def scenario(service, port):
            chaos = NetChaosSchedule(seed=5, drop_fraction=1.0)
            config = LoadgenConfig(
                port=port, rate_per_s=30.0, duration_s=0.5, seed=1,
                mix={"healthz": 1.0}, chaos=chaos,
            )
            report = await run_loadgen(config)
            # Every planned connection was dropped client-side; the
            # server never saw a request.
            assert report["chaos_dropped"] == report["plan"]["arrivals"]
            assert report["status_counts"] == {}
            assert report["plan"]["chaos"]["drop_fraction"] == 1.0
            return report

        loadgen_test(scenario, tmp_path)

    def test_shed_statuses_surface_in_the_report(self, test_kinds, tmp_path):
        async def scenario(service, port):
            specs = [
                {"trace": "ld", "policy": "demand", "disks": 1,
                 "kind": "sleep", "params": {"sleep_s": 0.5, "n": n}}
                for n in range(32)
            ]
            config = LoadgenConfig(
                port=port, rate_per_s=60.0, duration_s=1.0, seed=2,
                mix={"cells": 1.0}, specs=specs,
            )
            report = await run_loadgen(config)
            # One admission slot, each cell holding it for 0.5 s: nearly
            # every distinct compute request is refused 429.
            assert report["shed"].get("429", 0) > 0
            assert report["retry_after_present"] > 0
            assert report["digest_conflicts"] == []
            return report

        loadgen_test(scenario, tmp_path, queue_limit=1)
