"""repro.obs: the observability layer.

Four guarantees under test:

1. **Read-only** — every golden-digest cell produces a bit-identical
   result with an :class:`~repro.obs.Observer` attached.
2. **One seam** — the observer is a sink of the engine's events: an
   unobserved simulator has no sink, and no simulator, array or policy
   method is ever shadowed on the instance.
3. **Exact stall attribution** — per-cause stall times sum back to
   ``stall_ms`` with residual below ``1e-6`` ms (relative) on every
   policy × trace × discipline cell, healthy or faulted.
4. **Faithful export** — the Chrome ``trace_event`` timeline re-parses to
   the same busy time, utilization, and event counts the simulation
   reported (mirroring ``bench_table4_utilization``'s inputs).
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.experiments import ExperimentSetting, run_one
from repro.analysis.tables import format_stall_table, format_utilization_table
from repro.core import MultiProcessSimulator, SimConfig, Simulator, make_policy
from repro.faults import DiskFailure, FaultSchedule
from repro.runner.execute import result_digest
from repro.trace import Trace
from repro.obs import (
    Observer,
    STALL_CAUSES,
    chrome_trace,
    iter_jsonl_rows,
    render_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.core import events as ev
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, occupancy_buckets
from repro.trace import build as build_workload, cache_blocks_for

from tests.conftest import make_trace, simple_config
from tests.test_golden_results import CELLS, EXPECTED, cell_id, run_cell

FIVE_POLICIES = (
    "demand", "fixed-horizon", "aggressive", "reverse-aggressive", "forestall"
)


def observed_run(trace_name, policy, disks, scale=0.2, observer=None, **over):
    """One observed simulation at test scale; returns (result, observer)."""
    if observer is None:
        observer = Observer()
    result = run_one(
        ExperimentSetting(scale=scale), trace_name, policy, disks,
        config_overrides=over or None, observer=observer,
    )
    return result, observer


# -- guarantee 1: observed runs are bit-identical ---------------------------------------


class TestGoldenWithObserver:
    @pytest.mark.parametrize("cell", CELLS, ids=cell_id)
    def test_digest_unchanged_with_observer(self, cell):
        assert run_cell(cell, observer=Observer()) == EXPECTED[cell_id(cell)]


# -- guarantee 2: one seam ----------------------------------------------------------------

#: Methods an earlier observer shadowed on the instances; none may be.
SHADOWED_SIM = (
    "_app_step", "_wake_app", "_disk_complete", "_fault_complete",
    "_retry_fetch", "_abandon_fetch", "issue_fetch", "write_allocate",
    "_build_result",
)
SHADOWED_ARRAY = ("submit", "start_next")
SHADOWED_POLICY = ("before_reference", "on_disk_idle", "on_miss", "on_evict")


def assert_no_shadows(sim):
    for name in SHADOWED_SIM:
        assert name not in sim.__dict__, name
    for name in SHADOWED_ARRAY:
        assert name not in sim.array.__dict__, name
    for name in SHADOWED_POLICY:
        assert name not in sim.policy.__dict__, name


class TestZeroOverhead:
    def test_unobserved_simulator_has_no_shadows(self):
        trace = make_trace([0, 1, 2, 3] * 4)
        sim = Simulator(trace, make_policy("demand"), 1, simple_config())
        sim.run()
        assert sim.sink is None
        assert_no_shadows(sim)

    def test_observed_simulator_emits_to_its_sink(self):
        trace = make_trace([0, 1, 2, 3] * 4)
        observer = Observer()
        sim = Simulator(trace, make_policy("demand"), 1, simple_config(),
                        observer=observer)
        assert sim.sink is observer
        sim.run()
        assert_no_shadows(sim)
        assert observer.events and all(e.pid == 0 for e in observer.events)

    def test_timeline_and_observer_share_one_stream(self):
        trace = make_trace([0, 1, 2, 3] * 4)
        config = simple_config().with_(record_timeline=True)
        observer = Observer()
        sim = Simulator(trace, make_policy("demand"), 1, config,
                        observer=observer)
        sim.run()
        assert sim.sink is not observer and sim.sink is not sim.timeline
        fetches = [e for e in observer.events if e.kind == ev.FETCH_ISSUE]
        assert [(t, b, d) for t, k, b, d in sim.timeline.events
                if k == "fetch"] == [(e.t_ms, e.block, e.disk) for e in fetches]

    def test_observer_attaches_exactly_once(self):
        observer = Observer()
        trace = make_trace([0, 1, 2, 3])
        Simulator(trace, make_policy("demand"), 1, simple_config(),
                  observer=observer)
        with pytest.raises(RuntimeError, match="exactly one"):
            Simulator(trace, make_policy("demand"), 1, simple_config(),
                      observer=observer)


# -- guarantee 3: stall attribution is exact --------------------------------------------


def assert_attribution_exact(result, episodes):
    breakdown = result.stall_breakdown
    assert set(breakdown) == set(STALL_CAUSES)
    assert all(ms >= 0.0 for ms in breakdown.values())
    residual = abs(result.stall_ms - math.fsum(breakdown.values()))
    assert residual <= 1e-6 * max(1.0, result.stall_ms)
    # Episode records tell the same story as the per-cause totals.
    by_episode = {cause: 0.0 for cause in STALL_CAUSES}
    for episode in episodes:
        by_episode[episode.cause] += episode.duration_ms
    for cause in STALL_CAUSES:
        assert by_episode[cause] == pytest.approx(breakdown[cause], abs=1e-9)


class TestStallAttribution:
    @pytest.mark.parametrize("policy", FIVE_POLICIES)
    @pytest.mark.parametrize("trace_name", ("ld", "cscope1"))
    @pytest.mark.parametrize("discipline", ("cscan", "fcfs"))
    def test_residual_vanishes_on_grid(self, policy, trace_name, discipline):
        result, observer = observed_run(
            trace_name, policy, 2, discipline=discipline
        )
        assert_attribution_exact(result, observer.stall_episodes)
        # Healthy hardware: the fault buckets stay empty.
        assert result.stall_breakdown[ev.CAUSE_FAULT_RETRY] == 0.0
        assert result.stall_breakdown[ev.CAUSE_FAILOVER] == 0.0

    def test_demand_policy_stalls_are_demand_misses(self):
        result, observer = observed_run("ld", "demand", 2)
        assert_attribution_exact(result, observer.stall_episodes)
        breakdown = result.stall_breakdown
        assert breakdown[ev.CAUSE_DEMAND_MISS] == pytest.approx(
            result.stall_ms, rel=1e-9
        )
        assert breakdown[ev.CAUSE_PREFETCH_TOO_LATE] == 0.0

    def test_prefetchers_stall_on_late_prefetches(self):
        result, observer = observed_run("ld", "forestall", 2)
        assert_attribution_exact(result, observer.stall_episodes)
        breakdown = result.stall_breakdown
        if result.stall_ms > 0:
            assert breakdown[ev.CAUSE_PREFETCH_TOO_LATE] > 0.0

    def test_transient_errors_attribute_to_fault_retry(self):
        faults = FaultSchedule(read_error_rate=0.05, seed=7)
        result, observer = observed_run("ld", "forestall", 2, faults=faults)
        assert_attribution_exact(result, observer.stall_episodes)
        assert result.faults_injected > 0
        assert result.stall_breakdown[ev.CAUSE_FAULT_RETRY] > 0.0

    def test_mirrored_disk_death_attributes_failover(self):
        faults = FaultSchedule(disk_failures=(DiskFailure(disk=0, at_ms=500.0),))
        result, observer = observed_run(
            "ld", "aggressive", 4, faults=faults, mirrored=True
        )
        assert_attribution_exact(result, observer.stall_episodes)
        assert result.failover_reads + result.extras.get("failover_writes", 0) > 0
        assert observer.metrics.counter("fetch.failovers").value > 0

    def test_episode_records_are_well_formed(self):
        result, observer = observed_run("ld", "fixed-horizon", 2)
        assert len(observer.stall_episodes) == observer.metrics.counter(
            "stall.episodes"
        ).value
        for episode in observer.stall_episodes:
            assert episode.cause in STALL_CAUSES
            assert episode.duration_ms >= 0.0
            assert episode.end_ms >= episode.start_ms
        worst = observer.worst_stalls(3)
        assert len(worst) == min(3, len(observer.stall_episodes))
        assert worst == sorted(
            worst, key=lambda r: (-r.duration_ms, r.start_ms)
        )

    def test_unobserved_result_has_empty_breakdown(self):
        result = run_one(ExperimentSetting(scale=0.2), "ld", "demand", 2)
        assert result.stall_breakdown == {}


# -- any number of processes ------------------------------------------------------------


def two_process_run(observer=None):
    config = SimConfig(cache_blocks=2 * cache_blocks_for("ld", 0.1))
    workloads = [
        (build_workload("ld", scale=0.1), make_policy("forestall")),
        (build_workload("cscope1", scale=0.1), make_policy("aggressive")),
    ]
    return MultiProcessSimulator(workloads, 2, config, observer=observer).run()


class TestMultiProcess:
    def test_observed_results_are_bit_identical(self):
        plain = two_process_run()
        observed = two_process_run(Observer())
        assert [result_digest(r) for r in plain] == [
            result_digest(r) for r in observed
        ]

    def test_attribution_is_exact_per_process(self):
        observer = Observer()
        outcome = two_process_run(observer)
        assert observer.results == outcome.results
        assert {e.pid for e in observer.events} == {0, 1}
        for pid, result in enumerate(outcome):
            episodes = [e for e in observer.stall_episodes if e.pid == pid]
            assert_attribution_exact(result, episodes)
            assert result.stall_breakdown == observer.stall_breakdown_by_pid[pid]
        assert observer.stall_residual_ms == pytest.approx(0.0, abs=1e-6)
        counters = observer.metrics.counters
        assert counters["app.references"].value == sum(
            r.references for r in outcome
        )
        assert counters["fetch.completed"].value == sum(
            r.fetches for r in outcome
        )

    def test_chrome_trace_names_one_application_track_per_process(self):
        observer = Observer()
        two_process_run(observer)
        rows = chrome_trace(observer)["traceEvents"]
        names = {
            r["tid"]: r["args"]["name"] for r in rows
            if r["ph"] == "M" and r["name"] == "thread_name"
        }
        assert names == {
            0: "application p0 ld/forestall",
            1: "disk 0",
            2: "disk 1",
            3: "application p1 cscope1/aggressive",
        }
        stall_tids = {r["tid"] for r in rows if r.get("cat") == "stall"}
        assert stall_tids == {0, 3}


FIVE = st.sampled_from(FIVE_POLICIES)


@st.composite
def observed_runs(draw):
    """One lone process or two sharing a machine, over small traces with
    optional writes, on 1-4 disks, optionally mirrored, faulted and
    recording timelines."""
    processes = draw(st.integers(min_value=1, max_value=2))
    disks = draw(st.integers(min_value=1, max_value=4))
    mirrored = disks % 2 == 0 and draw(st.booleans())
    workloads = []
    for pid in range(processes):
        blocks = draw(st.lists(st.integers(0, 15), min_size=1, max_size=50))
        writes = None
        if draw(st.booleans()):
            writes = draw(st.lists(
                st.booleans(), min_size=len(blocks), max_size=len(blocks)
            ))
        trace = Trace(name=f"p{pid}", blocks=blocks,
                      compute_ms=[1.0] * len(blocks), writes=writes)
        workloads.append((trace, draw(FIVE)))
    faults = None
    if draw(st.booleans()):
        kill = draw(st.one_of(st.none(), st.floats(0.0, 200.0)))
        faults = FaultSchedule(
            seed=draw(st.integers(0, 2**16)),
            read_error_rate=draw(st.floats(0.0, 0.3)),
            disk_failures=() if kill is None else (
                DiskFailure(disk=disks - 1, at_ms=kill),
            ),
            max_retries=50,
        )
    config = simple_config(
        cache_blocks=draw(st.integers(2, 8)) * processes,
        mirrored=mirrored, faults=faults, record_timeline=draw(st.booleans()),
    )
    return workloads, disks, config


def run_case(workloads, disks, config, observer=None):
    """Each process's digest, its timeline included when recorded."""
    if len(workloads) == 1:
        trace, policy = workloads[0]
        sims = [Simulator(trace, make_policy(policy), disks, config,
                          observer=observer)]
        results = [sims[0].run()]
    else:
        multi = MultiProcessSimulator(
            [(trace, make_policy(policy)) for trace, policy in workloads],
            disks, config, observer=observer,
        )
        sims = multi.processes
        results = multi.run().results
    digests = [
        result_digest(r, s.timeline.events if s.timeline else None)
        for r, s in zip(results, sims)
    ]
    return results, digests


class TestObserverProperty:
    @given(case=observed_runs())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_observer_is_exact_at_any_k(self, case):
        workloads, disks, config = case
        _plain, plain_digests = run_case(workloads, disks, config)
        observer = Observer()
        observed, digests = run_case(workloads, disks, config, observer)
        assert digests == plain_digests
        makespan = max(result.elapsed_ms for result in observed)
        busy = [min(ms, makespan) for ms in observer.busy_ms_per_disk]
        for pid, result in enumerate(observed):
            residual = abs(
                result.stall_ms - math.fsum(result.stall_breakdown.values())
            )
            assert residual < 1e-6 * max(1.0, result.stall_ms)
            episodes = [e for e in observer.stall_episodes if e.pid == pid]
            assert_attribution_exact(result, episodes)
            # Writes, transient errors, a dead disk and mirroring included.
            assert busy == result.per_disk_busy_ms


# -- counters and result cross-checks ---------------------------------------------------


class TestCountersMatchResult:
    def test_counters_agree_with_result(self):
        result, observer = observed_run("ld", "forestall", 2)
        counters = observer.metrics.counters
        assert counters["app.references"].value == result.references
        assert (
            counters["app.hits"].value + counters["app.misses"].value
            == result.references - counters["app.unreadable"].value
        )
        assert (
            counters["fetch.issued.demand"].value
            + counters["fetch.issued.prefetch"].value
            == result.fetches
        )
        assert counters["fetch.completed"].value == result.fetches

    def test_busy_time_matches_result_bit_for_bit(self):
        result, observer = observed_run("cscope1", "aggressive", 4)
        for disk, busy in enumerate(observer.busy_ms_per_disk):
            assert min(busy, result.elapsed_ms) == result.per_disk_busy_ms[disk]

    def test_utilization_gauges_match_result(self):
        result, observer = observed_run("ld", "aggressive", 2)
        gauges = observer.metrics.gauges
        mean = sum(
            gauges[f"disk.utilization.d{d}"].value for d in range(2)
        ) / 2.0
        assert mean == pytest.approx(result.disk_utilization, rel=1e-12)


# -- guarantee 4: exports round-trip ----------------------------------------------------

#: Inputs mirrored from benchmarks/bench_table4_utilization.py.
TABLE4_TRACE = "postgres-select"
TABLE4_POLICIES = ("demand", "fixed-horizon", "aggressive", "reverse-aggressive")


class TestChromeTraceRoundTrip:
    @pytest.mark.parametrize("policy", TABLE4_POLICIES)
    def test_busy_spans_reproduce_table4_utilization(self, policy, tmp_path):
        disks = 4
        observer = Observer()
        result = run_one(
            ExperimentSetting(scale=0.25), TABLE4_TRACE, policy, disks,
            observer=observer,
        )
        path = tmp_path / f"{policy}.trace.json"
        write_chrome_trace(observer, str(path))
        document = json.loads(path.read_text())

        rows = document["traceEvents"]
        data_rows = [r for r in rows if r["ph"] != "M"]
        # Event count: every exported row maps to a recorded event kind.
        expected = sum(
            1 for e in observer.events
            if e.kind in (ev.DISK_BUSY, ev.STALL_END, ev.CACHE_OCCUPANCY,
                          ev.QUEUE_DEPTH)
        )
        assert len(data_rows) == expected

        # Per-track timestamps are monotone (sorted export).
        by_track = {}
        for row in data_rows:
            by_track.setdefault((row["pid"], row["tid"]), []).append(row["ts"])
        for stamps in by_track.values():
            assert stamps == sorted(stamps)

        # Summing the exact-ms busy spans per disk track reproduces the
        # simulation's per-disk busy time and hence Table 4's utilization.
        busy = [0.0] * disks
        for row in data_rows:
            if row.get("cat") == ev.DISK_BUSY:
                busy[row["tid"] - 1] += row["args"]["service_ms"]
        elapsed = document["otherData"]["elapsed_ms"]
        assert elapsed == result.elapsed_ms
        for disk in range(disks):
            assert min(busy[disk], elapsed) == result.per_disk_busy_ms[disk]
        utilization = sum(min(b, elapsed) for b in busy) / (disks * elapsed)
        assert utilization == pytest.approx(result.disk_utilization, rel=1e-12)

        # The stall breakdown rides along in the metadata, still exact.
        breakdown = document["otherData"]["stall_breakdown_ms"]
        assert math.fsum(breakdown.values()) == pytest.approx(
            result.stall_ms, abs=1e-6 * max(1.0, result.stall_ms)
        )

    def test_metadata_names_all_tracks(self):
        _result, observer = observed_run("ld", "forestall", 2)
        document = chrome_trace(observer)
        names = [
            r["args"]["name"] for r in document["traceEvents"]
            if r["ph"] == "M" and r["name"] == "thread_name"
        ]
        assert names == ["application", "disk 0", "disk 1"]

    def test_full_export_includes_reference_instants(self):
        _result, observer = observed_run("ld", "demand", 1)
        lean = chrome_trace(observer)["traceEvents"]
        full = chrome_trace(observer, full=True)["traceEvents"]
        assert len(full) > len(lean)
        assert any(r.get("name") == ev.REF_HIT for r in full)
        assert not any(r.get("name") == ev.REF_HIT for r in lean)

    def test_stamp_adds_capture_time_only_when_asked(self):
        _result, observer = observed_run("ld", "demand", 1)
        assert "captured_unix_s" not in chrome_trace(observer)["otherData"]
        stamped = chrome_trace(observer, stamp=True)["otherData"]
        assert stamped["captured_unix_s"] > 0


class TestJsonlExport:
    def test_rows_parse_and_cover_everything(self, tmp_path):
        result, observer = observed_run("ld", "forestall", 2)
        path = tmp_path / "run.jsonl"
        write_jsonl(observer, str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["type"] == "meta"
        assert rows[0]["events"] == len(observer.events)
        by_type = {}
        for row in rows:
            by_type.setdefault(row["type"], []).append(row)
        assert len(by_type["event"]) == len(observer.events)
        assert len(by_type["counter"]) == len(observer.metrics.counters)
        assert len(by_type["histogram"]) == len(observer.metrics.histograms)
        assert by_type["result"][0]["stall_ms"] == result.stall_ms
        assert math.fsum(
            by_type["stall_breakdown"][0]["stall_breakdown_ms"].values()
        ) == pytest.approx(result.stall_ms, abs=1e-6 * max(1.0, result.stall_ms))

    def test_iter_rows_matches_file(self, tmp_path):
        _result, observer = observed_run("ld", "demand", 1)
        rows = list(iter_jsonl_rows(observer))
        path = tmp_path / "run.jsonl"
        write_jsonl(observer, str(path))
        assert len(path.read_text().splitlines()) == len(rows)


# -- events -----------------------------------------------------------------------------


class TestEvents:
    def test_as_dict_omits_sentinel_fields(self):
        event = ev.Event(1.5, ev.REF_HIT, block=7)
        row = event.as_dict()
        assert row == {"t_ms": 1.5, "kind": ev.REF_HIT, "block": 7}

    def test_as_dict_keeps_set_fields(self):
        event = ev.Event(2.0, ev.STALL_END, block=3, dur_ms=4.5, cursor=9,
                         cause=ev.CAUSE_DEMAND_MISS)
        row = event.as_dict()
        assert row["dur_ms"] == 4.5
        assert row["cause"] == ev.CAUSE_DEMAND_MISS

    def test_all_emitted_kinds_are_vocabulary(self):
        _result, observer = observed_run("ld", "forestall", 2)
        assert {e.kind for e in observer.events} <= ev.KINDS

    def test_stall_causes_are_closed_vocabulary(self):
        assert set(STALL_CAUSES) == {
            ev.CAUSE_ALL_DISKS_BUSY, ev.CAUSE_PREFETCH_TOO_LATE,
            ev.CAUSE_DEMAND_MISS, ev.CAUSE_FAULT_RETRY, ev.CAUSE_FAILOVER,
        }


# -- metrics ----------------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_tracks_extremes(self):
        gauge = Gauge("g")
        for value in (3.0, -1.0, 7.0):
            gauge.set(value)
        assert (gauge.value, gauge.min, gauge.max, gauge.samples) == (
            7.0, -1.0, 7.0, 3
        )

    def test_histogram_bounds_are_inclusive(self):
        hist = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 2.0, 4.0, 4.0001):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]
        assert hist.overflow == 1
        assert hist.count == 5

    def test_histogram_accepts_infinite_observations(self):
        hist = Histogram("h", (1.0,))
        hist.observe(float("inf"))
        assert hist.overflow == 1

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))

    def test_occupancy_buckets_end_at_capacity(self):
        bounds = occupancy_buckets(384)
        assert bounds[-1] == 384.0
        assert bounds == sorted(bounds)
        # A full cache lands in the last bucket, not overflow.
        hist = Histogram("occ", bounds)
        hist.observe(384.0)
        assert hist.overflow == 0

    def test_registry_reuses_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", (1.0,)) is registry.histogram("h")
        with pytest.raises(ValueError, match="bounds required"):
            registry.histogram("missing")

    def test_registry_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h", (1.0,)).observe(0.5)
        payload = registry.to_dict()
        assert payload["counters"] == {"a": 1}
        assert payload["gauges"]["g"]["value"] == 2.0
        assert payload["histograms"]["h"]["count"] == 1


# -- report and tables ------------------------------------------------------------------


class TestReport:
    def test_report_renders_all_sections(self):
        _result, observer = observed_run("ld", "forestall", 2)
        report = render_report(observer, top=3)
        for needle in (
            "stall attribution:", "disk utilization:", "counters (non-zero):",
            "histograms:", "stall episodes:",
        ):
            assert needle in report
        assert "prefetch-too-late" in report

    def test_report_requires_a_completed_run(self):
        with pytest.raises(ValueError, match="finished run"):
            render_report(Observer())

    def test_stall_table_without_observer_says_so(self):
        result = run_one(ExperimentSetting(scale=0.2), "ld", "demand", 1)
        assert "without an observer" in format_stall_table(result)

    def test_utilization_table_rows(self):
        result, _observer = observed_run("ld", "aggressive", 2)
        table = format_utilization_table(result)
        assert "disk 0" in table and "disk 1" in table and "mean" in table


# -- public API wiring ------------------------------------------------------------------


class TestPublicApi:
    def test_run_simulation_accepts_observer(self):
        trace = build_workload("ld", scale=0.2)
        observer = Observer()
        result = repro.run_simulation(
            trace, policy="forestall", num_disks=2,
            cache_blocks=cache_blocks_for("ld", 0.2), observer=observer,
        )
        assert observer.result is result
        assert result.stall_breakdown
        assert_attribution_exact(result, observer.stall_episodes)

    def test_observer_exported_from_repro_obs(self):
        import repro.obs as obs

        for name in (
            "Observer", "MetricsRegistry", "Event", "STALL_CAUSES",
            "chrome_trace", "write_chrome_trace", "write_jsonl",
            "iter_jsonl_rows", "render_report", "StallEpisode",
        ):
            assert hasattr(obs, name), name

    def test_observer_to_dict_is_json_ready(self):
        _result, observer = observed_run("ld", "demand", 1)
        payload = observer.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["events"] == len(observer.events)
        assert payload["result"]["stall_ms"] == observer.result.stall_ms
