"""The phase profiler: stack-sampled phase attribution and behavioural
transparency."""

import dataclasses
import signal
import sys

import pytest

from repro.cli import main
from repro.core import SimConfig, Simulator, make_policy
from repro.perf import PHASES, PhaseProfiler, phase_of
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for


class FakeClock:
    """Deterministic nanosecond clock advanced by the test."""

    def __init__(self):
        self.now = 0

    def advance(self, ns: int) -> None:
        self.now += ns

    def __call__(self) -> int:
        return self.now


# Stand-ins named like the frames that open each phase: a sample belongs to
# the innermost such frame on the stack.


def before_reference(then=None):
    return then() if then else sys._getframe()


def issue_fetch(then=None):
    return then() if then else sys._getframe()


def _start_disks(then=None):
    return then() if then else sys._getframe()


def on_evict(then=None):
    return then() if then else sys._getframe()


class TestPhaseProfiler:
    def test_flat_phase_accumulates(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.sample(_start_disks())
        profiler.sample(_start_disks())
        assert profiler.samples == {"disk": 2}
        assert profiler.sample_count == 2

    def test_nested_phase_charges_self_time_only(self):
        # A policy hook that issues a fetch: samples inside issue_fetch go
        # to cache, samples in the hook around it to policy, never both.
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.sample(before_reference(lambda: issue_fetch()))
        profiler.sample(before_reference())
        profiler.sample(sys._getframe())
        assert profiler.samples == {"cache": 1, "policy": 1, "dispatch": 1}

    def test_deep_nesting_resumes_each_parent(self):
        # dispatch -> cache -> policy (on_evict inside issue_fetch inside a
        # hook): each level's own samples land on that level.
        profiler = PhaseProfiler(clock=FakeClock())

        def hook():
            profiler.sample(sys._getframe())  # policy
            issue_fetch(lambda: (
                profiler.sample(sys._getframe()),  # cache
                on_evict(lambda: profiler.sample(sys._getframe())),  # policy
                profiler.sample(sys._getframe()),  # cache again
            ))
            profiler.sample(sys._getframe())  # policy again

        before_reference(hook)
        profiler.sample(sys._getframe())  # dispatch
        assert profiler.samples == {"policy": 3, "cache": 2, "dispatch": 1}

    def test_zero_duration_phases_report_cleanly(self):
        profiler = PhaseProfiler(clock=FakeClock())
        summary = profiler.to_dict()
        assert summary["total_ms"] == 0.0
        assert summary["samples"] == 0
        assert all(entry["share"] == 0.0 for entry in summary["phases"].values())
        report = profiler.report()
        for phase in PHASES:
            assert phase in report

    def test_to_dict_shares_sum_to_one(self):
        profiler = PhaseProfiler(clock=FakeClock())
        for frame, count in ((before_reference(), 2), (_start_disks(), 3),
                             (sys._getframe(), 5)):
            for _ in range(count):
                profiler.sample(frame)
        profiler.wall_ns = 10_000_000
        summary = profiler.to_dict()
        shares = [entry["share"] for entry in summary["phases"].values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-3)
        assert summary["phases"]["dispatch"]["ms"] == pytest.approx(5.0)
        # Phases are reported hottest-first (samples descending).
        assert list(summary["phases"]) == ["dispatch", "disk", "policy", "cache"]

    def test_reset_clears_everything(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.sample(_start_disks())
        profiler.wall_ns = 1_000_000
        profiler.reset()
        assert profiler.total_ms == 0.0
        assert profiler.samples == {}

    def test_phase_vocabulary_is_stable(self):
        assert PHASES == ("policy", "disk", "cache", "dispatch")
        assert phase_of(None) == "dispatch"


def _run(trace_name, policy, disks, profiler=None, scale=0.2):
    trace = build_workload(trace_name, scale=scale)
    config = SimConfig(cache_blocks=cache_blocks_for(trace_name, scale))
    sim = Simulator(trace, make_policy(policy), disks, config)
    if profiler is None:
        return sim.run()
    with profiler:
        return sim.run()


class TestProfiledRuns:
    @pytest.mark.parametrize("policy", ["demand", "aggressive", "forestall"])
    def test_profiled_run_is_bit_identical(self, policy):
        plain = _run("ld", policy, 2)
        profiled = _run("ld", policy, 2, profiler=PhaseProfiler())
        assert dataclasses.asdict(plain) == dataclasses.asdict(profiled)

    def test_profiler_sees_all_engine_phases(self):
        profiler = PhaseProfiler()
        for _ in range(50):  # a run is tens of samples; stop once all seen
            _run("ld", "forestall", 2, profiler=profiler)
            if all(profiler.samples.get(phase) for phase in PHASES):
                break
        for phase in PHASES:
            assert profiler.ms(phase) > 0.0, phase
            assert profiler.samples[phase] > 0

    def test_unprofiled_simulator_has_no_wrapper(self):
        trace = build_workload("ld", scale=0.1)
        config = SimConfig(cache_blocks=cache_blocks_for("ld", 0.1))
        policy = make_policy("forestall")
        sim = Simulator(trace, policy, 2, config)
        assert sim.policy is policy
        assert not hasattr(sim, "profiler")

    def test_profiler_restores_signal_state(self):
        before = signal.getsignal(signal.SIGALRM)
        profiler = PhaseProfiler()
        _run("ld", "demand", 1, profiler=profiler, scale=0.1)
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        with pytest.raises(RuntimeError, match="already running"):
            with profiler:
                with profiler:
                    pass
        assert signal.getsignal(signal.SIGALRM) == before

    def test_profiler_reports_samples_and_overhead(self):
        profiler = PhaseProfiler()
        _run("ld", "forestall", 2, profiler=profiler)
        summary = profiler.to_dict()
        assert summary["samples"] == profiler.sample_count > 0
        assert 0.0 <= summary["overhead_ms"] < summary["total_ms"]
        assert "samples" in profiler.report()
        assert "overhead" in profiler.report()


class TestProfileFlag:
    def test_run_profile_prints_breakdown(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "forestall", "-d", "2",
            "--scale", "0.1", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out
        for phase in PHASES:
            assert phase in out

    def test_run_without_profile_stays_quiet(self, capsys):
        code = main([
            "run", "-t", "ld", "-p", "demand", "-d", "1", "--scale", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" not in out


class TestPerfGate:
    """CI's complexity gate (``benchmarks/bench_perf.py``) also gates
    construction, where reverse aggressive plans, for rows that carry it."""

    def gate(self, tmp_path, base_rows, records):
        import json

        from benchmarks.bench_perf import check_baseline

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"cells": base_rows}))
        return check_baseline(records, str(path), 2.0)

    def test_slow_construction_fails_only_where_the_baseline_has_it(
            self, tmp_path):
        base = [{"id": "a", "wall_s": 1.0, "construct_s": 0.01},
                {"id": "b", "wall_s": 1.0}]
        records = [{"id": "a", "wall_s": 1.5, "construct_s": 0.05},
                   {"id": "b", "wall_s": 1.5, "construct_s": 0.05}]
        regressions = self.gate(tmp_path, base, records)
        assert [cell for cell, _ in regressions] == ["a construction"]
        assert records[0]["vs_baseline_construct"] == 5.0
        assert "vs_baseline_construct" not in records[1]
        assert records[1]["vs_baseline"] == 1.5

    def test_slow_run_still_fails(self, tmp_path):
        regressions = self.gate(
            tmp_path, [{"id": "a", "wall_s": 1.0, "construct_s": 0.01}],
            [{"id": "a", "wall_s": 2.5, "construct_s": 0.01}],
        )
        assert [cell for cell, _ in regressions] == ["a"]

    def test_quick_set_gates_a_reverse_aggressive_construction(self):
        import json

        from benchmarks.bench_perf import QUICK_CELLS, cell_id

        from pathlib import Path

        baseline = Path(__file__).resolve().parents[1] / "benchmarks" \
            / "BENCH_perf_baseline.json"
        with open(baseline) as handle:
            rows = {row["id"]: row for row in json.load(handle)["cells"]}
        planned = [cell_id(*cell) for cell in QUICK_CELLS
                   if cell[1] == "reverse-aggressive"]
        assert planned and all(rows[cell]["construct_s"] > 0
                               for cell in planned)
