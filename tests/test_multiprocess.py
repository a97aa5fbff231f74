"""Multi-process simulation: shared disks, partitioned cache, allocators."""

import itertools

import pytest

from repro.core import BufferCache, SimConfig, make_policy
from repro.core.multiprocess import (
    CostBenefitAllocator,
    MultiProcessSimulator,
    StaticAllocator,
)
from repro.faults import DiskFailure, FaultSchedule
from repro.trace import Trace
from tests.conftest import make_trace


def config(cache_blocks=32, **kw):
    return SimConfig(
        cache_blocks=cache_blocks,
        disk_model="simple",
        simple_access_ms=10.0,
        simple_sequential_ms=None,
        **kw,
    )


def two_process_sim(policy_a="fixed-horizon", policy_b="fixed-horizon",
                    allocator=None, disks=2, cache_blocks=32, n=60, cfg=None):
    a = make_trace(list(range(12)) * (n // 12), compute_ms=2.0, name="A")
    b = make_trace(list(range(12)) * (n // 12), compute_ms=2.0, name="B")
    return MultiProcessSimulator(
        [
            (a, make_policy(policy_a, horizon=4)
             if policy_a == "fixed-horizon" else make_policy(policy_a)),
            (b, make_policy(policy_b, horizon=4)
             if policy_b == "fixed-horizon" else make_policy(policy_b)),
        ],
        num_disks=disks,
        config=cfg if cfg is not None else config(cache_blocks),
        allocator=allocator,
    )


class TestSharedSlice:
    """A process's cache partition: ``BufferCache.shrink``/``grow``."""

    def test_shrink_respects_floor(self):
        s = BufferCache(16)
        assert s.shrink(10, floor=8) == 8
        assert s.capacity == 8
        assert s.shrink(10, floor=8) == 0

    def test_grow(self):
        s = BufferCache(8)
        s.grow(4)
        assert s.capacity == 12

    def test_overflow_tolerated_after_shrink(self):
        s = BufferCache(3)
        for b in range(3):
            s.begin_fetch(b, None)
            s.complete_fetch(b)
        s.shrink(2, floor=1)
        assert s.capacity == 1
        assert s.free_buffers == 0  # clamped, not negative
        assert len(s.resident) == 3  # drains via future evictions


class TestAllocators:
    def test_static_shares_proportional(self):
        shares = StaticAllocator([3, 1]).initial_shares(80, 2)
        assert sum(shares) == 80
        assert shares[0] == 60

    def test_static_weight_count_checked(self):
        with pytest.raises(ValueError):
            StaticAllocator([1]).initial_shares(10, 2)

    def test_cost_benefit_moves_toward_staller(self):
        sim = two_process_sim(allocator=CostBenefitAllocator(period_ms=50.0,
                                                             min_share=4,
                                                             step=2))

        class FakeProcess:
            def __init__(self, pid, stall, cache):
                self.pid = pid
                self.stall_total = stall
                self.cache = cache
                self.done = False

        allocator = CostBenefitAllocator(min_share=4, step=2)
        rich = FakeProcess(0, stall=0.0, cache=BufferCache(16))
        poor = FakeProcess(1, stall=100.0, cache=BufferCache(16))

        class FakeSim:
            processes = [rich, poor]

        allocator.rebalance(FakeSim())
        assert poor.cache.capacity == 18
        assert rich.cache.capacity == 14

    def test_cost_benefit_noop_for_single_live_process(self):
        allocator = CostBenefitAllocator()

        class FakeProcess:
            pid, stall_total, done = 0, 5.0, False
            cache = BufferCache(8)

        class FakeSim:
            processes = [FakeProcess()]

        allocator.rebalance(FakeSim())  # must not raise
        assert FakeProcess.cache.capacity == 8


class TestEndToEnd:
    def test_both_processes_complete(self):
        results = two_process_sim().run()
        assert len(results.results) == 2
        for r in results:
            assert r.references == 60

    def test_per_process_accounting_identity(self):
        results = two_process_sim().run()
        for r in results:
            total = r.compute_ms + r.driver_ms + r.stall_ms
            assert r.elapsed_ms == pytest.approx(total, abs=1e-6)

    def test_namespaces_do_not_collide(self):
        # Identical traces: each process has its own cache, so each must
        # fetch its own copy.
        results = two_process_sim().run()
        for r in results:
            assert r.fetches >= 12  # every distinct block per process

    def test_sharing_slows_both_versus_alone(self):
        from repro.core import Simulator

        shared = two_process_sim(disks=1).run()
        solo_trace = make_trace(list(range(12)) * 5, compute_ms=2.0)
        solo = Simulator(
            solo_trace, make_policy("fixed-horizon", horizon=4), 1,
            config(cache_blocks=16),
        ).run()
        for r in shared:
            assert r.elapsed_ms >= solo.elapsed_ms * 0.99

    def test_makespan_is_max_elapsed(self):
        results = two_process_sim().run()
        assert results.makespan_ms == max(r.elapsed_ms for r in results)

    def test_early_finisher_reports_array_utilization_over_makespan(self):
        # The short process ends long before the array goes quiet; its
        # result reports the array's busy time over the makespan, not the
        # whole run's busy time scaled to its own elapsed time.
        short = make_trace(list(range(6)), compute_ms=1.0, name="short")
        long = make_trace(list(range(100, 148)) * 4, compute_ms=2.0,
                          name="long")
        sim = MultiProcessSimulator(
            [(short, make_policy("aggressive")), (long, make_policy("demand"))],
            num_disks=2, config=config(cache_blocks=64),
        )
        out = sim.run()
        makespan = out.makespan_ms
        assert out[0].elapsed_ms < makespan / 4
        busy = [min(b, makespan) for b in sim.array.busy_time]
        expected = sum(busy) / (2 * makespan)
        for result in out:
            assert result.per_disk_busy_ms == busy
            assert result.disk_utilization == pytest.approx(expected)
        assert expected < 0.9

    def test_freed_disk_offered_in_rotating_order(self):
        # "io" issues nearly every request and "cpu" hits in cache, yet a
        # freed disk goes first to each process in turn: no process can
        # monopolize the array by being the one whose request finished.
        io = make_trace(list(range(60)), compute_ms=1.0, name="io")
        cpu = make_trace([0] * 400, compute_ms=5.0, name="cpu")
        sim = MultiProcessSimulator(
            [(io, make_policy("aggressive")), (cpu, make_policy("aggressive"))],
            num_disks=1, config=config(),
        )
        offers = []
        for process in sim.processes:
            def record(disk, now, inner=process.policy.on_disk_idle,
                       name=process.trace.name):
                offers.append((disk, now, name))
                inner(disk, now)

            process.policy.on_disk_idle = record
        sim.run()
        rounds = [
            [name for _, _, name in group]
            for _, group in itertools.groupby(offers, key=lambda o: o[:2])
        ]
        firsts = [names[0] for names in rounds if len(names) == 2]
        assert len(firsts) > 10
        assert all(a != b for a, b in zip(firsts, firsts[1:]))

    def test_requires_processes(self):
        with pytest.raises(ValueError):
            MultiProcessSimulator([], 1, config())

    @pytest.mark.parametrize("field, value", [
        ("disk_model", "ibm0661"),
        ("disk_model", "hp97560-zoned"),
        ("mirrored", True),
        ("record_timeline", True),
        ("faults", FaultSchedule(
            read_error_rate=0.1,
            disk_failures=(DiskFailure(disk=1, at_ms=50.0),),
        )),
        ("placement", "scatter"),
        ("cpu_speedup", 2.0),
    ])
    def test_config_field_runs_with_two_processes(self, field, value):
        # Every SimConfig field the single-process engine honours also runs
        # with two processes on one array; each keeps its own accounting.
        cfg = config().with_(**{field: value})
        if field == "mirrored":
            cfg = cfg.with_(faults=FaultSchedule(
                disk_failures=(DiskFailure(disk=0, at_ms=40.0),),
            ))
        out = two_process_sim(policy_b="aggressive", cfg=cfg).run()
        for result in out:
            assert result.references == 60
            result.check_accounting()

    @pytest.mark.parametrize("field, value", [
        ("disk_model", "no-such-drive"),
        ("placement", "nope"),
        ("discipline", "bogus"),
        ("cpu_speedup", 0.0),
    ])
    def test_unsupported_config_rejected(self, field, value):
        trace = make_trace(list(range(12)))
        with pytest.raises(ValueError, match=f"SimConfig.{field}="):
            MultiProcessSimulator([(trace, make_policy("demand"))], 2,
                                  config().with_(**{field: value}))

    def test_null_fault_schedule_accepted(self):
        trace = make_trace(list(range(12)))
        sim = MultiProcessSimulator([(trace, make_policy("demand"))], 2,
                                    config(faults=FaultSchedule()))
        assert sim.run()[0].references == 12

    def test_aggressive_neighbor_places_more_sustained_load(self):
        """The measurable core of the paper's section-6 conjecture: an
        aggressively prefetching co-runner issues more fetches and keeps
        the shared disk busier than a fixed-horizon co-runner.  (Who ends
        up *waiting* depends on scheduler dynamics — a just-in-time
        sequential stream can monopolize a CSCAN sweep — so the load, not
        a specific victim's elapsed time, is the robust observable.)"""
        def run_with_hog(neighbor_policy):
            victim = make_trace(list(range(12)) * 5, compute_ms=2.0,
                                name="victim")
            hog = make_trace(list(range(100, 148)) * 8, compute_ms=0.5,
                             name="hog")
            kw = {"horizon": 4} if neighbor_policy == "fixed-horizon" else {}
            sim = MultiProcessSimulator(
                [
                    (victim, make_policy("fixed-horizon", horizon=4)),
                    (hog, make_policy(neighbor_policy, **kw)),
                ],
                num_disks=1,
                config=config(cache_blocks=40),
            )
            return sim.run()

        gentle = run_with_hog("fixed-horizon")
        rough = run_with_hog("aggressive")
        assert rough[1].fetches > gentle[1].fetches
        assert rough[1].driver_ms > gentle[1].driver_ms


class TestDifferentPolicies:
    @pytest.mark.parametrize("policy", ["demand", "aggressive", "forestall"])
    def test_mixed_policy_pairs_run(self, policy):
        results = two_process_sim(policy_b=policy).run()
        assert all(r.references == 60 for r in results)

    def test_reverse_aggressive_in_multiprocess(self):
        a = make_trace(list(range(12)) * 5, compute_ms=2.0, name="A")
        b = make_trace(list(range(12)) * 5, compute_ms=2.0, name="B")
        sim = MultiProcessSimulator(
            [
                (a, make_policy("reverse-aggressive", fetch_time_estimate=4)),
                (b, make_policy("fixed-horizon", horizon=4)),
            ],
            num_disks=2,
            config=config(cache_blocks=32),
        )
        results = sim.run()
        assert all(r.references == 60 for r in results)

    def test_cost_benefit_not_worse_than_static_on_asymmetric_load(self):
        def makespan(allocator):
            light = make_trace([0, 1, 2, 3] * 15, compute_ms=5.0, name="lt")
            heavy = make_trace(list(range(10, 58)) * 2, compute_ms=0.5,
                               name="hv")
            sim = MultiProcessSimulator(
                [
                    (light, make_policy("fixed-horizon", horizon=4)),
                    (heavy, make_policy("forestall", horizon=4)),
                ],
                num_disks=2,
                config=config(cache_blocks=40),
                allocator=allocator,
            )
            return sim.run().makespan_ms

        static = makespan(StaticAllocator())
        dynamic = makespan(CostBenefitAllocator(period_ms=40.0, min_share=6,
                                                step=2))
        assert dynamic <= static * 1.05
