"""Simulation engine: timing, accounting, and decision-point plumbing."""

from dataclasses import replace

import pytest

from repro.core import POLICIES, PrefetchPolicy, SimConfig, Simulator, make_policy
from repro.core.multiprocess import MultiProcessSimulator
from repro.core.policy import PrefetchPolicy as BasePolicy
from repro.disk.geometry import HP97560, HP97560_ZONED, IBM0661
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for
from tests.conftest import make_trace, run, simple_config


class TestAccountingIdentity:
    def test_demand_single_miss_exact_times(self):
        # miss: 0.5ms driver, fetch 10ms (starts at issue), stall 9.5ms,
        # then 1ms compute.
        result = run([0], policy="demand")
        assert result.driver_ms == pytest.approx(0.5)
        assert result.stall_ms == pytest.approx(9.5)
        assert result.compute_ms == pytest.approx(1.0)
        assert result.elapsed_ms == pytest.approx(11.0)

    def test_three_reference_demand_sequence(self):
        result = run([0, 1, 0])
        # two misses (block 0 cached by the third reference)
        assert result.fetches == 2
        assert result.elapsed_ms == pytest.approx(23.0)
        assert result.stall_ms == pytest.approx(19.0)

    def test_identity_holds_for_every_policy(self):
        blocks = [0, 1, 2, 3, 1, 2, 4, 5, 0, 1] * 5
        for policy in ("demand", "fixed-horizon", "aggressive",
                       "reverse-aggressive", "forestall"):
            result = run(blocks, policy=policy, cache_blocks=4, num_disks=2)
            # check_accounting already ran inside run(); re-verify here.
            total = result.compute_ms + result.driver_ms + result.stall_ms
            assert result.elapsed_ms == pytest.approx(total, abs=1e-6)

    def test_cache_hits_cost_only_compute(self):
        result = run([0, 0, 0, 0])
        assert result.fetches == 1
        assert result.compute_ms == pytest.approx(4.0)
        assert result.elapsed_ms == pytest.approx(0.5 + 10.0 - 0.5 + 4.0)


class TestDriverOverhead:
    def test_driver_time_is_fetches_times_overhead(self):
        """The appendix tables all satisfy driver = fetches x 0.5 ms."""
        result = run([0, 1, 2, 3, 4], cache_blocks=8)
        assert result.driver_ms == pytest.approx(result.fetches * 0.5)

    def test_custom_overhead(self):
        config = simple_config(cache_blocks=8).with_(driver_overhead_ms=2.0)
        result = run([0, 1, 2], config=config)
        assert result.driver_ms == pytest.approx(result.fetches * 2.0)

    def test_zero_overhead(self):
        config = simple_config(cache_blocks=8).with_(driver_overhead_ms=0.0)
        result = run([0, 1], config=config)
        assert result.driver_ms == 0.0


class TestZeroOverheadTerminates:
    """Prefetches issued before a reference at zero driver overhead leave
    no debt; the engine must still start the disks for them, or every
    hinted prefetcher deadlocks with its fetches queued forever."""

    @pytest.mark.parametrize("trace_name", ["cscope1", "ld"])
    def test_every_policy_terminates(self, trace_name):
        trace = build_workload(trace_name, scale=0.05)
        config = SimConfig(
            cache_blocks=cache_blocks_for(trace_name, 0.05),
            driver_overhead_ms=0.0,
        )
        for policy in sorted(POLICIES):
            result = Simulator(trace, make_policy(policy), 2, config).run()
            result.check_accounting()
            assert result.driver_ms == 0.0, policy
            assert result.references == len(trace.blocks), policy

    @pytest.mark.parametrize("policy", ["fixed-horizon", "reverse-aggressive"])
    def test_multiprocess_terminates(self, policy):
        processes = [
            (build_workload(name, scale=0.05), make_policy(policy))
            for name in ("cscope1", "ld")
        ]
        out = MultiProcessSimulator(
            processes, num_disks=2,
            config=SimConfig(cache_blocks=200, driver_overhead_ms=0.0),
        ).run()
        for result in out.results:
            result.check_accounting()
            assert result.driver_ms == 0.0


class TestParallelism:
    def test_two_disks_overlap_demand_fetches_do_not(self):
        # Demand fetching is serial regardless of disks.
        one = run([0, 1, 2, 3], num_disks=1, cache_blocks=8)
        two = run([0, 1, 2, 3], num_disks=2, cache_blocks=8)
        assert two.elapsed_ms == pytest.approx(one.elapsed_ms)

    def test_prefetching_exploits_second_disk(self):
        # Blocks alternate disks under striping; aggressive overlaps fetches.
        blocks = list(range(12))
        one = run(blocks, policy="aggressive", num_disks=1, cache_blocks=6)
        two = run(blocks, policy="aggressive", num_disks=2, cache_blocks=6)
        assert two.elapsed_ms < one.elapsed_ms

    def test_same_disk_fetches_serialize(self):
        # All blocks on disk 0 of a 2-disk array: no overlap possible.
        blocks = [0, 2, 4, 6, 8, 10]
        result = run(blocks, policy="aggressive", num_disks=2, cache_blocks=8)
        # First fetch stalls ~10ms; later ones partially overlap compute only.
        assert result.stall_ms > 8.0 * len(blocks) - 10.0 - 6.0


class TestEngineRobustness:
    def test_broken_policy_detected(self):
        class Broken(BasePolicy):
            name = "broken"

            def on_miss(self, cursor, now):
                pass  # refuses to fetch

        trace = make_trace([0, 1])
        sim = Simulator(trace, Broken(), 1, simple_config())
        with pytest.raises(RuntimeError, match="left block"):
            sim.run()

    def test_unknown_disk_model_rejected(self):
        trace = make_trace([0])
        with pytest.raises(ValueError, match="unknown disk model"):
            Simulator(
                trace, BasePolicy(), 1, SimConfig(disk_model="quantum")
            ).run()

    @pytest.mark.parametrize("field, value", [
        ("driver_overhead_ms", -0.5),
        ("driver_overhead_ms", float("nan")),
        ("simple_access_ms", float("inf")),
        ("simple_sequential_ms", -1.0),
        ("cpu_speedup", 0.0),
        ("cpu_speedup", -1.0),
        ("cpu_speedup", float("nan")),
        ("cache_blocks", 0),
        ("disk_model", "nope"),
        ("placement", "nope"),
        ("discipline", "bogus"),
    ])
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"SimConfig.{field}="):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("disk_model, geometry", [
        ("ibm0661", HP97560_ZONED),
        ("hp97560-zoned", IBM0661),
        ("hp97560-zoned", replace(HP97560, rpm=5400.0)),
    ])
    def test_geometry_a_disk_model_ignores_rejected(self, disk_model, geometry):
        """These models bring their own geometry; another one would be
        silently ignored."""
        with pytest.raises(ValueError, match="SimConfig.geometry="):
            SimConfig(disk_model=disk_model, geometry=geometry)

    @pytest.mark.parametrize("disk_model, geometry", [
        ("ibm0661", HP97560),
        ("ibm0661", IBM0661),
        ("hp97560-zoned", HP97560_ZONED),
        ("hp97560", IBM0661),
        ("simple", HP97560_ZONED),
    ])
    def test_geometry_a_disk_model_honours_accepted(self, disk_model, geometry):
        assert SimConfig(disk_model=disk_model, geometry=geometry).geometry \
            is geometry

    def test_boundary_config_accepted(self):
        config = SimConfig(driver_overhead_ms=0.0, simple_sequential_ms=None,
                           discipline="SSTF", cache_blocks=1)
        assert config.with_(cpu_speedup=0.5).cpu_speedup == 0.5

    def test_empty_trace_completes_instantly(self):
        result = run([])
        assert result.elapsed_ms == 0.0
        assert result.fetches == 0

    def test_references_counted(self):
        result = run([0, 1, 0, 1])
        assert result.references == 4


class TestCpuSpeedup:
    def test_double_speed_halves_compute(self):
        base = run([0, 0, 0, 0])
        config = simple_config().with_(cpu_speedup=2.0)
        fast = run([0, 0, 0, 0], config=config)
        assert fast.compute_ms == pytest.approx(base.compute_ms / 2)

    def test_double_speed_cpu_increases_io_dependence(self):
        """Section 4.4: faster processors are more dependent on I/O."""
        blocks = list(range(40))
        base = run(blocks, policy="fixed-horizon", cache_blocks=50,
                   compute_ms=12.0)
        config = simple_config(cache_blocks=50).with_(cpu_speedup=2.0)
        fast = run(blocks, policy="fixed-horizon", cache_blocks=50,
                   compute_ms=12.0, config=config)
        assert fast.stall_ms >= base.stall_ms
        assert fast.elapsed_ms < base.elapsed_ms


class TestUtilization:
    def test_idle_array_zero_utilization(self):
        result = run([0, 0, 0, 0, 0])
        assert 0.0 < result.disk_utilization < 1.0

    def test_per_disk_busy_recorded(self):
        result = run([0, 1, 2, 3], num_disks=2, cache_blocks=8)
        assert len(result.per_disk_busy_ms) == 2
        assert sum(result.per_disk_busy_ms) > 0

    def test_io_bound_single_disk_near_saturation(self):
        blocks = list(range(50))
        result = run(blocks, policy="aggressive", num_disks=1,
                     cache_blocks=10, compute_ms=0.5)
        assert result.disk_utilization > 0.9
