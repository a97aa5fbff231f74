"""A finished run frees itself.

Once ``run()`` returns or raises, the machine forgets its processes, each
process its peers and each policy its simulator, and the policies' helpers
never pointed back at the simulator.  A run's object graph is then
acyclic, so dropping the last reference frees the simulator, its policy
and its machine at once, without the cyclic collector.  Every test here
that checks this runs with the collector disabled: a weak reference still
alive after ``del`` names an object kept by a cycle.
"""

import gc
import random
import weakref

import pytest

from repro.core import (
    POLICIES,
    Aggressive,
    CostBenefitAllocator,
    MultiProcessSimulator,
    PrefetchPolicy,
    Simulator,
    make_policy,
)
from repro.faults import DiskFailure, FaultSchedule
from repro.obs import Observer
from tests.conftest import make_trace, simple_config

_RNG = random.Random(5)
#: 400 references over 40 blocks: every policy misses, prefetches and
#: evicts with an 8-block cache.
BLOCKS = [_RNG.randrange(40) for _ in range(400)]

#: Transient read errors and a spindle that dies mid-run: retries,
#: abandoned prefetches and failover to the mirror twin.
FAULTS = FaultSchedule(
    read_error_rate=0.05, seed=3,
    disk_failures=(DiskFailure(disk=0, at_ms=40.0),),
)

ARRAYS = {
    "striped": simple_config(cache_blocks=8),
    "mirrored-faults": simple_config(
        cache_blocks=8, mirrored=True, faults=FAULTS
    ),
}


@pytest.fixture
def no_collector():
    """Run the test with the cyclic collector off, so only reference
    counting frees anything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_parts(sim):
    """Weak references to what a finished run must free: the simulator,
    its policy and its machine."""
    return [weakref.ref(sim), weakref.ref(sim.policy), weakref.ref(sim._machine)]


def alive(refs):
    return [ref() for ref in refs if ref() is not None]


@pytest.mark.usefixtures("no_collector")
class TestFinishedRunIsFreed:
    @pytest.mark.parametrize("array", sorted(ARRAYS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_every_policy(self, policy, array):
        sim = Simulator(make_trace(BLOCKS), make_policy(policy), 4, ARRAYS[array])
        refs = run_parts(sim)
        sim.run().check_accounting()
        del sim
        assert alive(refs) == []

    def test_run_with_timeline_and_observer(self):
        observer = Observer()
        config = simple_config(cache_blocks=8, record_timeline=True)
        sim = Simulator(
            make_trace(BLOCKS), make_policy("forestall"), 4, config,
            observer=observer,
        )
        refs = run_parts(sim)
        sim.run()
        timeline = sim.timeline
        assert timeline.events and observer.results
        del sim
        assert alive(refs) == []

    def test_two_process_run(self):
        workloads = [
            (make_trace(BLOCKS, name="a"), make_policy("forestall")),
            (make_trace(BLOCKS[::-1], name="b"), make_policy("aggressive")),
        ]
        multi = MultiProcessSimulator(
            workloads, 4, simple_config(cache_blocks=16),
            allocator=CostBenefitAllocator(period_ms=50.0),
        )
        refs = [weakref.ref(multi)]
        for process in multi.processes:
            refs += run_parts(process)
        del workloads, process
        multi.run()
        del multi
        assert alive(refs) == []

    def test_run_whose_policy_raises(self):
        class Failing(PrefetchPolicy):
            """Demand fetching that fails a third of the way in."""

            name = "failing"

            def before_reference(self, cursor, now):
                if cursor == len(BLOCKS) // 3:
                    raise RuntimeError("policy failed mid-run")

        sim = Simulator(make_trace(BLOCKS), Failing(), 4, ARRAYS["striped"])
        refs = run_parts(sim)
        try:
            sim.run()
        except RuntimeError as exc:
            assert "mid-run" in str(exc)
        else:
            pytest.fail("the policy's error did not propagate")
        del sim
        assert alive(refs) == []


class TestSecondRun:
    """``run()`` on a finished run dispatches nothing and returns a result
    equal to the first."""

    def test_single_process(self):
        sim = Simulator(
            make_trace(BLOCKS), make_policy("forestall"), 4,
            ARRAYS["mirrored-faults"],
        )
        first = sim.run()
        assert sim.run() == first

    def test_after_a_raise(self):
        """A run that raised leaves no event queued: a second ``run()``
        dispatches nothing and refuses to report the unfinished trace,
        naming the first run's error rather than a deadlock."""

        class Failing(Aggressive):
            def on_fetch_complete(self, disk, service_ms):
                raise RuntimeError("policy failed mid-run")

        sim = Simulator(make_trace(BLOCKS), Failing(), 4, ARRAYS["striped"])
        with pytest.raises(RuntimeError, match="mid-run"):
            sim.run()
        dispatched = sim.events_dispatched
        with pytest.raises(RuntimeError, match="policy failed mid-run"):
            sim.run()
        assert sim.events_dispatched == dispatched

    def test_multi_process(self):
        multi = MultiProcessSimulator(
            [
                (make_trace(BLOCKS, name="a"), make_policy("forestall")),
                (make_trace(BLOCKS[::-1], name="b"), make_policy("demand")),
            ],
            4, simple_config(cache_blocks=16),
            allocator=CostBenefitAllocator(period_ms=50.0),
        )
        first = multi.run()
        assert multi.run() == first
