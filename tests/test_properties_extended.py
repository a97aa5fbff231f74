"""Property-based tests for the disk layer, writes, hints, and the
multi-process simulator."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import POLICIES, SimConfig, Simulator, make_policy
from repro.core import forestall as forestall_module
from repro.core.forestall import Forestall
from repro.core.nextref import HAVE_NUMPY, ScanSupport
from repro.core.hints import HintQuality, degrade_hints, resolve_hint_view
from repro.core.multiprocess import MultiProcessSimulator, StaticAllocator
from repro.disk.drive import DiskDrive
from repro.disk.geometry import HP97560
from repro.disk.scheduler import CSCANQueue, FCFSQueue, Request
from repro.faults import DiskFailure, FaultSchedule, UnrecoverableReadError
from repro.runner import result_digest
from repro.trace import Trace
from tests.conftest import make_trace, simple_config

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_traces = st.lists(st.integers(0, 9), min_size=1, max_size=30)


class TestDriveProperties:
    @given(
        lbns=st.lists(
            st.integers(0, HP97560.total_blocks - 1), min_size=1, max_size=40
        )
    )
    @RELAXED
    def test_service_times_positive_and_bounded(self, lbns):
        drive = DiskDrive()
        t = 0.0
        worst = (
            HP97560.controller_overhead_ms
            + 8.0 + 0.008 * HP97560.cylinders  # longest seek
            + HP97560.rotation_ms
            + HP97560.block_media_transfer_ms
            + HP97560.rotation_ms  # readahead cache_wait slack
        )
        for lbn in lbns:
            breakdown = drive.service(lbn, t)
            assert breakdown.total > 0
            assert breakdown.total <= worst
            t += breakdown.total

    @given(
        lbns=st.lists(
            st.integers(0, HP97560.total_blocks - 1), min_size=2, max_size=30
        )
    )
    @RELAXED
    def test_cache_hit_never_slower_than_fresh_mechanical(self, lbns):
        """The cache-vs-mechanical arbitration guarantees a hit is taken
        only when it wins."""
        drive = DiskDrive()
        t = 0.0
        for lbn in lbns:
            before_cyl = drive._cylinder
            before_track = drive._track
            breakdown = drive.service(lbn, t)
            if breakdown.cache_hit:
                shadow = DiskDrive()
                shadow._cylinder = before_cyl
                shadow._track = before_track
                mech = shadow.service(lbn, t)
                assert breakdown.total <= mech.total + 1e-9
            t += breakdown.total


class TestSchedulerProperties:
    requests = st.lists(st.integers(0, 500), min_size=1, max_size=25)

    @given(lbns=requests)
    @RELAXED
    def test_every_request_served_exactly_once(self, lbns):
        for queue_type in (FCFSQueue, CSCANQueue):
            queue = queue_type(lambda lbn: lbn // 10)
            for seq, lbn in enumerate(lbns):
                queue.push(Request(lbn=lbn, block=lbn, seq=seq))
            served = []
            head = 0
            while True:
                request = queue.pop(head)
                if request is None:
                    break
                served.append((request.lbn, request.seq))
                head = request.lbn // 10
            assert sorted(served) == sorted(
                (lbn, seq) for seq, lbn in enumerate(lbns)
            )

    @given(lbns=requests)
    @RELAXED
    def test_cscan_travel_never_exceeds_fcfs(self, lbns):
        def travel(queue_type):
            queue = queue_type(lambda lbn: lbn)
            for seq, lbn in enumerate(lbns):
                queue.push(Request(lbn=lbn, block=lbn, seq=seq))
            head, total = 0, 0
            while True:
                request = queue.pop(head)
                if request is None:
                    return total
                # circular distance: CSCAN wraps in one direction
                total += abs(request.lbn - head)
                head = request.lbn
            return total

        assert travel(CSCANQueue) <= travel(FCFSQueue) + 501  # one wrap slack


class TestWriteProperties:
    @given(
        blocks=small_traces,
        mask_seed=st.integers(0, 10),
        policy=st.sampled_from(["demand", "fixed-horizon", "forestall"]),
    )
    @RELAXED
    def test_any_write_mix_completes_with_exact_accounting(
        self, blocks, mask_seed, policy
    ):
        import random

        rng = random.Random(mask_seed)
        writes = [rng.random() < 0.4 for _ in blocks]
        from repro.trace import Trace

        trace = Trace("p", list(blocks), [1.0] * len(blocks), writes=writes)
        sim = Simulator(
            trace, make_policy(policy), 2, simple_config(cache_blocks=4)
        )
        result = sim.run()
        assert result.references == len(blocks)
        total = result.compute_ms + result.driver_ms + result.stall_ms
        assert result.elapsed_ms == pytest.approx(total, abs=1e-6)
        assert result.extras["flushes"] <= result.extras["writes"]

    @given(blocks=small_traces)
    @RELAXED
    def test_pure_write_stream_never_stalls(self, blocks):
        from repro.trace import Trace

        trace = Trace(
            "w", list(blocks), [1.0] * len(blocks), writes=[True] * len(blocks)
        )
        sim = Simulator(
            trace, make_policy("demand"), 1, simple_config(cache_blocks=4)
        )
        result = sim.run()
        assert result.stall_ms == 0.0
        assert result.fetches == 0


class TestHintProperties:
    @given(
        blocks=small_traces,
        missing=st.floats(0.0, 0.5),
        wrong=st.floats(0.0, 0.5),
        seed=st.integers(0, 5),
        policy=st.sampled_from(["fixed-horizon", "aggressive", "forestall"]),
    )
    @RELAXED
    def test_degraded_hints_never_break_correctness(
        self, blocks, missing, wrong, seed, policy
    ):
        trace = make_trace(blocks)
        quality = HintQuality(
            missing_fraction=missing, wrong_fraction=wrong, seed=seed
        )
        hints = degrade_hints(trace, quality)
        sim = Simulator(
            trace, make_policy(policy), 2,
            simple_config(cache_blocks=4), hints=hints,
        )
        result = sim.run()
        assert result.references == len(blocks)

    @given(blocks=small_traces, seed=st.integers(0, 5))
    @RELAXED
    def test_resolved_view_always_names_real_blocks(self, blocks, seed):
        trace = make_trace(blocks)
        hints = degrade_hints(
            trace, HintQuality(missing_fraction=0.4, seed=seed)
        )
        view = resolve_hint_view(trace.blocks, hints)
        assert len(view) == len(blocks)
        universe = set(blocks)
        assert all(block in universe for block in view)


class TestMultiProcessProperties:
    @given(
        a=small_traces,
        b=small_traces,
        disks=st.integers(1, 3),
        policy=st.sampled_from(["demand", "fixed-horizon", "aggressive"]),
    )
    @RELAXED
    def test_two_arbitrary_processes_complete(self, a, b, disks, policy):
        sim = MultiProcessSimulator(
            [
                (make_trace(a, name="A"), make_policy(policy)),
                (make_trace(b, name="B"), make_policy("demand")),
            ],
            num_disks=disks,
            config=SimConfig(
                cache_blocks=8, disk_model="simple",
                simple_access_ms=5.0, simple_sequential_ms=None,
            ),
            allocator=StaticAllocator(),
        )
        results = sim.run()
        assert results[0].references == len(a)
        assert results[1].references == len(b)
        for r in results:
            total = r.compute_ms + r.driver_ms + r.stall_ms
            assert r.elapsed_ms == pytest.approx(total, abs=1e-6)


@st.composite
def traces_with_writes(draw):
    blocks = draw(st.lists(st.integers(0, 15), min_size=1, max_size=40))
    writes = draw(st.one_of(
        st.none(),
        st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)),
    ))
    compute = draw(st.sampled_from([0.5, 2.0, 8.0]))
    return Trace(name="t", blocks=blocks, compute_ms=[compute] * len(blocks),
                 writes=writes)


def _outcome(run):
    """A run's digest, or the unrecoverable read that ended it."""
    try:
        return result_digest(run())
    except UnrecoverableReadError as exc:
        return f"unrecoverable: {exc}"


class TestOneEngine:
    @given(
        trace=traces_with_writes(),
        policy=st.sampled_from(sorted(POLICIES)),
        disks=st.integers(1, 4),
        discipline=st.sampled_from(["fcfs", "cscan", "sstf"]),
        disk_model=st.sampled_from(
            ["hp97560", "hp97560-zoned", "ibm0661", "simple"]
        ),
        cache_blocks=st.integers(2, 8),
        mirrored=st.booleans(),
        error_rate=st.sampled_from([0.0, 0.1, 0.3]),
        death=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 3), st.sampled_from([0.0, 20.0, 80.0])),
        ),
    )
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_one_process_is_the_engine(
        self, trace, policy, disks, discipline, disk_model, cache_blocks,
        mirrored, error_rate, death,
    ):
        if mirrored and disks % 2:
            disks += 1
        failures = ()
        if death is not None:
            failures = (DiskFailure(disk=death[0] % disks, at_ms=death[1]),)
        config = SimConfig(
            cache_blocks=cache_blocks, discipline=discipline,
            disk_model=disk_model, mirrored=mirrored,
            faults=FaultSchedule(read_error_rate=error_rate,
                                 disk_failures=failures),
        )
        alone = _outcome(
            lambda: Simulator(trace, make_policy(policy), disks, config).run()
        )
        shared = _outcome(
            lambda: MultiProcessSimulator(
                [(trace, make_policy(policy))], disks, config
            ).run()[0]
        )
        assert shared == alone


FIVE_HINTED = (
    "demand", "fixed-horizon", "aggressive", "reverse-aggressive", "forestall"
)


@st.composite
def long_runs(draw, caches=(64, 128)):
    """Traces long and cold enough that forestall's per-disk missing lists
    pass its walk crossover once caches reach 128 blocks."""
    cache = draw(st.integers(*caches))
    length = draw(st.integers(300, 1000))
    universe = draw(st.integers(3 * cache, 8 * cache))
    write_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
    # Short compute keeps the run I/O-bound, where prefetch batches are
    # deep; 5 ms of compute per 5 ms fetch leaves slack, where long
    # missing lists seldom fire and forestall's survey runs numpy.
    compute = draw(st.sampled_from([0.25, 0.5, 2.0, 5.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = [rng.randrange(universe) for _ in range(length)]
    writes = [rng.random() < write_share for _ in blocks] if write_share else None
    trace = Trace(
        name="long", blocks=blocks, compute_ms=[compute] * length,
        writes=writes,
    )
    config = simple_config(
        cache_blocks=cache, access_ms=5.0, sequential_ms=5.0,
        driver_overhead_ms=draw(st.sampled_from([0.0, 0.5, 2.0])),
    )
    # Forestall's batch size sets how deep each triggered disk issues.
    batch = draw(st.sampled_from([None, 1, 2, 4]))
    return trace, draw(st.integers(1, 4)), config, batch


class TestVectorPathsAgreeWholeRun:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="the vectorized path needs numpy")
    @pytest.mark.parametrize("policy", FIVE_HINTED)
    def test_numpy_and_pure_python_runs_are_bit_identical(self, policy):
        numpy_passes = []
        rank_array = Forestall._rank_array

        def counting(policy, count):
            numpy_passes.append(count)
            return rank_array(policy, count)

        def digest(trace, disks, config, batch):
            kwargs = {"batch_size": batch} if policy == "forestall" else {}
            sim = Simulator(trace, make_policy(policy, **kwargs), disks, config)
            return result_digest(sim.run())

        caches = (128, 256) if policy == "forestall" else (64, 128)

        @given(case=long_runs(caches))
        @settings(max_examples=60 if policy == "forestall" else 25,
                  deadline=None, suppress_health_check=[HealthCheck.too_slow])
        def check(case):
            vectorized = digest(*case)
            with mock.patch.object(
                ScanSupport, "build", classmethod(lambda cls, blocks: None)
            ):
                assert digest(*case) == vectorized
            if policy == "forestall":
                with mock.patch.object(forestall_module, "_np", None):
                    assert digest(*case) == vectorized

        with mock.patch.object(Forestall, "_rank_array", counting):
            check()
        if policy == "forestall":
            assert numpy_passes
