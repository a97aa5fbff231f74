"""Aggressive: earliest allowed prefetching under the do-no-harm rule."""

import pytest

from repro.core import Aggressive, Simulator
from repro.core.batching import batch_size_for
from tests.conftest import make_trace, run, simple_config


class IssueSpy(Aggressive):
    """Records (fetch position, victim next-use, cursor) for every issue."""

    def __init__(self, log, **kw):
        super().__init__(**kw)
        self.log = log

    def issue(self, block, victim):
        cursor = self.sim.cursor
        fetch_pos = self.sim.index.next_use(block, cursor)
        victim_next = (
            None if victim is None
            else self.sim.index.next_use(victim, cursor)
        )
        self.log.append((block, fetch_pos, victim, victim_next, cursor))
        super().issue(block, victim)


class TestDoNoHarm:
    def test_victim_always_needed_after_fetched_block(self):
        log = []
        blocks = ([0, 1, 2, 3, 4, 5, 6, 7] * 4)
        trace = make_trace(blocks)
        sim = Simulator(trace, IssueSpy(log, batch_size=4), 1,
                        simple_config(cache_blocks=4))
        sim.run()
        for _block, fetch_pos, victim, victim_next, _cursor in log:
            if victim is not None:
                # never-again victims satisfy this too: never > any position
                assert victim_next > fetch_pos

    def test_prefetches_start_immediately(self):
        """Whenever a disk is free, aggressive fetches the first missing
        block — the very first issue happens at cursor 0 for block 0, and
        deeper blocks follow without the cursor moving."""
        log = []
        trace = make_trace(list(range(10)), compute_ms=50.0)
        sim = Simulator(trace, IssueSpy(log, batch_size=4), 1,
                        simple_config(cache_blocks=20))
        sim.run()
        issued_block_cursors = [(b, c) for b, _f, _v, _vn, c in log]
        # several blocks issued while the cursor is still at 0
        early = [b for b, c in issued_block_cursors if c == 0]
        assert len(early) >= 4

    def test_fetches_first_missing_in_order(self):
        log = []
        trace = make_trace(list(range(12)), compute_ms=30.0)
        sim = Simulator(trace, IssueSpy(log, batch_size=2), 1,
                        simple_config(cache_blocks=30))
        sim.run()
        fetched = [b for b, *_ in log]
        assert fetched == sorted(fetched)


class TestBatching:
    @pytest.mark.parametrize("batch_size", [0, -1, float("nan")])
    def test_out_of_range_batch_size_is_refused_when_built(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            Aggressive(batch_size=batch_size)

    def test_table6_defaults(self):
        assert batch_size_for(1) == 80
        assert batch_size_for(2) == 40
        assert batch_size_for(3) == 40
        assert batch_size_for(4) == 16
        assert batch_size_for(5) == 16
        assert batch_size_for(6) == 8
        assert batch_size_for(7) == 8
        assert batch_size_for(8) == 4
        assert batch_size_for(16) == 4

    def test_override(self):
        assert batch_size_for(1, override=7) == 7
        with pytest.raises(ValueError):
            batch_size_for(1, override=0)

    def test_policy_uses_table6(self):
        trace = make_trace(list(range(4)))
        policy = Aggressive()
        Simulator(trace, policy, 3, simple_config(cache_blocks=8))
        assert policy.batch_size == 40

    def test_queue_depth_bounded_by_batch_size(self):
        max_depth = [0]

        class DepthSpy(Aggressive):
            def issue(self, block, victim):
                super().issue(block, victim)
                q = self.sim.array.queue_length(0)
                busy = 0 if self.sim.array.is_idle(0) else 1
                max_depth[0] = max(max_depth[0], q + busy)

        trace = make_trace(list(range(64)), compute_ms=0.2)
        sim = Simulator(trace, DepthSpy(batch_size=5), 1,
                        simple_config(cache_blocks=80))
        sim.run()
        assert max_depth[0] <= 5

    def test_new_batch_only_when_disk_drains(self):
        """A disk accepts a new batch only after finishing the previous one
        (idle with an empty queue)."""
        events = []

        class BatchSpy(Aggressive):
            def _fill_free_disks(self, cursor):
                before = self.sim.fetch_count
                super()._fill_free_disks(cursor)
                issued = self.sim.fetch_count - before
                if issued:
                    events.append(issued)

        trace = make_trace(list(range(40)), compute_ms=0.2)
        sim = Simulator(trace, BatchSpy(batch_size=4), 1,
                        simple_config(cache_blocks=50))
        sim.run()
        assert all(size <= 4 for size in events)
        assert any(size > 1 for size in events)


class TestMultiDisk:
    def test_parallel_prefetch_across_disks(self):
        blocks = list(range(16))
        one = run(blocks, policy="aggressive", num_disks=1, cache_blocks=20,
                  compute_ms=1.0)
        four = run(blocks, policy="aggressive", num_disks=4, cache_blocks=20,
                   compute_ms=1.0)
        assert four.stall_ms < one.stall_ms

    def test_busy_disk_blocks_skipped_for_other_disks(self):
        """When disk 0 is mid-batch, missing blocks on disk 1 are still
        issued (global order, per-disk budgets)."""
        log = []
        # even blocks -> disk 0, odd -> disk 1 under 2-disk striping
        trace = make_trace(list(range(12)), compute_ms=20.0)
        sim = Simulator(trace, IssueSpy(log, batch_size=2), 2,
                        simple_config(cache_blocks=20))
        sim.run()
        disks_of_first_four = {b % 2 for b, *_ in log[:4]}
        assert disks_of_first_four == {0, 1}


class TestRegimes:
    def test_wins_when_io_bound(self):
        # Clustered missing blocks: FH idles the disk through the cached
        # run; aggressive uses that time.
        blocks = list(range(16)) * 6
        agg = run(blocks, policy="aggressive", cache_blocks=12,
                  compute_ms=5.0, batch_size=8)
        fh = run(blocks, policy="fixed-horizon", cache_blocks=12,
                 compute_ms=5.0, horizon=2)
        assert agg.elapsed_ms < fh.elapsed_ms

    def test_extra_fetches_cost_driver_time_when_compute_bound(self):
        """Section 4.2: aggressive's driver overhead exceeds FH's in
        compute-bound situations because it fetches more."""
        blocks = list(range(10)) * 8
        agg = run(blocks, policy="aggressive", num_disks=4, cache_blocks=6,
                  compute_ms=30.0)
        fh = run(blocks, policy="fixed-horizon", num_disks=4, cache_blocks=6,
                 compute_ms=30.0, horizon=3)
        assert agg.driver_ms >= fh.driver_ms
