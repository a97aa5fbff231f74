"""Write references and write-behind flushing."""

import dataclasses
import random

import pytest

from repro.core import SimConfig, Simulator, make_policy
from repro.core.forestall import Forestall
from repro.core.hints import HintQuality, degrade_hints
from repro.runner import result_digest
from repro.trace import Trace
from tests.conftest import simple_config
from tests.survey_oracle import rank_by_rank_survey


def rw_trace(blocks, writes, compute_ms=1.0, name="rw"):
    return Trace(
        name=name,
        blocks=list(blocks),
        compute_ms=[float(compute_ms)] * len(blocks),
        writes=list(writes),
    )


def run(blocks, writes, policy="demand", cache_blocks=4, num_disks=1,
        compute_ms=1.0):
    trace = rw_trace(blocks, writes, compute_ms)
    sim = Simulator(
        trace, make_policy(policy), num_disks,
        simple_config(cache_blocks=cache_blocks),
    )
    return sim.run()


class TestTraceWrites:
    def test_mask_length_validated(self):
        with pytest.raises(ValueError, match="writes mask"):
            rw_trace([1, 2], [True])

    def test_read_write_counters(self):
        t = rw_trace([1, 2, 3, 1], [False, True, False, True])
        assert t.references == 4
        assert t.reads == 2
        assert t.write_count == 2

    def test_scaled_slices_writes(self):
        t = rw_trace([1, 2, 3, 4], [True, False, True, False])
        half = t.scaled(0.5)
        assert half.writes == [True, False]

    def test_save_load_roundtrip(self, tmp_path):
        t = rw_trace([1, 2], [True, False])
        path = str(tmp_path / "t.json")
        t.save(path)
        assert Trace.load(path).writes == [True, False]


class TestWriteAllocate:
    def test_write_miss_needs_no_disk_read(self):
        # Pure-write trace: no fetches at all, only eventual flushes.
        result = run([0, 1, 2], [True, True, True], cache_blocks=4)
        assert result.fetches == 0
        assert result.stall_ms == 0.0
        assert result.extras["writes"] == 3

    def test_write_then_read_hits(self):
        # Writing block 0 makes it resident; the read costs nothing extra.
        result = run([0, 0], [True, False], cache_blocks=4)
        assert result.fetches == 0

    def test_read_then_write_marks_dirty_once(self):
        result = run([0, 0, 0], [False, True, True], cache_blocks=4)
        assert result.fetches == 1
        assert result.extras["writes"] == 2


class TestWriteBehind:
    def test_dirty_eviction_flushes(self):
        # Cache of 1: each new write evicts the previous dirty block.
        result = run([0, 1, 2], [True, True, True], cache_blocks=1)
        assert result.extras["flushes"] == 2  # block 2 still cached at end

    def test_clean_eviction_does_not_flush(self):
        result = run([0, 1, 2], [False, False, False], cache_blocks=1)
        assert result.extras["flushes"] == 0

    def test_flush_charges_driver_overhead(self):
        dirty = run([0, 1, 2], [True, True, True], cache_blocks=1)
        # 2 flushes x 0.5 ms, zero fetches
        assert dirty.driver_ms == pytest.approx(2 * 0.5)

    def test_application_does_not_wait_for_flush(self):
        """Write-behind masks update latency (section 1.1): a pure-write
        stream runs at compute speed despite constant flushing."""
        blocks = list(range(40))
        result = run(blocks, [True] * 40, cache_blocks=2, compute_ms=2.0)
        assert result.stall_ms == 0.0
        assert result.elapsed_ms == pytest.approx(
            result.compute_ms + result.driver_ms
        )

    def test_flush_traffic_occupies_disks(self):
        writes = run(list(range(30)), [True] * 30, cache_blocks=2,
                     compute_ms=2.0)
        assert sum(writes.per_disk_busy_ms) > 0

    def test_writes_slower_than_pure_reads_when_contending(self):
        """Flush traffic competes with fetches for the disk."""
        blocks = list(range(20)) * 2
        mask = [i % 2 == 1 for i in range(40)]
        mixed = run(blocks, mask, policy="fixed-horizon", cache_blocks=8,
                    compute_ms=2.0)
        reads = run(blocks, [False] * 40, policy="fixed-horizon",
                    cache_blocks=8, compute_ms=2.0)
        assert mixed.elapsed_ms >= reads.elapsed_ms * 0.99


class TestWritesWithPrefetchers:
    @pytest.mark.parametrize(
        "policy", ["demand", "fixed-horizon", "aggressive", "forestall"]
    )
    def test_accounting_identity_with_writes(self, policy):
        blocks = [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
        mask = [i % 3 == 0 for i in range(12)]
        result = run(blocks, mask, policy=policy, cache_blocks=4)
        total = result.compute_ms + result.driver_ms + result.stall_ms
        assert result.elapsed_ms == pytest.approx(total, abs=1e-6)
        assert result.references == 12

    def test_forestall_skips_a_block_written_in_place(self):
        # Minimized from the one-engine property: the write at position 13
        # allocates block 2 in place, and the app step re-entered at that
        # cursor made forestall fetch the now-resident block.
        blocks = [0] * 8 + [1, 5, 0, 0, 1, 2] + [0] * 12
        mask = [position in (9, 13) for position in range(len(blocks))]
        sim = Simulator(
            rw_trace(blocks, mask, compute_ms=0.5), make_policy("forestall"),
            2, SimConfig(cache_blocks=2, discipline="fcfs", mirrored=True),
        )
        result = sim.run()
        assert result.references == len(blocks)

    def test_forestall_survey_matches_rank_by_rank_on_writes(
            self, monkeypatch):
        # On a write trace, whose in-place allocations remove tracker
        # entries, the survey's jumps must give the same run as the
        # rank-by-rank walk kept in tests/survey_oracle.py, on striped and
        # mirrored arrays, with perfect and degraded hints.  Compute as
        # long as a fetch leaves the lists slack, so they seldom fire and
        # the survey jumps over most of their ranks.
        rng = random.Random(1)
        blocks = [rng.randrange(600) for _ in range(1000)]
        mask = [rng.random() < 0.5 for _ in range(1000)]
        trace = rw_trace(blocks, mask, compute_ms=5.0)
        config = SimConfig(
            cache_blocks=128, driver_overhead_ms=2.0, disk_model="simple",
            simple_access_ms=5.0, simple_sequential_ms=5.0,
        )
        degraded = degrade_hints(
            trace, HintQuality(missing_fraction=0.1, wrong_fraction=0.05,
                               seed=3)
        )

        def digest(mirrored, hints):
            sim = Simulator(
                trace, Forestall(batch_size=1), 2,
                dataclasses.replace(config, mirrored=mirrored), hints=hints,
            )
            return result_digest(sim.run())

        for mirrored in (False, True):
            for hints in (None, degraded):
                jumping = digest(mirrored, hints)
                with monkeypatch.context() as patch:
                    patch.setattr(Forestall, "_survey", rank_by_rank_survey)
                    assert digest(mirrored, hints) == jumping, (mirrored, hints)

    def test_no_writes_means_no_extras(self):
        from tests.conftest import run as plain_run

        result = plain_run([0, 1, 2])
        assert result.extras == {}
