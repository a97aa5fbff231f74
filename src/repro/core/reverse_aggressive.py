"""The reverse aggressive algorithm (Kimbrel & Karlin, FOCS '96).

Reverse aggressive exploits *global* knowledge: it constructs a prefetching
schedule for the **reversed** request sequence — greedily, per disk, with
batching, assuming a fixed fetch-time/compute-time ratio ``F`` — and then
transforms that schedule back to the forward direction by treating each
reverse fetch as a forward eviction and vice versa.  The reverse pass's
greed translates into two forward-direction virtues: evictions are chosen
so the evicted blocks can later be *refetched in parallel* (load balance),
and fetches land just in time, enabling the best possible late replacement
decisions.  The price is complexity and dependence on a good estimate of
``F`` — the paper's cscope3 result shows what happens when inter-reference
compute times are too bursty for any single estimate.

Concretely, the transform yields an ordered list of eviction choices, each
with a *release index* (one past the block's last use before it is fetched
back).  The forward executor is then aggressive-shaped: whenever a disk is
free it batch-fetches the first missing blocks on that disk, but takes its
eviction victims from the precomputed schedule instead of choosing greedily.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, cast

from repro.core.aggressive import fill_free_disks
from repro.core.batching import batch_size_for
from repro.core.policy import (
    MissingScanner, PrefetchPolicy, SimulatorLike, Victim, refuse_out_of_range,
)
from repro.theory.model import run_aggressive_model

#: Fetch-time estimates (in reference-time units) swept by Appendix F.
APPENDIX_F_FETCH_TIMES = (4, 8, 16, 32, 64, 128)

#: Reverse-pass batch sizes swept by Appendix F.
APPENDIX_F_BATCH_SIZES = (4, 8, 16, 40, 80, 160)


class ReverseAggressive(PrefetchPolicy):
    """Offline near-optimal prefetching via the reversed-sequence pass."""

    def __init__(
        self,
        fetch_time_estimate: Optional[float] = None,
        reverse_batch_size: Optional[int] = None,
        forward_batch_size: Optional[int] = None,
        nominal_access_ms: float = 15.0,
    ) -> None:
        super().__init__()
        refuse_out_of_range("reverse-aggressive", (
            ("fetch_time_estimate", fetch_time_estimate,
             fetch_time_estimate is None or (
                 math.isfinite(fetch_time_estimate) and fetch_time_estimate > 0
             ), "finite and > 0"),
            ("reverse_batch_size", reverse_batch_size,
             reverse_batch_size is None or reverse_batch_size >= 1, "at least 1"),
            ("forward_batch_size", forward_batch_size,
             forward_batch_size is None or forward_batch_size >= 1, "at least 1"),
            ("nominal_access_ms", nominal_access_ms,
             math.isfinite(nominal_access_ms) and nominal_access_ms > 0,
             "finite and > 0"),
        ))
        self.fetch_time_estimate = fetch_time_estimate
        self._reverse_batch_override = reverse_batch_size
        self._forward_batch_override = forward_batch_size
        self.nominal_access_ms = nominal_access_ms
        if fetch_time_estimate is None and reverse_batch_size is None:
            self.name = "reverse-aggressive"
        else:
            self.name = (
                f"reverse-aggressive(F={fetch_time_estimate},"
                f"rbatch={reverse_batch_size})"
            )
        self.batch_size = 0  # resolved against the array size in bind()
        self._scanner = cast(MissingScanner, None)  # set in bind()
        # The transformed schedule: eviction choices ordered by release.
        self._evictions: List[Tuple[int, int]] = []  # (release_index, block)
        self._eviction_pos = 0

    # -- schedule construction ---------------------------------------------------

    def bind(self, sim: SimulatorLike) -> None:
        super().bind(sim)
        self.batch_size = batch_size_for(sim.num_disks, self._forward_batch_override)
        self._scanner = MissingScanner(sim)
        estimate = self.fetch_time_estimate
        if estimate is None:
            estimate = self._auto_estimate(sim)
        reverse_batch = self._reverse_batch_override
        if reverse_batch is None:
            reverse_batch = self.batch_size
        self._build_schedule(sim, float(estimate), reverse_batch)

    def _auto_estimate(self, sim: SimulatorLike) -> float:
        """F ≈ expected disk access time / mean inter-reference compute time.

        The access-time guess is sequentiality-aware: mostly-sequential
        traces hit the drive's readahead cache and see 3–4 ms responses,
        while random traces pay full seeks (the paper's ~15 ms).  The paper
        instead grid-searches F per trace (Appendix F); this heuristic is
        the sweep-free default.
        """
        n = len(sim.compute_ms)
        mean_compute = (sum(sim.compute_ms) / n) if n else 1.0
        if mean_compute <= 0:
            mean_compute = 1e-3
        blocks = sim.blocks
        sequential = sum(
            1 for i in range(1, len(blocks)) if blocks[i] == blocks[i - 1] + 1
        )
        seq_frac = sequential / max(1, len(blocks) - 1)
        if seq_frac >= 0.7:
            access_ms = 3.5
        elif seq_frac <= 0.3:
            access_ms = self.nominal_access_ms
        else:
            access_ms = (3.5 + self.nominal_access_ms) / 2.0
        estimate = access_ms / mean_compute
        return min(256.0, max(1.0, estimate))

    def _build_schedule(
        self, sim: SimulatorLike, fetch_time: float, reverse_batch: int
    ) -> None:
        blocks = sim.blocks
        n = len(blocks)
        # The model asks disk_of once per block.  bind runs at time 0 with
        # the array idle, so even a mirrored array's choice of spindle is a
        # function of the block here.
        run = run_aggressive_model(
            blocks[::-1],
            cache_blocks=sim.cache.capacity,
            fetch_time=fetch_time,
            num_disks=sim.num_disks,
            disk_of=sim.disk_of,
            batch_size=reverse_batch,
        )
        # Reverse fetch of X targeting reverse position p == forward
        # eviction of X released at n - p (after X's last prior forward use).
        # Reverse fetches into *free buffers* (victim None) correspond to
        # blocks resident in the forward run's final cache: no forward fetch
        # pairs with them, so they produce no eviction.
        evictions = [
            (n - event.target_position, event.block)
            for event in reversed(run.events)
            if event.victim is not None
        ]
        evictions.sort(key=lambda pair: pair[0])
        self._evictions = evictions
        self._eviction_pos = 0

    # -- forward execution -----------------------------------------------------------

    def on_evict(self, block: int, next_use: float) -> None:
        self._scanner.invalidate(next_use)

    def before_reference(self, cursor: int, now: float) -> None:
        self._fill_free_disks(cursor)

    def on_disk_idle(self, disk: int, now: float) -> None:
        self._fill_free_disks(self.sim.cursor)

    def on_miss(self, cursor: int, now: float) -> None:
        block = self.sim.reference_block(cursor)
        victim = self._next_scheduled_victim(cursor, cursor)
        if victim is False:
            victim = self.choose_victim(cursor)
        if victim is False:
            return  # no buffer free; the engine retries after a completion
        self.issue(block, victim)

    def _fill_free_disks(self, cursor: int) -> None:
        fill_free_disks(self, self._scanner, self.batch_size, cursor,
                        self._next_scheduled_victim)

    def _next_scheduled_victim(self, cursor: int, fetch_position: int) -> Victim:
        """The next released eviction from the schedule, or None for a free
        buffer, or False when nothing may be evicted yet."""
        sim = self.sim
        if sim.cache.free_buffers > 0:
            return None
        protected = sim.protected_blocks()
        evictions = self._evictions
        position = self._eviction_pos
        while position < len(evictions):
            release, block = evictions[position]
            if block in protected:
                # A degraded hint stream can schedule the very block the
                # app is stalled on; wait rather than livelock.
                self._eviction_pos = position
                return False
            if release > cursor:
                # Entries are release-ordered: nothing is releasable yet.
                self._eviction_pos = position
                return False
            if block in sim.cache.resident:
                # next_use == index.never exceeds any real fetch position,
                # so never-again blocks stay evictable here.
                if sim.index.next_use(block, cursor) <= fetch_position:
                    self._eviction_pos = position
                    return False  # do-no-harm overrides the schedule
                self._eviction_pos = position + 1
                return block
            if sim.cache.is_in_flight(block):
                self._eviction_pos = position
                return False  # victim still arriving; wait for it
            position += 1  # released but already gone: stale, skip for good
        self._eviction_pos = position
        return False
