"""The multi-disk aggressive algorithm (after Cao et al.'s single-disk
aggressive).

    Whenever a disk is free, prefetch the first missing block on that disk,
    replacing the block whose next reference is furthest in the future,
    under the condition that the next access to the evicted block is after
    the next access to the block being fetched (do no harm).

Requests are submitted in batches (Table 6) so the disk scheduler can
reorder them.  When several disks are free at once, missing blocks are
considered in increasing request-index order, each routed to its disk,
until every free disk's batch fills or do-no-harm stops further fetching —
exactly the implementation described in section 2.7.
"""

from __future__ import annotations

from typing import Callable, Optional, cast

from repro.core.batching import batch_size_for
from repro.core.policy import (
    MissingScanner, PrefetchPolicy, SimulatorLike, Victim, refuse_out_of_range,
)


class Aggressive(PrefetchPolicy):
    """Prefetch as early as the do-no-harm rule allows, in batches."""

    def __init__(self, batch_size: Optional[int] = None) -> None:
        super().__init__()
        refuse_out_of_range("aggressive", (
            ("batch_size", batch_size, batch_size is None or batch_size >= 1,
             "at least 1"),
        ))
        self._batch_override = batch_size
        if batch_size is None:
            self.name = "aggressive"
        else:
            self.name = f"aggressive(batch={batch_size})"
        self.batch_size = 0  # resolved against the array size in bind()
        self._scanner = cast(MissingScanner, None)  # set in bind()

    def bind(self, sim: SimulatorLike) -> None:
        super().bind(sim)
        self.batch_size = batch_size_for(sim.num_disks, self._batch_override)
        self._scanner = MissingScanner(sim)

    def on_evict(self, block: int, next_use: float) -> None:
        self._scanner.invalidate(next_use)

    def before_reference(self, cursor: int, now: float) -> None:
        self._fill_free_disks(cursor)

    def on_disk_idle(self, disk: int, now: float) -> None:
        self._fill_free_disks(self.sim.cursor)

    def on_miss(self, cursor: int, now: float) -> None:
        super().on_miss(cursor, now)
        self._scanner.floor = max(self._scanner.floor, cursor + 1)
        self._fill_free_disks(cursor)

    # -- batch construction ------------------------------------------------------

    def _fill_free_disks(self, cursor: int) -> None:
        fill_free_disks(self, self._scanner, self.batch_size, cursor,
                        self._victim_for)

    def _victim_for(self, cursor: int, fetch_position: int) -> Victim:
        """Free buffer (None), a do-no-harm-compatible victim, or False."""
        sim = self.sim
        if sim.cache.free_buffers > 0:
            return None
        victim = sim.eviction_heap.best_victim(
            cursor, exclude=sim.protected_blocks()
        )
        if victim is None:
            return False
        # next_use is index.never (> any real fetch position) for a block
        # that is never referenced again, so one exact comparison suffices.
        if sim.index.next_use(victim, cursor) <= fetch_position:
            return False
        return victim


def fill_free_disks(
    policy: PrefetchPolicy,
    scanner: MissingScanner,
    batch_size: int,
    cursor: int,
    victim_for: Callable[[int, int], Victim],
) -> None:
    """The aggressive family's batch rule (section 2.7): walk the missing
    blocks from ``cursor`` in request order, routing each to its disk,
    until every disk that was free on entry has issued ``batch_size``
    fetches or ``victim_for(cursor, position)`` refuses an eviction
    (False).  Then advance the scanner's floor to the first reference left
    missing.  Aggressive passes its do-no-harm victim rule, reverse
    aggressive its precomputed eviction schedule."""
    sim = policy.sim
    free = sim.array.free
    if not free:
        return
    # Issuing a fetch takes its disk out of ``free``: snapshot it first.
    budgets = {disk: batch_size for disk in sorted(free)}
    open_budgets = len(budgets)
    new_floor: Optional[int] = None
    for position, block in scanner.missing_in(cursor, len(sim.blocks)):
        disk = sim.disk_of(block)
        budget = budgets.get(disk, 0)
        if budget == 0:
            # This block's disk is busy or its batch is full; it stays
            # missing, so the scan floor cannot move past it.
            if new_floor is None:
                new_floor = position
            if open_budgets == 0:
                break
            continue
        victim = victim_for(cursor, position)
        if victim is False:
            # No eviction allowed (do-no-harm, or nothing released yet);
            # later positions would need an even later victim.
            if new_floor is None:
                new_floor = position
            break
        policy.issue(block, victim)
        budgets[disk] = budget - 1
        if budget == 1:
            open_budgets -= 1
    if new_floor is None:
        new_floor = len(sim.blocks)
    scanner.floor = max(scanner.floor, new_floor)
