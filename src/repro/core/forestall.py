"""The forestall algorithm (section 5 — the paper's new contribution).

Forestall tries to combine fixed horizon's late, high-quality replacement
decisions with aggressive's refusal to let a disk idle while stalls loom.
For each disk it watches the upcoming missing blocks: with ``d_i`` the
distance (in references) from the cursor to the ``i``-th missing block on a
disk and ``F'`` an (over)estimate of the fetch-time/compute-time ratio,
processing *must* stall if ``i · F' > d_i`` for any ``i`` — there is not
enough time left to fetch ``i`` blocks serially before the application
needs them.  When that inequality fires, the disk starts prefetching
(optimal fetching + optimal replacement + do-no-harm, batched per Table 6);
until it fires, forestall sits back like fixed horizon and keeps its
replacement options open.

Practicalities from the paper, all implemented here:

* ``F`` is tracked per disk as the ratio of the sums of the most recent 100
  disk access times and the most recent 100 inter-reference compute times;
* ``F' = F`` when recent accesses are fast (< 5 ms — heavy sequentiality),
  ``F' = 4F`` otherwise, smoothing CSCAN reordering variance;
* a fixed-horizon backstop issues any missing block within ``H`` references;
* only missing blocks within ``2K`` references of the cursor are examined;
* a fixed ``F'`` may be supplied instead of the dynamic estimate
  (Appendix H studies exactly that).
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import deque
from typing import (
    Callable,
    Collection,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    cast,
)

from repro.core.batching import batch_size_for
from repro.core.fixed_horizon import DEFAULT_HORIZON
from repro.core.nextref import ScanSupport
from repro.core.policy import PrefetchPolicy, SimulatorLike, refuse_out_of_range

#: A check that fires nothing schedules the next one at most this many
#: references ahead, so a least slack at or above it changes nothing.
_RECHECK_CAP = 32.0

#: A survey's jump over ranks is shortened by this fraction of the
#: distance to the list's last entry, far more than float64 rounding can
#: move a slack (see ``Forestall._survey``).
_JUMP_MARGIN = 2.0**-40

#: Entries behind the cursor are dropped once more than this many pile up.
_PRUNE_BEHIND = 256

#: Fixed F' values swept by Appendix H.
APPENDIX_H_FETCH_TIMES = (1, 2, 4, 8, 15, 30, 60)

#: A survey's outputs: the disks whose trigger fired, the disks with a
#: missing block inside the backstop horizon, the least slack before any
#: trigger if it is below ``_RECHECK_CAP``, and the distance to the
#: nearest missing block.
Survey = Tuple[Set[int], Set[int], Optional[float], Optional[int]]


class _MissingTracker:
    """Exact index of upcoming *missing* references, one entry per block,
    kept as one sorted position list per disk.

    Positions are discovered by a forward scan that never revisits covered
    ground.  The structure is kept exact by the policy: issuing a fetch,
    or allocating the block in place for a whole-block write, removes the
    block's entry; an eviction re-inserts the victim at its next use.
    Walks are therefore proportional to the number of truly missing blocks
    in the window, with no stale skipping.  A disk's list holds its
    entries in rank order, so the survey keeps no rank counts.

    On a mirrored array a read goes to whichever copy's disk is less
    loaded when it issues, so no entry has a fixed disk: ``lists`` is then
    one list in global order, split by disk when a survey asks.

    The tracker keeps the parts of the simulator it reads, not the
    simulator: a reference back to it would keep a finished run alive in
    a reference cycle.
    """

    def __init__(self, sim: SimulatorLike, window: int) -> None:
        self.window = window
        self.scanned_to = 0
        self.blocks = sim.blocks
        self.num_disks = sim.num_disks
        #: Live views of the cache's present blocks and the lost blocks.
        self.present = sim.cache.present
        self.lost = sim.lost_blocks
        self._probe = ScanSupport(sim.blocks)
        self._position_of: Dict[int, int] = {}  # block -> its listed position
        self._homes: Optional[Mapping[int, int]] = sim.fixed_disk_of
        count = 1 if self._homes is None else sim.num_disks
        #: Sorted missing positions: one int64 array per disk, or one in all.
        self.lists: List["array[int]"] = [array("q") for _ in range(count)]

    def _list_of(self, block: int) -> "array[int]":
        homes = self._homes
        return self.lists[0 if homes is None else homes[block]]

    def extend(self, cursor: int) -> None:
        blocks = self.blocks
        end = min(len(blocks), cursor + self.window)
        start = max(self.scanned_to, cursor)
        if start >= end:
            return
        lost = self.lost
        position_of = self._position_of
        homes = self._homes
        lists = self.lists
        # Nothing changes the cache during extend, so the probe's snapshot
        # of ``present`` holds for the whole loop.  New positions lie past
        # every listed one (the scan never revisits), so appending keeps
        # each list sorted.
        missing = self._probe.missing_candidates(start, end, self.present)
        for position in missing:
            block = blocks[position]
            if (
                block not in position_of
                and block not in lost  # unreachable: no fetch can help
            ):
                position_of[block] = position
                lists[0 if homes is None else homes[block]].append(position)
        self.scanned_to = end

    def remove(self, block: int) -> None:
        """The block is being fetched; it is no longer missing."""
        position = self._position_of.pop(block, None)
        if position is None:
            return
        entries = self._list_of(block)
        index = bisect.bisect_left(entries, position)
        if index < len(entries) and entries[index] == position:
            del entries[index]

    def on_evict(self, block: int, next_use: float) -> None:
        """The block was evicted; it is missing again from its next use."""
        # "Never referenced again" — index.never or a legacy float inf —
        # always compares >= scanned_to, so one comparison covers both.
        if next_use >= self.scanned_to:
            return  # beyond the scanned window; a future extend finds it
        position = int(next_use)
        existing = self._position_of.get(block)
        if existing is not None:
            if existing <= position:
                return
            self.remove(block)
        self._position_of[block] = position
        # Positions are unique (one block per reference slot).
        bisect.insort(self._list_of(block), position)

    def _starts(self, cursor: int) -> List[int]:
        """Each list's index of its first entry at/past ``cursor``,
        dropping every entry behind the cursor (they can never matter
        again) once more than ``_PRUNE_BEHIND`` of them have piled up."""
        lists = self.lists
        # Entries behind the cursor are transient (a missing reference is
        # served — and removed — before the cursor passes it), so the
        # common case is start == 0; one element probe dodges the search.
        starts = [
            0 if not entries or entries[0] >= cursor
            else bisect.bisect_left(entries, cursor)
            for entries in lists
        ]
        if sum(starts) > _PRUNE_BEHIND:
            blocks = self.blocks
            position_of = self._position_of
            for entries, start in zip(lists, starts):
                for position in entries[:start]:
                    block = blocks[position]
                    if position_of.get(block) == position:
                        del position_of[block]
                del entries[:start]
            starts = [0] * len(lists)
        return starts

    def by_disk(
        self, cursor: int, disk_of: Callable[[int], int]
    ) -> Tuple[List["array[int]"], List[int]]:
        """Each disk's sorted missing positions and the index of its first
        one at/past ``cursor``.  The lists are live (fixed placement) or
        split with ``disk_of`` for this call (mirrored): read them before
        any mutation."""
        starts = self._starts(cursor)
        if self._homes is not None:
            return self.lists, starts
        blocks = self.blocks
        count = self.num_disks
        split: List["array[int]"] = [array("q") for _ in range(count)]
        for position in self.lists[0][starts[0]:]:
            split[disk_of(blocks[position])].append(position)
        return split, [0] * count

    def batch_positions(
        self,
        cursor: int,
        budgets: Mapping[int, int],
        backstop_disks: Collection[int],
        horizon_end: int,
    ) -> List[int]:
        """A snapshot, in position order, of the entries a batch issue can
        act on.  With fixed disks those are each budgeted disk's first
        ``budget`` entries and each backstop disk's entries up to
        ``horizon_end``; every other entry is a no-op in the issue loop.  A
        mirrored array picks a block's disk as its fetch issues, so there
        every entry at/past the cursor is a candidate."""
        starts = self._starts(cursor)
        lists = self.lists
        if self._homes is None:
            return lists[0][starts[0]:].tolist()
        chosen: List[int] = []
        for disk, budget in budgets.items():
            start = starts[disk]
            chosen += lists[disk][start : start + budget]
        for disk in sorted(backstop_disks):
            if disk not in budgets:
                entries = lists[disk]
                start = starts[disk]
                stop = bisect.bisect_right(entries, horizon_end, start)
                chosen += entries[start:stop]
        chosen.sort()
        return chosen


class Forestall(PrefetchPolicy):
    """Prefetch exactly early enough to forestall the coming stall."""

    def __init__(
        self,
        batch_size: Optional[int] = None,
        horizon: int = DEFAULT_HORIZON,
        fixed_estimate: Optional[float] = None,
        history: int = 100,
        lookahead_caches: int = 2,
        fast_disk_threshold_ms: float = 5.0,
        overestimate_factor: float = 4.0,
    ) -> None:
        super().__init__()
        refuse_out_of_range("forestall", (
            ("batch_size", batch_size, batch_size is None or batch_size >= 1,
             "at least 1"),
            ("horizon", horizon, horizon >= 0, "at least 0"),
            ("fixed_estimate", fixed_estimate, fixed_estimate is None
             or (math.isfinite(fixed_estimate) and fixed_estimate > 0),
             "finite and > 0"),
            ("history", history, history >= 1, "at least 1"),
            ("lookahead_caches", lookahead_caches, lookahead_caches >= 1,
             "at least 1"),
            ("fast_disk_threshold_ms", fast_disk_threshold_ms,
             math.isfinite(fast_disk_threshold_ms)
             and fast_disk_threshold_ms >= 0, "finite and >= 0"),
            ("overestimate_factor", overestimate_factor,
             math.isfinite(overestimate_factor) and overestimate_factor > 0,
             "finite and > 0"),
        ))
        self._batch_override = batch_size
        self.horizon = horizon
        self.fixed_estimate = fixed_estimate
        if fixed_estimate is None:
            self.name = "forestall"
        else:
            self.name = f"forestall(F'={fixed_estimate})"
        self.history = history
        self.lookahead_caches = lookahead_caches
        self.fast_disk_threshold_ms = fast_disk_threshold_ms
        self.overestimate_factor = overestimate_factor
        self.batch_size = 0  # resolved against the array size in bind()
        self._tracker = cast(_MissingTracker, None)  # set in bind()
        #: Per-disk deque of recent service times (populated in bind()).
        self._access_history: List[Deque[float]] = []
        self._mean_access: List[Optional[float]] = []
        self._compute_history: Deque[float] = deque()
        self._next_check_cursor = 0
        self._pending_triggers: Set[int] = set()

    def bind(self, sim: SimulatorLike) -> None:
        super().bind(sim)
        self.batch_size = batch_size_for(sim.num_disks, self._batch_override)
        window = self.lookahead_caches * sim.cache.capacity
        self._tracker = _MissingTracker(sim, window)
        self._access_history = [
            deque([15.0], maxlen=self.history) for _ in range(sim.num_disks)
        ]
        # Cached per-disk access-time means: the history only changes on a
        # fetch completion, which clears the slot; the cached value is the
        # very float ``sum(...)/len(...)`` produced, so reuse is exact.
        self._mean_access = [None] * sim.num_disks
        mean_compute = 1.0
        if sim.compute_ms:
            head = sim.compute_ms[: min(100, len(sim.compute_ms))]
            mean_compute = max(1e-3, sum(head) / len(head))
        self._compute_history = deque([mean_compute], maxlen=self.history)
        self._next_check_cursor = 0

    # -- observation hooks ----------------------------------------------------------

    def on_fetch_complete(self, disk: int, service_ms: float) -> None:
        # Estimates drift slowly (100-sample window); the bounded re-check
        # interval (≤ _RECHECK_CAP references) picks the drift up without
        # a reset.
        self._access_history[disk].append(service_ms)
        self._mean_access[disk] = None  # recompute at the next survey

    def on_reference_served(self, cursor: int, compute_ms: float) -> None:
        if compute_ms > 0:
            self._compute_history.append(compute_ms)

    def on_evict(self, block: int, next_use: float) -> None:
        self._tracker.on_evict(block, next_use)
        self._next_check_cursor = 0  # the missing set grew; recheck

    def on_write_allocate(self, block: int) -> None:
        self._tracker.remove(block)

    def issue(self, block: int, victim: Optional[int]) -> None:
        self._tracker.remove(block)
        super().issue(block, victim)

    # -- estimation ---------------------------------------------------------------------

    def estimate(self, disk: int) -> float:
        """F' for ``disk``: recent fetch/compute ratio, overestimated when
        access times say the workload is not sequential."""
        return self._estimates()[disk]

    def _estimates(self) -> List[float]:
        """:meth:`estimate` for every disk, with the compute-history mean
        taken once for all of them."""
        if self.fixed_estimate is not None:
            return [float(self.fixed_estimate)] * self.sim.num_disks
        mean_compute = sum(self._compute_history) / len(self._compute_history)
        estimates = []
        means = self._mean_access
        for disk, accesses in enumerate(self._access_history):
            mean_access = means[disk]
            if mean_access is None:
                mean_access = sum(accesses) / len(accesses)
                means[disk] = mean_access
            ratio = mean_access / max(1e-6, mean_compute)
            if mean_access < self.fast_disk_threshold_ms:
                estimates.append(max(1.0, ratio))
            else:
                estimates.append(max(1.0, ratio * self.overestimate_factor))
        return estimates

    # -- decision points -----------------------------------------------------------------

    def before_reference(self, cursor: int, now: float) -> None:
        self._check(cursor)

    def on_disk_idle(self, disk: int, now: float) -> None:
        cursor = self.sim.cursor
        if disk in self._pending_triggers and disk in self.sim.array.free:
            self._check(cursor, force=True)
        else:
            self._check(cursor)

    def on_miss(self, cursor: int, now: float) -> None:
        super().on_miss(cursor, now)
        self._next_check_cursor = 0

    def _check(self, cursor: int, force: bool = False) -> None:
        """Evaluate the stall-inevitability condition for every disk.

        Triggered-but-busy disks are remembered in ``_pending_triggers`` so
        their completion interrupt can start the batch without a re-walk.
        """
        if not force and cursor < self._next_check_cursor:
            return
        self._tracker.extend(cursor)
        survey = self._survey(cursor, self._estimates())
        triggered, backstopped, min_slack, first_distance = survey
        self._pending_triggers = triggered | backstopped
        free = self.sim.array.free
        ready = triggered & free
        ready_backstop = (backstopped - triggered) & free
        if ready or ready_backstop:
            self._issue_batches(cursor, ready, ready_backstop)
            self._next_check_cursor = 0
            return
        # Nothing fired (or fired only on busy disks): the earliest a new
        # trigger can fire is when the cursor eats through the least slack.
        candidates = [_RECHECK_CAP]
        if min_slack is not None:
            candidates.append(min_slack)
        if first_distance is not None and first_distance > self.horizon:
            candidates.append(float(first_distance - self.horizon))
        advance = max(1, int(min(candidates)))
        self._next_check_cursor = cursor + advance

    def _survey(self, cursor: int, estimates: List[float]) -> Survey:
        """Which disks must start fetching now, walking each disk's missing
        entries in rank order and stopping at its first trigger.

        With ``d_i`` the distance to a disk's i-th missing block, the slack
        ``d_i - i * F'`` is below zero exactly when ``i * F' > d_i`` (the
        correctly rounded difference of these magnitudes is zero only when
        they are equal), so one float64 value serves both the trigger and
        the memo's least slack, which counts only entries before the
        trigger.  The backstop asks for ``d_i <= H`` at or before the
        trigger; the first entry is the nearest, so that is ``d_1 <= H``.

        The walk jumps over ranks whose slack can neither trigger nor
        matter.  Positions are distinct integers, so a slack falls by at
        most ``F' - 1`` from one rank to the next.  ``least``, the least
        slack this survey has seen, starts at ``_RECHECK_CAP``: ``_check``
        never looks further ahead, so a least slack at or above it is
        reported as None.  After rank r has slack s >= 0, the next
        ``(s - least) / (F' - 1)`` ranks have slack >= least >= 0, and the
        walk skips them; with ``F' <= 1`` no later rank falls below s, and
        the disk is done.

        Rounding cannot make a skipped rank's computed slack fall below
        ``least``.  Each float64 operation is correctly rounded, so its
        result is within 2**-53 of its exact value, relative.  With D the
        distance to the list's last entry, every value involved (s,
        r * F', (r + k) * F', s - least, the quotient times F' - 1) is at
        most 3 * D, so the errors sum to less than 2**-49 * D.  Each jump
        first takes ``_JUMP_MARGIN * D`` = 2**-40 * D off s - least, and
        below ``F' = 1`` a disk is done only once s - least + 1 - F' is at
        least that margin.  At ``F' = 1`` every value is an integer below
        2**53, hence exact.
        Over the 30 full-scale forestall cells a disk's survey evaluates
        1-43 ranks on average where a rank-by-rank walk visits 8-618
        (``benchmarks/BENCH_pure_survey.json``).
        """
        lists, starts = self._tracker.by_disk(cursor, self.sim.disk_of)
        horizon = self.horizon
        triggered: Set[int] = set()
        backstopped: Set[int] = set()
        least = _RECHECK_CAP
        first_distance: Optional[int] = None
        for disk, est in enumerate(estimates):
            entries = lists[disk]
            index = starts[disk]
            end = len(entries)
            if index == end:
                continue
            distance = entries[index] - cursor
            if first_distance is None or distance < first_distance:
                first_distance = distance
            if distance <= horizon:
                backstopped.add(disk)
            drop = est - 1.0  # the most a slack falls from rank to rank
            margin = (entries[-1] - cursor) * _JUMP_MARGIN
            rank = 1
            while True:
                slack = distance - rank * est
                if slack < 0.0:
                    triggered.add(disk)
                    break
                if slack < least:
                    least = slack
                if drop > 0.0:
                    gap = slack - least - margin
                    step = int(gap / drop) + 1 if gap > 0.0 else 1
                elif drop == 0.0 or slack - least - drop >= margin:
                    break
                else:
                    step = 1
                index += step
                if index >= end:
                    break
                rank += step
                distance = entries[index] - cursor
        min_slack = None if least >= _RECHECK_CAP else least
        return triggered, backstopped, min_slack, first_distance

    def _issue_batches(
        self,
        cursor: int,
        disks: Collection[int],
        backstop_disks: Collection[int] = (),
    ) -> None:
        """Aggressive-style batch fill restricted to the triggered disks.

        ``backstop_disks`` fired only the fixed-horizon rule: they issue
        just the missing blocks within the horizon (fixed horizon's own
        behaviour), not a deep batch.
        """
        sim = self.sim
        budgets = {disk: self.batch_size for disk in sorted(disks)}
        horizon_end = cursor + self.horizon
        blocks = sim.blocks
        positions = self._tracker.batch_positions(
            cursor, budgets, backstop_disks, horizon_end
        )
        for position in positions:
            block = blocks[position]
            disk = sim.disk_of(block)
            budget = budgets.get(disk)
            if budget is None:
                if disk in backstop_disks and position <= horizon_end:
                    victim = self.harmless_victim(cursor, position)
                    if victim is False:
                        break
                    self.issue(block, victim)
                continue
            if budget == 0:
                if all(b == 0 for b in budgets.values()) and not backstop_disks:
                    break
                continue
            victim = self.harmless_victim(cursor, position)
            if victim is False:
                break
            self.issue(block, victim)
            budgets[disk] = budget - 1
