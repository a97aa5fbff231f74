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
from collections import deque
from typing import (
    Any,
    Collection,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    cast,
)

from repro.core.batching import batch_size_for
from repro.core.fixed_horizon import DEFAULT_HORIZON
from repro.core.nextref import _np
from repro.core.policy import PrefetchPolicy, SimulatorLike, Victim

#: Pending-window size below which the scalar survey/walk beats the
#: vectorized one (fixed numpy call overhead vs ~0.2 us per scalar entry).
_VECTOR_MIN_ENTRIES = 128

#: Fixed F' values swept by Appendix H.
APPENDIX_H_FETCH_TIMES = (1, 2, 4, 8, 15, 30, 60)


class _MissingTracker:
    """Exact sorted index of upcoming *missing* references, one per block.

    Positions are discovered by a forward scan that never revisits covered
    ground.  The structure is kept exact by the policy: issuing a fetch,
    or allocating the block in place for a whole-block write, removes the
    block's entry; an eviction re-inserts the victim at its next use.
    Walks are therefore proportional to the number of truly missing blocks
    in the window, with no stale skipping.
    """

    def __init__(self, sim: SimulatorLike, window: int) -> None:
        self.sim = sim
        self.window = window
        self.positions: List[int] = []  # sorted
        self._position_of: Dict[int, int] = {}  # block -> its listed position
        self.scanned_to = 0
        # Persistent int64 mirror of ``positions`` (plus each entry's disk),
        # kept in lockstep through every mutation so the vectorized survey
        # and batch paths never pay a per-call list->array conversion.
        # Mutations are C-level memmoves on a window of ~10^3 entries,
        # far cheaper than the conversions they replace.
        scan = sim.scan
        self._mirror = (
            _np is not None and scan is not None and scan.disk_by_pos is not None
        )
        if self._mirror:
            self._disk_by_pos = scan.disk_by_pos  # type: ignore[union-attr]
            self._pos_arr = _np.empty(1024, dtype=_np.int64)
            self._disk_arr = _np.empty(1024, dtype=_np.int64)
            # Per-disk position subsequences (same entries, split by disk):
            # within one disk the i-th entry's rank is simply i+1, which
            # lets the survey skip rank bookkeeping entirely.
            num_disks = sim.num_disks
            self._disk_pos = [
                _np.empty(256, dtype=_np.int64) for _ in range(num_disks)
            ]
            self._disk_len = [0] * num_disks

    def _grow(self, needed: int, valid: int) -> None:
        capacity = self._pos_arr.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        pos_arr = _np.empty(capacity, dtype=_np.int64)
        disk_arr = _np.empty(capacity, dtype=_np.int64)
        pos_arr[:valid] = self._pos_arr[:valid]
        disk_arr[:valid] = self._disk_arr[:valid]
        self._pos_arr = pos_arr
        self._disk_arr = disk_arr

    def _disk_grow(self, disk: int, needed: int) -> None:
        buf = self._disk_pos[disk]
        capacity = buf.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = _np.empty(capacity, dtype=_np.int64)
        valid = self._disk_len[disk]
        grown[:valid] = buf[:valid]
        self._disk_pos[disk] = grown

    def __len__(self) -> int:
        return len(self.positions)

    def extend(self, cursor: int) -> None:
        blocks = self.sim.blocks
        end = min(len(blocks), cursor + self.window)
        start = max(self.scanned_to, cursor)
        if start >= end:
            return
        present = self.sim.cache.present
        lost = self.sim.lost_blocks
        position_of = self._position_of
        append = self.positions.append
        before = len(self.positions)
        scan = self.sim.scan
        if scan is not None:
            # One vectorized probe for the whole span: nothing mutates the
            # cache during extend, so the mask's answer is exact; only the
            # first-occurrence and lost filters remain per candidate.
            for position in scan.missing_candidates(start, end):
                block = blocks[position]
                if block not in position_of and block not in lost:
                    position_of[block] = position
                    append(position)
        else:
            for position in range(start, end):
                block = blocks[position]
                if (
                    block not in position_of
                    and block not in present
                    and block not in lost  # unreachable: no fetch can help
                ):
                    position_of[block] = position
                    append(position)
        self.scanned_to = end
        after = len(self.positions)
        if self._mirror and after > before:
            self._grow(after, before)
            added = _np.asarray(self.positions[before:], dtype=_np.int64)
            added_disks = self._disk_by_pos[added]
            self._pos_arr[before:after] = added
            self._disk_arr[before:after] = added_disks
            # Appended positions all lie past every existing entry (the
            # forward scan never revisits), so each disk's share lands at
            # the end of its subsequence too.
            for disk in range(len(self._disk_pos)):
                vals = added[added_disks == disk]
                count = vals.shape[0]
                if count:
                    length = self._disk_len[disk]
                    self._disk_grow(disk, length + count)
                    self._disk_pos[disk][length : length + count] = vals
                    self._disk_len[disk] = length + count

    def remove(self, block: int) -> None:
        """The block is being fetched; it is no longer missing."""
        position = self._position_of.pop(block, None)
        if position is None:
            return
        index = bisect.bisect_left(self.positions, position)
        if index < len(self.positions) and self.positions[index] == position:
            del self.positions[index]
            if self._mirror:
                count = len(self.positions)  # post-delete
                self._pos_arr[index:count] = self._pos_arr[index + 1 : count + 1]
                self._disk_arr[index:count] = self._disk_arr[index + 1 : count + 1]
                disk = int(self._disk_by_pos[position])
                buf = self._disk_pos[disk]
                length = self._disk_len[disk]
                at = int(_np.searchsorted(buf[:length], position))
                buf[at : length - 1] = buf[at + 1 : length]
                self._disk_len[disk] = length - 1

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
        # Positions are unique (one block per reference slot), so left and
        # right insertion points coincide; reuse the index for the mirror.
        index = bisect.bisect_left(self.positions, position)
        self.positions.insert(index, position)
        if self._mirror:
            count = len(self.positions)  # post-insert
            self._grow(count, count - 1)
            self._pos_arr[index + 1 : count] = self._pos_arr[index : count - 1]
            self._disk_arr[index + 1 : count] = self._disk_arr[index : count - 1]
            self._pos_arr[index] = position
            disk = int(self._disk_by_pos[position])
            self._disk_arr[index] = disk
            length = self._disk_len[disk]
            self._disk_grow(disk, length + 1)
            buf = self._disk_pos[disk]  # _disk_grow may have replaced it
            at = int(_np.searchsorted(buf[:length], position))
            buf[at + 1 : length + 1] = buf[at:length]
            buf[at] = position
            self._disk_len[disk] = length + 1

    def _prune_behind(self, cursor: int) -> int:
        """Index of the first entry at/past ``cursor``, compacting the list
        when many entries have fallen behind the application (they can
        never matter again).  Shared by the scalar and vectorized walks so
        both mutate ``_position_of`` identically."""
        positions = self.positions
        start = bisect.bisect_left(positions, cursor)
        if start > 256:
            for position in positions[:start]:
                block = self.sim.blocks[position]
                if self._position_of.get(block) == position:
                    del self._position_of[block]
            del positions[:start]
            if self._mirror:
                count = len(positions)  # post-compaction
                self._pos_arr[:count] = self._pos_arr[start : start + count]
                self._disk_arr[:count] = self._disk_arr[start : start + count]
                for disk, buf in enumerate(self._disk_pos):
                    length = self._disk_len[disk]
                    behind = int(_np.searchsorted(buf[:length], cursor))
                    if behind:
                        buf[: length - behind] = buf[behind:length]
                        self._disk_len[disk] = length - behind
            start = 0
        return start

    def pending_window(self, cursor: int) -> Tuple[List[int], int]:
        """The sorted missing positions and the index of the first one
        at/past ``cursor`` (after the same pruning as :meth:`walk`)."""
        start = self._prune_behind(cursor)
        return self.positions, start

    def pending_arrays(self, cursor: int) -> Optional[Tuple[Any, Any]]:
        """O(1) int64 views (positions, disks) of the entries at/past
        ``cursor``, or ``None`` when the mirror is unavailable (no numpy or
        no per-position disk map).  The views alias the live mirror: they
        are invalidated by the next tracker mutation, so callers must
        materialize anything they need across an issue."""
        if not self._mirror:
            return None
        start = self._prune_behind(cursor)
        count = len(self.positions)
        return self._pos_arr[start:count], self._disk_arr[start:count]

    def disk_view(self, disk: int, cursor: int) -> Any:
        """O(log n) int64 view of one disk's missing positions at/past
        ``cursor`` (sorted; rank of the i-th entry on its disk is i+1).
        Same aliasing caveat as :meth:`pending_arrays`.  Only meaningful
        when :meth:`pending_arrays` returned a view (mirror available)."""
        buf = self._disk_pos[disk]
        length = self._disk_len[disk]
        # Entries behind the cursor are transient (a missing reference is
        # served — and removed — before the cursor passes it), so the
        # common case is start == 0; one element probe dodges the search.
        if not length or buf[0] >= cursor:
            return buf[:length]
        start = int(buf[:length].searchsorted(cursor))
        return buf[start:length]

    def walk(self, cursor: int) -> Iterator[Tuple[int, int]]:
        """Yield (position, block) for missing references at/past the cursor.

        Always iterates a copy, so callers may mutate the missing set
        mid-walk (issuing a fetch removes its entry).
        """
        start = self._prune_behind(cursor)
        blocks = self.sim.blocks
        for position in self.positions[start:]:
            block = blocks[position]
            yield position, block


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
        # Reusable survey scratch (numpy only): ranks 1..cap, grown on
        # demand to the largest single-disk pending window seen.
        self._rank1_buf = _np.arange(1, 1025, dtype=_np.int64) if _np is not None else None

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
        # interval (≤ 32 references) picks the drift up without a reset.
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
        if self.fixed_estimate is not None:
            return float(self.fixed_estimate)
        accesses = self._access_history[disk]
        mean_access = sum(accesses) / len(accesses)
        mean_compute = sum(self._compute_history) / len(self._compute_history)
        ratio = mean_access / max(1e-6, mean_compute)
        if mean_access < self.fast_disk_threshold_ms:
            return max(1.0, ratio)
        return max(1.0, ratio * self.overestimate_factor)

    def _estimates(self) -> List[float]:
        """Per-disk F' with the compute-history mean hoisted out of the
        per-disk loop; arithmetic is term-for-term :meth:`estimate`."""
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
        tracker = self._tracker
        tracker.extend(cursor)
        estimates = self._estimates()
        arrays = tracker.pending_arrays(cursor)
        if arrays is None:
            survey = self._survey_scalar(cursor, estimates)
        elif arrays[0].shape[0] >= _VECTOR_MIN_ENTRIES:
            survey = self._survey_vector(cursor, estimates, arrays)
        else:
            survey = self._survey_scalar(cursor, estimates, arrays)
            arrays = None  # below the batch-cut threshold; walk instead
        triggered, backstopped, min_slack, first_distance = survey
        self._pending_triggers = triggered | backstopped
        free = self.sim.array.free
        ready = triggered & free
        ready_backstop = (backstopped - triggered) & free
        if ready or ready_backstop:
            self._issue_batches(cursor, ready, ready_backstop, arrays)
            self._next_check_cursor = 0
            return
        # Nothing fired (or fired only on busy disks): the earliest a new
        # trigger can fire is when the cursor eats through the least slack.
        candidates = [32.0]
        if min_slack is not None:
            candidates.append(min_slack)
        if first_distance is not None and first_distance > self.horizon:
            candidates.append(float(first_distance - self.horizon))
        advance = max(1, int(min(candidates)))
        self._next_check_cursor = cursor + advance

    def _survey_scalar(
        self,
        cursor: int,
        estimates: List[float],
        arrays: Optional[Tuple[Any, Any]] = None,
    ) -> Tuple[Set[int], Set[int], Optional[float], Optional[int]]:
        """Per-entry stall-inevitability walk (reference implementation).

        With ``arrays`` (the tracker's pending mirror view) the walk reads
        position/disk pairs straight from the mirror — ``disk_by_pos[p]``
        equals ``disk_of(blocks[p])`` by construction, so the loop is
        unchanged, just without a dict lookup per entry.
        """
        sim = self.sim
        num_disks = len(estimates)
        counts: Dict[int, int] = {}
        triggered: Set[int] = set()
        backstopped: Set[int] = set()
        min_slack: Optional[float] = None
        first_distance: Optional[int] = None
        if arrays is not None:
            entries: Iterable[Tuple[int, int]] = zip(
                arrays[0].tolist(), arrays[1].tolist()
            )
        else:
            entries = (
                (position, sim.disk_of(block))
                for position, block in self._tracker.walk(cursor)
            )
        for position, disk in entries:
            distance = position - cursor
            if first_distance is None:
                first_distance = distance
            count = counts.get(disk, 0) + 1
            counts[disk] = count
            if disk in triggered:
                continue
            if distance <= self.horizon:
                # Fixed-horizon backstop: this block must be issued, but a
                # backstop alone does not justify a deep batch.
                backstopped.add(disk)
            if count * estimates[disk] > distance:
                triggered.add(disk)
            else:
                slack = distance - count * estimates[disk]
                if min_slack is None or slack < min_slack:
                    min_slack = slack
            if len(triggered) == num_disks:
                break
        return triggered, backstopped, min_slack, first_distance

    def _survey_vector(
        self,
        cursor: int,
        estimates: List[float],
        arrays: Tuple[Any, Any],
    ) -> Tuple[Set[int], Set[int], Optional[float], Optional[int]]:
        """Vectorized :meth:`_survey_scalar`, bit-identical by construction.

        The tracker keeps each disk's pending positions as their own sorted
        subsequence, so the i-th entry's rank on its disk is simply ``i+1``
        — no rank bookkeeping.  Per disk with distances ``d_1 <= d_2 <= ...``
        the trigger is the first ``i`` with ``i * F' > d_i``; the backstop
        checks ``d_i <= H`` at or before the trigger entry, and since the
        first entry is the nearest, that reduces to ``d_1 <= H``; slack
        accumulates strictly before the trigger.  All arithmetic is int64 ->
        float64 (exact below 2**53), term-for-term the scalar int*float
        semantics; folding per-disk slack minima into a global minimum is
        order-independent, and the scalar loop's all-disks-triggered early
        exit only skips bookkeeping that cannot change the outputs.

        ``arrays`` is the tracker's live (positions, disks) mirror view —
        non-empty by the caller's eligibility check, and not mutated here.
        """
        triggered: Set[int] = set()
        backstopped: Set[int] = set()
        min_slack: Optional[float] = None
        first_distance = int(arrays[0][0]) - cursor
        tracker = self._tracker
        horizon = self.horizon
        ranks = self._rank1_buf
        for disk, est in enumerate(estimates):
            pos_d = tracker.disk_view(disk, cursor)
            m = pos_d.shape[0]
            if m == 0:
                continue
            if int(pos_d[0]) - cursor <= horizon:
                backstopped.add(disk)
            if m > ranks.shape[0]:
                size = max(m, 2 * ranks.shape[0])
                ranks = self._rank1_buf = _np.arange(1, size + 1, dtype=_np.int64)
            # ``slack < 0`` and the scalar's ``i * F' > d_i`` are the same
            # float64 predicate (the correctly-rounded difference of these
            # magnitudes never rounds a nonzero value to zero), so one
            # slack vector serves both the trigger test and the memo min.
            slack = (pos_d - cursor) - ranks[:m] * est
            low = slack.min()
            if low >= 0.0:  # common case: nothing fired, every entry counts
                low_f = float(low)
                if min_slack is None or low_f < min_slack:
                    min_slack = low_f
                continue
            triggered.add(disk)
            trigger = int((slack < 0.0).argmax())  # first over entry
            if trigger:
                pre = float(slack[:trigger].min())
                if min_slack is None or pre < min_slack:
                    min_slack = pre
        return triggered, backstopped, min_slack, first_distance

    def _issue_batches(
        self,
        cursor: int,
        disks: Collection[int],
        backstop_disks: Collection[int] = (),
        arrays: Optional[Tuple[Any, Any]] = None,
    ) -> None:
        """Aggressive-style batch fill restricted to the triggered disks.

        ``backstop_disks`` fired only the fixed-horizon rule: they issue
        just the missing blocks within the horizon (fixed horizon's own
        behaviour), not a deep batch.  ``arrays`` is the caller's pending
        mirror view (from the survey at the same cursor, with no mutation
        in between); the active set is materialized from it before the
        first issue invalidates the view.
        """
        sim = self.sim
        budgets = {disk: self.batch_size for disk in sorted(disks)}
        horizon_end = cursor + self.horizon
        tracker = self._tracker
        if arrays is not None:
            # Keep exactly the entries the scalar walk could act on; all
            # others are pure no-ops in this loop, so dropping them is
            # output-neutral.  A budgeted disk's entries beyond its first
            # ``batch_size`` cannot issue (each earlier one either issued
            # and decremented the budget, or broke out of the loop), and a
            # backstop-only disk acts solely inside the horizon.  Each
            # disk's candidates are a prefix of its per-disk subsequence;
            # re-sorting the union restores the scalar walk's global
            # position order, and the materialized list is the snapshot
            # copy the scalar walk would have made.
            chosen = [
                tracker.disk_view(disk, cursor)[:budget]
                for disk, budget in budgets.items()
            ]
            for disk in backstop_disks:
                if disk not in budgets:
                    view = tracker.disk_view(disk, cursor)
                    k = int(view.searchsorted(horizon_end, side="right"))
                    chosen.append(view[:k])
            if len(chosen) == 1:
                active = chosen[0]
            else:
                active = _np.sort(_np.concatenate(chosen))
            all_blocks = sim.blocks
            walk_iter: Iterable[Tuple[int, int, Optional[int]]] = [
                (position, all_blocks[position], disk)
                for position, disk in zip(
                    active.tolist(), tracker._disk_by_pos[active].tolist()
                )
            ]
        else:
            walk_iter = (
                (position, block, None)
                for position, block in tracker.walk(cursor)
            )
        for position, block, known_disk in walk_iter:
            disk = sim.disk_of(block) if known_disk is None else known_disk
            budget = budgets.get(disk)
            if budget is None:
                if disk in backstop_disks and position <= horizon_end:
                    victim = self._victim_for(cursor, position)
                    if victim is False:
                        break
                    self.issue(block, victim)
                continue
            if budget == 0:
                if all(b == 0 for b in budgets.values()) and not backstop_disks:
                    break
                continue
            victim = self._victim_for(cursor, position)
            if victim is False:
                break
            self.issue(block, victim)
            budgets[disk] = budget - 1

    def _victim_for(self, cursor: int, fetch_position: int) -> Victim:
        sim = self.sim
        if sim.cache.free_buffers > 0:
            return None
        victim = sim.eviction_heap.best_victim(
            cursor, exclude=sim.protected_blocks()
        )
        if victim is None:
            return False
        # next_use == index.never exceeds any real fetch position, so
        # never-again blocks stay evictable with one exact comparison.
        if sim.index.next_use(victim, cursor) <= fetch_position:
            return False
        return victim
