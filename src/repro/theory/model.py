"""Discrete simulator for the paper's theoretical model.

Model rules (section 2.1): a cache hit costs one time unit; a fetch costs
``F`` time units; fetches to one disk are serialized while different disks
proceed in parallel; the evicted block becomes unavailable the moment its
replacement fetch is issued; elapsed time = references + stall.

The aggressive run doubles as *reverse aggressive*'s schedule constructor:
run it on the reversed sequence and read the event log backwards.

A run does work only when its answer can change.  Fetches land off a heap
keyed by (completion time, issue order), and aggressive's fill runs again
only when a fetch lands (a disk frees only then) or a hit moves its
block's next use past the position where do-no-harm stopped the last
fill.  A fill leaves nothing it could issue at once, and between fills
that nothing lands in, a hit changes only its own block's next use, so a
fill that runs then would issue nothing.  Results equal those of a fill
at every reference step (``tests/model_oracle.py``).
"""

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable, Collection, Dict, Iterator, List, NamedTuple, Optional, Sequence,
    Set, Tuple,
)

from repro.core.nextref import NextRefIndex
from repro.core.policy import Victim

#: A victim choice and, for a block, its next use.
Choice = Tuple[Victim, int]


class ModelEvent(NamedTuple):
    """One fetch decision in a theoretical-model run."""

    issue_cursor: int  # references consumed when the fetch was issued
    target_position: int  # position of the fetched block's next use then
    block: int
    victim: Optional[int]


@dataclass
class ModelRun:
    """Outcome of a theoretical-model simulation."""

    elapsed: float
    stall: float
    fetches: int
    events: List[ModelEvent] = field(default_factory=list)
    final_cache: Set[int] = field(default_factory=set)

    @property
    def references(self) -> int:
        return int(self.elapsed - self.stall + 0.5)


def _check_at_least_one(name: str, value: int) -> None:
    if not value >= 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


class _ModelState:
    """Shared plumbing for theoretical-model policies.

    ``disk_of`` must be a function of the block: it is asked once per
    referenced block.
    """

    def __init__(
        self,
        blocks: Sequence[int],
        cache_blocks: int,
        fetch_time: float,
        num_disks: int,
        disk_of: Callable[[int], int],
        initial_cache: Collection[int] = (),
    ) -> None:
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        if not (math.isfinite(fetch_time) and fetch_time > 0):
            raise ValueError(
                f"fetch_time must be finite and > 0, got {fetch_time!r}"
            )
        if len(set(initial_cache)) > cache_blocks:
            raise ValueError("initial cache exceeds capacity")
        self.blocks = list(blocks)
        self.cache_blocks = cache_blocks
        self.fetch_time = float(fetch_time)
        self.num_disks = num_disks
        self.index = NextRefIndex(self.blocks)
        self.disk_of = {
            block: disk_of(block) for block in self.index.unique_blocks()
        }
        self.cache: Set[int] = set(initial_cache)
        self.in_flight: Dict[int, float] = {}  # block -> completion time
        #: (completion time, issue order, block, its next use) per fetch.
        self.landing: List[Tuple[float, int, int, int]] = []
        #: Max-heap of (-next use, block), pushed when a block lands and at
        #: each hit: an entry is stale once its block left the cache or the
        #: cursor passed its key.
        self.victims = [
            (-self.index.next_use(block, 0), block) for block in self.cache
        ]
        heapq.heapify(self.victims)
        self.busy_until = [0.0] * num_disks
        self.events: List[ModelEvent] = []
        self.time = 0.0
        self.cursor = 0
        self.stall = 0.0
        self._scan_floor = 0

    # -- occupancy -------------------------------------------------------------

    @property
    def occupied(self) -> int:
        return len(self.cache) + len(self.in_flight)

    # -- fetch mechanics ---------------------------------------------------------

    def issue(
        self, block: int, victim: Optional[int], victim_next_use: int,
        target_position: int,
    ) -> None:
        if victim is not None:
            self.cache.discard(victim)
            # next_use == index.never (never referenced again) can never be
            # below the scan floor, so no sentinel check is needed.
            if victim_next_use < self._scan_floor:
                self._scan_floor = victim_next_use
        disk = self.disk_of[block]
        completion = max(self.time, self.busy_until[disk]) + self.fetch_time
        self.busy_until[disk] = completion
        self.in_flight[block] = completion
        heapq.heappush(
            self.landing, (completion, len(self.events), block, target_position)
        )
        self.events.append(ModelEvent(self.cursor, target_position, block, victim))

    def absorb_completions(self) -> None:
        """Move fetches that have completed by ``self.time`` into the cache."""
        landing = self.landing
        while landing and landing[0][0] <= self.time:
            _, _, block, next_use = heapq.heappop(landing)
            del self.in_flight[block]
            self.cache.add(block)
            # A fetch targets its block's next use, and the cursor cannot
            # pass a block in flight.
            heapq.heappush(self.victims, (-next_use, block))

    def choose_victim(self, fetch_position: int) -> Choice:
        """Optimal replacement with do-no-harm against ``fetch_position``.

        The choice is None for a free buffer, a block, or False when
        disallowed.
        """
        if len(self.cache) + len(self.in_flight) < self.cache_blocks:
            return None, 0
        # index.never exceeds any real fetch position, so never-again
        # blocks stay evictable with one exact comparison.
        next_use = self.furthest()
        if next_use <= fetch_position:
            return False, 0
        return self.victims[0][1], next_use

    def furthest(self) -> int:
        """The furthest next use of a resident block, whose entry is then
        on top of ``victims`` (-1: nothing resident)."""
        victims, cache, cursor = self.victims, self.cache, self.cursor
        while victims:
            key, block = victims[0]
            if block in cache and -key >= cursor:
                return -key
            heapq.heappop(victims)
        return -1

    def missing_positions(self, end: int) -> Iterator[int]:
        blocks, cache, in_flight = self.blocks, self.cache, self.in_flight
        end = min(end, len(blocks))
        for position in range(max(self.cursor, self._scan_floor), end):
            if blocks[position] not in cache and blocks[position] not in in_flight:
                yield position

    def fill_free_disks(
        self, batch_size: int, choose: Callable[[int], Choice]
    ) -> int:
        """Fetch the first missing blocks of every free disk, up to
        ``batch_size`` each, taking victims from ``choose``.

        Returns the position where ``choose`` refused a victim, or the
        sequence length when nothing refused one.
        """
        n = len(self.blocks)
        now = self.time
        budgets = [batch_size if until <= now else 0 for until in self.busy_until]
        open_disks = self.num_disks - budgets.count(0)
        if not open_disks:
            return n
        blocks, cache, in_flight = self.blocks, self.cache, self.in_flight
        disk_of = self.disk_of
        new_floor = stop = n
        for position in range(max(self.cursor, self._scan_floor), n):
            block = blocks[position]
            if block in cache or block in in_flight:
                continue
            disk = disk_of[block]
            budget = budgets[disk]
            if not budget:
                if position < new_floor:
                    new_floor = position
                if not open_disks:
                    break
                continue
            victim, next_use = choose(position)
            if victim is False:
                if position < new_floor:
                    new_floor = position
                stop = position
                break
            self.issue(block, victim, next_use, position)
            budgets[disk] = budget - 1
            if budget == 1:
                open_disks -= 1
        if new_floor > self._scan_floor:
            self._scan_floor = new_floor
        return stop

    def serve_loop(self, fill: Callable[[], int]) -> ModelRun:
        """Drive the application cursor to the end of the sequence.

        ``fill`` is the policy's prefetch hook, called after completions
        are absorbed.  It returns a position: until a fetch lands, it runs
        again only once a hit moves its block's next use past that
        position (-1: at every step).
        """
        blocks = self.blocks
        n = len(blocks)
        successors = self.index.successors
        cache, landing = self.cache, self.landing
        victims = self.victims
        watch = -1
        while self.cursor < n:
            if landing and landing[0][0] <= self.time:
                self.absorb_completions()
                watch = -1
            if watch < 0:
                watch = fill()
            cursor = self.cursor
            block = blocks[cursor]
            if block in cache:
                next_use = successors[cursor]
                heapq.heappush(victims, (-next_use, block))
                if next_use > watch:
                    watch = -1
                self.cursor = cursor + 1
                self.time += 1.0
                continue
            completion = self.in_flight.get(block)
            if completion is None:
                # Demand fetch: at the cursor do-no-harm is always satisfiable.
                victim, next_use = self.choose_victim(cursor)
                if victim is False:
                    raise RuntimeError("model cache wedged — cannot happen")
                self.issue(block, victim, next_use, cursor)
                completion = self.in_flight[block]
            self.stall += completion - self.time
            self.time = completion
        self.absorb_completions()
        return ModelRun(
            elapsed=self.time,
            stall=self.stall,
            fetches=len(self.events),
            events=self.events,
            final_cache=set(self.cache) | set(self.in_flight),
        )


def run_aggressive_model(
    blocks: Sequence[int],
    cache_blocks: int,
    fetch_time: float,
    num_disks: int,
    disk_of: Callable[[int], int],
    batch_size: int = 1,
    initial_cache: Collection[int] = (),
) -> ModelRun:
    """Aggressive in the theoretical model, with batched issue.

    A disk accepts a new batch only when it has finished all previously
    issued fetches; evictions happen at batch-construction time.
    """
    _check_at_least_one("batch_size", batch_size)
    state = _ModelState(
        blocks, cache_blocks, fetch_time, num_disks, disk_of, initial_cache
    )
    # The fill returns where do-no-harm refused: every resident block is
    # then needed by that position, and stays so until a fetch lands or a
    # hit moves its block's next use past it.
    return state.serve_loop(
        partial(state.fill_free_disks, batch_size, state.choose_victim)
    )


def run_fixed_horizon_model(
    blocks: Sequence[int],
    cache_blocks: int,
    fetch_time: float,
    num_disks: int,
    disk_of: Callable[[int], int],
    horizon: int,
    initial_cache: Collection[int] = (),
) -> ModelRun:
    """Fixed horizon in the theoretical model (H references lookahead)."""
    _check_at_least_one("horizon", horizon)
    state = _ModelState(
        blocks, cache_blocks, fetch_time, num_disks, disk_of, initial_cache
    )

    def fill() -> int:
        boundary = state.cursor + horizon
        stop: Optional[int] = None
        for position in state.missing_positions(boundary):
            block = state.blocks[position]
            victim: Optional[int]
            next_use = 0
            if state.occupied < state.cache_blocks:
                victim = None
            else:
                next_use = state.furthest()
                # The boundary can lie past the end of the sequence, so
                # "never again" (== index.never) must stay evictable here.
                if next_use < 0 or (
                    next_use != state.index.never and next_use <= boundary
                ):
                    stop = position
                    break
                victim = state.victims[0][1]
            state.issue(block, victim, next_use, position)
        floor = stop if stop is not None else boundary
        state._scan_floor = max(state._scan_floor, min(floor, len(state.blocks)))
        return -1  # the horizon moves with the cursor

    return state.serve_loop(fill)


def run_demand_model(
    blocks: Sequence[int],
    cache_blocks: int,
    fetch_time: float,
    num_disks: int,
    disk_of: Callable[[int], int],
    initial_cache: Collection[int] = (),
) -> ModelRun:
    """Demand fetching with Belady replacement in the theoretical model."""
    state = _ModelState(
        blocks, cache_blocks, fetch_time, num_disks, disk_of, initial_cache
    )
    return state.serve_loop(lambda: len(state.blocks))


def run_reverse_aggressive_model(
    blocks: Sequence[int],
    cache_blocks: int,
    fetch_time: float,
    num_disks: int,
    disk_of: Callable[[int], int],
    batch_size: int = 1,
    initial_cache: Collection[int] = (),
) -> ModelRun:
    """Reverse aggressive executed entirely inside the theoretical model.

    Builds the reverse-pass schedule (aggressive on the reversed sequence)
    and replays it forward with the *scheduled* eviction order — the same
    transform the disk-accurate policy uses, but with uniform fetch times,
    so Theorem 2's bound (elapsed <= (1 + F d / K) x optimal) can be checked
    against the brute-force optimum on tiny instances.
    """
    block_list = list(blocks)
    n = len(block_list)
    # Boundary condition: the reverse execution must END holding the
    # forward run's initial cache.  Appending those blocks to the reversed
    # sequence (virtual references at forward time -1) forces the greedy
    # reverse pass to have them resident when it finishes; events targeting
    # the virtual tail release at forward index 0.
    reverse_sequence = block_list[::-1] + list(initial_cache)
    reverse_run = run_aggressive_model(
        reverse_sequence, cache_blocks, fetch_time, num_disks, disk_of,
        batch_size=batch_size,
    )
    evictions = sorted(
        (max(0, n - event.target_position), event.block)
        for event in reversed(reverse_run.events)
        if event.victim is not None
    )

    state = _ModelState(
        block_list, cache_blocks, fetch_time, num_disks, disk_of, initial_cache
    )
    eviction_pos = [0]

    def scheduled_victim(fetch_position: int) -> Choice:
        if state.occupied < state.cache_blocks:
            return None, 0
        position = eviction_pos[0]
        while position < len(evictions):
            release, block = evictions[position]
            if release > state.cursor:
                eviction_pos[0] = position
                return False, 0
            if block in state.cache:
                # index.never > any real fetch position: one comparison.
                next_use = state.index.next_use(block, state.cursor)
                if next_use <= fetch_position:
                    eviction_pos[0] = position
                    return False, 0
                eviction_pos[0] = position + 1
                return block, next_use
            if block in state.in_flight:
                eviction_pos[0] = position
                return False, 0
            position += 1
        eviction_pos[0] = position
        return False, 0

    def fill() -> int:
        state.fill_free_disks(batch_size, scheduled_victim)
        return -1  # the schedule releases victims as the cursor moves

    return state.serve_loop(fill)
