"""Test oracle: the theoretical model as it was before its aggressive run
stopped polling.  ``repro.theory.model`` is the model in use.

Kept as it was: ``serve_loop`` finds landed fetches by scanning every
in-flight entry and calls the policy's fill at every reference step.
``tests/test_theory_model.py`` checks that each ``run_*_model`` function
in ``repro.theory.model`` returns the same ``ModelRun`` as this module,
and that reverse aggressive's schedule equals the one built from it.

Model rules (section 2.1): a cache hit costs one time unit; a fetch costs
``F`` time units; fetches to one disk are serialized while different disks
proceed in parallel; the evicted block becomes unavailable the moment its
replacement fetch is issued; elapsed time = references + stall.

The aggressive run doubles as *reverse aggressive*'s schedule constructor:
run it on the reversed sequence and read the event log backwards.
"""

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, Iterator, List, Optional, Sequence, Set

from repro.core.nextref import EvictionHeap, NextRefIndex
from repro.core.policy import Victim


@dataclass(frozen=True)
class ModelEvent:
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


class _ModelState:
    """Shared plumbing for theoretical-model policies."""

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
        if len(set(initial_cache)) > cache_blocks:
            raise ValueError("initial cache exceeds capacity")
        self.blocks = list(blocks)
        self.cache_blocks = cache_blocks
        self.fetch_time = float(fetch_time)
        self.num_disks = num_disks
        self.disk_of = disk_of
        self.index = NextRefIndex(self.blocks)
        self.cache: Set[int] = set(initial_cache)
        self.in_flight: Dict[int, float] = {}  # block -> completion time
        self.heap = EvictionHeap(self.index, self.cache)
        for block in self.cache:
            self.heap.push(block, 0)
        self.busy_until = [0.0] * num_disks
        self.pending: List[List[int]] = [[] for _ in range(num_disks)]
        self.events: List[ModelEvent] = []
        self.time = 0.0
        self.cursor = 0
        self.stall = 0.0
        self._scan_floor = 0

    # -- occupancy -------------------------------------------------------------

    @property
    def occupied(self) -> int:
        return len(self.cache) + len(self.in_flight)

    def present_or_coming(self, block: int) -> bool:
        return block in self.cache or block in self.in_flight

    # -- fetch mechanics ---------------------------------------------------------

    def issue(
        self, block: int, victim: Optional[int], target_position: int
    ) -> None:
        disk = self.disk_of(block)
        if victim is not None:
            self.cache.discard(victim)
            # next_use == index.never (never referenced again) can never be
            # below the scan floor, so no sentinel check is needed.
            next_use = self.index.next_use(victim, self.cursor)
            if next_use < self._scan_floor:
                self._scan_floor = next_use
        start = max(self.time, self.busy_until[disk])
        completion = start + self.fetch_time
        self.busy_until[disk] = completion
        self.in_flight[block] = completion
        self.events.append(
            ModelEvent(
                issue_cursor=self.cursor,
                target_position=target_position,
                block=block,
                victim=victim,
            )
        )

    def absorb_completions(self) -> None:
        """Move fetches that have completed by ``self.time`` into the cache."""
        if not self.in_flight:
            return
        done = [b for b, c in self.in_flight.items() if c <= self.time]
        for block in done:
            del self.in_flight[block]
            self.cache.add(block)
            self.heap.push(block, self.cursor)

    def choose_victim(self, fetch_position: int) -> Victim:
        """Optimal replacement with do-no-harm against ``fetch_position``.

        Returns None for a free buffer, a block, or False when disallowed.
        """
        if self.occupied < self.cache_blocks:
            return None
        victim = self.heap.best_victim(self.cursor)
        if victim is None:
            return False
        # index.never exceeds any real fetch position, so never-again
        # blocks stay evictable with one exact comparison.
        if self.index.next_use(victim, self.cursor) <= fetch_position:
            return False
        return victim

    def missing_positions(self, end: int) -> Iterator[int]:
        blocks = self.blocks
        end = min(end, len(blocks))
        for position in range(max(self.cursor, self._scan_floor), end):
            if not self.present_or_coming(blocks[position]):
                yield position

    def serve_loop(self, fill: Callable[[], None]) -> ModelRun:
        """Drive the application cursor to the end of the sequence.

        ``fill`` is the policy's prefetch hook, called at every step after
        completions are absorbed.
        """
        blocks = self.blocks
        n = len(blocks)
        while self.cursor < n:
            self.absorb_completions()
            fill()
            block = blocks[self.cursor]
            if block in self.cache:
                self.cursor += 1
                self.heap.push(block, self.cursor)
                self.time += 1.0
                continue
            if block in self.in_flight:
                completion = self.in_flight[block]
                self.stall += completion - self.time
                self.time = completion
                continue
            # Demand fetch: at the cursor do-no-harm is always satisfiable.
            victim = self.choose_victim(self.cursor)
            if victim is False:
                raise RuntimeError("model cache wedged — cannot happen")
            self.issue(block, victim, self.cursor)
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
    state = _ModelState(
        blocks, cache_blocks, fetch_time, num_disks, disk_of, initial_cache
    )

    def fill() -> None:
        budgets = {
            disk: batch_size
            for disk in range(num_disks)
            if state.busy_until[disk] <= state.time
        }
        if not budgets:
            return
        new_floor: Optional[int] = None
        for position in state.missing_positions(len(state.blocks)):
            block = state.blocks[position]
            disk = disk_of(block)
            budget = budgets.get(disk, 0)
            if budget == 0:
                if new_floor is None:
                    new_floor = position
                if all(b == 0 for b in budgets.values()):
                    break
                continue
            victim = state.choose_victim(position)
            if victim is False:
                if new_floor is None:
                    new_floor = position
                break
            state.issue(block, victim, position)
            budgets[disk] = budget - 1
        else:
            if new_floor is None:
                new_floor = len(state.blocks)
        if new_floor is not None:
            state._scan_floor = max(state._scan_floor, new_floor)

    return state.serve_loop(fill)


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
    state = _ModelState(
        blocks, cache_blocks, fetch_time, num_disks, disk_of, initial_cache
    )

    def fill() -> None:
        boundary = state.cursor + horizon
        stop: Optional[int] = None
        for position in state.missing_positions(boundary):
            block = state.blocks[position]
            victim: Optional[int]
            if state.occupied < state.cache_blocks:
                victim = None
            else:
                victim = state.heap.best_victim(state.cursor)
                if victim is None:
                    stop = position
                    break
                # The boundary can lie past the end of the sequence, so
                # "never again" (== index.never) must stay evictable here.
                next_use = state.index.next_use(victim, state.cursor)
                if next_use != state.index.never and next_use <= boundary:
                    stop = position
                    break
            state.issue(block, victim, position)
        floor = stop if stop is not None else boundary
        state._scan_floor = max(state._scan_floor, min(floor, len(state.blocks)))

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
    return state.serve_loop(lambda: None)


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

    def scheduled_victim(fetch_position: int) -> Victim:
        if state.occupied < state.cache_blocks:
            return None
        position = eviction_pos[0]
        while position < len(evictions):
            release, block = evictions[position]
            if release > state.cursor:
                eviction_pos[0] = position
                return False
            if block in state.cache:
                # index.never > any real fetch position: one comparison.
                if state.index.next_use(block, state.cursor) <= fetch_position:
                    eviction_pos[0] = position
                    return False
                eviction_pos[0] = position + 1
                return block
            if block in state.in_flight:
                eviction_pos[0] = position
                return False
            position += 1
        eviction_pos[0] = position
        return False

    def fill() -> None:
        budgets = {
            disk: batch_size
            for disk in range(num_disks)
            if state.busy_until[disk] <= state.time
        }
        if not budgets:
            return
        new_floor: Optional[int] = None
        for position in state.missing_positions(len(state.blocks)):
            block = state.blocks[position]
            disk = disk_of(block)
            budget = budgets.get(disk, 0)
            if budget == 0:
                if new_floor is None:
                    new_floor = position
                if all(b == 0 for b in budgets.values()):
                    break
                continue
            victim = scheduled_victim(position)
            if victim is False:
                if new_floor is None:
                    new_floor = position
                break
            state.issue(block, victim, position)
            budgets[disk] = budget - 1
        else:
            if new_floor is None:
                new_floor = len(state.blocks)
        if new_floor is not None:
            state._scan_floor = max(state._scan_floor, new_floor)

    return state.serve_loop(fill)
