"""The prefetching/caching policy interface and shared machinery.

A policy is consulted at the paper's two decision points — immediately
before each reference is consumed, and whenever a disk completes a request —
and reacts by issuing fetch/eviction pairs through
:meth:`PrefetchPolicy.issue`.  The engine charges driver overhead, runs the
disks, and accounts stalls; policies only decide *what to fetch, when, and
what to evict*.

Shared helpers implement the paper's optimal prefetching rules
(section 2.2):

* *optimal fetching* — fetch the missing block referenced soonest;
* *optimal replacement* — evict the resident block referenced furthest in
  the future (:meth:`PrefetchPolicy.choose_victim`);
* *do no harm* — never evict a block needed before the fetched one.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Iterable,
    Iterator,
    Literal,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

if TYPE_CHECKING:
    from repro.core.cache import BufferCache
    from repro.core.nextref import EvictionHeap, NextRefIndex, ScanSupport
    from repro.disk.array import DiskArray

#: What a victim choice can be: ``None`` (use a free buffer), a block to
#: evict, or ``False`` (nothing may be evicted right now — wait).
Victim = Union[int, None, Literal[False]]

#: Batched missing-scan tuning — see ``MissingScanner.missing_in``.  The
#: first ``_SCAN_PREFIX`` positions are probed scalar (consumers with small
#: batch budgets usually stop there); vectorized probes then start at
#: ``_SCAN_CHUNK_MIN`` references and double per exhausted chunk up to
#: ``_SCAN_CHUNK``.
_SCAN_CHUNK = 4096
_SCAN_CHUNK_MIN = 512
_SCAN_PREFIX = 256


class SimulatorLike(Protocol):
    """The simulator surface policies are allowed to touch.

    Implemented by :class:`repro.core.engine.Simulator`.  Everything here
    is read-only from the policy's perspective — simlint's SL006 rule
    enforces that policies never mutate the shared containers behind these
    names.
    """

    @property
    def num_disks(self) -> int: ...

    @property
    def cursor(self) -> int: ...

    @property
    def blocks(self) -> Sequence[int]: ...

    @property
    def app_blocks(self) -> Sequence[int]: ...

    @property
    def compute_ms(self) -> Sequence[float]: ...

    @property
    def lost_blocks(self) -> AbstractSet[int]: ...

    @property
    def trace(self) -> object: ...

    @property
    def cache(self) -> "BufferCache": ...

    @property
    def index(self) -> "NextRefIndex": ...

    @property
    def eviction_heap(self) -> "EvictionHeap": ...

    @property
    def array(self) -> "DiskArray": ...

    @property
    def scan(self) -> Optional["ScanSupport"]: ...

    @property
    def fixed_disk_of(self) -> Optional[Mapping[int, int]]: ...

    def protected_blocks(self) -> Set[int]: ...

    def reference_block(self, cursor: int) -> int: ...

    def disk_of(self, block: int) -> int: ...

    def lbn_of(self, block: int) -> int: ...

    def issue_fetch(self, block: int, victim: Optional[int]) -> None: ...


class PrefetchPolicy:
    """Base class for all prefetching/caching algorithms."""

    name: str = "abstract"

    def __init__(self) -> None:
        # Policies are unusable before bind(); the cast spares every hook
        # an Optional check on a contract the engine already guarantees.
        self.sim = cast("SimulatorLike", None)

    # -- engine wiring --------------------------------------------------------

    def bind(self, sim: SimulatorLike) -> None:
        """Attach to a simulator; called once before the run starts."""
        self.sim = sim

    # -- decision points (overridden by algorithms) ---------------------------

    def before_reference(self, cursor: int, now: float) -> None:
        """Called just before the application consumes reference ``cursor``."""

    def on_disk_idle(self, disk: int, now: float) -> None:
        """Called when ``disk`` finishes a request and may take new work."""

    def on_miss(self, cursor: int, now: float) -> None:
        """The block at ``cursor`` is absent with no fetch in flight.

        The default demand-fetches it with the optimal replacement choice;
        prefetching policies normally avoid ever reaching this point but
        inherit it as a safety net for cold starts and timing surprises.
        """
        block = self.sim.reference_block(cursor)
        victim = self.choose_victim(cursor)
        if victim is False:
            return  # no buffer free; the engine retries after a completion
        self.issue(block, victim)

    # -- observation hooks -----------------------------------------------------

    def on_fetch_complete(self, disk: int, service_ms: float) -> None:
        """A fetch finished on ``disk`` after ``service_ms`` of service."""

    def on_reference_served(self, cursor: int, compute_ms: float) -> None:
        """Reference ``cursor`` hit in cache; the app computes for a while."""

    def on_evict(self, block: int, next_use: float) -> None:
        """``block`` was evicted; its next reference is at ``next_use``."""

    def on_write_allocate(self, block: int) -> None:
        """A whole-block write allocated ``block`` in place: it is resident
        now without a fetch."""

    # -- shared actions ----------------------------------------------------------

    def issue(self, block: int, victim: Optional[int]) -> None:
        """Issue a fetch of ``block``, evicting ``victim`` (None = free buffer)."""
        self.sim.issue_fetch(block, victim)

    def choose_victim(self, cursor: int, exclude: Iterable[int] = ()) -> Victim:
        """Optimal replacement: free buffer first, else furthest next use.

        Returns ``None`` when a free buffer exists, a block to evict, or
        ``False`` when nothing may be evicted right now (every candidate is
        protected or in flight) — callers then wait for a completion.
        """
        sim = self.sim
        if sim.cache.free_buffers > 0:
            return None
        protected: AbstractSet[int] = sim.protected_blocks()
        excluded = set(exclude)
        if excluded:
            protected = protected | excluded
        victim = sim.eviction_heap.best_victim(cursor, exclude=protected)
        if victim is None:
            # Every buffer is protected or spoken for by an in-flight
            # prefetch (possible when degraded hints flood the cache).
            return False
        return victim


class MissingScanner:
    """Incremental scan for missing blocks in the reference stream.

    Maintains a *floor*: every reference position in ``[cursor, floor)`` is
    known to name a block that is resident or in flight, so repeated scans
    can skip it.  Evictions move the floor back (via :meth:`invalidate`,
    wired from the policy's ``on_evict``), because the victim's upcoming
    references become missing again.

    The floor is the memoization here, and measurement says it is the
    right amount: it ratchets forward with every completed walk, so
    repeated consultations rescan only the handful of references between
    the floor and the first actionable missing block.  Richer schemes
    (revision-stamped memos of the missing pairs in the examined span,
    patched on eviction) were prototyped and benchmarked; their replay
    bookkeeping cost more than the short scans they avoided on every
    measured workload, precisely because the floor already bounds the
    redundant work.  See docs/PERFORMANCE.md.
    """

    def __init__(self, sim: SimulatorLike) -> None:
        self.sim = sim
        self.floor = 0

    def invalidate(self, position: float) -> None:
        # ``position`` is ``index.never`` (or legacy float inf) for a block
        # with no upcoming reference; neither can be below the floor.
        if position < self.floor:
            self.floor = int(position)

    def missing_in(self, cursor: int, end: int) -> Iterator[Tuple[int, int]]:
        """Yield (position, block) for missing references in [cursor, end).

        Laziness matters: a block issued by the caller mid-iteration will be
        skipped at its later occurrences.  The caller is responsible for
        advancing :attr:`floor` afterwards (to the last position known
        missing-free).
        """
        sim = self.sim
        blocks = sim.blocks
        present = sim.cache.present
        lost = sim.lost_blocks
        end = min(end, len(blocks))
        start = max(cursor, self.floor)
        scan = sim.scan
        if scan is None:
            for position in range(start, end):
                block = blocks[position]
                if block not in present and block not in lost:
                    # Lost blocks (every copy on a dead spindle) are
                    # skipped: no fetch can ever serve them, so they are
                    # not "missing" in any actionable sense.
                    yield position, block
            return
        # Hybrid walk.  Missing-block scans are bimodal: either the consumer
        # (a per-disk batch budget) is satisfied within a few dozen
        # references of the floor — where a numpy probe costs more than the
        # handful of set lookups it replaces — or the scan must skate over
        # thousands of consecutive cached references, where scalar lookups
        # dominated whole-run profiles.  Serve the first ``_SCAN_PREFIX``
        # positions exactly like the scalar loop, then switch to vectorized
        # probes whose stride doubles per exhausted chunk.
        for position in range(start, min(end, start + _SCAN_PREFIX)):
            block = blocks[position]
            if block not in present and block not in lost:
                yield position, block
        # Vectorized tail: probe a chunk at once, re-validate each candidate
        # at yield time.  Fetches issued by the caller mid-iteration are
        # caught by the re-validation; an eviction can make a
        # *probed-present* block missing again, so the eviction counter is
        # checked after every yield and the remainder of the chunk is
        # re-probed when it moved.
        cache = sim.cache
        position = start + _SCAN_PREFIX
        chunk = _SCAN_CHUNK_MIN
        while position < end:
            stop = min(end, position + chunk)
            chunk = min(chunk * 2, _SCAN_CHUNK)
            stamp = cache.evictions
            resumed = False
            for candidate in scan.missing_candidates_iter(position, stop):
                block = blocks[candidate]
                if block in present or block in lost:
                    continue
                yield candidate, block
                if cache.evictions != stamp:
                    position = candidate + 1
                    resumed = True
                    break
            if not resumed:
                position = stop
