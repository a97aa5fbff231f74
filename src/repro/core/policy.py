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
    from repro.core.nextref import EvictionHeap, NextRefIndex
    from repro.disk.array import DiskArray

#: What a victim choice can be: ``None`` (use a free buffer), a block to
#: evict, or ``False`` (nothing may be evicted right now — wait).
Victim = Union[int, None, Literal[False]]


def refuse_out_of_range(
    policy: str, checks: Iterable[Tuple[str, object, bool, str]]
) -> None:
    """Raise ValueError naming the first parameter out of range.  Each
    check is (name, value, whether it is in range, the range in words)."""
    for name, value, in_range, need in checks:
        if not in_range:
            raise ValueError(f"{policy}: {name} must be {need}, got {value!r}")


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
        """Attach to a simulator; called once before the run starts.  The
        engine detaches the policy (``sim`` back to None) when the run
        ends, so the pair forms no reference cycle."""
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

    def harmless_victim(self, cursor: int, bound: int) -> Victim:
        """Optimal replacement under do no harm: ``None`` for a free
        buffer, else the resident block with the furthest next use if
        that use lies after ``bound``, else ``False`` (wait).

        Aggressive and forestall pass the fetched block's position, fixed
        horizon the end of its horizon.  A block never referenced again
        (``index.never``) stays evictable even when ``bound`` lies past the
        end of the stream.
        """
        sim = self.sim
        if sim.cache.free_buffers > 0:
            return None
        victim = sim.eviction_heap.best_victim(
            cursor, exclude=sim.protected_blocks()
        )
        if victim is None:
            return False
        index = sim.index
        next_use = index.next_use(victim, cursor)
        if next_use <= bound and next_use != index.never:
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

    The walk is one scalar loop, one set test per position.  Vectorized
    probes over a present mask that the cache kept in step used to take
    over past the first 256 positions; without them no digest changed and
    no measured cell ran slower (``benchmarks/BENCH_scalar_scan.json``).
    """

    def __init__(self, sim: SimulatorLike) -> None:
        # The parts of ``sim`` the walk reads, not ``sim`` itself: a scanner
        # that pointed back at its simulator would keep a finished run alive
        # in a reference cycle.  The containers are live, never replaced.
        self.blocks = sim.blocks
        self.present = sim.cache.present
        self.lost = sim.lost_blocks
        self.floor = 0

    def invalidate(self, position: float) -> None:
        # ``position`` is ``index.never`` (or legacy float inf) for a block
        # with no upcoming reference; neither can be below the floor.
        if position < self.floor:
            self.floor = int(position)

    def missing_in(self, cursor: int, end: int) -> Iterator[Tuple[int, int]]:
        """Yield (position, block) for missing references in [cursor, end).

        Laziness matters: each position is tested against the live cache
        when the walk reaches it, so a block the caller fetches
        mid-iteration is skipped at its later occurrences, and a block it
        evicts is missing again from its next one.  The caller is
        responsible for advancing :attr:`floor` afterwards (to the last
        position known missing-free).
        """
        blocks = self.blocks
        present = self.present
        lost = self.lost
        for position in range(max(cursor, self.floor), min(end, len(blocks))):
            block = blocks[position]
            if block not in present and block not in lost:
                # Lost blocks (every copy on a dead spindle) are skipped:
                # no fetch can ever serve them, so they are not "missing"
                # in any actionable sense.
                yield position, block
