"""Event-driven trace simulator.

One wall clock drives two kinds of timeline:

* the **application**, which alternates compute (the traced inter-reference
  CPU times), driver work (0.5 ms per I/O issued, charged to the CPU), and
  stalls (waiting for a missing block to arrive); and
* **d disks**, each serving one request at a time from its scheduling queue.

Policies are consulted before every reference and at every disk completion;
they issue fetch/eviction pairs, the engine does everything else.  The
run's accounting identity — ``elapsed == compute + driver + stall`` — is
checked exactly at the end of every simulation, which makes the engine
self-auditing.

The engine is also the one place that says what happened: given a sink (a
:class:`~repro.core.timeline.Timeline`, an Observer, or both), it emits a
typed :class:`~repro.core.events.Event` at each decision, including the
cause of every stall.  Each emission sits behind one ``sink is None``
test, so a run without a sink builds no events.

A :class:`Simulator` is one process.  The disk array, the event heap and
its clock live in a :class:`_Machine` that several processes can share
(:class:`repro.core.multiprocess.MultiProcessSimulator`); a lone
Simulator owns its machine, which is the paper's case.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    cast,
)

from repro.core import events as ev
from repro.core.cache import BufferCache
from repro.core.events import Event, Fanout, Sink
from repro.core.hints import resolve_hint_view
from repro.core.nextref import EvictionHeap, NextRefIndex
from repro.core.policy import PrefetchPolicy
from repro.core.results import SimulationResult
from repro.core.timeline import Timeline
from repro.disk.array import (
    OUTCOME_DEAD,
    OUTCOME_OK,
    DiskArray,
    DriveModel,
    Placement,
    StripedLayout,
)
from repro.disk.drive import DiskDrive, ServiceBreakdown
from repro.disk.geometry import HP97560, HP97560_ZONED, IBM0661, DiskGeometry
from repro.disk.scheduler import DISCIPLINES, Request
from repro.disk.seek import IBM0661_SEEK
from repro.disk.simple import SimpleDrive
from repro.faults.schedule import FaultSchedule, UnrecoverableReadError
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.core.policy import SimulatorLike
    from repro.obs.observer import Observer

_EVENT_DISK = 0  # completions processed before app steps at equal times
_EVENT_APP = 1
_EVENT_RETRY = 2  # a failed demand fetch resubmits after its backoff
_EVENT_TICK = 3  # a machine's periodic callback (buffer rebalancing)

#: ``(time, kind, seq, pid, payload)``: ``seq`` is unique, so it breaks
#: every tie; ``pid`` names the process the event belongs to.  All-int/float
#: tuples stay untracked by the cyclic garbage collector.
_Event = Tuple[float, int, int, int, int]

#: ``SimConfig.disk_model`` name -> (the array's geometry, None for
#: ``SimConfig.geometry``; the drive constructor, given the config and that
#: geometry).
_DRIVES: Dict[
    str,
    Tuple[
        Optional[DiskGeometry],
        Callable[["SimConfig", DiskGeometry], DriveModel],
    ],
] = {
    "hp97560": (None, lambda c, g: DiskDrive(g, readahead=c.readahead)),
    "hp97560-zoned": (
        HP97560_ZONED, lambda c, g: DiskDrive(g, readahead=c.readahead)
    ),
    "ibm0661": (
        IBM0661,
        lambda c, g: DiskDrive(g, seek_model=IBM0661_SEEK, readahead=c.readahead),
    ),
    "simple": (
        None,
        lambda c, g: SimpleDrive(
            access_ms=c.simple_access_ms, sequential_ms=c.simple_sequential_ms
        ),
    ),
}
_PLACEMENTS = ("clustered", "scatter")


@dataclass(frozen=True)
class SimConfig:
    """Simulation-wide knobs, defaulting to the paper's baseline setup."""

    cache_blocks: int = 1280
    driver_overhead_ms: float = 0.5
    discipline: str = "cscan"
    disk_model: str = "hp97560"  # "hp97560", "hp97560-zoned", "ibm0661", "simple"
    simple_access_ms: float = 15.0
    simple_sequential_ms: float = 2.0
    cpu_speedup: float = 1.0
    placement_seed: int = 0
    placement: str = "clustered"  # "clustered" (per-file groups) | "scatter"
    #: RAID-1 mode: disks form mirror pairs; each block lives on both
    #: spindles of its pair and reads dispatch to the less-loaded copy.
    mirrored: bool = False
    readahead: bool = True
    #: Keep the run's compact event tuples (fetches, completions, stalls,
    #: faults) on ``Simulator.timeline``; ``result_digest`` includes them.
    record_timeline: bool = False
    #: Fault injection: transient read errors, fail-slow spindles, disk
    #: death (see repro.faults).  None (or a null schedule) leaves every
    #: code path and floating-point value of a healthy run untouched.
    faults: Optional[FaultSchedule] = None
    #: The drives' geometry for "hp97560" and "simple".  "hp97560-zoned"
    #: and "ibm0661" bring their own, and refuse any other but the default.
    geometry: DiskGeometry = HP97560

    def __post_init__(self) -> None:
        """Refuse values no run can honour, before anything runs."""
        times = {
            "driver_overhead_ms": self.driver_overhead_ms,
            "simple_access_ms": self.simple_access_ms,
            "simple_sequential_ms": self.simple_sequential_ms,
        }
        for name, value in times.items():
            if value is None and name == "simple_sequential_ms":
                continue  # None: the uniform drive has no sequential rate
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"SimConfig.{name}={value!r}: need a finite time >= 0"
                )
        if not (math.isfinite(self.cpu_speedup) and self.cpu_speedup > 0.0):
            raise ValueError(
                f"SimConfig.cpu_speedup={self.cpu_speedup!r}: need a finite "
                f"factor > 0"
            )
        if self.cache_blocks < 1:
            raise ValueError(
                f"SimConfig.cache_blocks={self.cache_blocks!r}: need >= 1"
            )
        names = {
            "disk_model": ("disk model", self.disk_model, tuple(_DRIVES)),
            "placement": ("placement", self.placement, _PLACEMENTS),
            "discipline": (
                "disk scheduling discipline", self.discipline.lower(),
                DISCIPLINES,
            ),
        }
        for name, (what, value, valid) in names.items():
            if value not in valid:
                raise ValueError(
                    f"SimConfig.{name}={getattr(self, name)!r}: unknown "
                    f"{what}; expected one of {', '.join(valid)}"
                )
        own_geometry = _DRIVES[self.disk_model][0]
        if own_geometry is not None and self.geometry not in (
            HP97560, own_geometry
        ):
            raise ValueError(
                f"SimConfig.geometry={self.geometry!r}: disk model "
                f"{self.disk_model!r} has its own geometry; leave geometry "
                f"at its default"
            )

    def with_(self, **changes: object) -> "SimConfig":
        return replace(self, **changes)


def _build_array(config: SimConfig, num_disks: int) -> DiskArray:
    model_geometry, make_drive = _DRIVES[config.disk_model]
    geometry = model_geometry if model_geometry is not None else config.geometry
    # Fault injection: a null schedule is dropped entirely so the healthy
    # path stays bit-for-bit identical to a fault-free run.
    faults = config.faults
    return DiskArray(
        num_disks,
        drive_factory=lambda: make_drive(config, geometry),
        discipline=config.discipline,
        geometry=geometry,
        faults=faults if faults is not None and not faults.is_null else None,
    )


class _Machine:
    """What the simulated processes share: the disk array, one event heap
    and its clock, and the routing of every event to its process.

    A lone :class:`Simulator` owns one; ``MultiProcessSimulator`` puts
    several Simulators on one.  Every event carries the pid of the process it
    belongs to; a disk completion goes to the process that submitted the
    request (``Request.owner``).
    """

    def __init__(self, config: SimConfig, num_disks: int) -> None:
        self.array = _build_array(config, num_disks)
        self.processes: List["Simulator"] = []
        self.events: List[_Event] = []
        self.next_seq = itertools.count(1).__next__
        self.now = 0.0
        #: Processes still consuming their trace.
        self.live = 0
        #: Service time of the request in service on each disk.
        self.service_ms = [0.0] * num_disks
        self.events_dispatched = 0
        #: Disk offers made so far; it picks who is offered first.
        self.offers = 0
        #: The error that ended a run, as text (the exception itself would
        #: hold its traceback's frames, and through them the run).
        self.failure: Optional[str] = None

    def join(self, process: "Simulator") -> int:
        """Add ``process``; returns its index."""
        processes = self.processes
        processes.append(process)
        self.live += 1
        for member in processes:
            member._peers = tuple(p for p in processes if p is not member)
        return len(processes) - 1

    def offer(self, disk: int, now: float) -> None:
        """Offer a freed disk to every live process's policy, rotating who
        goes first, so no process can monopolize the array by callback
        position."""
        live = [p for p in self.processes if not p.done]
        if not live:
            return
        start = self.offers % len(live)
        self.offers += 1
        for i in range(len(live)):
            process = live[(start + i) % len(live)]
            if process.sink is not None:
                process._emit(process.sink, now, ev.POLICY_ON_DISK_IDLE, disk=disk)
            process.policy.on_disk_idle(disk, now)

    def run(self, tick: Optional[Tuple[float, Callable[[], None]]] = None) -> None:
        """Dispatch events until every process has consumed its trace.

        ``tick = (period_ms, callback)`` calls ``callback`` every
        ``period_ms`` of simulated time while other events are pending.

        However the run ends, the machine then forgets its processes, each
        process its peers and each policy its simulator.  Those are the
        run's only back-edges, so dropping the last reference to a finished
        run frees it at once, not at the cyclic collector's next
        generation-2 pass.  Events still queued are dropped too, so a
        second ``run()`` dispatches nothing; after a run that raised, it
        raises a ``RuntimeError`` naming that run's error.
        """
        events = self.events
        processes = self.processes
        heappop = heapq.heappop
        dispatched = 0
        try:
            for process in processes:
                process._push(0.0, _EVENT_APP)
            if tick is not None:
                heapq.heappush(events, (tick[0], _EVENT_TICK, self.next_seq(), 0, 0))
            while events and self.live:
                now, kind, _seq, pid, payload = heappop(events)
                dispatched += 1
                self.now = now
                if kind == _EVENT_DISK:
                    processes[pid]._disk_complete(payload, now)
                elif kind == _EVENT_APP:
                    processes[pid]._app_step(now)
                elif kind == _EVENT_RETRY:
                    processes[pid]._retry_fetch(payload, now)
                else:
                    assert tick is not None
                    period_ms, callback = tick
                    callback()
                    if events:
                        heapq.heappush(
                            events,
                            (now + period_ms, _EVENT_TICK, self.next_seq(), 0, 0),
                        )
        except Exception as exc:
            self.failure = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.events_dispatched += dispatched
            for process in processes:
                process._peers = ()
                process.policy.sim = cast("SimulatorLike", None)
            processes.clear()
            events.clear()
        if self.failure is not None:
            raise RuntimeError(f"the run already failed: {self.failure}")
        if self.live:
            raise RuntimeError("simulation deadlocked before trace completion")


class Simulator:
    """Run one (trace, policy, array) combination to completion.

    A Simulator is one process: its cursor, driver debt, stall state,
    accounting, cache, block placement and policy.  The disk array, event
    heap and clock belong to its machine, which ``MultiProcessSimulator``
    shares among several Simulators.
    """

    def __init__(
        self,
        trace: Trace,
        policy: PrefetchPolicy,
        num_disks: int,
        config: Optional[SimConfig] = None,
        hints: Optional[List[Optional[int]]] = None,
        observer: Optional["Observer"] = None,
        *,
        _machine: Optional[_Machine] = None,
    ) -> None:
        self.config = config if config is not None else SimConfig()
        #: Optional :class:`repro.obs.Observer`: a sink of this process's
        #: events that adds metrics and stall attribution (see
        #: docs/OBSERVABILITY.md).  Observing only reads, so results stay
        #: bit-identical.
        self.observer = observer
        self.trace = trace
        self.policy = policy
        self.num_disks = num_disks

        # The application consumes the *actual* reference stream; policies
        # see the (possibly degraded) hint view.  With perfect hints the two
        # are the same list.
        self.app_blocks: List[int] = trace.blocks
        if hints is None:
            self.blocks: List[int] = trace.blocks
        else:
            self.blocks = resolve_hint_view(trace.blocks, hints)
        speedup = self.config.cpu_speedup
        if speedup == 1.0:
            self.compute_ms = trace.compute_ms
        else:
            self.compute_ms = [c / speedup for c in trace.compute_ms]

        self._mirror_layout: Optional[StripedLayout] = None
        if self.config.mirrored:
            if num_disks < 2 or num_disks % 2:
                raise ValueError("mirroring needs an even number of disks")
            self._mirror_layout = StripedLayout(num_disks // 2)
        machine = _machine if _machine is not None else _Machine(
            self.config, num_disks
        )
        self._machine = machine
        # Hot-path aliases of the machine's state (the same objects).
        self.array = machine.array
        self._events = machine.events
        self._next_seq = machine.next_seq
        self._service_ms = machine.service_ms
        #: The array's fault schedule; None for a healthy (or null) one.
        self._faults = self.array.faults
        #: Blocks whose every copy is gone (dead spindle, no live mirror).
        #: Scanners skip them; the app consumes their references as
        #: unreadable (partial-data mode) instead of stalling forever.
        self.lost_blocks: Set[int] = set()
        self._fetch_attempts: Dict[int, int] = {}
        self.retry_ms_total = 0.0
        self.failover_reads = 0
        self.failover_writes = 0
        self.abandoned_prefetches = 0
        self.lost_flushes = 0
        self.unreadable_references = 0

        self.index = NextRefIndex(self.blocks)
        self.cache = BufferCache(self.config.cache_blocks)
        self.eviction_heap = EvictionHeap(self.index, self.cache.resident)
        self._disk: Dict[int, int] = {}
        self._lbn: Dict[int, int] = {}
        self._place_blocks()
        #: Each block's disk when placement fixes it (every referenced block
        #: is placed above); None on a mirrored array, where a read goes to
        #: whichever copy's disk is less loaded (see :meth:`disk_of`).
        self.fixed_disk_of: Optional[Mapping[int, int]] = (
            None if self.config.mirrored else self._disk
        )

        #: The other processes on the machine, set by ``_Machine.join``.
        self._peers: Tuple[Simulator, ...] = ()
        #: This process's index on its machine (0 for a lone Simulator);
        #: its requests carry it as their owner.
        self.pid = machine.join(self)
        self.cursor = 0
        self._debt = 0.0
        self._waiting_block: Optional[int] = None
        self._retry_miss = False
        self._stall_start = 0.0
        #: True once the application has consumed its whole trace.
        self.done = False

        self._dirty: Set[int] = set()
        self.write_count = 0
        self.flush_count = 0
        self._writes = trace.writes
        self.compute_total = 0.0
        self.driver_total = 0.0
        self.stall_total = 0.0
        self.elapsed = 0.0
        self.fetch_count = 0
        self.timeline = Timeline() if self.config.record_timeline else None
        sinks: List[Sink] = []
        if self.timeline is not None:
            sinks.append(self.timeline)
        if observer is not None:
            sinks.append(observer)
        #: Where this process's events go; None builds no events at all.
        self.sink: Optional[Sink] = (
            None if not sinks else sinks[0] if len(sinks) == 1 else Fanout(sinks)
        )
        # What the events report, kept only while a sink listens: the open
        # stall's cause and cursor, the number of the last fetch issued for
        # the block at the cursor, and each in-flight read's issue time.
        self._stall_cause = ""
        self._stall_cursor = -1
        self._demand_fetch = 0
        self._issued_ms: Dict[int, float] = {}
        if observer is not None:
            observer.attach(self)
        self.policy.bind(self)

    @property
    def now(self) -> float:
        """The simulated clock, shared by every process on the machine."""
        return self._machine.now

    @property
    def events_dispatched(self) -> int:
        """Events the machine's loop dispatched (app steps, disk
        completions, retries): the denominator for events/sec throughput."""
        return self._machine.events_dispatched

    # -- construction helpers --------------------------------------------------

    def _place_blocks(self) -> None:
        effective_disks = (
            self.num_disks // 2 if self.config.mirrored else self.num_disks
        )
        total = self.array.geometry.total_blocks * effective_disks
        universe = set(self.index.unique_blocks()) | set(self.app_blocks)
        self._scatter_rng: Optional[random.Random] = None
        self._placement: Optional[Placement] = None
        self._files: Dict[int, Tuple[int, int]] = {}
        if self.config.placement == "scatter":
            # Ablation mode: every block lands at an independent random
            # address — no file clustering, no sequentiality for the drive
            # readahead or the CSCAN sweep to exploit.
            self._scatter_rng = random.Random(self.config.placement_seed)
        else:
            self._placement = Placement(total, seed=self.config.placement_seed)
            self._files = self.trace.files or {}
        self._placement_total = total
        for block in sorted(universe, key=str):
            self._place_one(block)

    def _place_one(self, block: int) -> None:
        """Assign a (disk, lbn) home to ``block``.

        Called eagerly for every hinted/referenced block and lazily for
        anything else a policy chooses to fetch (heuristic prefetchers may
        speculate past the trace's footprint — any block is addressable).
        In mirrored mode the home is a *pair* index in [0, d/2); the other
        copy lives on spindle home + d/2 and disk_of picks between them.
        """
        layout = (
            self._mirror_layout if self.config.mirrored else self.array.layout
        )
        if self._scatter_rng is not None:
            global_block = self._scatter_rng.randrange(self._placement_total)
        else:
            assert self._placement is not None
            identity = self._files.get(block, block)
            global_block = self._placement.place(identity)
        self._disk[block] = layout.disk_of(global_block)
        self._lbn[block] = layout.lbn_of(global_block)

    # -- policy-facing API -------------------------------------------------------

    def protected_blocks(self) -> Set[int]:
        """Blocks that must not be evicted right now: the block the
        application is stalled on (or about to reference).  With perfect
        hints these are never eviction candidates anyway (their next use is
        the cursor itself); with degraded hints the lying next-use index
        could nominate them, which would livelock the run on an endless
        evict/refetch cycle."""
        protected: Set[int] = set()
        if self._waiting_block is not None:
            protected.add(self._waiting_block)
        if self.cursor < len(self.app_blocks):
            protected.add(self.app_blocks[self.cursor])
        return protected

    def reference_block(self, cursor: int) -> int:
        """The block the application will *actually* reference at ``cursor``
        (identical to ``blocks[cursor]`` unless hints are degraded)."""
        return self.app_blocks[cursor]

    def disk_of(self, block: int) -> int:
        if block not in self._disk:
            self._place_one(block)
        home = self._disk[block]
        if not self.config.mirrored:
            return home
        # RAID-1: the block's pair owns spindles (home, home + pairs);
        # dispatch to whichever is less loaded right now.  A dead spindle
        # is routed around; with both copies dead the request goes to the
        # home disk and fails fast into the partial-data path.
        mirror = home + self.num_disks // 2
        if self._faults is not None:
            home_dead = self._faults.is_dead(home, self.now)
            mirror_dead = self._faults.is_dead(mirror, self.now)
            if home_dead != mirror_dead:
                return mirror if home_dead else home
        array = self.array
        def load(disk: int) -> int:
            return array.queue_length(disk) + (0 if array.is_idle(disk) else 1)
        return home if load(home) <= load(mirror) else mirror

    def _live_twin(self, block: int, failed_disk: int, now: float) -> Optional[int]:
        """In mirrored mode, the other spindle of ``block``'s pair if it is
        still alive; None when there is no surviving copy to fail over to."""
        if not self.config.mirrored:
            return None
        assert self._faults is not None  # only reachable from fault handling
        pairs = self.num_disks // 2
        home = self._disk[block]
        twin = home + pairs if failed_disk == home else home
        if self._faults.is_dead(twin, now):
            return None
        return twin

    def lbn_of(self, block: int) -> int:
        if block not in self._lbn:
            self._place_one(block)
        return self._lbn[block]

    def is_write(self, cursor: int) -> bool:
        return self._writes is not None and self._writes[cursor]

    def _evict(self, victim: Optional[int]) -> int:
        """Shared eviction path: notify the policy and flush dirty data.
        Returns the victim's next use (-1 when there is no victim)."""
        if victim is None:
            return -1
        victim_next_use = self.index.next_use(victim, self.cursor)
        sink = self.sink
        if sink is not None:
            self._emit(sink, self.now, ev.POLICY_ON_EVICT, block=victim)
        self.policy.on_evict(victim, victim_next_use)
        if victim in self._dirty:
            # Write-behind: the dirty block leaves the cache now and its
            # contents drain to disk asynchronously (modelled as flushing
            # from a staging buffer, so the cache buffer frees immediately).
            self._dirty.discard(victim)
            disk = self.disk_of(victim)
            self.array.submit(
                disk, victim, self.lbn_of(victim), kind="write", owner=self.pid,
            )
            if sink is not None:
                self._emit_submit(sink, disk, victim, "write")
            self.driver_total += self.config.driver_overhead_ms
            self._debt += self.config.driver_overhead_ms
            self.flush_count += 1
        return victim_next_use

    def issue_fetch(self, block: int, victim: Optional[int]) -> None:
        """Fetch ``block`` (evicting ``victim``); charges driver overhead."""
        self.cache.begin_fetch(block, victim)
        next_use = self._evict(victim)
        disk = self.disk_of(block)
        self.array.submit(disk, block, self.lbn_of(block), owner=self.pid)
        self.driver_total += self.config.driver_overhead_ms
        self._debt += self.config.driver_overhead_ms
        self.fetch_count += 1
        sink = self.sink
        if sink is not None:
            self._emit_submit(sink, disk, block, "read")
            now = self.now
            cursor = self.cursor
            demand = (
                cursor < len(self.app_blocks) and self.app_blocks[cursor] == block
            )
            if demand:
                self._demand_fetch = self.fetch_count
            self._issued_ms[block] = now
            self._emit(
                sink, now, ev.FETCH_ISSUE, block=block, disk=disk, cursor=cursor,
                cause="demand" if demand else "prefetch",
            )
            if victim is not None:
                self._emit_evict(sink, victim, next_use, "fetch")
            self._emit_occupancy(sink, now)

    def write_allocate(self, block: int, victim: Optional[int]) -> None:
        """Allocate a buffer for a whole-block write — no disk read."""
        self.cache.begin_fetch(block, victim)
        next_use = self._evict(victim)
        self.cache.complete_fetch(block)
        self.eviction_heap.push(block, self.cursor)
        self.policy.on_write_allocate(block)
        sink = self.sink
        if sink is not None:
            now = self.now
            self._emit(sink, now, ev.WRITE_ALLOCATE, block=block, cursor=self.cursor)
            if victim is not None:
                self._emit_evict(sink, victim, next_use, "write")
            self._emit_occupancy(sink, now)

    # -- event emission (only ever called with a sink) --------------------------

    def _emit(
        self, sink: Sink, now: float, kind: str, block: int = -1, disk: int = -1,
        dur_ms: float = 0.0, cursor: int = -1, value: float = 0.0,
        cause: str = "", detail: Optional[Dict[str, object]] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Send one event of this process (unless ``pid`` says whose)."""
        sink.emit(Event(
            now, kind, block, disk, dur_ms, cursor, value, cause, detail,
            self.pid if pid is None else pid,
        ))

    def _emit_submit(self, sink: Sink, disk: int, block: int, kind: str) -> None:
        """A request of ``kind`` for ``block`` just joined ``disk``'s queue."""
        now = self.now
        depth = float(self.array.queue_length(disk))
        self._emit(sink, now, ev.QUEUE_DEPTH, disk=disk, value=depth, cause="submit")
        if kind != "read":
            self._emit(sink, now, ev.FLUSH_ISSUE, block=block, disk=disk)

    def _emit_evict(self, sink: Sink, victim: int, next_use: int, cause: str) -> None:
        cursor = self.cursor
        never = next_use >= self.index.never
        self._emit(
            sink, self.now, ev.EVICT, block=victim, cursor=cursor, cause=cause,
            value=-1.0 if never else float(next_use - cursor),
        )

    def _emit_occupancy(self, sink: Sink, now: float) -> None:
        occupancy = float(self.cache.occupancy)
        self._emit(sink, now, ev.CACHE_OCCUPANCY, value=occupancy)

    def _emit_dispatch(
        self, sink: Sink, disk: int, request: Request,
        breakdown: ServiceBreakdown, now: float,
    ) -> None:
        """``disk`` just started serving ``request``."""
        detail: Dict[str, object] = breakdown.as_dict()
        detail.update(request.as_dict())
        self._emit(
            sink, now, ev.DISK_BUSY, pid=request.owner, block=request.block,
            disk=disk, dur_ms=breakdown.total, cause=request.kind, detail=detail,
        )
        self._emit(
            sink, now, ev.QUEUE_DEPTH, pid=request.owner, disk=disk,
            value=float(self.array.queue_length(disk)), cause="dispatch",
        )

    def _emit_stall(self, sink: Sink, block: int, cause: str) -> None:
        """The application just began waiting for ``block`` because of
        ``cause``; ``_stall_start`` is already set."""
        self._stall_cause = cause
        self._stall_cursor = self.cursor
        self._emit(
            sink, self._stall_start, ev.STALL_BEGIN, block=block,
            cursor=self.cursor, cause=cause,
        )

    def _emit_failover(self, sink: Sink, block: int, twin: int, now: float) -> None:
        """``block``'s request was resubmitted to its mirror ``twin``; a
        stall on that block is now charged to the failover."""
        if self._waiting_block == block:
            self._stall_cause = ev.CAUSE_FAILOVER
        self._emit(sink, now, ev.FETCH_FAILOVER, block=block, disk=twin)

    # -- event plumbing ---------------------------------------------------------

    def _push(self, time: float, kind: int, payload: int = 0) -> None:
        heapq.heappush(
            self._events, (time, kind, self._next_seq(), self.pid, payload)
        )

    def _start_disks(self, now: float) -> None:
        array = self.array
        # Ascending disk order, as a poll of every disk would start them.
        for disk in sorted(array.ready):
            started = array.start_next(disk, now)
            if started is None:
                continue
            request, completion, breakdown = started
            self._service_ms[disk] = breakdown.total
            # The completion goes to the process that submitted the request.
            heapq.heappush(
                self._events,
                (completion, _EVENT_DISK, self._next_seq(), request.owner, disk),
            )
            sink = self.sink
            if sink is not None:
                self._emit_dispatch(sink, disk, request, breakdown, now)

    def _release_disk(self, disk: int, now: float, arrived: Optional[int]) -> None:
        """``disk`` finished a request of this process: offer it to the
        policies (the machine rotates who goes first when there are
        peers), start the disks, and wake whoever the completion unblocks
        — this process if ``arrived`` is the block it waits for, and any
        process parked on a miss it could not issue (a buffer or a disk
        may have just freed up)."""
        peers = self._peers
        if peers:
            self._machine.offer(disk, now)
        elif not self.done:
            sink = self.sink
            if sink is not None:
                self._emit(sink, now, ev.POLICY_ON_DISK_IDLE, disk=disk)
            self.policy.on_disk_idle(disk, now)
        self._start_disks(now)
        waiting = self._waiting_block
        if waiting is not None and (waiting == arrived or self._retry_miss):
            self._wake_app(now)
        for peer in peers:
            if peer._retry_miss and peer._waiting_block is not None:
                peer._wake_app(now)

    # -- event handlers -----------------------------------------------------------

    def _wake_app(self, now: float) -> None:
        """End the application's current stall: account the wait and
        schedule the app step that re-examines the reference."""
        start = self._stall_start
        sink = self.sink
        if sink is not None:
            waiting = self._waiting_block
            assert waiting is not None  # callers checked before waking
            self._emit(
                sink, max(now, start), ev.STALL_END, block=waiting,
                dur_ms=max(0.0, now - start), cursor=self.cursor,
                cause=self._stall_cause,
            )
        self._waiting_block = None
        self._retry_miss = False
        self.stall_total += max(0.0, now - start)
        self._push(max(now, start), _EVENT_APP)

    def _disk_complete(self, disk: int, now: float) -> None:
        request = self.array.complete(disk)
        if self._faults is not None:
            outcome = self.array.take_outcome(disk)
            if outcome is not OUTCOME_OK:
                self._fault_complete(disk, request, outcome, now)
                return
        sink = self.sink
        block = request.block
        if request.kind == "write":
            # A write-behind flush finished; nothing enters the cache, the
            # disk is simply free again.
            if sink is not None:
                self._emit(sink, now, ev.FLUSH_DONE, block=block, disk=disk)
            self._release_disk(disk, now, None)
            return
        self.cache.complete_fetch(block)
        if self._fetch_attempts:
            self._fetch_attempts.pop(block, None)
        self.eviction_heap.push(block, self.cursor)
        if sink is not None:
            latency = now - self._issued_ms.pop(block, now)
            self._emit(
                sink, now, ev.FETCH_DONE, block=block, disk=disk, dur_ms=latency
            )
        self.policy.on_fetch_complete(disk, self._service_ms[disk])
        self._release_disk(disk, now, block)
        if sink is not None:
            self._emit_occupancy(sink, now)

    # -- fault handling ---------------------------------------------------------

    def _fault_complete(
        self, disk: int, request: Request, outcome: str, now: float
    ) -> None:
        """A request finished with an injected fault: decide between
        failover (dead spindle, live mirror twin), retry with exponential
        backoff (failed demand fetch), abandonment (failed prefetch or
        flush), and partial-data mode (no copy of the block survives).
        """
        faults = self._faults
        assert faults is not None  # only reachable with fault injection on
        block = request.block
        service_ms = self._service_ms[disk]
        sink = self.sink
        if sink is not None:
            self._emit(
                sink, now, ev.FAULT, block=block, disk=disk, cause=outcome,
                value=float(request.attempt),
            )
        lost = False
        if request.kind == "write":
            if outcome is OUTCOME_DEAD:
                twin = self._live_twin(block, disk, now)
                if twin is not None:
                    self.failover_writes += 1
                    self.retry_ms_total += service_ms
                    self.array.submit(
                        twin, block, self._lbn[block], kind="write",
                        owner=self.pid,
                    )
                    if sink is not None:
                        self._emit_submit(sink, twin, block, "write")
                        self._emit_failover(sink, block, twin, now)
                else:
                    self.lost_flushes += 1
            else:
                # Transient flush error: the buffer is long gone, so the
                # flush is simply dropped (a lost redundancy write).
                self.lost_flushes += 1
        elif outcome is OUTCOME_DEAD:
            twin = self._live_twin(block, disk, now)
            if twin is not None:
                self.failover_reads += 1
                self.retry_ms_total += service_ms
                self.array.submit(twin, block, self._lbn[block], owner=self.pid)
                if sink is not None:
                    self._emit_submit(sink, twin, block, "read")
                    self._emit_failover(sink, block, twin, now)
            else:
                # No surviving copy anywhere: the block is gone.  Release
                # the buffer and let the app consume its references as
                # unreadable (partial data) instead of crashing the run.
                lost = True
                self.lost_blocks.add(block)
                self._abandon_fetch(block, disk)
        elif self._waiting_block == block:
            # Failed *demand* fetch: retry with exponential backoff until
            # the budget is exhausted, then the data is unrecoverable.
            attempts = self._fetch_attempts.get(block, 0) + 1
            self._fetch_attempts[block] = attempts
            if attempts > faults.max_retries:
                raise UnrecoverableReadError(block, disk, attempts)
            backoff = faults.retry_backoff_ms * (2 ** (attempts - 1))
            self.retry_ms_total += service_ms + backoff
            self._push(now + backoff, _EVENT_RETRY, block)
            if sink is not None:
                # The stall on this block is now charged to the retries.
                self._stall_cause = ev.CAUSE_FAULT_RETRY
                self._emit(
                    sink, now, ev.FETCH_BACKOFF, block=block, disk=disk,
                    value=float(attempts),
                )
        else:
            # Failed *prefetch*: abandon it — the bandwidth is already
            # wasted, and the block will surface later as a demand miss.
            self._abandon_fetch(block, disk)
        # A lost block wakes the app stalled on it into the partial-data
        # path; a parked miss may now have a free buffer (an abandoned
        # prefetch released one) or a free disk.
        self._release_disk(disk, now, block if lost else None)

    def _abandon_fetch(self, block: int, disk: int) -> None:
        """Release the in-flight reservation of a fetch that failed on
        ``disk`` and will never complete, and re-expose the block to the
        policy's missing-set."""
        self.cache.abort_fetch(block)
        self._fetch_attempts.pop(block, None)
        self.abandoned_prefetches += 1
        sink = self.sink
        lost = block in self.lost_blocks
        if not lost:
            # Lost blocks are *not* re-exposed: scanners skip them and the
            # app consumes their references as unreadable.
            next_use = self.index.next_use(block, self.cursor)
            if sink is not None:
                self._emit(sink, self.now, ev.POLICY_ON_EVICT, block=block)
            self.policy.on_evict(block, next_use)
        if sink is not None:
            now = self.now
            self._issued_ms.pop(block, None)
            self._emit(
                sink, now, ev.FETCH_ABANDON, block=block, disk=disk,
                cause="lost" if lost else "prefetch-fault",
            )
            self._emit_occupancy(sink, now)

    def _retry_fetch(self, block: int, now: float) -> None:
        """Backoff expired: resubmit the failed demand fetch.  The target
        disk is re-resolved, so a spindle that died during the backoff is
        routed around in mirrored mode."""
        if not self.cache.is_in_flight(block):
            return  # the fetch was aborted meanwhile (block became lost)
        disk = self.disk_of(block)
        attempt = self._fetch_attempts.get(block, 0)
        self.array.submit(
            disk, block, self.lbn_of(block), attempt=attempt, owner=self.pid,
        )
        sink = self.sink
        if sink is not None:
            self._emit_submit(sink, disk, block, "read")
            self._emit(
                sink, now, ev.FETCH_RETRY, block=block, disk=disk,
                value=float(attempt),
            )
        self._start_disks(now)

    def _app_step(self, now: float) -> None:
        if self.done:
            return
        if self._debt > 0.0:
            debt, self._debt = self._debt, 0.0
            self._push(now + debt, _EVENT_APP)
            return
        if self.cursor >= len(self.app_blocks):
            self.done = True
            self.elapsed = now
            self._machine.live -= 1
            return
        fetches = self.fetch_count
        sink = self.sink
        if sink is not None:
            self._emit(sink, now, ev.POLICY_BEFORE_REFERENCE, cursor=self.cursor)
        self.policy.before_reference(self.cursor, now)
        if self.fetch_count != fetches:
            # Start the disks on every issued prefetch, not only when it
            # left driver debt: at zero overhead there is none, and the
            # queued fetches would otherwise never start.
            self._start_disks(now)
            if self._debt > 0.0:
                debt, self._debt = self._debt, 0.0
                self._push(now + debt, _EVENT_APP)
                return
        block = self.app_blocks[self.cursor]
        if block in self.cache:
            if self.is_write(self.cursor):
                self._dirty.add(block)
                self.write_count += 1
            compute = self.compute_ms[self.cursor]
            self.compute_total += compute
            self.policy.on_reference_served(self.cursor, compute)
            if sink is not None:
                kind = (
                    ev.REF_MISS if self.cursor == self._stall_cursor
                    else ev.REF_HIT
                )
                self._emit(sink, now, kind, block=block, cursor=self.cursor)
            self.cursor += 1
            self.eviction_heap.push(block, self.cursor)
            self._push(now + compute, _EVENT_APP)
        elif block in self.lost_blocks and not self.is_write(self.cursor):
            # Partial-data mode: every copy of this block is on a dead
            # spindle.  The read cannot be served from anywhere; the run
            # records the unreadable reference and continues (writes still
            # allocate in cache and are handled above/below).
            self.unreadable_references += 1
            compute = self.compute_ms[self.cursor]
            self.compute_total += compute
            self.policy.on_reference_served(self.cursor, compute)
            if sink is not None:
                self._emit(
                    sink, now, ev.REF_UNREADABLE, block=block, cursor=self.cursor
                )
            self.cursor += 1
            self._push(now + compute, _EVENT_APP)
        elif self.is_write(self.cursor) and not self.cache.is_in_flight(block):
            # Whole-block write miss: allocate a buffer, no read needed.
            victim = self.policy.choose_victim(self.cursor)
            if victim is False:
                self._start_disks(now)
                debt, self._debt = self._debt, 0.0
                self._waiting_block = block
                self._retry_miss = True
                self._stall_start = now + debt
                if sink is not None:
                    self._emit_stall(sink, block, ev.CAUSE_ALL_DISKS_BUSY)
                return
            self.write_allocate(block, victim)
            self._start_disks(now)  # a dirty victim may have queued a flush
            if self._debt > 0.0:
                debt, self._debt = self._debt, 0.0
                self._push(now + debt, _EVENT_APP)
                return
            self._push(now, _EVENT_APP)  # re-enter: block now resident
        elif self.cache.is_in_flight(block):
            self._waiting_block = block
            self._stall_start = now
            if sink is not None:
                # A fetch of this block issued in this very step (by
                # before_reference) is a demand fetch, not a late prefetch.
                self._emit_stall(
                    sink, block,
                    ev.CAUSE_DEMAND_MISS if self._demand_fetch > fetches
                    else ev.CAUSE_PREFETCH_TOO_LATE,
                )
        else:
            if sink is not None:
                self._emit(sink, now, ev.POLICY_ON_MISS, cursor=self.cursor)
            self.policy.on_miss(self.cursor, now)
            if not self.cache.present_or_coming(block):
                if not self.cache.in_flight and not any(
                    peer.cache.in_flight for peer in self._peers
                ):
                    raise RuntimeError(
                        f"policy {self.policy.name!r} left block {block} "
                        f"unfetched at a miss (cursor {self.cursor})"
                    )
                # No buffer could be freed for the demand fetch (all of
                # them protected or riding in-flight prefetches).  Stall
                # until the next completion frees one, then retry the miss.
                self._start_disks(now)
                debt, self._debt = self._debt, 0.0
                self._waiting_block = block
                self._retry_miss = True
                self._stall_start = now + debt
                if sink is not None:
                    self._emit_stall(sink, block, ev.CAUSE_ALL_DISKS_BUSY)
                return
            self._start_disks(now)
            debt, self._debt = self._debt, 0.0
            self._waiting_block = block
            self._stall_start = now + debt
            if sink is not None:
                self._emit_stall(sink, block, ev.CAUSE_DEMAND_MISS)

    # -- main loop ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        self._machine.run()
        result = self._build_result(self.elapsed)
        if self.observer is not None:
            self.observer.finish([result])
        return result

    def _build_result(self, horizon: float) -> SimulationResult:
        """This process's result.  The array's busy time is clipped to, and
        its utilization taken over, ``horizon``: the machine's makespan,
        which is this process's elapsed time when it runs alone."""
        elapsed = self.elapsed
        busy = [min(b, horizon) for b in self.array.busy_time]
        if horizon > 0:
            utilization = sum(busy) / (self.num_disks * horizon)
        else:
            utilization = 0.0
        started = max(1, self.array.requests_started)
        extras: Dict[str, float] = {}
        if self._writes is not None:
            extras["writes"] = self.write_count
            extras["flushes"] = self.flush_count
        if self._faults is not None:
            extras["transient_errors"] = self.array.transient_errors
            extras["dead_errors"] = self.array.dead_errors
            extras["slowed_requests"] = self.array.slowed_requests
            extras["abandoned_prefetches"] = self.abandoned_prefetches
            extras["failover_writes"] = self.failover_writes
            extras["lost_flushes"] = self.lost_flushes
            extras["lost_blocks"] = len(self.lost_blocks)
            extras["unreadable_references"] = self.unreadable_references
        result = SimulationResult(
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            num_disks=self.num_disks,
            cache_blocks=self.cache.capacity,
            fetches=self.fetch_count,
            compute_ms=self.compute_total,
            driver_ms=self.driver_total,
            stall_ms=self.stall_total,
            elapsed_ms=elapsed,
            average_fetch_ms=self.array.service_time_total / started,
            disk_utilization=utilization,
            per_disk_busy_ms=busy,
            references=len(self.app_blocks),
            cache_hits=len(self.app_blocks) - self.fetch_count,
            retry_ms=self.retry_ms_total,
            failover_reads=self.failover_reads,
            faults_injected=self.array.faults_injected,
            extras=extras,
        )
        result.check_accounting(tolerance_ms=1e-6 * max(1.0, elapsed))
        return result
