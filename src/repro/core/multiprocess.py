"""Multiple processes sharing the cache and the disk array.

The paper studies one fully-hinted process and defers the multi-process
case to TIP2 (Patterson et al. [25]) and future work: how should buffers
and disk bandwidth be divided among processes, only some of which hint?
This module implements that generalization:

* each process runs its own trace under its own policy, with private
  accounting (compute/driver/stall/elapsed per process);
* all processes share one :class:`~repro.disk.array.DiskArray` — a free
  disk is offered to the policies in rotating order, so no process can
  monopolize the array by callback position;
* the buffer cache is *partitioned*: every process owns a
  :class:`~repro.core.cache.BufferCache` slice, and an **allocator**
  decides the slice sizes:

  - :class:`StaticAllocator` — fixed shares (TIP2's baseline);
  - :class:`CostBenefitAllocator` — TIP2's idea in simplified form:
    periodically move buffers from the process with the lowest recent
    stall-per-buffer toward the one with the highest, since a stalling
    hinting process can convert a buffer directly into prefetch depth.

Block identities are namespaced per process, so two traces may use the
same small integers without colliding in the shared array.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.cache import BufferCache
from repro.core.engine import SimConfig
from repro.core.nextref import EvictionHeap, NextRefIndex, ScanSupport
from repro.core.policy import PrefetchPolicy
from repro.core.results import SimulationResult
from repro.disk.array import DiskArray, DriveModel, Placement
from repro.disk.drive import DiskDrive
from repro.disk.simple import SimpleDrive
from repro.trace.trace import Trace

_EVENT_DISK = 0
_EVENT_APP = 1

#: Stride separating per-process block namespaces in the shared array.
_NAMESPACE_STRIDE = 1 << 32


@dataclass
class ProcessResult:
    """Per-process outcome plus the shared-run aggregate view."""

    results: List[SimulationResult]

    @property
    def makespan_ms(self) -> float:
        return max(r.elapsed_ms for r in self.results)

    @property
    def total_stall_ms(self) -> float:
        return sum(r.stall_ms for r in self.results)

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SimulationResult:
        return self.results[index]


class StaticAllocator:
    """Fixed buffer shares, proportional to the given weights."""

    name = "static"
    #: Simulated-time interval between rebalances; None disables them.
    period_ms: Optional[float] = None

    def __init__(self, weights: Optional[Sequence[float]] = None) -> None:
        self.weights = weights

    def initial_shares(self, total: int, num_processes: int) -> List[int]:
        weights = self.weights or [1.0] * num_processes
        if len(weights) != num_processes:
            raise ValueError("one weight per process required")
        scale = total / sum(weights)
        shares = [max(1, int(w * scale)) for w in weights]
        shares[0] += total - sum(shares)  # rounding drift to process 0
        return shares

    def rebalance(self, sim: MultiProcessSimulator) -> None:
        """Static allocation never moves buffers."""


class CostBenefitAllocator(StaticAllocator):
    """Move buffers toward the process whose stalls they can cure.

    Every ``period_ms`` of simulated time, compares each live process's
    stall accumulated since the last rebalance; one buffer (per period,
    per donor) migrates from the least-stalled to the most-stalled process
    when the gap is material.  This is TIP2's cost-benefit estimate with
    the bookkeeping radically simplified: recent stall stands in for the
    marginal benefit of a buffer.
    """

    name = "cost-benefit"

    def __init__(self, weights: Optional[Sequence[float]] = None,
                 period_ms: float = 250.0, min_share: int = 8,
                 step: int = 4) -> None:
        super().__init__(weights)
        self.period_ms = period_ms
        self.min_share = min_share
        self.step = step
        self._last_stall: List[float] = []

    def rebalance(self, sim: MultiProcessSimulator) -> None:
        live = [p for p in sim.processes if not p.done]
        if len(live) < 2:
            return
        if not self._last_stall:
            self._last_stall = [0.0] * len(sim.processes)
        deltas = {
            p.pid: p.stall_total - self._last_stall[p.pid] for p in live
        }
        for p in live:
            self._last_stall[p.pid] = p.stall_total
        needy = max(live, key=lambda p: deltas[p.pid])
        donor = min(live, key=lambda p: deltas[p.pid])
        if needy is donor:
            return
        if deltas[needy.pid] - deltas[donor.pid] <= 1e-9:
            return
        moved = donor.cache.shrink(self.step, floor=self.min_share)
        if moved:
            needy.cache.grow(moved)


class _SharedSlice(BufferCache):
    """A process's partition of the shared cache, resizable at runtime."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.allow_overflow = True  # shrinks drain via normal evictions

    def shrink(self, count: int, floor: int) -> int:
        """Give up to ``count`` buffers away (capacity floor respected).

        Over-occupancy is tolerated: the slice simply refuses new fetches
        until evictions drain it below the new capacity.
        """
        granted = max(0, min(count, self.capacity - floor))
        self.capacity -= granted
        return granted

    def grow(self, count: int) -> None:
        self.capacity += count

    @property
    def free_buffers(self) -> int:
        return max(0, self.capacity - len(self.resident) - len(self.in_flight))


class _Process:
    """One application's private simulation state."""

    def __init__(
        self,
        pid: int,
        trace: Trace,
        policy: PrefetchPolicy,
        cache: _SharedSlice,
        sim: MultiProcessSimulator,
    ) -> None:
        self.pid = pid
        self.trace = trace
        self.policy = policy
        self.cache = cache
        self.sim = sim
        offset = pid * _NAMESPACE_STRIDE
        self.blocks = [b + offset for b in trace.blocks]
        self.app_blocks = self.blocks
        self.compute_ms = trace.compute_ms
        # The multiprocess engine does not inject faults; the attribute
        # exists because policy scanners skip a simulator's lost blocks.
        self.lost_blocks: FrozenSet[int] = frozenset()
        self.index = NextRefIndex(self.blocks)
        self.eviction_heap = EvictionHeap(self.index, cache.resident)
        # Namespaced block ids are far too sparse for a dense present mask;
        # policies fall back to the scalar scan loops.
        self.scan: Optional[ScanSupport] = None
        self.cursor = 0
        self.debt = 0.0
        self.waiting_block: Optional[int] = None
        self.retry_miss = False
        self.stall_start = 0.0
        self.done = False
        self.compute_total = 0.0
        self.driver_total = 0.0
        self.stall_total = 0.0
        self.elapsed = 0.0
        self.fetch_count = 0

    # -- the Simulator interface policies expect ------------------------------

    @property
    def num_disks(self) -> int:
        return self.sim.array.num_disks

    @property
    def array(self) -> DiskArray:
        return self.sim.array

    def protected_blocks(self) -> Set[int]:
        protected: Set[int] = set()
        if self.waiting_block is not None:
            protected.add(self.waiting_block)
        if self.cursor < len(self.app_blocks):
            protected.add(self.app_blocks[self.cursor])
        return protected

    def reference_block(self, cursor: int) -> int:
        return self.app_blocks[cursor]

    def disk_of(self, block: int) -> int:
        return self.sim.disk_of(block)

    def lbn_of(self, block: int) -> int:
        return self.sim.lbn_of(block)

    def issue_fetch(self, block: int, victim: Optional[int]) -> None:
        self.sim.issue_fetch(self, block, victim)


def _check_config(config: SimConfig) -> None:
    """Refuse the :class:`SimConfig` settings this engine would silently
    ignore: it builds only the ``hp97560`` and ``simple`` drives, places
    blocks clustered, and has no mirroring, timeline, fault injection or
    CPU scaling."""
    faults = config.faults
    unsupported = {
        "disk_model": config.disk_model not in ("hp97560", "simple"),
        "mirrored": config.mirrored,
        "record_timeline": config.record_timeline,
        "faults": faults is not None and not faults.is_null,
        "placement": config.placement != "clustered",
        "cpu_speedup": config.cpu_speedup != 1.0,
    }
    for name, rejected in unsupported.items():
        if rejected:
            raise ValueError(
                f"MultiProcessSimulator does not support SimConfig.{name}="
                f"{getattr(config, name)!r}"
            )


class MultiProcessSimulator:
    """Run several (trace, policy) pairs against shared disks and cache."""

    def __init__(
        self,
        workloads: Sequence[Tuple[Trace, PrefetchPolicy]],
        num_disks: int,
        config: Optional[SimConfig] = None,
        allocator: Optional[StaticAllocator] = None,
    ) -> None:
        if not workloads:
            raise ValueError("need at least one process")
        self.config = config if config is not None else SimConfig()
        _check_config(self.config)
        self.num_disks = num_disks
        self.allocator = allocator if allocator is not None else StaticAllocator()
        self.array = self._build_array()
        self._disk: Dict[int, int] = {}
        self._lbn: Dict[int, int] = {}

        shares = self.allocator.initial_shares(
            self.config.cache_blocks, len(workloads)
        )
        self.processes: List[_Process] = []
        for pid, (trace, policy) in enumerate(workloads):
            cache = _SharedSlice(shares[pid])
            process = _Process(pid, trace, policy, cache, self)
            self.processes.append(process)
            self._place_blocks(process)
            policy.bind(process)

        self._owner_of_request: Dict[int, _Process] = {}
        self._events: List[Tuple[float, int, int, int]] = []
        self._event_seq = 0
        self._offer_start = 0
        self._service_in_progress = [0.0] * num_disks
        self._last_rebalance = 0.0

    # -- construction ---------------------------------------------------------

    def _build_array(self) -> DiskArray:
        config = self.config
        factory: Callable[[], DriveModel]
        if config.disk_model == "hp97560":
            factory = lambda: DiskDrive(config.geometry, readahead=config.readahead)
        else:
            factory = lambda: SimpleDrive(
                access_ms=config.simple_access_ms,
                sequential_ms=config.simple_sequential_ms,
            )
        return DiskArray(
            self.num_disks, drive_factory=factory,
            discipline=config.discipline, geometry=config.geometry,
        )

    def _place_blocks(self, process: _Process) -> None:
        total = self.config.geometry.total_blocks * self.num_disks
        placement = Placement(
            total, seed=self.config.placement_seed + process.pid
        )
        files = process.trace.files or {}
        offset = process.pid * _NAMESPACE_STRIDE
        layout = self.array.layout
        for namespaced in process.index.unique_blocks():
            raw = namespaced - offset
            identity = files.get(raw, (process.pid, raw))
            if not isinstance(identity, tuple):
                identity = (process.pid, raw)
            global_block = placement.place(identity)
            self._disk[namespaced] = layout.disk_of(global_block)
            self._lbn[namespaced] = layout.lbn_of(global_block)

    def disk_of(self, block: int) -> int:
        return self._disk[block]

    def lbn_of(self, block: int) -> int:
        return self._lbn[block]

    # -- shared fetch path ------------------------------------------------------

    def issue_fetch(
        self, process: _Process, block: int, victim: Optional[int]
    ) -> None:
        process.cache.begin_fetch(block, victim)
        if victim is not None:
            # next_use depends only on the trace, not on cache state, so
            # computing it after begin_fetch is equivalent.
            victim_next_use = process.index.next_use(victim, process.cursor)
            process.policy.on_evict(victim, victim_next_use)
        request = self.array.submit(self._disk[block], block, self._lbn[block])
        self._owner_of_request[request.seq] = process
        overhead = self.config.driver_overhead_ms
        process.driver_total += overhead
        process.debt += overhead
        process.fetch_count += 1

    # -- events -------------------------------------------------------------------

    def _push(self, time: float, kind: int, payload: int = 0) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (time, kind, self._event_seq, payload))

    def _start_disks(self, now: float) -> None:
        array = self.array
        for disk in sorted(array.ready):
            started = array.start_next(disk, now)
            if started is None:
                continue
            _request, completion, breakdown = started
            self._service_in_progress[disk] = breakdown.total
            self._push(completion, _EVENT_DISK, disk)

    def _offer_disk(self, disk: int, now: float) -> None:
        """Offer a free disk to every live policy, rotating who goes first."""
        live = [p for p in self.processes if not p.done]
        if not live:
            return
        start = self._offer_start % len(live)
        self._offer_start += 1
        for i in range(len(live)):
            process = live[(start + i) % len(live)]
            process.policy.on_disk_idle(disk, now)

    def _disk_complete(self, disk: int, now: float) -> None:
        request = self.array.complete(disk)
        owner = self._owner_of_request.pop(request.seq)
        owner.cache.complete_fetch(request.block)
        owner.eviction_heap.push(request.block, owner.cursor)
        owner.policy.on_fetch_complete(disk, self._service_in_progress[disk])
        self._offer_disk(disk, now)
        self._start_disks(now)
        for process in self.processes:
            if process.done or process.waiting_block is None:
                continue
            arrived = process is owner and process.waiting_block == request.block
            # Parked misses (retry_miss) are woken by *any* completion:
            # allocator moves and protection sets shift between events, so
            # the retry is cheap and re-parks if still stuck.
            if arrived or process.retry_miss:
                process.waiting_block = None
                process.retry_miss = False
                process.stall_total += max(0.0, now - process.stall_start)
                self._push(max(now, process.stall_start), _EVENT_APP,
                           process.pid)

    def _app_step(self, process: _Process, now: float) -> None:
        if process.done:
            return
        if process.debt > 0.0:
            debt, process.debt = process.debt, 0.0
            self._push(now + debt, _EVENT_APP, process.pid)
            return
        if process.cursor >= len(process.app_blocks):
            process.done = True
            process.elapsed = now
            return
        fetches = process.fetch_count
        process.policy.before_reference(process.cursor, now)
        if process.fetch_count != fetches:
            # As in Simulator._app_step: zero overhead leaves no debt.
            self._start_disks(now)
            if process.debt > 0.0:
                debt, process.debt = process.debt, 0.0
                self._push(now + debt, _EVENT_APP, process.pid)
                return
        block = process.app_blocks[process.cursor]
        if block in process.cache:
            compute = process.compute_ms[process.cursor]
            process.compute_total += compute
            process.policy.on_reference_served(process.cursor, compute)
            process.cursor += 1
            process.eviction_heap.push(block, process.cursor)
            self._push(now + compute, _EVENT_APP, process.pid)
        elif process.cache.is_in_flight(block):
            process.waiting_block = block
            process.stall_start = now
        else:
            process.policy.on_miss(process.cursor, now)
            if not process.cache.present_or_coming(block):
                if not process.cache.in_flight and not any(
                    p.cache.in_flight for p in self.processes
                ):
                    raise RuntimeError(
                        f"process {process.pid} wedged at cursor "
                        f"{process.cursor}"
                    )
                process.retry_miss = True
            self._start_disks(now)
            debt, process.debt = process.debt, 0.0
            process.waiting_block = block
            process.stall_start = now + debt

    # -- main loop -------------------------------------------------------------------

    def run(self) -> ProcessResult:
        for process in self.processes:
            self._push(0.0, _EVENT_APP, process.pid)
        rebalance_period = self.allocator.period_ms
        while self._events and not all(p.done for p in self.processes):
            now, kind, _seq, payload = heapq.heappop(self._events)
            if kind == _EVENT_DISK:
                self._disk_complete(payload, now)
            else:
                self._app_step(self.processes[payload], now)
            if (
                rebalance_period is not None
                and now - self._last_rebalance >= rebalance_period
            ):
                self._last_rebalance = now
                self.allocator.rebalance(self)
        if not all(p.done for p in self.processes):
            raise RuntimeError("multi-process simulation deadlocked")
        makespan = max(p.elapsed for p in self.processes)
        utilization = self.array.utilization(makespan)
        return ProcessResult(
            [self._result_for(p, utilization) for p in self.processes]
        )

    def _result_for(
        self, process: _Process, utilization: float
    ) -> SimulationResult:
        elapsed = process.elapsed
        result = SimulationResult(
            trace_name=process.trace.name,
            policy_name=process.policy.name,
            num_disks=self.num_disks,
            cache_blocks=process.cache.capacity,
            fetches=process.fetch_count,
            compute_ms=process.compute_total,
            driver_ms=process.driver_total,
            stall_ms=process.stall_total,
            elapsed_ms=elapsed,
            average_fetch_ms=self.array.average_service_ms(),
            disk_utilization=utilization,
            references=len(process.app_blocks),
            cache_hits=len(process.app_blocks) - process.fetch_count,
        )
        result.check_accounting(tolerance_ms=1e-6 * max(1.0, elapsed))
        return result
