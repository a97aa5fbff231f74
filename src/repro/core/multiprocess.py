"""Multiple processes sharing the cache and the disk array.

The paper studies one fully-hinted process and defers the multi-process
case to TIP2 (Patterson et al. [25]) and future work: how should buffers
and disk bandwidth be divided among processes, only some of which hint?
This module implements that generalization:

* each process is a :class:`~repro.core.engine.Simulator` running its
  own trace under its own policy, with private accounting
  (compute/driver/stall/elapsed per process);
* all processes share one :class:`~repro.disk.array.DiskArray`, event
  heap and clock — a disk that finishes a request is offered to every
  live process's policy in rotating order, so no process can monopolize
  the array by callback position;
* the buffer cache is *partitioned*: every process owns a
  :class:`~repro.core.cache.BufferCache`, and an **allocator** decides
  their sizes:

  - :class:`StaticAllocator` — fixed shares (TIP2's baseline);
  - :class:`CostBenefitAllocator` — TIP2's idea in simplified form:
    periodically move buffers from the process with the lowest recent
    stall-per-buffer toward the one with the highest, since a stalling
    hinting process can convert a buffer directly into prefetch depth.

Each process keeps its own block identities and placement (seeded with
``placement_seed + pid``); every request carries its owner, so
completions route back to the right process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import SimConfig, Simulator, _Machine
from repro.core.policy import PrefetchPolicy
from repro.core.results import SimulationResult
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.obs.observer import Observer


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


class MultiProcessSimulator:
    """Run several (trace, policy) pairs against shared disks and cache.

    Each process is a :class:`~repro.core.engine.Simulator` with its own
    cache partition (sized by the allocator) and placement seed
    (``placement_seed + pid``); all of them share one disk array, event
    heap and clock, and run in the engine's one event loop.  With a single
    process the run is exactly ``Simulator(trace, policy, ...)``.  Each
    process's result carries the shared array's statistics over the
    makespan (average fetch time, per-disk busy time, utilization).
    An ``observer`` watches every process; each event carries its pid, and
    each process's result gets its own stall attribution.
    """

    def __init__(
        self,
        workloads: Sequence[Tuple[Trace, PrefetchPolicy]],
        num_disks: int,
        config: Optional[SimConfig] = None,
        allocator: Optional[StaticAllocator] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        if not workloads:
            raise ValueError("need at least one process")
        self.config = config if config is not None else SimConfig()
        self.num_disks = num_disks
        self.observer = observer
        self.allocator = allocator if allocator is not None else StaticAllocator()
        shares = self.allocator.initial_shares(
            self.config.cache_blocks, len(workloads)
        )
        self._machine = _Machine(self.config, num_disks)
        self.array = self._machine.array
        seed = self.config.placement_seed
        self.processes: List[Simulator] = [
            Simulator(
                trace, policy, num_disks,
                self.config.with_(cache_blocks=share, placement_seed=seed + pid),
                observer=observer, _machine=self._machine,
            )
            for pid, ((trace, policy), share)
            in enumerate(zip(workloads, shares))
        ]

    def run(self) -> ProcessResult:
        allocator = self.allocator
        period = allocator.period_ms
        self._machine.run(
            None if period is None
            else (period, lambda: allocator.rebalance(self))
        )
        makespan = max(p.elapsed for p in self.processes)
        results = [p._build_result(makespan) for p in self.processes]
        if self.observer is not None:
            self.observer.finish(results)
        return ProcessResult(results)
