"""The Observer: instance-attribute-shadowing instrumentation.

``Observer.attach(sim)`` installs wrappers *on the instance* over the
engine's event handlers (``_app_step``, ``_wake_app``, ``_disk_complete``,
``_fault_complete``, ``_retry_fetch``, ``_abandon_fetch``,
``issue_fetch``, ``write_allocate``, ``_build_result``), the disk array's
request lifecycle (``submit``, ``start_next``), and the policy's hooks —
the same pattern as ``Simulator._instrument``, so an unobserved simulator
carries zero tracing calls and class methods stay untouched.

Every wrapper calls the original exactly once with unchanged arguments
and only *reads* simulator state (victim distances use the stateless
``NextRefIndex.next_use_cold``), so an observed run produces bit-identical
:class:`~repro.core.results.SimulationResult` values — the golden-digest
suite enforces this.

Stall attribution mirrors the engine's accounting exactly: the quantum
charged per episode is ``max(0, now - _stall_start)``, the same expression
``_wake_app`` adds to ``stall_total``, so the per-cause totals sum back to
``stall_ms`` up to float reassociation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.obs import events as ev
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    DISTANCE_BUCKETS,
    LATENCY_BUCKETS_MS,
    SERVICE_BUCKETS_MS,
    MetricsRegistry,
    occupancy_buckets,
)

if TYPE_CHECKING:
    from repro.core.engine import Simulator
    from repro.core.results import SimulationResult
    from repro.disk.drive import ServiceBreakdown
    from repro.disk.scheduler import Request


@dataclass(frozen=True)
class StallRecord:
    """One completed stall episode, with its attributed cause."""

    start_ms: float
    end_ms: float
    duration_ms: float
    block: int
    cursor: int
    cause: str


class Observer:
    """Collects events, metrics, and stall attribution from one run.

    Attach via ``Simulator(..., observer=observer)`` (or the ``observer``
    argument of :func:`repro.run_simulation` /
    :func:`repro.analysis.experiments.run_one`); one observer observes
    exactly one simulator for exactly one run.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events: List[ev.Event] = []
        self.stall_breakdown: Dict[str, float] = {
            cause: 0.0 for cause in ev.STALL_CAUSES
        }
        self.stall_episodes: List[StallRecord] = []
        self.busy_ms_per_disk: List[float] = []
        self.num_disks = 0
        self.trace_name = ""
        self.policy_name = ""
        self.elapsed_ms = 0.0
        self.result: Optional["SimulationResult"] = None
        self._sim: Optional["Simulator"] = None
        # -- live bookkeeping (reset per run) ------------------------------
        self._open_cause: Optional[str] = None
        self._miss_cursor = -1
        self._fault_seen = False
        self._issued_in_step: Set[int] = set()
        self._submit_ms: Dict[int, float] = {}  # block -> first read submit
        self._read_disk: Dict[int, int] = {}  # block -> disk last submitted to

    # -- instrumentation -----------------------------------------------------

    def attach(self, sim: "Simulator") -> None:
        """Shadow the simulator's hot-path methods with recording versions."""
        if self._sim is not None:
            raise RuntimeError("an Observer observes exactly one simulator")
        self._sim = sim
        self.num_disks = sim.num_disks
        self.trace_name = sim.trace.name
        self.policy_name = sim.policy.name
        self.busy_ms_per_disk = [0.0] * sim.num_disks

        metrics = self.metrics
        append = self.events.append
        breakdown = self.stall_breakdown
        episodes = self.stall_episodes
        busy_ms = self.busy_ms_per_disk
        issued_in_step = self._issued_in_step
        submit_ms = self._submit_ms
        read_disk = self._read_disk

        c_refs = metrics.counter("app.references")
        c_hits = metrics.counter("app.hits")
        c_misses = metrics.counter("app.misses")
        c_unreadable = metrics.counter("app.unreadable")
        c_demand = metrics.counter("fetch.issued.demand")
        c_prefetch = metrics.counter("fetch.issued.prefetch")
        c_done = metrics.counter("fetch.completed")
        c_retries = metrics.counter("fetch.retries")
        c_abandoned = metrics.counter("fetch.abandoned")
        c_failovers = metrics.counter("fetch.failovers")
        c_flush = metrics.counter("flush.issued")
        c_flush_done = metrics.counter("flush.completed")
        c_evict = metrics.counter("cache.evictions")
        c_evict_dead = metrics.counter("cache.evictions.never-used-again")
        c_alloc = metrics.counter("cache.write_allocates")
        c_faults = metrics.counter("faults.observed")
        c_stalls = metrics.counter("stall.episodes")
        c_p_before = metrics.counter("policy.before_reference")
        c_p_idle = metrics.counter("policy.on_disk_idle")
        c_p_miss = metrics.counter("policy.on_miss")
        c_p_evict = metrics.counter("policy.on_evict")
        h_latency = metrics.histogram("fetch.latency_ms", LATENCY_BUCKETS_MS)
        h_service = metrics.histogram("disk.service_ms", SERVICE_BUCKETS_MS)
        h_depth = metrics.histogram("disk.queue_depth", DEPTH_BUCKETS)
        h_distance = metrics.histogram("cache.victim_distance", DISTANCE_BUCKETS)
        h_occupancy = metrics.histogram(
            "cache.occupancy", occupancy_buckets(sim.cache.capacity)
        )
        h_stall = metrics.histogram("stall.duration_ms", LATENCY_BUCKETS_MS)
        g_occupancy = metrics.gauge("cache.occupancy")

        cache = sim.cache
        array = sim.array
        app_blocks = sim.app_blocks
        index = sim.index

        def sample_occupancy(now: float) -> None:
            occupancy = float(cache.occupancy)
            g_occupancy.set(occupancy)
            h_occupancy.observe(occupancy)
            append(ev.Event(now, ev.CACHE_OCCUPANCY, value=occupancy))

        def victim_distance(victim: int) -> float:
            next_use = index.next_use_cold(victim, sim.cursor)
            if next_use >= index.never:
                c_evict_dead.inc()
                return -1.0
            distance = float(next_use - sim.cursor)
            h_distance.observe(distance)
            return distance

        # -- disk array: request lifecycle ---------------------------------

        inner_submit = array.submit

        def obs_submit(
            disk: int, block: int, lbn: int, kind: str = "read",
            attempt: int = 0, owner: int = 0,
        ) -> "Request":
            request = inner_submit(
                disk, block, lbn, kind=kind, attempt=attempt, owner=owner
            )
            now = sim.now
            depth = float(array.queue_length(disk))
            h_depth.observe(depth)
            append(ev.Event(now, ev.QUEUE_DEPTH, disk=disk, value=depth))
            if kind == "read":
                submit_ms.setdefault(block, now)
                read_disk[block] = disk
            else:
                c_flush.inc()
                append(ev.Event(now, ev.FLUSH_ISSUE, block=block, disk=disk))
            return request

        array.submit = obs_submit  # type: ignore[method-assign]

        inner_start_next = array.start_next

        def obs_start_next(
            disk: int, now: float
        ) -> Optional[Tuple["Request", float, "ServiceBreakdown"]]:
            started = inner_start_next(disk, now)
            if started is not None:
                request, _completion, bd = started
                total = bd.total
                busy_ms[disk] += total
                h_service.observe(total)
                detail: Dict[str, object] = bd.as_dict()
                detail.update(request.as_dict())
                append(
                    ev.Event(
                        now, ev.DISK_BUSY, block=request.block, disk=disk,
                        dur_ms=total, cause=request.kind, detail=detail,
                    )
                )
                append(
                    ev.Event(
                        now, ev.QUEUE_DEPTH, disk=disk,
                        value=float(array.queue_length(disk)),
                    )
                )
            return started

        array.start_next = obs_start_next  # type: ignore[method-assign]

        # -- engine: fetch issue and write allocation ----------------------

        inner_issue_fetch = sim.issue_fetch

        def obs_issue_fetch(block: int, victim: Optional[int]) -> None:
            cursor = sim.cursor
            distance = -1.0 if victim is None else victim_distance(victim)
            inner_issue_fetch(block, victim)
            now = sim.now
            issued_in_step.add(block)
            demand = cursor < len(app_blocks) and app_blocks[cursor] == block
            (c_demand if demand else c_prefetch).inc()
            append(
                ev.Event(
                    now, ev.FETCH_ISSUE, block=block,
                    disk=read_disk.get(block, -1), cursor=cursor,
                    cause="demand" if demand else "prefetch",
                )
            )
            if victim is not None:
                c_evict.inc()
                append(
                    ev.Event(
                        now, ev.EVICT, block=victim, cursor=cursor,
                        value=distance,
                    )
                )
            sample_occupancy(now)

        sim.issue_fetch = obs_issue_fetch  # type: ignore[method-assign]

        inner_write_allocate = sim.write_allocate

        def obs_write_allocate(block: int, victim: Optional[int]) -> None:
            cursor = sim.cursor
            distance = -1.0 if victim is None else victim_distance(victim)
            inner_write_allocate(block, victim)
            now = sim.now
            c_alloc.inc()
            append(ev.Event(now, ev.WRITE_ALLOCATE, block=block, cursor=cursor))
            if victim is not None:
                c_evict.inc()
                append(
                    ev.Event(
                        now, ev.EVICT, block=victim, cursor=cursor,
                        value=distance,
                    )
                )
            sample_occupancy(now)

        sim.write_allocate = obs_write_allocate  # type: ignore[method-assign]

        # -- engine: the application timeline ------------------------------

        inner_app_step = sim._app_step

        def obs_app_step(now: float) -> None:
            cursor_before = sim.cursor
            was_waiting = sim._waiting_block is not None
            issued_in_step.clear()
            inner_app_step(now)
            if sim.cursor != cursor_before:
                block = app_blocks[cursor_before]
                c_refs.inc()
                if block in sim.lost_blocks and block not in cache.resident:
                    c_unreadable.inc()
                    kind = ev.REF_UNREADABLE
                elif cursor_before == self._miss_cursor:
                    c_misses.inc()
                    kind = ev.REF_MISS
                else:
                    c_hits.inc()
                    kind = ev.REF_HIT
                append(ev.Event(now, kind, block=block, cursor=cursor_before))
            elif not was_waiting and sim._waiting_block is not None:
                # A stall just began.  Classify it: parked with no issuable
                # buffer; waiting on an earlier (too-late) prefetch; or
                # waiting on a fetch issued in this very step (pure demand).
                block = sim._waiting_block
                if sim._retry_miss:
                    cause = ev.CAUSE_ALL_DISKS_BUSY
                elif block in issued_in_step:
                    cause = ev.CAUSE_DEMAND_MISS
                else:
                    cause = ev.CAUSE_PREFETCH_TOO_LATE
                self._open_cause = cause
                self._miss_cursor = sim.cursor
                append(
                    ev.Event(
                        sim._stall_start, ev.STALL_BEGIN, block=block,
                        cursor=sim.cursor, cause=cause,
                    )
                )

        sim._app_step = obs_app_step  # type: ignore[method-assign]

        inner_wake_app = sim._wake_app

        def obs_wake_app(now: float) -> None:
            start = sim._stall_start
            waiting = sim._waiting_block
            block = -1 if waiting is None else waiting
            cursor = sim.cursor
            # The exact quantum the engine is about to add to stall_total.
            quantum = max(0.0, now - start)
            inner_wake_app(now)
            cause = self._open_cause
            if cause is None:  # defensive: a wake with no observed begin
                cause = ev.CAUSE_DEMAND_MISS
            breakdown[cause] += quantum
            self._open_cause = None
            c_stalls.inc()
            h_stall.observe(quantum)
            end = max(now, start)
            episodes.append(
                StallRecord(
                    start_ms=start, end_ms=end, duration_ms=quantum,
                    block=block, cursor=cursor, cause=cause,
                )
            )
            append(
                ev.Event(end, ev.STALL_END, block=block, dur_ms=quantum,
                         cursor=cursor, cause=cause)
            )

        sim._wake_app = obs_wake_app  # type: ignore[method-assign]

        # -- engine: completions, faults, recovery -------------------------

        inner_disk_complete = sim._disk_complete

        def obs_disk_complete(disk: int, now: float) -> None:
            request = array.in_service[disk]
            self._fault_seen = False
            inner_disk_complete(disk, now)
            if request is None or self._fault_seen:
                return  # faulted completions are recorded by obs_fault_complete
            block = request.block
            if request.kind == "write":
                c_flush_done.inc()
                append(ev.Event(now, ev.FLUSH_DONE, block=block, disk=disk))
                return
            c_done.inc()
            latency = now - submit_ms.pop(block, now)
            read_disk.pop(block, None)
            h_latency.observe(latency)
            append(
                ev.Event(now, ev.FETCH_DONE, block=block, disk=disk,
                         dur_ms=latency)
            )
            sample_occupancy(now)

        sim._disk_complete = obs_disk_complete  # type: ignore[method-assign]

        inner_fault_complete = sim._fault_complete

        def obs_fault_complete(
            disk: int, request: "Request", outcome: str, now: float
        ) -> None:
            self._fault_seen = True
            block = request.block
            waiting = sim._waiting_block
            failovers_before = sim.failover_reads + sim.failover_writes
            attempts_before = sim._fetch_attempts.get(block, 0)
            c_faults.inc()
            append(
                ev.Event(now, ev.FAULT, block=block, disk=disk, cause=outcome,
                         value=float(request.attempt))
            )
            inner_fault_complete(disk, request, outcome, now)
            if sim.failover_reads + sim.failover_writes > failovers_before:
                c_failovers.inc()
                append(
                    ev.Event(now, ev.FETCH_FAILOVER, block=block,
                             disk=read_disk.get(block, disk))
                )
                if self._open_cause is not None and waiting == block:
                    self._open_cause = ev.CAUSE_FAILOVER
            attempts = sim._fetch_attempts.get(block, 0)
            if attempts > attempts_before:
                append(
                    ev.Event(now, ev.FETCH_BACKOFF, block=block, disk=disk,
                             value=float(attempts))
                )
                if self._open_cause is not None and waiting == block:
                    self._open_cause = ev.CAUSE_FAULT_RETRY

        sim._fault_complete = obs_fault_complete  # type: ignore[method-assign]

        inner_retry_fetch = sim._retry_fetch

        def obs_retry_fetch(block: int, now: float) -> None:
            live = cache.is_in_flight(block)
            inner_retry_fetch(block, now)
            if live:
                c_retries.inc()
                append(
                    ev.Event(
                        now, ev.FETCH_RETRY, block=block,
                        disk=read_disk.get(block, -1),
                        value=float(sim._fetch_attempts.get(block, 0)),
                    )
                )

        sim._retry_fetch = obs_retry_fetch  # type: ignore[method-assign]

        inner_abandon_fetch = sim._abandon_fetch

        def obs_abandon_fetch(block: int) -> None:
            inner_abandon_fetch(block)
            now = sim.now
            c_abandoned.inc()
            submit_ms.pop(block, None)
            disk = read_disk.pop(block, -1)
            cause = "lost" if block in sim.lost_blocks else "prefetch-fault"
            append(
                ev.Event(now, ev.FETCH_ABANDON, block=block, disk=disk,
                         cause=cause)
            )
            sample_occupancy(now)

        sim._abandon_fetch = obs_abandon_fetch  # type: ignore[method-assign]

        # -- policy consultation counters ----------------------------------
        # Internal super().hook() calls resolve through the class, so these
        # shadows count only the engine's consultations, never double.

        policy = sim.policy
        inner_before = policy.before_reference

        def obs_before_reference(cursor: int, now: float) -> None:
            c_p_before.inc()
            inner_before(cursor, now)

        policy.before_reference = obs_before_reference  # type: ignore[method-assign]

        inner_on_idle = policy.on_disk_idle

        def obs_on_disk_idle(disk: int, now: float) -> None:
            c_p_idle.inc()
            inner_on_idle(disk, now)

        policy.on_disk_idle = obs_on_disk_idle  # type: ignore[method-assign]

        inner_on_miss = policy.on_miss

        def obs_on_miss(cursor: int, now: float) -> None:
            c_p_miss.inc()
            inner_on_miss(cursor, now)

        policy.on_miss = obs_on_miss  # type: ignore[method-assign]

        inner_on_evict = policy.on_evict

        def obs_on_evict(block: int, next_use: float) -> None:
            c_p_evict.inc()
            inner_on_evict(block, next_use)

        policy.on_evict = obs_on_evict  # type: ignore[method-assign]

        # -- finalization ---------------------------------------------------

        inner_build_result = sim._build_result

        def obs_build_result(horizon: float) -> "SimulationResult":
            result = inner_build_result(horizon)
            self._finalize(result)
            return result

        sim._build_result = obs_build_result  # type: ignore[method-assign]

    # -- results ---------------------------------------------------------------

    def _finalize(self, result: "SimulationResult") -> None:
        """Publish aggregates onto the result and self-audit attribution."""
        self.result = result
        self.elapsed_ms = result.elapsed_ms
        result.stall_breakdown = dict(self.stall_breakdown)
        residual = abs(result.stall_ms - math.fsum(self.stall_breakdown.values()))
        if residual > 1e-6 * max(1.0, result.stall_ms):
            raise AssertionError(
                f"stall attribution residual {residual} ms "
                f"({result.trace_name}/{result.policy_name})"
            )
        metrics = self.metrics
        elapsed = result.elapsed_ms
        for disk, busy in enumerate(self.busy_ms_per_disk):
            clamped = min(busy, elapsed)
            metrics.gauge(f"disk.busy_ms.d{disk}").set(clamped)
            utilization = clamped / elapsed if elapsed > 0 else 0.0
            metrics.gauge(f"disk.utilization.d{disk}").set(utilization)

    @property
    def stall_residual_ms(self) -> float:
        """Attributed-total minus ``stall_ms`` (float noise only)."""
        if self.result is None:
            return 0.0
        return math.fsum(self.stall_breakdown.values()) - self.result.stall_ms

    def worst_stalls(self, count: int = 5) -> List[StallRecord]:
        """The ``count`` longest stall episodes, longest first."""
        ranked = sorted(
            self.stall_episodes,
            key=lambda r: (-r.duration_ms, r.start_ms),
        )
        return ranked[:count]

    def window(
        self, start_ms: float, end_ms: float, lead_ms: float = 5.0,
        limit: int = 12,
    ) -> List[ev.Event]:
        """Events in ``[start_ms - lead_ms, end_ms]`` (up to ``limit``,
        closest-to-the-end first trimmed from the front)."""
        lower = start_ms - lead_ms
        hits = [e for e in self.events if lower <= e.t_ms <= end_ms]
        return hits[-limit:]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready aggregate view (no per-event data)."""
        payload: Dict[str, object] = {
            "trace": self.trace_name,
            "policy": self.policy_name,
            "disks": self.num_disks,
            "events": len(self.events),
            "stall_breakdown_ms": dict(self.stall_breakdown),
            "stall_episodes": len(self.stall_episodes),
            "busy_ms_per_disk": list(self.busy_ms_per_disk),
            "metrics": self.metrics.to_dict(),
        }
        if self.result is not None:
            payload["result"] = self.result.to_dict()
        return payload
