"""The Observer: a sink of the engine's events, plus metrics and stall
attribution.

Pass one as ``observer=`` to :class:`~repro.core.engine.Simulator`,
:class:`~repro.core.multiprocess.MultiProcessSimulator`,
:func:`repro.run_simulation`, :func:`repro.analysis.experiments.run_one`
or :func:`repro.runner.execute.execute_cell`.  The engine emits a typed
:class:`~repro.core.events.Event` at each decision; the observer keeps
them, counts them into a :class:`MetricsRegistry`, and charges each stall
quantum to the cause the engine named.  It never touches simulator state,
so an observed run produces bit-identical
:class:`~repro.core.results.SimulationResult` values — the golden-digest
suite enforces this.

Stall attribution is exact by construction: each ``stall.end`` event
carries the quantum the engine adds to ``stall_total``
(``max(0, now - stall_start)``), so each process's per-cause totals sum
back to its ``stall_ms`` up to float reassociation noise.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core import events as ev
from repro.core.events import StallEpisode
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

#: Event kinds the observer counts but does not store.
_POLICY_KINDS = (
    ev.POLICY_BEFORE_REFERENCE,
    ev.POLICY_ON_DISK_IDLE,
    ev.POLICY_ON_MISS,
    ev.POLICY_ON_EVICT,
)


class Observer:
    """Collects events, metrics, and stall attribution from one run.

    One observer watches one run: a lone Simulator, or every process of
    one MultiProcessSimulator.  Counters and histograms aggregate over the
    processes; stall attribution is kept per process
    (``stall_breakdown_by_pid``) and summed (``stall_breakdown``).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events: List[ev.Event] = []
        self.stall_breakdown: Dict[str, float] = {
            cause: 0.0 for cause in ev.STALL_CAUSES
        }
        self.stall_breakdown_by_pid: List[Dict[str, float]] = []
        self.stall_episodes: List[StallEpisode] = []
        self.busy_ms_per_disk: List[float] = []
        self.num_disks = 0
        self.trace_name = ""
        self.policy_name = ""
        #: ``trace/policy`` of each observed process, by pid.
        self.process_names: List[str] = []
        self.elapsed_ms = 0.0
        #: The result of a lone process; None before the run ends and for
        #: several processes (see :attr:`results`).
        self.result: Optional["SimulationResult"] = None
        self.results: List["SimulationResult"] = []
        self._array: Optional[object] = None
        self._stall_began: Dict[int, float] = {}
        self._handlers: Dict[str, Callable[[ev.Event], None]] = {}

    # -- the engine's side -----------------------------------------------------

    def attach(self, sim: "Simulator") -> None:
        """Register one process of the observed run (its constructor calls
        this); every process must share one machine."""
        if self._array is None:
            self._array = sim.array
            self.num_disks = sim.num_disks
            self.busy_ms_per_disk = [0.0] * sim.num_disks
            self._build_instruments(sim.cache.capacity)
            self.trace_name = sim.trace.name
            self.policy_name = sim.policy.name
        elif sim.array is not self._array or self.results:
            raise RuntimeError("an Observer observes exactly one run")
        else:
            self.trace_name += "+" + sim.trace.name
            self.policy_name += "+" + sim.policy.name
        self.process_names.append(f"{sim.trace.name}/{sim.policy.name}")
        self.stall_breakdown_by_pid.append(
            {cause: 0.0 for cause in ev.STALL_CAUSES}
        )

    def emit(self, event: ev.Event) -> None:
        """Record one engine event."""
        self._handlers[event.kind](event)

    def finish(self, results: Sequence["SimulationResult"]) -> None:
        """The run ended: publish each process's stall attribution onto its
        result, self-audit it, and set the per-disk gauges."""
        self.results = list(results)
        self.result = self.results[0] if len(self.results) == 1 else None
        self.elapsed_ms = max(result.elapsed_ms for result in self.results)
        for result, breakdown in zip(self.results, self.stall_breakdown_by_pid):
            result.stall_breakdown = dict(breakdown)
            residual = abs(result.stall_ms - math.fsum(breakdown.values()))
            if residual > 1e-6 * max(1.0, result.stall_ms):
                raise AssertionError(
                    f"stall attribution residual {residual} ms "
                    f"({result.trace_name}/{result.policy_name})"
                )
        metrics = self.metrics
        elapsed = self.elapsed_ms
        for disk, busy in enumerate(self.busy_ms_per_disk):
            clamped = min(busy, elapsed)
            metrics.gauge(f"disk.busy_ms.d{disk}").set(clamped)
            utilization = clamped / elapsed if elapsed > 0 else 0.0
            metrics.gauge(f"disk.utilization.d{disk}").set(utilization)

    def _build_instruments(self, capacity: int) -> None:
        metrics = self.metrics
        append = self.events.append
        c_refs = metrics.counter("app.references")
        c_ref_kind = {
            ev.REF_HIT: metrics.counter("app.hits"),
            ev.REF_MISS: metrics.counter("app.misses"),
            ev.REF_UNREADABLE: metrics.counter("app.unreadable"),
        }
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
        c_policy = {kind: metrics.counter(kind) for kind in _POLICY_KINDS}
        h_latency = metrics.histogram("fetch.latency_ms", LATENCY_BUCKETS_MS)
        h_service = metrics.histogram("disk.service_ms", SERVICE_BUCKETS_MS)
        h_depth = metrics.histogram("disk.queue_depth", DEPTH_BUCKETS)
        h_distance = metrics.histogram("cache.victim_distance", DISTANCE_BUCKETS)
        h_occupancy = metrics.histogram(
            "cache.occupancy", occupancy_buckets(capacity)
        )
        h_stall = metrics.histogram("stall.duration_ms", LATENCY_BUCKETS_MS)
        g_occupancy = metrics.gauge("cache.occupancy")
        busy_ms = self.busy_ms_per_disk
        breakdown = self.stall_breakdown
        by_pid = self.stall_breakdown_by_pid
        episodes = self.stall_episodes
        stall_began = self._stall_began

        def counted(counter: Callable[[], None]) -> Callable[[ev.Event], None]:
            def handle(event: ev.Event) -> None:
                counter()
                append(event)

            return handle

        def policy_call(event: ev.Event) -> None:
            c_policy[event.kind].inc()

        def reference(event: ev.Event) -> None:
            c_refs.inc()
            c_ref_kind[event.kind].inc()
            append(event)

        def fetch_issue(event: ev.Event) -> None:
            (c_demand if event.cause == "demand" else c_prefetch).inc()
            append(event)

        def fetch_done(event: ev.Event) -> None:
            c_done.inc()
            h_latency.observe(event.dur_ms)
            append(event)

        def evict(event: ev.Event) -> None:
            c_evict.inc()
            if event.value < 0.0:
                c_evict_dead.inc()
            else:
                h_distance.observe(event.value)
            append(event)

        def occupancy(event: ev.Event) -> None:
            g_occupancy.set(event.value)
            h_occupancy.observe(event.value)
            append(event)

        def queue_depth(event: ev.Event) -> None:
            if event.cause == "submit":
                h_depth.observe(event.value)
            append(event)

        def disk_busy(event: ev.Event) -> None:
            busy_ms[event.disk] += event.dur_ms
            h_service.observe(event.dur_ms)
            append(event)

        def stall_begin(event: ev.Event) -> None:
            stall_began[event.pid] = event.t_ms
            append(event)

        def stall_end(event: ev.Event) -> None:
            cause = event.cause
            quantum = event.dur_ms
            breakdown[cause] += quantum
            by_pid[event.pid][cause] += quantum
            c_stalls.inc()
            h_stall.observe(quantum)
            episodes.append(
                StallEpisode(
                    start_ms=stall_began.pop(event.pid), end_ms=event.t_ms,
                    block=event.block, cursor=event.cursor, cause=cause,
                    pid=event.pid,
                )
            )
            append(event)

        self._handlers = {
            ev.REF_HIT: reference,
            ev.REF_MISS: reference,
            ev.REF_UNREADABLE: reference,
            ev.WRITE_ALLOCATE: counted(c_alloc.inc),
            ev.FETCH_ISSUE: fetch_issue,
            ev.FETCH_DONE: fetch_done,
            ev.FETCH_RETRY: counted(c_retries.inc),
            ev.FETCH_BACKOFF: append,
            ev.FETCH_ABANDON: counted(c_abandoned.inc),
            ev.FETCH_FAILOVER: counted(c_failovers.inc),
            ev.FLUSH_ISSUE: counted(c_flush.inc),
            ev.FLUSH_DONE: counted(c_flush_done.inc),
            ev.EVICT: evict,
            ev.STALL_BEGIN: stall_begin,
            ev.STALL_END: stall_end,
            ev.DISK_BUSY: disk_busy,
            ev.QUEUE_DEPTH: queue_depth,
            ev.CACHE_OCCUPANCY: occupancy,
            ev.FAULT: counted(c_faults.inc),
        }
        for kind in _POLICY_KINDS:
            self._handlers[kind] = policy_call

    # -- results ---------------------------------------------------------------

    @property
    def stall_residual_ms(self) -> float:
        """Attributed-total minus ``stall_ms`` (float noise only)."""
        return math.fsum(self.stall_breakdown.values()) - math.fsum(
            result.stall_ms for result in self.results
        )

    def worst_stalls(self, count: int = 5) -> List[StallEpisode]:
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
        elif self.results:
            payload["results"] = [result.to_dict() for result in self.results]
        return payload
