"""The simulation service core: store → single-flight → admission → pool.

:class:`SimulationService` is the transport-independent heart of
``repro-sim serve`` (the HTTP layer in :mod:`repro.svc.http` is a thin
skin over it, and tests drive it directly).  One request for a cell
travels:

1. **Store lookup** — a hit returns the journal record in O(1), bit-
   identical to the computed path (the digest pins every float).
2. **Single-flight** — a miss joins the in-flight computation for its
   config hash; only the flight leader goes further.
3. **Admission** — bounded queue full: reject 429.  Otherwise the cell
   is submitted to the long-lived :class:`~repro.runner.pool
   .SupervisedPool` running ``serve()`` in a dedicated thread.
4. **Completion** — the pool's terminal record crosses back onto the
   event loop, lands in the store (successes), and resolves every
   coalesced waiter.  A crashing cell costs only itself: the pool
   retries it at most ``max_retries`` times, then reports one ``crash``
   failure to its own waiters.

Per-request timeouts cancel cooperatively: a timed-out waiter leaves its
flight, and when the *last* waiter is gone the pool drops or kills the
cell (:meth:`SupervisedPool.cancel`).  ``drain`` reuses the runner's
SIGINT/SIGTERM semantics — stop admitting, drain in-flight cells, report
exit 75 (or 76 on deadline) — so a killed service resumes from its store
exactly like an interrupted sweep resumes from its journal.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    get_type_hints,
)

from repro.core import SimConfig
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, REQUEST_BUCKETS_MS
from repro.obs.prom import labeled
from repro.obs.svc import (
    SPAN_ADMISSION_WAIT,
    SPAN_OVERLOAD_SHED,
    SPAN_SINGLEFLIGHT_JOIN,
    SPAN_STORE_GET,
    SPAN_STORE_PUT,
    ServiceTracer,
    maybe_span,
    new_correlation_id,
)
from repro.runner.journal import SCHEMA_VERSION
from repro.runner.plan import Cell
from repro.runner.pool import PoolStatus, SupervisedPool
from repro.runner.runner import EXIT_DEADLINE, EXIT_INTERRUPTED
from repro.runner.execute import (
    CELL_KINDS,
    cell_policies,
    sim_config_for,
    validate_names,
)
from repro.svc.admission import AdmissionController
from repro.svc.limits import ProtocolLimits
from repro.svc.singleflight import SingleFlight
from repro.svc.store import ResultStore

#: How results were served, reported per request and counted in metrics.
SERVED_STORE = "store"
SERVED_COMPUTED = "computed"
SERVED_COALESCED = "coalesced"

#: Silent until ``configure_logging`` opts in (docs/OBSERVABILITY.md).
_log = get_logger("repro.svc.service")


class SpecError(ValueError):
    """A request body that cannot become a valid Cell (HTTP 400)."""


class Overloaded(Exception):
    """Backpressure: the request was rejected before any work happened."""

    def __init__(self, status: int, reason: str,
                 retry_after_s: float = 1.0) -> None:
        super().__init__(reason)
        self.status = status  # 429 (queue full) or 503 (draining)
        self.reason = reason
        self.retry_after_s = retry_after_s


class RequestTimedOut(Exception):
    """The per-request timeout elapsed (HTTP 504); the cell was cancelled
    unless other waiters still want it."""

    def __init__(self, config_hash: str, timeout_s: float) -> None:
        super().__init__(
            f"request for {config_hash[:12]} timed out after {timeout_s}s"
        )
        self.config_hash = config_hash
        self.timeout_s = timeout_s


#: Cell fields settable over the wire, with coercions for JSON types.
_SPEC_FIELDS = {
    "trace": str,
    "policy": str,
    "disks": int,
    "kind": str,
    "scale": float,
    "discipline": str,
    "cpu_speedup": float,
    "cache_blocks": int,
    "disk_model": str,
    "seed": int,
    "scaled_defaults": bool,
    "config_overrides": dict,
    "policy_kwargs": dict,
    "params": dict,
}
_REQUIRED_FIELDS = ("trace", "policy", "disks")
_OPTIONAL_NONE = ("cache_blocks", "seed")

#: ``SimConfig`` fields a JSON ``config_overrides`` may set, by type; the
#: rest (``faults``, ``geometry``) hold objects JSON cannot carry.
_SIM_CONFIG_TYPES = get_type_hints(SimConfig)
_OVERRIDE_TYPES = {
    name: hint for name, hint in _SIM_CONFIG_TYPES.items()
    if hint in (int, float, str, bool)
}
_OVERRIDE_REFUSED = sorted(set(_SIM_CONFIG_TYPES) - set(_OVERRIDE_TYPES))


def _coerce(name: str, value: Any, expected: type, what: str) -> Any:
    """``value`` as a JSON-borne ``expected`` (an int may stand for a
    float; a bool is never a number), or :class:`SpecError`."""
    if expected in (int, float) and isinstance(value, bool):
        raise SpecError(f"{what} {name!r} must be {expected.__name__}")
    if expected is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, expected):
        raise SpecError(
            f"{what} {name!r} must be {expected.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _overrides_from_spec(overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Validated ``config_overrides``: only ``SimConfig`` fields the
    engine can honour from JSON, each of its field's type — refused here
    with a 400 rather than failing later in a pool worker."""
    refused = sorted(set(overrides) & set(_OVERRIDE_REFUSED))
    if refused:
        raise SpecError(
            f"config_overrides cannot set {', '.join(refused)} over JSON "
            f"({', '.join(_OVERRIDE_REFUSED)} hold objects, not values)"
        )
    unknown = sorted(set(overrides) - set(_OVERRIDE_TYPES))
    if unknown:
        raise SpecError(
            f"unknown config_overrides field(s) {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(_OVERRIDE_TYPES))}"
        )
    return {
        name: _coerce(name, value, _OVERRIDE_TYPES[name], "config override")
        for name, value in overrides.items()
    }


def cell_from_spec(spec: Any) -> Cell:
    """A validated :class:`Cell` from a JSON request body.

    Raises :class:`SpecError` (not bare KeyError/TypeError) so the HTTP
    layer can answer 400 with a message that names the problem.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"cell spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - set(_SPEC_FIELDS))
    if unknown:
        raise SpecError(
            f"unknown cell field(s) {', '.join(unknown)}; valid fields: "
            f"{', '.join(sorted(_SPEC_FIELDS))}"
        )
    missing = [name for name in _REQUIRED_FIELDS if name not in spec]
    if missing:
        raise SpecError(f"missing required cell field(s): {', '.join(missing)}")
    kwargs: Dict[str, Any] = {}
    for name, value in spec.items():
        if value is None and name in _OPTIONAL_NONE:
            kwargs[name] = None
            continue
        kwargs[name] = _coerce(name, value, _SPEC_FIELDS[name], "cell field")
    if "config_overrides" in kwargs:
        kwargs["config_overrides"] = _overrides_from_spec(
            kwargs["config_overrides"]
        )
    try:
        validate_names(kwargs["trace"], kwargs["policy"])
        cell = Cell(**kwargs)
        if cell.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {cell.kind!r}; valid kinds: "
                f"{', '.join(sorted(CELL_KINDS))}"
            )
        # SimConfig and the policies refuse out-of-range values (negative
        # or non-finite times, unknown model names, a NaN fetch-time
        # estimate, unknown policy arguments, ...): a 400 here, not a
        # worker failure or a worker that never returns.
        sim_config_for(cell)
        cell_policies(cell)
    except (ValueError, OverflowError, TypeError) as exc:
        raise SpecError(str(exc)) from None
    if cell.disks < 1:
        raise SpecError(f"cell field 'disks' must be >= 1, got {cell.disks}")
    return cell


@dataclass
class ServiceConfig:
    """Tunables for one service instance (CLI flags map 1:1)."""

    store_dir: str = "svc-store"
    jobs: int = 2
    queue_limit: int = 32
    request_timeout_s: Optional[float] = 120.0
    cell_timeout_s: Optional[float] = None
    max_retries: int = 2
    retry_backoff_s: float = 0.5
    #: Ring-buffer capacity of the progress event stream.
    event_buffer: int = 1024
    #: Request tracing (``repro.obs.svc`` spans + per-request simulation
    #: timelines).  Strictly opt-in: False means no tracer exists at all.
    trace: bool = False
    #: Where ``serve_forever`` writes the merged Perfetto timeline on
    #: drain (implies nothing unless ``trace`` is on).
    trace_out: Optional[str] = None
    #: Wire-protocol bounds the HTTP layer enforces (sizes, deadlines,
    #: connection caps, priority-lane reservation) — see
    #: :mod:`repro.svc.limits` and docs/SERVICE.md.
    limits: ProtocolLimits = field(default_factory=ProtocolLimits)


class SimulationService:
    """Crash-safe simulation-as-a-service over the supervised runner."""

    def __init__(
        self,
        config: ServiceConfig,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self.store = ResultStore(config.store_dir, metrics=self.metrics)
        self.admission = AdmissionController(
            config.queue_limit, metrics=self.metrics
        )
        self.flights = SingleFlight()
        self.pool = SupervisedPool(
            jobs=config.jobs,
            timeout_s=config.cell_timeout_s,
            max_retries=config.max_retries,
            retry_backoff_s=config.retry_backoff_s,
        )
        #: None unless ``config.trace``: the zero-shadowing guarantee is
        #: structural — no tracer object, no span calls, no telemetry
        #: blocks on the worker pipe (tests/test_obs_svc.py pins it).
        self.tracer: Optional[ServiceTracer] = (
            ServiceTracer() if config.trace else None
        )
        self.pool.tracer = self.tracer
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool_thread: Optional[threading.Thread] = None
        self._pool_status: Optional[PoolStatus] = None
        self.draining = False
        self.drain_reason: Optional[str] = None
        #: Set once ``drain`` has joined the pool: no record can follow.
        self.drained = False
        self._events: Deque[Dict[str, Any]] = deque(maxlen=config.event_buffer)
        self._event_seq = 0
        self._event_cond: Optional[asyncio.Condition] = None
        # Strong references to in-flight notify tasks: the event loop only
        # keeps weak ones, so an unreferenced task can be garbage-collected
        # before it runs and its exception is never consumed (SL012).
        self._notify_tasks: Set["asyncio.Task[None]"] = set()
        self.started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running event loop and start the pool thread."""
        self._loop = asyncio.get_running_loop()
        self._event_cond = asyncio.Condition()
        self._pool_thread = threading.Thread(
            target=self._pool_main, name="svc-pool", daemon=True
        )
        self._pool_thread.start()
        self.started = True
        self._publish({"type": "service", "state": "started",
                       "resident": len(self.store)})
        _log.info(
            "service started",
            extra={
                "resident": len(self.store),
                "jobs": self.config.jobs,
                "tracing": self.tracer is not None,
            },
        )

    def _pool_main(self) -> None:
        self._pool_status = self.pool.serve(self._emit_from_pool_thread)

    async def drain(self, reason: str = "signal") -> int:
        """Stop admitting, drain in-flight cells, close the store.

        Returns the runner's resumable exit codes: 75 for signal, 76 for
        deadline — a drained service continues from its store exactly as
        an interrupted sweep continues from its journal.
        """
        if not self.draining:
            self.draining = True
            self.drain_reason = reason
            self._publish({"type": "service", "state": "draining",
                           "reason": reason})
        # Unconditionally: the draining flag may have been raised without
        # the pool being told (and request_stop is idempotent anyway).
        self.pool.request_stop(reason)
        if self._pool_thread is not None:
            await asyncio.to_thread(self._pool_thread.join)
        self.store.close()
        self.drained = True
        self._publish({"type": "service", "state": "drained",
                       "reason": reason})
        _log.info("service drained", extra={"reason": reason})
        return EXIT_DEADLINE if reason == "deadline" else EXIT_INTERRUPTED

    # -- pool completion path ----------------------------------------------

    def _emit_from_pool_thread(self, record: Dict[str, Any]) -> None:
        """Pool thread → event loop handoff for terminal records."""
        loop = self._loop
        if loop is None or loop.is_closed():  # pragma: no cover — teardown
            return
        loop.call_soon_threadsafe(self._on_record, record)

    def _on_record(self, record: Dict[str, Any]) -> None:
        """A cell reached a terminal state (event loop thread)."""
        self.admission.release()
        wall_s = record.get("wall_s")
        if isinstance(wall_s, (int, float)) and not isinstance(wall_s, bool):
            # Feed the deadline-aware admission estimator: projected
            # queue waits are only as honest as this EWMA.
            self.admission.note_service_time(float(wall_s))
        corr_id = record.get("corr_id")
        # Waiters receive the journal record (no live result object, no
        # correlation/telemetry transport fields) so computed responses
        # serialize — and match what a later store hit returns, byte for
        # byte.
        record = _storable(record)
        if record["status"] == "ok":
            try:
                with maybe_span(
                    self.tracer, SPAN_STORE_PUT, corr_id or "",
                    hash=record["hash"],
                ):
                    self.store.put(record["hash"], record)
            except OSError as exc:
                # A full/failing store must not fail the request: the
                # result is still returned, it is just not cached.
                self.metrics.inc("svc.store.put_errors")
                self._publish({
                    "type": "store-error", "hash": record["hash"],
                    "error": str(exc), "corr_id": corr_id,
                })
                _log.error(
                    "store put failed",
                    extra={"hash": record["hash"], "error": str(exc),
                           "corr_id": corr_id},
                )
        else:
            _log.warning(
                "cell failed",
                extra={"hash": record["hash"],
                       "cell_id": record.get("cell_id"),
                       "failure": record.get("failure"),
                       "corr_id": corr_id},
            )
        self.flights.resolve(record["hash"], record)
        self._publish(_event_for(record, corr_id))

    # -- request path ------------------------------------------------------

    async def run_cell(
        self,
        cell: Cell,
        timeout_s: Optional[float] = None,
        corr_id: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], str]:
        """Serve one cell: ``(terminal record, how it was served)``.

        ``timeout_s`` overrides the configured per-request timeout for
        this call only.  ``corr_id`` is the request's correlation ID
        (the HTTP layer mints one at accept; direct callers may pass
        their own or let one be minted here) — it stamps every published
        event and, when tracing is on, every span.  Raises
        :class:`Overloaded` on backpressure and :class:`RequestTimedOut`
        when the timeout elapses.
        """
        if timeout_s is None:
            timeout_s = self.config.request_timeout_s
        if corr_id is None:
            corr_id = new_correlation_id()
        start = self._clock()
        config_hash = cell.config_hash
        self.metrics.inc("svc.requests")
        with maybe_span(
            self.tracer, SPAN_STORE_GET, corr_id, hash=config_hash
        ):
            # Deliberately on-loop: a store hit is one seek and one line
            # read of a small record — microseconds against a multi-second
            # simulate, and serializing hits on the loop is what makes
            # the hit path bit-identical to the journal record without
            # locking the store.
            cached = self.store.get(config_hash)  # simlint: disable=SL010
        if cached is not None:
            self.metrics.inc("svc.served_store")
            self._observe_latency(start, SERVED_STORE)
            self._publish({"type": "request", "hash": config_hash,
                           "cell_id": cell.cell_id, "served": SERVED_STORE,
                           "corr_id": corr_id})
            return cached, SERVED_STORE
        future, leader = self.flights.join(config_hash)
        if leader:
            # No awaits between join and submit: the leader's admission
            # decisions are atomic on the event loop.  The span measures
            # miss detection through the admission checks to pool
            # submission (rejections end it early, exception included).
            try:
                with maybe_span(
                    self.tracer, SPAN_ADMISSION_WAIT, corr_id,
                    hash=config_hash, cell_id=cell.cell_id,
                ):
                    self._admit(cell, corr_id, timeout_s)
            except Overloaded:
                self.flights.leave(config_hash)
                raise
        # Followers record their coalesced wait; the leader's wait is
        # already decomposed into pool.queue + worker.execute.
        join_tracer = None if leader else self.tracer
        try:
            with maybe_span(
                join_tracer, SPAN_SINGLEFLIGHT_JOIN, corr_id,
                hash=config_hash,
            ):
                if timeout_s is not None:
                    record = await asyncio.wait_for(
                        asyncio.shield(future), timeout_s
                    )
                else:
                    record = await future
        except asyncio.TimeoutError:
            remaining = self.flights.leave(config_hash)
            if remaining == 0:
                self.pool.cancel(config_hash)
            self.metrics.inc("svc.request_timeouts")
            _log.warning(
                "request timed out",
                extra={"hash": config_hash, "timeout_s": timeout_s,
                       "corr_id": corr_id},
            )
            raise RequestTimedOut(config_hash, timeout_s or 0.0) from None
        served = SERVED_COMPUTED if leader else SERVED_COALESCED
        self.metrics.inc(f"svc.served_{served}")
        self._observe_latency(start, served)
        self._publish({"type": "request", "hash": config_hash,
                       "cell_id": cell.cell_id, "served": served,
                       "corr_id": corr_id})
        return record, served

    def _admit(
        self, cell: Cell, corr_id: str,
        deadline_s: Optional[float] = None,
    ) -> None:
        """Leader-side backpressure checks, then submit to the pool.

        ``deadline_s`` is the request's remaining budget: when the
        admission controller projects a queue wait beyond it, the
        request is shed *now* with 429 (CoDel-style) instead of burning
        a slot for ``deadline_s`` seconds and answering 504 anyway.
        """
        if self.draining:
            self._note_shed(cell, corr_id, "draining", 5.0)
            raise Overloaded(503, "service is draining", 5.0)
        admitted, reason, retry_after_s = self.admission.admit(
            deadline_s or 0.0, self.config.jobs
        )
        if not admitted:
            self._note_shed(cell, corr_id, reason, retry_after_s)
            if reason == "deadline":
                projected = self.admission.projected_wait_s(self.config.jobs)
                raise Overloaded(
                    429,
                    f"shed early: projected queue wait {projected:.1f}s "
                    f"exceeds the {deadline_s or 0.0:.0f}s request deadline",
                    retry_after_s,
                )
            raise Overloaded(
                429,
                f"admission queue full ({self.admission.limit} cells in "
                "the system)",
                retry_after_s,
            )
        self.pool.submit(cell, meta=self._task_meta(corr_id))
        self._publish({"type": "queued", "hash": cell.config_hash,
                       "cell_id": cell.cell_id, "corr_id": corr_id})

    def _note_shed(
        self, cell: Cell, corr_id: str, reason: str, retry_after_s: float
    ) -> None:
        """Count, trace, and publish a pre-admission refusal — shed
        decisions must be as observable as served requests (a flat
        goodput curve you cannot see is indistinguishable from an
        outage)."""
        self.metrics.inc(labeled("svc.overload.shed", reason=reason))
        if self.tracer is not None:
            now_ms = self.tracer.now_ms()
            self.tracer.add_span(
                SPAN_OVERLOAD_SHED, corr_id, now_ms, 0.0,
                reason=reason, hash=cell.config_hash,
                retry_after_s=round(retry_after_s, 3),
                projected_wait_s=round(
                    self.admission.projected_wait_s(self.config.jobs), 3
                ),
            )
        self._publish({"type": "shed", "reason": reason,
                       "hash": cell.config_hash, "cell_id": cell.cell_id,
                       "corr_id": corr_id})

    def _task_meta(self, corr_id: str) -> Dict[str, Any]:
        """Per-request metadata crossing the pool's duplex pipe: the
        correlation ID always (event stamping and worker log records
        work untraced); the trace flag and submission timestamp only
        matter when the tracer exists."""
        meta: Dict[str, Any] = {"corr_id": corr_id, "trace": False}
        if self.tracer is not None:
            meta["trace"] = True
            meta["submitted_ms"] = self.tracer.now_ms()
        return meta

    async def run_cells(
        self, cells: List[Cell], corr_id: Optional[str] = None
    ) -> List[Tuple[Optional[Dict[str, Any]], str]]:
        """Serve a bundle of cells concurrently (a sweep request).

        Returns one ``(record, served)`` pair per cell, in order; a cell
        rejected by backpressure or timed out yields ``(None, reason)``
        so one hot bundle member cannot sink its siblings.  Each cell
        gets a derived correlation ID (``<corr_id>.<index>``) so a
        sweep's members stay attributable to the one HTTP request.
        """
        if corr_id is None:
            corr_id = new_correlation_id()

        async def one(
            cell: Cell, member_id: str
        ) -> Tuple[Optional[Dict[str, Any]], str]:
            try:
                return await self.run_cell(cell, corr_id=member_id)
            except Overloaded as exc:
                return None, f"rejected:{exc.status}"
            except RequestTimedOut:
                return None, "timeout"

        return list(await asyncio.gather(*(
            one(cell, f"{corr_id}.{index}")
            for index, cell in enumerate(cells)
        )))

    # -- events & status ---------------------------------------------------

    def _observe_latency(self, start: float, served: str) -> None:
        elapsed_ms = (self._clock() - start) * 1000.0
        self.metrics.histogram(
            "svc.request_ms", REQUEST_BUCKETS_MS
        ).observe(elapsed_ms)
        # Per-outcome latency: store hits, computed cells, and coalesced
        # waits have wildly different distributions — one histogram per
        # ``served`` label keeps them distinguishable in Prometheus.
        self.metrics.histogram(
            labeled("svc.request_outcome_ms", served=served),
            REQUEST_BUCKETS_MS,
        ).observe(elapsed_ms)

    def _publish(self, event: Dict[str, Any]) -> None:
        self._event_seq += 1
        event = dict(event, seq=self._event_seq)
        self._events.append(event)
        cond = self._event_cond
        if cond is not None:
            # Wake streaming readers; schedule rather than await (callers
            # of _publish are synchronous).  Keep a strong reference until
            # the task completes — the loop's own reference is weak.
            task = asyncio.ensure_future(_notify(cond))
            self._notify_tasks.add(task)
            task.add_done_callback(self._notify_tasks.discard)

    async def events_since(
        self, seq: int, timeout_s: float = 10.0
    ) -> List[Dict[str, Any]]:
        """Events with ``seq`` **strictly greater** than the given one
        (``seq`` itself is excluded — pass the last sequence number you
        have seen and you will never receive it twice; ``seq=0`` returns
        everything still buffered).  Waits up to ``timeout_s`` for news;
        empty list on timeout (long-poll/stream heartbeat).  Pinned by
        ``tests/test_obs_svc.py::TestEventsSince``."""
        fresh = [e for e in self._events if e["seq"] > seq]
        if fresh or self._event_cond is None:
            return fresh
        try:
            async with self._event_cond:
                await asyncio.wait_for(
                    self._event_cond.wait(), timeout_s
                )
        except asyncio.TimeoutError:
            return []
        return [e for e in self._events if e["seq"] > seq]

    def events_exhausted(self, seq: int) -> bool:
        """Whether a stream that has sent every event up to ``seq`` may
        end: the service is draining, nothing newer is buffered, and no
        admitted cell is left that could still publish a record."""
        return (
            self.draining
            and self._event_seq <= seq
            and (self.admission.in_system == 0 or self.drained)
        )

    def sample_gauges(self) -> None:
        """Refresh scrape-time gauges (queue depth, per-worker
        utilization, store hit ratio).  Called by :meth:`status` and by
        the HTTP layer before every ``/v1/metrics`` export, so gauges
        reflect *now* rather than the last state-changing request."""
        self.metrics.gauge("svc.pool.queue_depth").set(
            float(self.pool.queue_depth())
        )
        for worker_id, fraction in self.pool.utilization().items():
            self.metrics.gauge(
                labeled("svc.pool.worker_utilization",
                        worker=str(worker_id))
            ).set(fraction)
        self.metrics.gauge("svc.store.hit_ratio").set(self.store.hit_ratio)

    def status(self) -> Dict[str, Any]:
        self.sample_gauges()
        return {
            "draining": self.draining,
            "drain_reason": self.drain_reason,
            "admission": self.admission.status(),
            "pool": {
                "jobs": self.pool.jobs,
                "queue_depth": self.pool.queue_depth(),
                "utilization": {
                    str(worker_id): round(fraction, 6)
                    for worker_id, fraction
                    in self.pool.utilization().items()
                },
                "counters": dict(self.pool.counters),
            },
            "store": self.store.stats(),
            "telemetry": {
                "tracing": self.tracer is not None,
                "spans": len(self.tracer.spans)
                if self.tracer is not None else 0,
            },
            "requests": {
                name: counter.value
                for name, counter in self.metrics.counters.items()
                if name.startswith("svc.")
            },
        }


async def _notify(cond: asyncio.Condition) -> None:
    async with cond:
        cond.notify_all()


#: Transport-only record fields that must never reach waiters or the
#: store: the live result object (not serializable) and the telemetry /
#: correlation block (request-specific — keeping it would make a
#: computed response differ from the store hit a byte-identity test
#: compares it against).
_TRANSPORT_FIELDS = frozenset({"result_obj", "telemetry", "corr_id"})


def _storable(record: Dict[str, Any]) -> Dict[str, Any]:
    """The record exactly as the store's journal writes it: the live
    result object and per-request transport fields dropped (the
    serialized form is lossless), the schema version added."""
    stored = {k: v for k, v in record.items() if k not in _TRANSPORT_FIELDS}
    stored.setdefault("v", SCHEMA_VERSION)
    return stored


def _event_for(
    record: Dict[str, Any], corr_id: Optional[str] = None
) -> Dict[str, Any]:
    event = {
        "type": "record",
        "hash": record["hash"],
        "cell_id": record.get("cell_id"),
        "status": record["status"],
        # The *originating* request: the flight leader that submitted
        # the cell (coalesced followers see it in their own request
        # events).
        "corr_id": corr_id,
    }
    if record["status"] == "ok":
        event["digest"] = record["digest"]
        event["wall_s"] = record.get("wall_s")
    else:
        event["failure"] = record.get("failure")
    return event
