"""Supervised worker pool: fan cells out, survive the workers.

The pool owns long-lived worker processes (fork start method where
available, so each worker inherits the parent's warm imports and any
test-registered cell kinds) and supervises them:

* **per-cell timeout** — a cell running longer than ``timeout_s`` gets its
  worker killed, a structured ``timeout`` failure record, and a fresh
  worker; the rest of the sweep continues.
* **crash retry** — a worker that dies mid-cell (OOM kill, segfault,
  ``os._exit``) is respawned and the cell retried up to ``max_retries``
  times with exponential backoff; exhausted retries become a ``crash``
  failure record.  In-worker Python exceptions are *not* retried — the
  simulator is deterministic, so they would fail identically — and are
  recorded immediately with their traceback.
* **cooperative cancellation** — :meth:`SupervisedPool.cancel` (used by
  ``repro.svc`` when a request times out or its client goes away) drops a
  cell from the pending queue, or kills and respawns the worker running
  it, emitting a structured ``cancelled`` record either way.
* **graceful stop** — ``request_stop`` (wired to SIGINT/SIGTERM by
  :func:`repro.runner.runner.run_plan` and ``repro.svc``'s drain path)
  stops dispatching, drains cells already in flight, and leaves the
  remainder for ``--resume``.

Two driving modes share one supervision loop: :meth:`SupervisedPool.run`
executes a fixed plan and returns when it is done (sweeps), while
:meth:`SupervisedPool.serve` runs until ``request_stop`` and accepts new
cells at any time through the thread-safe :meth:`SupervisedPool.submit`
(the simulation service).

Records are emitted to a callback the moment each cell reaches a terminal
state, so the journal is fsynced continuously, not at the end.

The supervision loop is event-driven: it blocks on the busy workers'
pipes plus a wake channel that ``submit``, ``cancel`` and
``request_stop`` write to, with a timeout only when a real timer is
pending (a per-cell timeout, a retry's backoff, the run deadline).  An
idle pool makes no periodic wake-ups, and a submitted cell is dispatched
at once.

The pool reads the host clock through an injectable ``clock`` callable
(default ``time.monotonic``) so retry backoff and timeout scheduling are
testable under a fake clock.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.context
import os
import signal
import socket
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.runner.execute import execute_cell
from repro.runner.plan import KIND_RUN, Cell

if TYPE_CHECKING:
    from repro.obs.svc import ServiceTracer

#: Per-task metadata riding the duplex pipe next to the cell: the
#: service's correlation ID and trace flag (``repro.svc`` requests), or
#: None for batch sweeps — whose task tuples, records, and journal
#: schema stay byte-identical to the untelemetered pool.
TaskMeta = Optional[Dict[str, Any]]

#: How long a killed worker gets to die before escalating to SIGKILL.
_KILL_GRACE_S = 2.0

#: Failure type recorded for cooperatively cancelled cells.
FAILURE_CANCELLED = "cancelled"


def _close_inherited_fds(keep: Set[int]) -> None:
    """Close every fd a forked worker inherited except stdio and ``keep``.

    Forked children copy *all* parent descriptors.  For batch sweeps that
    is harmless, but the service forks (and respawns) workers while it
    holds accepted sockets — a long-lived worker's copy would hold a
    client connection open long after the parent sent its FIN, so clients
    waiting for EOF would hang.  Standard preforking-server hygiene.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover — no procfs
        fds = list(range(3, 256))
    for fd in fds:
        if fd > 2 and fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass


def _worker_main(
    conn: "multiprocessing.connection.Connection[Any, Any]", worker_id: int
) -> None:
    """Worker loop: receive (cell, attempt), execute, send the record.

    Workers ignore SIGINT so a terminal Ctrl-C (delivered to the whole
    foreground process group) lets the *parent* coordinate the drain
    instead of killing cells mid-flight.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _close_inherited_fds({conn.fileno()})
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        cell, attempt, meta = task
        observer = None
        traced = meta is not None and bool(meta.get("trace"))
        if meta is not None and meta.get("corr_id") is not None:
            # Correlation crosses the fork boundary here, on the pipe:
            # contextvars were copied at fork time (long before this
            # request existed), so the worker re-seeds its own context
            # per task and log records inside the worker carry the ID.
            from repro.obs.logging import set_correlation_id

            set_correlation_id(meta["corr_id"])
        if traced and cell.kind == KIND_RUN:
            # Only plain runs take an Observer: an Observer watches
            # exactly one simulator, and grid-search kinds run several.
            from repro.obs import Observer

            observer = Observer()
        started_ms = time.monotonic() * 1000.0 if traced else 0.0
        record: Dict[str, Any]
        try:
            outcome = execute_cell(cell, observer=observer)
            record = {
                "status": "ok",
                "digest": outcome.digest,
                "wall_s": round(outcome.wall_s, 6),
                "result_obj": outcome.result,
                # Full-precision serialization for the journal: resumed
                # runs rebuild SimulationResult(**record["result"]) and
                # the digest pins every float, so nothing is lost.
                "result": outcome.result.field_dict(),
            }
        except Exception as exc:  # report as a failure record, don't die
            record = {
                "status": "failed",
                "failure": "exception",
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
            }
        record.update(
            kind="cell",
            hash=cell.config_hash,
            cell_id=cell.cell_id,
            cell=cell.to_dict(),
            attempt=attempt,
            worker=worker_id,
        )
        if meta is not None and meta.get("corr_id") is not None:
            record["corr_id"] = meta["corr_id"]
        if traced:
            # The execute span is measured *here*, in the worker, on the
            # same monotonic clock as the parent's tracer (system-wide
            # across fork on Linux), and shipped back over the pipe; the
            # parent adopts it plus the simulation timeline.  The service
            # strips this block before records reach waiters or the store.
            telemetry: Dict[str, Any] = {
                "corr_id": meta.get("corr_id") if meta else None,
                "execute": {
                    "start_ms": started_ms,
                    "dur_ms": time.monotonic() * 1000.0 - started_ms,
                },
            }
            if observer is not None and record["status"] == "ok":
                from repro.obs.export import chrome_trace

                telemetry["sim"] = chrome_trace(observer)
            record["telemetry"] = telemetry
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):
            return


def _pool_context() -> multiprocessing.context.BaseContext:
    """fork where the platform has it (warm imports, test-kind
    inheritance); the default context elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-fork platforms
        return multiprocessing.get_context()


class _Worker:
    """One supervised worker process and its dedicated duplex pipe."""

    def __init__(
        self, context: multiprocessing.context.BaseContext, worker_id: int
    ) -> None:
        self.id = worker_id
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_main, args=(child_conn, worker_id), daemon=True
        )
        self.process.start()
        child_conn.close()  # parent copy; EOF must reach us when it dies
        self.task: Optional[Tuple[Cell, int, TaskMeta]] = None
        self.started_at: float = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(
        self, cell: Cell, attempt: int, now: float, meta: TaskMeta = None
    ) -> None:
        self.task = (cell, attempt, meta)
        self.started_at = now
        self.conn.send((cell, attempt, meta))

    def kill(self) -> None:
        """Terminate, escalating to SIGKILL after a short grace."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_KILL_GRACE_S)
            if self.process.is_alive():  # pragma: no cover — stuck in D state
                self.process.kill()
                self.process.join(_KILL_GRACE_S)
        self.conn.close()

    def shutdown(self) -> None:
        """Polite stop for an idle worker."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_KILL_GRACE_S)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


@dataclass
class PoolStatus:
    """What the pool did and why it returned."""

    stop_reason: Optional[str] = None  # None | "signal" | "deadline"
    counters: Dict[str, int] = field(default_factory=dict)
    #: Cells never dispatched (stop/deadline); candidates for --resume.
    not_run: List[Cell] = field(default_factory=list)


class SupervisedPool:
    """Run cells on ``jobs`` supervised workers; emit terminal records."""

    def __init__(
        self,
        jobs: int,
        timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._clock = clock
        self._stop_reason: Optional[str] = None
        self._context = _pool_context()
        self._next_worker_id = 0
        # Pending work and cancellations may be touched from other threads
        # (``repro.svc`` submits and cancels from its event loop while the
        # supervision loop runs in a pool thread), so both live behind one
        # lock.  (cell, attempt, not_before, meta): retries wait out
        # backoff; meta carries the service's correlation/trace metadata.
        # Re-entrant because ``request_stop`` runs in SIGINT/SIGTERM
        # handlers, which can interrupt the supervising thread while it
        # holds the lock.
        self._lock = threading.RLock()
        self._pending: Deque[Tuple[Cell, int, float, TaskMeta]] = deque()
        self._cancelled: Set[str] = set()
        self._workers: List[_Worker] = []
        #: The wake channel, open only while a supervision loop runs:
        #: ``_wake`` writes a byte to the second socket (under the lock,
        #: so it can never race the close) and the loop's wait returns.
        self._wake_pair: Optional[Tuple[socket.socket, socket.socket]] = None
        #: Optional :class:`repro.obs.svc.ServiceTracer` installed by the
        #: service when request tracing is on; None costs nothing.
        self.tracer: Optional["ServiceTracer"] = None
        #: Accumulated busy seconds per worker id (terminal tasks only;
        #: :meth:`utilization` adds the in-flight remainder).
        self._busy_s: Dict[int, float] = {}
        self._supervise_started_at: Optional[float] = None
        self.counters: Dict[str, int] = {
            "dispatched": 0, "ok": 0, "failed": 0, "timeouts": 0,
            "crashes": 0, "retries": 0, "respawns": 0, "cancelled": 0,
        }

    # -- external control (any thread) ------------------------------------

    def request_stop(self, reason: str = "signal") -> None:
        """Stop dispatching; drain in-flight cells, then return."""
        with self._lock:
            if self._stop_reason is None:
                self._stop_reason = reason
            self._wake()

    def submit(
        self, cell: Cell, attempt: int = 1, meta: TaskMeta = None
    ) -> None:
        """Queue one cell (thread-safe; the serve loop picks it up at once).

        ``meta`` is the service's per-request metadata (correlation ID,
        trace flag, submission timestamp); batch callers omit it and the
        pool behaves exactly as before."""
        with self._lock:
            self._pending.append((cell, attempt, 0.0, meta))
            self._wake()

    def cancel(self, config_hash: str) -> bool:
        """Cooperatively cancel the cell with ``config_hash``.

        A pending cell is dropped before dispatch; a running cell gets its
        worker killed and respawned.  Either way a structured
        ``cancelled`` record is emitted.  Returns True when the hash
        matched queued or in-flight work, False when there was nothing to
        cancel (already terminal, or never submitted) — in which case no
        cancellation is recorded, so a later resubmission of the same
        hash is unaffected.
        """
        with self._lock:
            queued = any(
                cell.config_hash == config_hash
                for cell, _, _, _ in self._pending
            )
            running = any(
                worker.task is not None
                and worker.task[0].config_hash == config_hash
                for worker in self._workers
            )
            if queued or running:
                self._cancelled.add(config_hash)
                self._wake()
                return True
        return False

    def queue_depth(self) -> int:
        """Cells waiting for a worker (thread-safe snapshot)."""
        with self._lock:
            return len(self._pending)

    def utilization(self) -> Dict[int, float]:
        """Busy-time fraction per worker id since supervision started,
        including each busy worker's in-flight time up to now (thread-safe
        snapshot; empty before the pool runs)."""
        now = self._clock()
        with self._lock:
            started = self._supervise_started_at
            busy = dict(self._busy_s)
            in_flight = [
                (worker.id, worker.started_at)
                for worker in self._workers
                if worker.task is not None
            ]
        if started is None:
            return {}
        uptime = max(now - started, 1e-9)
        for worker_id, started_at in in_flight:
            busy[worker_id] = busy.get(worker_id, 0.0) + max(
                0.0, now - started_at
            )
        return {
            worker_id: min(1.0, seconds / uptime)
            for worker_id, seconds in sorted(busy.items())
        }

    # -- the wake channel --------------------------------------------------

    def _wake(self) -> None:
        """Make the supervision loop's wait return (caller holds the lock).

        Harmless when no loop runs (there is no channel to write to); a
        full socket buffer means a wake is already pending."""
        if self._wake_pair is not None:
            try:
                self._wake_pair[1].send(b"\0")
            except BlockingIOError:
                pass

    def _open_wake_channel(self) -> socket.socket:
        """Create the wake channel; returns the end the loop waits on."""
        reader, writer = socket.socketpair()
        reader.setblocking(False)
        writer.setblocking(False)
        with self._lock:
            self._wake_pair = (reader, writer)
        return reader

    def _close_wake_channel(self) -> None:
        with self._lock:
            pair, self._wake_pair = self._wake_pair, None
        for sock in pair or ():
            sock.close()

    # -- scheduling arithmetic (fake-clock testable) -----------------------

    def backoff_s(self, attempt: int) -> float:
        """Backoff before re-running a crash that happened on ``attempt``
        (exponential: base, 2x base, 4x base, ...)."""
        return self.retry_backoff_s * (2.0 ** (attempt - 1))

    def _schedule_retry(
        self, cell: Cell, attempt: int, meta: TaskMeta = None
    ) -> None:
        """Re-queue a crashed cell at the head, gated by its backoff."""
        self.counters["retries"] += 1
        not_before = self._clock() + self.backoff_s(attempt)
        with self._lock:
            self._pending.appendleft((cell, attempt + 1, not_before, meta))

    def _wait_timeout_s(
        self, deadline_monotonic: Optional[float]
    ) -> Optional[float]:
        """Seconds until the nearest timer the loop must act on — a busy
        cell's timeout, a retry's backoff, the run deadline — or None
        when only a worker pipe or a wake can change anything."""
        now = self._clock()
        timers: List[float] = []
        timeout_s = self.timeout_s
        if timeout_s is not None:
            timers.extend(
                worker.started_at + timeout_s
                for worker in self._workers if worker.busy
            )
        if self._stop_reason is None:
            if deadline_monotonic is not None:
                timers.append(deadline_monotonic)
            with self._lock:
                timers.extend(
                    not_before for _, _, not_before, _ in self._pending
                    if not_before > now
                )
        if not timers:
            return None
        return max(0.0, min(timers) - now)

    # -- records -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        worker = _Worker(self._context, self._next_worker_id)
        self._next_worker_id += 1
        return worker

    def _failure_record(self, cell: Cell, attempt: int, failure: str,
                        error: Dict[str, str],
                        meta: TaskMeta = None) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "kind": "cell",
            "hash": cell.config_hash,
            "cell_id": cell.cell_id,
            "cell": cell.to_dict(),
            "status": "failed",
            "failure": failure,
            "attempt": attempt,
            "error": error,
        }
        if meta is not None and meta.get("corr_id") is not None:
            record["corr_id"] = meta["corr_id"]
        return record

    def _cancel_record(self, cell: Cell, attempt: int,
                       meta: TaskMeta = None) -> Dict[str, Any]:
        return self._failure_record(
            cell, attempt, FAILURE_CANCELLED,
            {
                "type": "CellCancelled",
                "message": f"{cell.cell_id} was cancelled before completing "
                           f"(attempt {attempt})",
                "traceback": "",
            },
            meta=meta,
        )

    def _emit_terminal(self, emit: Callable[[Dict[str, Any]], None],
                       record: Dict[str, Any]) -> None:
        self.counters["ok" if record["status"] == "ok" else "failed"] += 1
        with self._lock:
            self._cancelled.discard(record["hash"])
        if self.tracer is not None:
            self._adopt_telemetry(record)
        emit(record)

    def _adopt_telemetry(self, record: Dict[str, Any]) -> None:
        """Fold a traced worker's shipped telemetry into the tracer: the
        worker-measured execute span plus the simulation timeline."""
        from repro.obs.svc import SPAN_WORKER_EXECUTE

        tracer = self.tracer
        telemetry = record.get("telemetry")
        if tracer is None or not isinstance(telemetry, dict):
            return
        corr_id = telemetry.get("corr_id")
        if not isinstance(corr_id, str):
            return
        execute = telemetry.get("execute")
        if isinstance(execute, dict):
            tracer.add_span(
                SPAN_WORKER_EXECUTE,
                corr_id,
                float(execute.get("start_ms", 0.0)),
                float(execute.get("dur_ms", 0.0)),
                cell_id=record.get("cell_id"),
                worker=record.get("worker"),
                attempt=record.get("attempt"),
            )
        sim = telemetry.get("sim")
        if isinstance(sim, dict):
            tracer.attach_simulation(corr_id, sim)

    # -- supervision loop steps --------------------------------------------

    def _next_ready(
        self, now: float
    ) -> Optional[Tuple[Cell, int, TaskMeta]]:
        """Pop the first pending cell whose backoff has elapsed."""
        with self._lock:
            ready_idx = next(
                (i for i, (_, _, nb, _) in enumerate(self._pending)
                 if nb <= now),
                None,
            )
            if ready_idx is None:
                return None
            self._pending.rotate(-ready_idx)
            cell, attempt, _, meta = self._pending.popleft()
            self._pending.rotate(ready_idx)
            return cell, attempt, meta

    def _reap_cancelled_pending(
        self, emit: Callable[[Dict[str, Any]], None]
    ) -> None:
        """Drop cancelled cells that are still queued."""
        dropped: List[Tuple[Cell, int, float, TaskMeta]] = []
        with self._lock:
            if not self._cancelled:
                return
            kept: Deque[Tuple[Cell, int, float, TaskMeta]] = deque()
            for item in self._pending:
                if item[0].config_hash in self._cancelled:
                    dropped.append(item)
                else:
                    kept.append(item)
            self._pending = kept
        for cell, attempt, _, meta in dropped:
            self.counters["cancelled"] += 1
            self._emit_terminal(
                emit, self._cancel_record(cell, attempt, meta)
            )

    def _kill_cancelled(self, emit: Callable[[Dict[str, Any]], None]) -> None:
        """Kill workers running cancelled cells; respawn and record."""
        with self._lock:
            if not self._cancelled:
                return
            cancelled = set(self._cancelled)
        for index, worker in enumerate(self._workers):
            task = worker.task
            if task is None:
                continue
            cell, attempt, meta = task
            if cell.config_hash not in cancelled:
                continue
            self.counters["cancelled"] += 1
            self.counters["respawns"] += 1
            self._note_idle(worker)
            worker.kill()
            self._workers[index] = self._spawn()
            worker.task = None
            self._emit_terminal(
                emit, self._cancel_record(cell, attempt, meta)
            )

    def _note_idle(self, worker: _Worker) -> None:
        """Charge a busy worker's elapsed task time to its utilization
        account; call just before its task is cleared."""
        if worker.task is None:
            return
        elapsed = max(0.0, self._clock() - worker.started_at)
        with self._lock:
            self._busy_s[worker.id] = (
                self._busy_s.get(worker.id, 0.0) + elapsed
            )

    def _dispatch(self, now: float) -> None:
        """Hand ready pending cells to idle workers."""
        for index, worker in enumerate(self._workers):
            if worker.busy:
                continue
            task = self._next_ready(now)
            if task is None:
                break
            cell, attempt, meta = task
            try:
                worker.dispatch(cell, attempt, now, meta)
            except OSError:
                # The worker died (e.g. SIGKILLed) between _collect's
                # liveness check and this send.  The cell never started:
                # requeue it at the same attempt — the death is not its
                # failure — and replace the corpse.
                worker.task = None
                with self._lock:
                    self._pending.appendleft((cell, attempt, 0.0, meta))
                self.counters["respawns"] += 1
                worker.kill()
                self._workers[index] = self._spawn()
                continue
            self.counters["dispatched"] += 1
            tracer = self.tracer
            if (tracer is not None and meta is not None
                    and meta.get("trace")):
                submitted_ms = meta.get("submitted_ms")
                corr_id = meta.get("corr_id")
                if isinstance(submitted_ms, (int, float)) and isinstance(
                    corr_id, str
                ):
                    from repro.obs.svc import SPAN_POOL_QUEUE

                    end_ms = tracer.now_ms()
                    tracer.add_span(
                        SPAN_POOL_QUEUE,
                        corr_id,
                        float(submitted_ms),
                        max(0.0, end_ms - float(submitted_ms)),
                        cell_id=cell.cell_id,
                        worker=worker.id,
                        attempt=attempt,
                    )

    def _handle_worker_failure(
        self,
        emit: Callable[[Dict[str, Any]], None],
        worker: _Worker,
        failure: str,
        error_type: str,
        message: str,
    ) -> None:
        """A worker died or was killed mid-cell: retry or record."""
        task = worker.task
        assert task is not None  # only called for busy workers
        cell, attempt, meta = task
        self._note_idle(worker)
        worker.task = None
        if failure == "crash" and attempt <= self.max_retries:
            self._schedule_retry(cell, attempt, meta)
        else:
            self._emit_terminal(emit, self._failure_record(
                cell, attempt, failure,
                {"type": error_type, "message": message, "traceback": ""},
                meta=meta,
            ))

    def _collect(
        self,
        emit: Callable[[Dict[str, Any]], None],
        wake: socket.socket,
        timeout_s: Optional[float],
    ) -> None:
        """Block until a busy worker's pipe (a record, or EOF from a dead
        worker) or the ``wake`` channel is readable, or ``timeout_s``
        passes (None: no timer is pending); then receive the records."""
        busy = [w for w in self._workers if w.busy]
        waitables: List[Any] = [w.conn for w in busy]
        waitables.append(wake)
        ready = set(multiprocessing.connection.wait(waitables, timeout_s))
        if wake in ready:
            try:
                wake.recv(4096)
            except BlockingIOError:
                pass
        for worker in busy:
            if worker.conn not in ready:
                continue
            try:
                record = worker.conn.recv()
            except (EOFError, OSError):
                self.counters["crashes"] += 1
                self.counters["respawns"] += 1
                assert worker.task is not None  # busy_conns filters on busy
                cell_id = worker.task[0].cell_id
                # Reap first: the pipe's EOF can beat the exit status.
                worker.process.join(_KILL_GRACE_S)
                exitcode = worker.process.exitcode
                worker.conn.close()
                replacement = self._spawn()
                self._handle_worker_failure(
                    emit, worker, "crash", "WorkerCrashed",
                    f"worker {worker.id} exited with code "
                    f"{exitcode} while running {cell_id}",
                )
                self._workers[self._workers.index(worker)] = replacement
                continue
            self._note_idle(worker)
            worker.task = None
            self._emit_terminal(emit, record)

    def _expire_timeouts(self, emit: Callable[[Dict[str, Any]], None]) -> None:
        """Kill, record, and respawn workers over the per-cell timeout."""
        if self.timeout_s is None:
            return
        now = self._clock()
        for index, worker in enumerate(self._workers):
            task = worker.task
            if task is None:
                continue
            if now - worker.started_at <= self.timeout_s:
                continue
            self.counters["timeouts"] += 1
            self.counters["respawns"] += 1
            cell, attempt, meta = task
            self._note_idle(worker)
            worker.kill()
            self._workers[index] = self._spawn()
            worker.task = None
            self._emit_terminal(emit, self._failure_record(
                cell, attempt, "timeout",
                {
                    "type": "CellTimeout",
                    "message": (
                        f"{cell.cell_id} exceeded the per-cell "
                        f"timeout of {self.timeout_s}s "
                        f"(attempt {attempt})"
                    ),
                    "traceback": "",
                },
                meta=meta,
            ))

    # -- driving modes -----------------------------------------------------

    def run(
        self,
        cells: List[Cell],
        emit: Callable[[Dict[str, Any]], None],
        deadline_monotonic: Optional[float] = None,
    ) -> PoolStatus:
        """Execute ``cells``; call ``emit`` once per terminal record."""
        with self._lock:
            self._pending.extend((cell, 1, 0.0, None) for cell in cells)
        return self._supervise(
            emit,
            deadline_monotonic=deadline_monotonic,
            workers_n=min(self.jobs, max(1, len(cells))),
            persistent=False,
        )

    def serve(
        self,
        emit: Callable[[Dict[str, Any]], None],
        deadline_monotonic: Optional[float] = None,
    ) -> PoolStatus:
        """Service mode: supervise until :meth:`request_stop`.

        Unlike :meth:`run`, an empty queue is not the end — the loop idles
        and picks up cells queued by :meth:`submit` from any thread.  On
        stop, in-flight cells drain exactly as in ``run``.
        """
        return self._supervise(
            emit,
            deadline_monotonic=deadline_monotonic,
            workers_n=self.jobs,
            persistent=True,
        )

    def _supervise(
        self,
        emit: Callable[[Dict[str, Any]], None],
        deadline_monotonic: Optional[float],
        workers_n: int,
        persistent: bool,
    ) -> PoolStatus:
        wake = self._open_wake_channel()
        try:
            self._workers = [self._spawn() for _ in range(workers_n)]
            with self._lock:
                self._supervise_started_at = self._clock()
            while True:
                now = self._clock()
                if (deadline_monotonic is not None and now >= deadline_monotonic
                        and self._stop_reason is None):
                    self._stop_reason = "deadline"
                if self._stop_reason is not None:
                    # Draining still honours cancellation: without this a
                    # cancelled long cell would hold the drain hostage for
                    # its full runtime.
                    self._reap_cancelled_pending(emit)
                    self._kill_cancelled(emit)
                    if not any(w.busy for w in self._workers):
                        break
                else:
                    self._reap_cancelled_pending(emit)
                    self._kill_cancelled(emit)
                    self._dispatch(now)
                    if (not persistent and self.queue_depth() == 0
                            and not any(w.busy for w in self._workers)):
                        break
                self._collect(
                    emit, wake, self._wait_timeout_s(deadline_monotonic)
                )
                self._expire_timeouts(emit)
        finally:
            for worker in self._workers:
                worker.shutdown()
            self._workers = []
            self._close_wake_channel()

        with self._lock:
            not_run = [cell for cell, _, _, _ in self._pending]
            if not persistent:
                self._pending.clear()
        return PoolStatus(
            stop_reason=self._stop_reason,
            counters=dict(self.counters),
            not_run=not_run,
        )
