"""Plan orchestration: journaled, resumable, signal-aware sweep runs.

:func:`run_plan` is the crash-safe entry point behind
``repro-sim sweep --jobs`` and the CI interrupt/resume check.  It skips
cells already completed in the journal (``resume=True``), fans the rest
out to a :class:`~repro.runner.pool.SupervisedPool`, fsyncs every
terminal record, and translates SIGINT/SIGTERM into a graceful drain.

Exit codes (see ``docs/RUNNER.md``)::

    0   every cell completed
    1   sweep finished but some cells failed (see the failure records)
    75  interrupted by SIGINT/SIGTERM after draining in-flight cells
        (EX_TEMPFAIL: re-run with --resume to continue)
    76  --max-minutes deadline reached (also resumable)
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.results import SimulationResult
from repro.runner.journal import Journal
from repro.runner.plan import Cell, plan_hash
from repro.runner.pool import SupervisedPool

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

EXIT_OK = 0
EXIT_FAILED_CELLS = 1
EXIT_INTERRUPTED = 75  # EX_TEMPFAIL: resumable
EXIT_DEADLINE = 76

#: ``status`` of a run's end record (see :func:`run_plan`).
STATUS_COMPLETE = "complete"
STATUS_FAILED_CELLS = "failed-cells"
STATUS_INTERRUPTED = "interrupted"
STATUS_DEADLINE = "deadline"

_STOP_TO_STATUS = {"signal": STATUS_INTERRUPTED, "deadline": STATUS_DEADLINE}
_STOP_TO_EXIT = {"signal": EXIT_INTERRUPTED, "deadline": EXIT_DEADLINE}


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def default_journal_dir(cells: List[Cell], root: str = "runs") -> str:
    """Deterministic journal location derived from the plan hash, so the
    same sweep command resumes itself without naming a directory."""
    return os.path.join(root, f"run-{plan_hash(cells)[:12]}")


@dataclass
class RunReport:
    """Everything a caller needs after :func:`run_plan` returns."""

    plan: List[Cell]
    journal_dir: str
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    skipped: int = 0
    stop_reason: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        return [r for r in self.records.values() if r.get("status") == "failed"]

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records.values() if r.get("status") == "ok")

    @property
    def digests(self) -> Dict[str, str]:
        """config hash -> result digest, for every completed cell."""
        return {
            h: r["digest"] for h, r in self.records.items()
            if r.get("status") == "ok"
        }

    @property
    def status(self) -> str:
        if self.stop_reason is not None:
            return _STOP_TO_STATUS[self.stop_reason]
        if self.failures:
            return STATUS_FAILED_CELLS
        return STATUS_COMPLETE

    @property
    def exit_code(self) -> int:
        if self.stop_reason is not None:
            return _STOP_TO_EXIT[self.stop_reason]
        return EXIT_FAILED_CELLS if self.failures else EXIT_OK

    def results(self) -> List[Optional[SimulationResult]]:
        """Results in plan order; ``None`` for failed or not-run cells.

        Cells that ran in this process carry the live result object;
        cells skipped via ``--resume`` are reconstructed from the
        journal's full-precision serialization (bit-identical: the digest
        pins every float).
        """
        out: List[Optional[SimulationResult]] = []
        for cell in self.plan:
            record = self.records.get(cell.config_hash)
            if record is None or record.get("status") != "ok":
                out.append(None)
            elif "result_obj" in record:
                out.append(record["result_obj"])
            else:
                out.append(SimulationResult(**record["result"]))
        return out


def run_plan(
    plan: List[Cell],
    journal_dir: Optional[str] = None,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.5,
    resume: bool = False,
    max_minutes: Optional[float] = None,
    metrics: Optional["MetricsRegistry"] = None,
    progress: Optional[Callable[[Dict[str, Any], int, int], None]] = None,
    argv: Optional[List[str]] = None,
    install_signal_handlers: bool = True,
) -> RunReport:
    """Run a plan under supervision, journaling every terminal record.

    The run is bracketed by two ``{"kind": "run"}`` records in the same
    journal: a start record (plan hash, unique cells, jobs, ``argv``,
    time) before the pool spawns, and an end record (status, counts,
    supervision counters, time) when it returns.  ``repro-sim runs``
    reads them, and ``runs resume`` re-issues the start record's
    ``argv`` (the creating CLI line).  ``metrics`` is an optional
    :class:`repro.obs.MetricsRegistry`; runner counters land under
    ``runner.*``.  With ``install_signal_handlers`` the first
    SIGINT/SIGTERM drains in-flight cells and returns (exit code 75 via
    ``exit_code``); a second signal aborts immediately.
    """
    if journal_dir is None:
        journal_dir = default_journal_dir(plan)
    report = RunReport(plan=list(plan), journal_dir=journal_dir)

    # Unique work: duplicate cells in a plan share one execution.
    unique: Dict[str, Cell] = {}
    for cell in plan:
        unique.setdefault(cell.config_hash, cell)

    journal = Journal(journal_dir, metrics=metrics)
    if resume:
        for config_hash, record in journal.completed().items():
            if config_hash in unique:
                report.records[config_hash] = record
                report.skipped += 1
    to_run = [
        cell for config_hash, cell in unique.items()
        if config_hash not in report.records
    ]
    journal.append({
        "kind": "run",
        "event": "start",
        "plan_hash": plan_hash(plan),
        "cells": len(unique),
        "jobs": jobs,
        "argv": list(argv) if argv is not None else None,
        "time": _utcnow(),
    })

    pool = SupervisedPool(
        jobs=jobs, timeout_s=timeout_s, max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
    )
    total = len(to_run) + report.skipped
    done = report.skipped

    def emit(record: Dict[str, Any]) -> None:
        nonlocal done
        done += 1
        report.records[record["hash"]] = record
        journal.append({k: v for k, v in record.items() if k != "result_obj"})
        if progress is not None:
            progress(record, done, total)

    def handle_signal(signum: int, _frame: Any) -> None:
        if pool._stop_reason is not None:
            raise KeyboardInterrupt  # second signal: abort the drain
        pool.request_stop("signal")

    previous_handlers: Dict[int, Any] = {}
    if install_signal_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, handle_signal)
    deadline = (
        time.monotonic() + max_minutes * 60.0
        if max_minutes is not None else None
    )
    try:
        status = pool.run(to_run, emit, deadline_monotonic=deadline)
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    report.stop_reason = status.stop_reason
    report.counters = status.counters
    journal.append({
        "kind": "run",
        "event": "end",
        "status": report.status,
        "completed": report.completed,
        "failed": len(report.failures),
        "skipped": report.skipped,
        "counters": status.counters,
        "time": _utcnow(),
    })
    journal.close()

    if metrics is not None:
        metrics.inc("runner.cells_total", len(unique))
        metrics.inc("runner.cells_skipped_resume", report.skipped)
        metrics.inc("runner.journal_skipped_lines", journal.skipped_lines)
        metrics.merge_counters(status.counters, prefix="runner.")
        if report.stop_reason is not None:
            metrics.inc("runner.interrupted")
    return report
