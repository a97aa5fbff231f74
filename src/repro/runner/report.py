"""Human-readable views of run journals (the ``repro-sim runs`` command).

A run's status comes from its ``{"kind": "run"}`` records
(:func:`repro.runner.run_plan`): the end record that follows the latest
start record gives it; a start with no end reads ``unfinished`` (the
run is still going, or was killed before it could end); a journal with
no run record (a service's store) reads ``unknown``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.runner.journal import Journal, list_runs


def run_summary(journal: Journal) -> Dict[str, Any]:
    """The latest run's start record merged with the end record that
    follows it, plus ``status``, ``created`` (the first start's time),
    ``updated`` (the latest run record's time) and ``argv`` (the creating
    CLI line: the latest start record's that names one, since a run
    resumed from code records none)."""
    first: Optional[Dict[str, Any]] = None
    start: Optional[Dict[str, Any]] = None
    end: Optional[Dict[str, Any]] = None
    argv: Optional[List[str]] = None
    for record in journal.records():
        if record.get("kind") != "run":
            continue
        if record.get("event") == "start":
            first = first or record
            start, end = record, None
            argv = record.get("argv") or argv
        elif record.get("event") == "end" and start is not None:
            end = record
    if first is None or start is None:
        return {"status": "unknown"}
    summary: Dict[str, Any] = {**start, **(end or {"status": "unfinished"})}
    summary["created"] = first.get("time")
    summary["updated"] = (end or start).get("time")
    summary["argv"] = argv
    return summary


def _summary_row(journal: Journal) -> Dict[str, Any]:
    summary = run_summary(journal)
    return {
        "name": os.path.basename(journal.directory.rstrip(os.sep)),
        "status": summary["status"],
        "cells": summary.get("cells", "?"),
        "completed": len(journal.completed()),
        "failed": len(journal.failures()),
        "plan_hash": (summary.get("plan_hash") or "")[:12],
        "updated": summary.get("updated") or "",
    }


def format_runs_table(root: str) -> str:
    """One line per run directory under ``root``."""
    journals = list_runs(root)
    if not journals:
        return f"no runs under {root}/"
    header = ("run", "status", "done", "failed", "plan", "updated")
    rows: List[Tuple[str, ...]] = []
    for journal in journals:
        row = _summary_row(journal)
        rows.append((
            row["name"], row["status"],
            f"{row['completed']}/{row['cells']}", str(row["failed"]),
            row["plan_hash"], row["updated"],
        ))
    widths = [
        max(len(header[i]), max(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def format_failure(record: Dict[str, Any], verbose: bool = False) -> str:
    """One failure record, message first, traceback only when asked."""
    error = record.get("error", {})
    line = (
        f"  {record.get('cell_id', record.get('hash', '?'))}: "
        f"{record.get('failure', 'exception')} — "
        f"{error.get('type', '?')}: {error.get('message', '')}"
        f" (attempt {record.get('attempt', '?')})"
    )
    if verbose and error.get("traceback"):
        indented = "\n".join(
            "    " + l for l in error["traceback"].rstrip().splitlines()
        )
        line += "\n" + indented
    return line


def format_run_detail(journal: Journal, verbose: bool = False) -> str:
    """Run summary, per-cell digests, and outstanding failures."""
    summary = run_summary(journal)
    completed = journal.completed()
    failures = journal.failures()
    lines = [f"run {journal.directory}"]
    for key in ("status", "plan_hash", "cells", "jobs", "created", "updated"):
        if key in summary:
            lines.append(f"  {key}: {summary[key]}")
    if summary.get("argv"):
        lines.append(f"  argv: {' '.join(summary['argv'])}")
    counters = ", ".join(
        f"{k}={v}"
        for k, v in sorted((summary.get("counters") or {}).items()) if v
    )
    if counters:
        lines.append(f"  counters: {counters}")
    lines.append(f"completed cells ({len(completed)}):")
    for record in sorted(completed.values(), key=lambda r: r.get("cell_id", "")):
        wall = record.get("wall_s")
        wall_text = f" {wall:.3f}s" if isinstance(wall, (int, float)) else ""
        lines.append(
            f"  {record.get('cell_id', record['hash'])}"
            f"  digest={record['digest'][:12]}{wall_text}"
        )
    if failures:
        lines.append(f"outstanding failures ({len(failures)}):")
        for record in failures:
            lines.append(format_failure(record, verbose=verbose))
    return "\n".join(lines)


def resume_argv(journal: Journal) -> Optional[List[str]]:
    """The latest run's creating CLI argv with ``--resume`` appended."""
    argv = run_summary(journal).get("argv")
    if not argv:
        return None
    argv = list(argv)
    if "--resume" not in argv:
        argv.append("--resume")
    return argv
