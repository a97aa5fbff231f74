"""Workload ``sweep``: ``repro.runner.run_plan`` on two supervised workers,
journaling into a fresh directory, over many small cells.

Small cells make pool spawn, pipe traffic, per-worker trace builds and
journal fsyncs most of the wall time.  After each pass the journal is
read back the way a resumed sweep answers its finished cells (records
parsed, results rebuilt): this workload's *cached* path.  One resumed
``run_plan`` per pass checks that path end to end; its wall time, which
adds a manifest fsync and a worker fork to the read, is printed only,
because fork and fsync latency on a shared host spread past any bound.

Timed metrics use fastest times (each cell's fastest worker time, the
fastest read), for the reason given in ``wl_engine``: on a host that
flips between a fast and a slow state every few seconds, the fastest of
many samples measures the code, a median the host.  Throughput splits a
pass into the work its workers do and the pool's overhead around it
(:func:`pass_estimate`) and keeps the fastest of each: the fastest whole
pass needs both workers in a fast state for all of it, and spread past
a quarter between runs.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Dict, List

from common import (Report, check_digests, load_digests, peak_rss_mb,
                    scratch_dir, unit_of, DEFAULT_SEED)
from ledger import Ledger, Patcher, merge_dir
from layers import install_engine_layers, install_worker_dump, layer_metrics
import stats
from wl_engine import sim_checks

if TYPE_CHECKING:
    from repro.runner import Cell, RunReport

TRACES = ("cscope2", "glimpse", "ld", "postgres-select")
POLICIES = ("demand", "fixed-horizon", "aggressive", "reverse-aggressive",
            "forestall")
DISKS = (1, 2, 4)
SCALE = 0.05
JOBS = 2
#: Journal reads after each pass (cached-path samples).
READS = 5
#: Passes per side in the traced run (untraced, then traced).
TRACED_PASSES = 2


def plan(seed: int) -> List[Cell]:
    from repro.runner import Cell

    return [
        Cell(trace=trace, policy=policy, disks=disks, scale=SCALE, seed=seed)
        for trace in TRACES
        for disks in DISKS
        for policy in POLICIES
    ]


class Pass:
    """Timings and outcomes of one ``run_plan`` pass.  Only summaries are
    kept: holding every record would grow this process (and the workers
    it forks) with the number of passes, that is with host speed."""

    def __init__(self, wall_s: float, setup_s: float,
                 report: RunReport) -> None:
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.counters = report.counters
        ok = [r for r in report.records.values() if r.get("status") == "ok"]
        self.completed = len(ok)
        self.refs = sum(r["result_obj"].references for r in ok)
        self.cell_ms = {r["hash"]: r["wall_s"] * 1000.0 for r in ok}
        self.digests: Dict[str, str] = report.digests
        self.sim = sim_checks([r["result_obj"] for r in ok])


def run_pass(cells: List[Cell], journal: str, report: Report) -> Pass:
    from repro.runner import run_plan

    clock = time.perf_counter
    first: List[float] = []

    def progress(_record: Dict[str, Any], _done: int, _total: int) -> None:
        if not first:
            first.append(clock())

    start = clock()
    outcome = run_plan(cells, journal_dir=journal, jobs=JOBS,
                       progress=progress)
    wall = clock() - start
    report.attempted += len(cells)
    for record in outcome.failures:
        report.failed += 1
        report.error(f"{record.get('cell_id')}: {record.get('failure')}")
    return Pass(wall, (first[0] if first else clock()) - start, outcome)


def resume(cells: List[Cell], journal: str, expected: Dict[str, str],
           report: Report) -> float:
    """One resumed re-run of a finished journal; ms per cell."""
    from repro.runner import run_plan

    start = time.perf_counter()
    outcome = run_plan(cells, journal_dir=journal, jobs=JOBS, resume=True)
    wall = time.perf_counter() - start
    if outcome.skipped != len(cells) or outcome.digests != expected:
        report.error("a resumed sweep did not answer every cell from its "
                     "journal with the same digest")
    return wall * 1000.0 / len(cells)


def read_back(journal: str, expected: Dict[str, str],
              report: Report) -> float:
    """Answer every cell from a finished journal as a resumed run does
    (``Journal.completed`` + ``SimulationResult(**record["result"])``);
    ms per cell."""
    from repro.core import SimulationResult
    from repro.runner import Journal

    start = time.perf_counter()
    done = Journal(journal).completed()
    results = [SimulationResult(**r["result"]) for r in done.values()]
    wall = time.perf_counter() - start
    if {h: r["digest"] for h, r in done.items()} != expected \
            or len(results) != len(expected):
        report.error("the journal does not hold every cell's digest")
    return wall * 1000.0 / len(expected)


def pass_estimate(cell_ms: List[float], passes: List[Pass]) -> float:
    """Seconds of one pass at the fastest observed speed: each cell's
    fastest worker time shared by :data:`JOBS` workers, plus the smallest
    overhead of any pass (wall minus summed worker time ÷ jobs, which is
    pool spawn, pipe traffic, journal appends and the idle tail)."""
    overhead = min(p.wall_s - sum(p.cell_ms.values()) / 1000.0 / JOBS
                   for p in passes)
    return sum(cell_ms) / 1000.0 / JOBS + max(0.0, overhead)


def check(report: Report, cells: List[Cell], passes: List[Pass],
          seed: int) -> None:
    """Outside every timed region: passes agree, each record matches the
    in-process ``execute_cell`` digest, and the default seed matches the
    digest table."""
    from repro.runner import execute_cell

    first = passes[0].digests
    if any(one.digests != first for one in passes[1:]):
        report.error("sweep digests differ between passes")
    traces: Dict[Any, Any] = {}
    for cell in cells:
        digest = execute_cell(cell, trace_cache=traces).digest
        if first.get(cell.config_hash) != digest:
            report.error(f"{cell.cell_id}: pool digest differs from the "
                         "in-process execute_cell digest")
    if seed == DEFAULT_SEED:
        check_digests(report, load_digests().get("sweep"), first, "sweep")


def run(seed: int, seconds: float, traced: bool) -> Report:
    report = Report("sweep", seed, traced)
    cells = plan(seed)
    root = scratch_dir("sweep")
    if traced:
        return run_traced(report, cells, root, seed)
    passes: List[Pass] = []
    cached_ms: List[float] = []
    resumed_ms: List[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        journal = os.path.join(root, f"pass-{len(passes)}")
        one = run_pass(cells, journal, report)
        passes.append(one)
        if not report.correct:
            break
        resumed_ms.append(resume(cells, journal, one.digests, report))
        for _ in range(READS):
            cached_ms.append(read_back(journal, one.digests, report))
    check(report, cells, passes, seed)
    if not report.correct:
        return report
    n_pass = len(passes)
    cell_ms = [min(p.cell_ms[c.config_hash] for p in passes) for c in cells]
    pass_s = pass_estimate(cell_ms, passes)
    report.put("setup_s", stats.median([p.setup_s for p in passes]), "s",
               f"median of {n_pass} passes: run_plan to first record")
    report.put("refs_per_s", passes[0].refs / pass_s, "1/s",
               f"per pass_estimate over {n_pass} passes")
    report.put("cells_per_s", len(cells) / pass_s, "1/s",
               f"per pass_estimate over {n_pass} passes of {len(cells)} "
               f"cells, {JOBS} workers")
    report.show("cells_per_s_fastest_pass", max(
        p.completed / p.wall_s for p in passes), "1/s", "whole pass")
    report.put("cold_p50_ms", stats.percentile(cell_ms, 50), "ms",
               f"over {len(cell_ms)} cells' fastest worker wall_s")
    report.put("cold_p90_ms", stats.percentile(cell_ms, 90), "ms",
               f"n={len(cell_ms)}")
    report.put("cached_p50_ms", min(cached_ms), "ms",
               f"fastest of {len(cached_ms)} journal reads, per cell")
    report.show("resume_median_ms", stats.median(resumed_ms), "ms",
                f"resumed run_plan per cell, n={len(resumed_ms)}")
    report.show("cells_per_s_median_pass", stats.median(
        [p.completed / p.wall_s for p in passes]), "1/s",
        "host-state dependent")
    report.put("peak_rss_mb", peak_rss_mb(), "MB")
    report.show("failed_frac", stats.share(report.failed, report.attempted),
                "frac", f"attempted={report.attempted}")
    return report


def run_traced(report: Report, cells: List[Cell], root: str,
               seed: int) -> Report:
    from repro.runner import Journal

    plain = [run_pass(cells, os.path.join(root, f"plain-{k}"), report)
             for k in range(TRACED_PASSES)]
    ledger = Ledger()
    dumps = scratch_dir("sweep-ledger")
    with Patcher() as patcher:
        install_engine_layers(patcher, ledger)
        install_worker_dump(patcher, ledger, dumps)
        patcher.replace(Journal, "append",
                        ledger.wrap(Journal.append, "journal"))
        traced = [run_pass(cells, os.path.join(root, f"traced-{k}"), report)
                  for k in range(TRACED_PASSES)]
    journal_s = ledger.self_s.get("journal", 0.0)
    journal_calls = ledger.calls.get("journal", 0)
    workers = Ledger()
    merge_dir(workers, dumps)
    check(report, cells, plain + traced, seed)

    wall = sum(p.wall_s for p in traced)
    busy = sum(sum(p.cell_ms.values()) for p in traced) / 1000.0
    worker_s = sum(workers.self_s.values())
    metrics = layer_metrics(workers)
    metrics.update(traced[0].sim)
    n_cells = sum(p.completed for p in traced)
    metrics["execute.s_per_cell"] = busy / max(1, n_cells)
    metrics["ledger.unattributed_frac"] = stats.share(
        stats.residual(JOBS * wall, {"worker layers": worker_s}), JOBS * wall)
    metrics["trace.overhead_frac"] = stats.share(
        stats.median([p.wall_s for p in traced]),
        stats.median([p.wall_s for p in plain]))
    for name, value in metrics.items():
        report.put(name, value, unit_of(name))
    report.show("pool.busy_frac", stats.share(busy, JOBS * wall), "frac",
                "sum of worker wall_s / (jobs x wall)")
    report.show("pool.respawns",
                sum(p.counters.get("respawns", 0) for p in traced), "count")
    report.show("pool.retries",
                sum(p.counters.get("retries", 0) for p in traced), "count")
    report.show("journal.append_s", journal_s, "s", "parent-side fsyncs")
    report.show("journal.appends", journal_calls, "count")
    return report
