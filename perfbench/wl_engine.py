"""Workload ``engine``: serial, in-process ``Simulator.run()`` over a fixed
plan, the path behind every cell ``execute_cell`` runs.

Each pass builds its traces and simulators (set-up), runs every cell
(timed), then replays every finished result from its serialized record
the way a resumed sweep hands results back (the *cached* path of this
workload).  Passes repeat until the time budget is spent.

Timed metrics use each cell's (and each record's) fastest pass.  The
host this was tuned on switches between a fast state and one about 1.75x
slower every few seconds; a median over passes then measures how long a
run spent in each state, while the fastest of several passes measures
the code.  ``setup_s`` stays a median over passes.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import TYPE_CHECKING, Any, Dict, List

from common import (Report, check_digests, load_digests, peak_rss_mb,
                    unit_of)
from ledger import Ledger, Patcher
from layers import install_engine_layers, layer_metrics
import stats

if TYPE_CHECKING:
    from repro.core import Simulator, SimulationResult
    from repro.runner import Cell

SCALE = 0.15
#: ROADMAP item 4's slow cell, shrunk to about half a second.
XL_SCALE = 0.003
POLICIES = ("demand", "fixed-horizon", "aggressive", "reverse-aggressive",
            "forestall")
#: Two processes sharing two disks (ROADMAP item 1 will change its digest,
#: so only termination and the accounting identity are checked).
MULTI = (("cscope1", "forestall"), ("postgres-select", "forestall"))
MULTI_DISKS = 2
#: Replays of each finished record per pass (>= 1000 samples per pass).
REPLAYS = 50


def plan() -> List[Cell]:
    from repro.faults import FaultSchedule
    from repro.runner import Cell

    cells = [
        Cell(trace=trace, policy=policy, disks=disks, scale=SCALE)
        for trace in ("cscope2", "glimpse")
        for policy in POLICIES
        for disks in (1, 4)
    ]
    cells.append(Cell(trace="synth-xl", policy="aggressive", disks=4,
                      scale=XL_SCALE))
    cells.append(Cell(
        trace="cscope2", policy="forestall", disks=2, scale=SCALE,
        config_overrides={"faults": FaultSchedule(seed=7,
                                                  read_error_rate=0.02)},
    ))
    return cells


def simulator_for(cell: Cell, traces: Dict[Any, Any]) -> Simulator:
    """The simulator ``execute_cell`` would build for ``cell`` (without
    its name check, which does not know the XL trace tier)."""
    from repro.core import Simulator, make_policy
    from repro.runner import get_trace, scaled_policy_kwargs
    from repro.runner.execute import sim_config_for

    trace = get_trace(cell.trace, cell.scale, cell.seed, cache=traces)
    kwargs = (scaled_policy_kwargs(cell.policy, cell.disks, cell.scale)
              if cell.scaled_defaults else {})
    kwargs.update(cell.policy_kwargs)
    return Simulator(trace, make_policy(cell.policy, **kwargs), cell.disks,
                     sim_config_for(cell))


class Pass:
    """Timings and outcomes of one pass over the plan."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0
        self.refs = 0
        self.cells = 0
        #: Per cell, in plan order: construction + run, and run alone.
        self.cell_s: List[float] = []
        self.cell_run_s: List[float] = []
        self.cell_refs: List[int] = []
        self.digests: Dict[str, str] = {}
        self.records: List[str] = []
        self.results: List[SimulationResult] = []

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def run_pass(cells: List[Cell], report: Report) -> Pass:
    from repro.core import MultiProcessSimulator, SimConfig, make_policy
    from repro.runner import get_trace, result_digest
    from repro.trace import cache_blocks_for

    clock = time.perf_counter
    out = Pass()
    traces: Dict[Any, Any] = {}
    for cell in cells:
        report.attempted += 1
        try:
            t0 = clock()
            get_trace(cell.trace, cell.scale, cell.seed, cache=traces)
            t1 = clock()
            sim = simulator_for(cell, traces)
            t2 = clock()
            result = sim.run()
            t3 = clock()
        except Exception as exc:  # a failed cell fails the run, visibly
            report.failed += 1
            report.error(f"{cell.cell_id}: {type(exc).__name__}: {exc}")
            continue
        out.setup_s += t2 - t0
        out.run_s += t3 - t2
        out.refs += result.references
        out.cells += 1
        out.cell_s.append(t3 - t1)
        out.cell_run_s.append(t3 - t2)
        out.cell_refs.append(result.references)
        digest = result_digest(result)
        out.digests[cell.config_hash] = digest
        out.results.append(result)
        out.records.append(json.dumps(
            {"digest": digest, "result": dataclasses.asdict(result)}
        ))

    report.attempted += 1
    t0 = clock()
    workloads = []
    for name, policy in MULTI:
        workloads.append((get_trace(name, SCALE, None, cache=traces),
                          make_policy(policy)))
    t1 = clock()
    config = SimConfig(cache_blocks=sum(
        cache_blocks_for(name, SCALE) for name, _ in MULTI
    ))
    try:
        multi = MultiProcessSimulator(workloads, MULTI_DISKS, config)
        t2 = clock()
        outcome = multi.run()
        t3 = clock()
        for result in outcome:
            result.check_accounting(
                tolerance_ms=1e-6 * max(1.0, result.elapsed_ms))
    except Exception as exc:
        report.failed += 1
        report.error(f"multi-process cell: {type(exc).__name__}: {exc}")
        return out
    out.setup_s += t2 - t0
    out.run_s += t3 - t2
    out.refs += sum(result.references for result in outcome)
    out.cells += 1
    out.cell_s.append(t3 - t1)
    out.cell_run_s.append(t3 - t2)
    out.cell_refs.append(sum(result.references for result in outcome))
    out.results.extend(outcome)
    return out


def replay(records: List[str], report: Report) -> List[float]:
    """Rebuild each result from its record and re-check its digest,
    :data:`REPLAYS` times; returns each record's fastest milliseconds."""
    from repro.core import SimulationResult
    from repro.runner import result_digest

    clock = time.perf_counter
    fastest: List[float] = []
    for line in records:
        best = float("inf")
        for _ in range(REPLAYS):
            t0 = clock()
            record = json.loads(line)
            ok = result_digest(SimulationResult(**record["result"])) \
                == record["digest"]
            best = min(best, (clock() - t0) * 1000.0)
            if not ok:
                report.error("replayed record does not reproduce its digest")
        fastest.append(best)
    return fastest


def check(report: Report, passes: List[Pass], seed_table: bool) -> None:
    first = passes[0].digests
    for other in passes[1:]:
        if other.digests != first:
            report.error("engine digests differ between passes")
    table = load_digests().get("engine") if seed_table else None
    check_digests(report, table, first, "engine")


def sim_checks(results: List[SimulationResult]) -> Dict[str, float]:
    """Simulated outcomes; a host-only change leaves them exactly equal."""
    single = [r for r in results if r.per_disk_busy_ms]
    return {
        "sim.elapsed_ms": sum(r.elapsed_ms for r in results),
        "sim.stall_ms": sum(r.stall_ms for r in results),
        "sim.fetches": float(sum(r.fetches for r in results)),
        "disk.utilization": stats.mean([r.disk_utilization for r in single]),
    }


def fastest(columns: List[List[float]]) -> List[float]:
    """Element-wise minimum over passes."""
    return [min(values) for values in zip(*columns)]


def run(seed: int, seconds: float, traced: bool) -> Report:
    report = Report("engine", seed, traced)
    cells = plan()
    if traced:
        return run_traced(report, cells)
    passes: List[Pass] = []
    replays: List[List[float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        one = run_pass(cells, report)
        passes.append(one)
        replays.append(replay(one.records, report))
        if not report.correct:
            break
    check(report, passes, seed_table=True)
    if not report.correct:
        return report
    n_pass = len(passes)
    cell_s = fastest([p.cell_s for p in passes])
    run_s = fastest([p.cell_run_s for p in passes])
    refs = sum(passes[0].cell_refs)
    cached_ms = fastest(replays)
    report.put("setup_s", stats.median([p.setup_s for p in passes]), "s",
               f"median of {n_pass} passes: trace builds + construction")
    report.put("refs_per_s", refs / sum(run_s), "1/s",
               f"each cell's fastest run() of {n_pass} passes")
    report.put("cells_per_s", len(cell_s) / sum(cell_s), "1/s",
               "each cell's fastest construction + run")
    report.put("cold_p50_ms", stats.percentile(cell_s, 50) * 1000.0, "ms",
               f"over {len(cell_s)} cells' fastest construction + run")
    report.put("cold_p90_ms", stats.percentile(cell_s, 90) * 1000.0, "ms",
               f"n={len(cell_s)}")
    report.put("cached_p50_ms", stats.percentile(cached_ms, 50), "ms",
               f"over {len(cached_ms)} records' fastest of "
               f"{REPLAYS * n_pass} replays")
    report.show("cached_max_ms", max(cached_ms), "ms")
    report.show("refs_per_s_median_pass", stats.median(
        [p.refs / p.run_s for p in passes if p.run_s > 0]), "1/s",
        "host-state dependent")
    report.put("peak_rss_mb", peak_rss_mb(), "MB")
    report.show("failed_frac", stats.share(report.failed, report.attempted),
                "frac", f"attempted={report.attempted}")
    return report


def run_traced(report: Report, cells: List[Cell]) -> Report:
    plain = run_pass(cells, report)
    ledger = Ledger()
    with Patcher() as patcher:
        install_engine_layers(patcher, ledger)
        traced = run_pass(cells, report)
    if traced.digests != plain.digests:
        report.error("traced and untraced engine digests differ")
    check(report, [plain], seed_table=True)
    metrics = layer_metrics(ledger)
    metrics.update(sim_checks(traced.results))
    metrics["execute.s_per_cell"] = traced.wall_s / max(1, traced.cells)
    attributed = sum(ledger.self_s.values())
    metrics["ledger.unattributed_frac"] = stats.share(
        stats.residual(traced.wall_s, {"layers": attributed}), traced.wall_s)
    metrics["trace.overhead_frac"] = stats.share(traced.wall_s, plain.wall_s)
    for name, value in metrics.items():
        report.put(name, value, unit_of(name))
    report.show("engine.multi_loop_self_s",
                ledger.self_s.get("engine.multi_run", 0.0), "s",
                "MultiProcessSimulator.run outside every other layer")
    return report

