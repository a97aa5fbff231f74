#!/usr/bin/env python
"""Performance-regression harness: time representative simulator cells.

Unlike the figure/table benchmarks (which reproduce the paper's *results*),
this harness measures the *simulator itself*: wall-clock per cell
(``Simulator.run()``, and construction separately as ``construct_s``),
simulator events dispatched per second, references replayed per second,
and peak RSS.
It emits ``BENCH_perf.json`` so future PRs have a performance trajectory to
compare against, and can gate on a committed baseline::

    PYTHONPATH=src python benchmarks/bench_perf.py                # full set
    PYTHONPATH=src python benchmarks/bench_perf.py --quick \\
        --baseline benchmarks/BENCH_perf_baseline.json --max-regression 2.0

Cells cover every scheduling discipline and the policies with distinct
hot paths (demand bursts for the FCFS queue, deep aggressive batches for
the missing-block scan, forestall's per-disk trigger walks, reverse
aggressive's reverse simulation, which runs when the simulator is built
and so is gated through ``construct_s``).  Wall-clock comparisons across
different machines are only indicative; the regression gate uses a
generous factor to catch complexity blowups (the O(n^2) class of bug),
not micro-noise.

See ``docs/PERFORMANCE.md`` for how to read the output.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

from repro.core import SimConfig, Simulator, make_policy
from repro.runner import write_json_atomic
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for

#: The full trajectory set: (trace, policy, disks, discipline).
DEFAULT_CELLS = [
    ("ld", "demand", 1, "fcfs"),
    ("ld", "forestall", 4, "cscan"),
    # One disk: its trigger fires in nearly every survey.
    ("cscope2", "forestall", 1, "cscan"),
    ("cscope2", "aggressive", 4, "cscan"),
    ("cscope2", "fixed-horizon", 2, "cscan"),
    ("glimpse", "forestall", 4, "cscan"),
    ("synth", "aggressive", 2, "sstf"),
    ("postgres-select", "reverse-aggressive", 4, "cscan"),
    # XL tier: 10^5–10^6 refs even at fractional scale; exercises the
    # batched array-backed core where dict-of-lists scans used to dominate.
    ("synth-xl", "aggressive", 4, "cscan"),
    ("synth-xl", "forestall", 4, "cscan"),
]

#: Reduced set for the CI perf-smoke job.  A fifth field gives a cell its
#: own trace scale instead of the run's.
QUICK_CELLS = [
    ("ld", "demand", 1, "fcfs"),
    ("ld", "forestall", 4, "cscan"),
    ("cscope2", "forestall", 1, "cscan"),
    ("cscope2", "aggressive", 4, "cscan"),
    ("synth", "aggressive", 2, "sstf"),
    ("synth-xl", "aggressive", 4, "cscan"),
    # Its planner replays the reversed trace through the theory model
    # while the simulator is built: construct_s gates it.
    ("cscope2", "reverse-aggressive", 4, "cscan"),
    # Full scale: forestall's per-disk missing lists hold hundreds of
    # entries only here, and its survey's cost grows with them.
    ("cscope2", "forestall", 4, "cscan", 1.0),
]


def cell_id(trace, policy, disks, discipline, scale=None) -> str:
    """A cell's row id; a cell with its own scale names it."""
    base = f"{trace}/{policy}/d{disks}/{discipline}"
    return base if scale is None else f"{base}@scale={scale}"


def parse_cell(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise SystemExit(
            f"--cell {spec!r}: expected TRACE:POLICY:DISKS:DISCIPLINE"
        )
    trace, policy, disks, discipline = parts
    return trace, policy, int(disks), discipline


def peak_rss_kb() -> int:
    """Process peak RSS so far, in KB (ru_maxrss is KB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        rss //= 1024
    return int(rss)


def time_cell(trace, policy_name, disks, discipline, scale, repeat,
              profile=False, own_scale=False):
    """Best-of-``repeat`` wall times for one cell (its ``run()`` and,
    separately, its construction); returns the record dict.  With
    ``own_scale`` the cell's id names ``scale``."""
    config = SimConfig(
        cache_blocks=cache_blocks_for(trace.name, scale),
        discipline=discipline,
    )
    best_wall = None
    best_construct = None
    sim = None
    result = None
    profiler = None
    for _ in range(repeat):
        run_profiler = None
        if profile:
            from repro.perf import PhaseProfiler

            run_profiler = PhaseProfiler()
        start = time.perf_counter()
        candidate = Simulator(trace, make_policy(policy_name), disks, config)
        construct = time.perf_counter() - start
        if best_construct is None or construct < best_construct:
            best_construct = construct
        start = time.perf_counter()
        with run_profiler if run_profiler is not None else nullcontext():
            run_result = candidate.run()
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall, sim, result, profiler = wall, candidate, run_result, run_profiler
    record = {
        "id": cell_id(trace.name, policy_name, disks, discipline,
                      scale if own_scale else None),
        "trace": trace.name,
        "policy": policy_name,
        "disks": disks,
        "discipline": discipline,
        "references": result.references,
        "fetches": result.fetches,
        "events": sim.events_dispatched,
        "wall_s": round(best_wall, 6),
        "construct_s": round(best_construct, 6),
        "events_per_s": round(sim.events_dispatched / best_wall, 1),
        "refs_per_s": round(result.references / best_wall, 1),
        "simulated_elapsed_ms": round(result.elapsed_ms, 3),
        "peak_rss_kb": peak_rss_kb(),
    }
    if profiler is not None:
        record["phases"] = profiler.to_dict()
    return record


def check_baseline(records, baseline_path, max_regression):
    """Compare wall times, and construction times where the baseline row
    carries them, against a committed baseline; list regressions."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    base_by_id = {cell["id"]: cell for cell in baseline.get("cells", [])}
    regressions = []
    for record in records:
        base = base_by_id.get(record["id"])
        if base is None:
            continue
        for key, label, suffix in (("wall_s", "", ""),
                                   ("construct_s", " construction", "_construct")):
            if base.get(key, 0) <= 0 or key not in record:
                continue
            ratio = record[key] / base[key]
            record[f"baseline_{key}"] = base[key]
            record[f"vs_baseline{suffix}"] = round(ratio, 3)
            if ratio > max_regression:
                regressions.append((record["id"] + label, ratio))
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced cell set at --scale 0.1, one cell at "
                        "its own scale (CI smoke)")
    parser.add_argument("--scale", type=float, default=None,
                        help="trace scale (default: REPRO_SCALE or 0.25; "
                        "0.1 under --quick)")
    parser.add_argument("--repeat", type=int, default=2,
                        help="runs per cell; best wall time is kept")
    parser.add_argument("--cell", action="append", default=[],
                        metavar="TRACE:POLICY:DISKS:DISCIPLINE",
                        help="time this cell instead of the built-in set; "
                        "repeatable")
    parser.add_argument("--output", "-o", default="BENCH_perf.json")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_perf.json to gate against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail if any cell's wall time, or its "
                        "construction time where the baseline has one, "
                        "exceeds baseline x this factor (default 2.0)")
    parser.add_argument("--profile", action="store_true",
                        help="attach the phase profiler and record the "
                        "per-phase breakdown in each cell")
    args = parser.parse_args(argv)

    if args.scale is not None:
        scale = args.scale
    elif args.quick:
        scale = 0.1
    else:
        scale = float(os.environ.get("REPRO_SCALE", "0.25"))
    if args.cell:
        cells = [parse_cell(spec) for spec in args.cell]
    else:
        cells = QUICK_CELLS if args.quick else DEFAULT_CELLS

    traces = {}
    records = []
    for trace_name, policy, disks, discipline, *own in cells:
        cell_scale = own[0] if own else scale
        trace = traces.get((trace_name, cell_scale))
        if trace is None:
            trace = traces[trace_name, cell_scale] = build_workload(
                trace_name, scale=cell_scale
            )
        record = time_cell(
            trace, policy, disks, discipline, cell_scale, args.repeat,
            profile=args.profile, own_scale=bool(own),
        )
        print(
            f"{record['id']:44s} {record['wall_s']*1000:9.1f} ms  "
            f"(built in {record['construct_s']*1000:7.1f} ms)  "
            f"{record['events_per_s']:>11,.0f} ev/s  "
            f"{record['refs_per_s']:>10,.0f} refs/s"
        )
        records.append(record)

    regressions = []
    if args.baseline:
        regressions = check_baseline(records, args.baseline, args.max_regression)

    payload = {
        "schema": 1,
        "scale": scale,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": records,
    }
    # Atomic (tmp + rename): a run killed mid-write can't leave a truncated
    # baseline that poisons later --baseline gating.
    write_json_atomic(args.output, payload)
    print(f"wrote {len(records)} cells to {args.output}")

    if regressions:
        for cell, ratio in regressions:
            print(
                f"PERF REGRESSION: {cell} is {ratio:.2f}x the baseline "
                f"(limit {args.max_regression:.2f}x)",
                file=sys.stderr,
            )
        return 1
    if args.baseline:
        print(f"all cells within {args.max_regression:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
