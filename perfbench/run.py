#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer ledger.  The table on
stdout names every metric with its unit and sample count; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero when any output is wrong (a digest mismatch, a
failed cell or request).  ``perfbench/README.md`` defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import List, Optional

from common import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, Report

WORKLOADS = ("engine", "sweep", "svc-mixed")


def workload_module(name: str):
    if name == "engine":
        import wl_engine as module
    elif name == "sweep":
        import wl_sweep as module
    else:
        import wl_svc as module
    return module


def use_checkout_sources() -> bool:
    """Import ``repro`` from ``src/`` of the checkout we run in, and hand
    the same path to child processes.  False when there is none."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        src if not inherited else src + os.pathsep + inherited
    )
    return True


def print_report(report: Report, names: List[str]) -> None:
    mode = "traced" if report.traced else "untraced"
    print(f"workload {report.workload}  seed {report.seed} "
          f"(default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})  {mode}")
    for name, value, unit, note in report.rows:
        marker = " " if name in names else "·"
        print(f" {marker} {name:28s} {value:16.6g} {unit:8s} {note}")
    for message in report.errors:
        print(f"ERROR: {message}")
    print(f"correct={report.correct} attempted={report.attempted} "
          f"failed={report.failed}")


def terminate(signum: int, _frame: object) -> None:
    """SIGTERM unwinds like Ctrl-C, so ``finally`` blocks stop the server
    child and the pool workers before the benchmark exits."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-digests", action="store_true",
        help="rewrite perfbench/digests.json from execute_cell at the "
        "default seed (only after a change meant to alter results)",
    )
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print("perfbench: run from the root of a checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    if args.update_digests:
        import digest_table

        digest_table.write()
        return 0
    signal.signal(signal.SIGTERM, terminate)
    module = workload_module(args.workload)
    report = module.run(args.seed, args.seconds, bool(args.trace))
    names = list(PER_LAYER if args.trace else END_TO_END)
    missing = [name for name in names if name not in report.metrics]
    if missing:
        report.error(f"metrics not measured: {', '.join(missing)}")
    print_report(report, names)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name][0],
                   "unit": report.metrics[name][1]}
            for name in names if name in report.metrics
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
