#!/usr/bin/env python
"""CI smoke check for the supervised runner (docs/RUNNER.md).

Starts the 14 golden cells (tests/test_golden_results.py) on a two-worker
supervised pool in a subprocess, SIGTERMs it once a few cells have landed
in the journal, resumes the interrupted run, and asserts that the union
of result digests is exactly the pinned golden set — i.e. interrupting
and resuming a parallel sweep is bit-identical to an uninterrupted
serial run.

Through the ``repro-sim runs`` reader it checks the run records: the
interrupted run reads ``interrupted`` (``complete`` if it finished
before the signal) and the resumed one ``complete``, and after each the
run directory holds ``journal.jsonl`` and nothing else.

It then serves the run directory with an in-process
``SimulationService`` (one worker) over the same golden plan: a run
directory is a result store (docs/SERVICE.md), so every cell must come
back ``served == "store"`` with its pinned digest and no cell may be
dispatched to the pool.

Usage::

    PYTHONPATH=src python scripts/runner_smoke.py --journal runs/ci-smoke

Exit status: 0 on bit-identity, 1 on any mismatch or unexpected child
exit.  The journal directory is left in place for artifact upload.
"""

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (REPO, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.runner import Journal, run_plan, run_summary  # noqa: E402
from repro.runner.runner import EXIT_INTERRUPTED, EXIT_OK  # noqa: E402
from repro.svc import ServiceConfig, SimulationService  # noqa: E402
from tests.test_golden_results import CELLS, EXPECTED, cell_id  # noqa: E402
from tests.test_runner import golden_plan  # noqa: E402


def child(journal_dir: str, jobs: int) -> int:
    report = run_plan(golden_plan(), journal_dir=journal_dir, jobs=jobs)
    return report.exit_code


def one_file_run(journal_dir: str, expected: tuple) -> bool:
    """The run records read one of ``expected`` and the run directory
    holds the journal alone."""
    status = run_summary(Journal(journal_dir))["status"]
    files = sorted(os.listdir(journal_dir))
    print(f"smoke: runs reads {status!r}; run directory holds {files}")
    return status in expected and files == ["journal.jsonl"]


def serve_run_directory(journal_dir: str):
    """Serve the golden plan from the run directory: ``(record, served)``
    per cell and the pool's dispatch count."""

    async def main():
        service = SimulationService(
            ServiceConfig(store_dir=journal_dir, jobs=1)
        )
        await service.start()
        try:
            results = await service.run_cells(golden_plan())
            return results, service.pool.counters["dispatched"]
        finally:
            await service.drain("signal")

    return asyncio.run(main())


def parent(journal_dir: str, jobs: int) -> int:
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child",
         "--journal", journal_dir, "--jobs", str(jobs)],
        cwd=REPO,
    )
    journal = Journal(journal_dir)
    deadline = time.monotonic() + 300.0
    while time.monotonic() < deadline and proc.poll() is None:
        if len(journal.completed()) >= 2:
            break
        time.sleep(0.1)
    print(f"smoke: SIGTERM after {len(journal.completed())} journaled cells")
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=300.0)

    interrupted = len(journal.completed())
    if proc.returncode == EXIT_INTERRUPTED:
        print(f"smoke: child drained and exited {EXIT_INTERRUPTED} "
              f"with {interrupted}/{len(CELLS)} cells journaled")
    elif proc.returncode == EXIT_OK and interrupted == len(CELLS):
        print("smoke: child finished before the signal (fast machine); "
              "resume will be a pure skip")
    else:
        print(f"smoke: FAIL — child exited {proc.returncode} "
              f"with {interrupted} cells journaled")
        return 1
    if not one_file_run(journal_dir, ("interrupted", "complete")):
        print("smoke: FAIL — the interrupted run's records or directory")
        return 1

    report = run_plan(
        golden_plan(), journal_dir=journal_dir, jobs=jobs, resume=True,
        install_signal_handlers=False,
    )
    print(f"smoke: resume skipped {report.skipped}, "
          f"ran {report.completed - report.skipped}, "
          f"exit {report.exit_code}")
    if report.exit_code != EXIT_OK:
        print("smoke: FAIL — resumed run did not complete cleanly")
        return 1
    if not one_file_run(journal_dir, ("complete",)):
        print("smoke: FAIL — the resumed run's records or directory")
        return 1

    failures = 0
    for golden_cell, cell in zip(CELLS, golden_plan()):
        key = cell_id(golden_cell)
        got = report.digests.get(cell.config_hash)
        if got != EXPECTED[key]:
            failures += 1
            print(f"smoke: MISMATCH {key}: {got} != {EXPECTED[key]}")
    if failures:
        print(f"smoke: FAIL — {failures}/{len(CELLS)} digests diverged")
        return 1
    print(f"smoke: all {len(CELLS)} interrupted+resumed digests "
          "bit-identical to the pinned serial golden values")

    results, dispatched = serve_run_directory(journal_dir)
    served = [how for _, how in results]
    print(f"smoke: service over the run directory served "
          f"{served.count('store')}/{len(CELLS)} from the store, "
          f"dispatched {dispatched}")
    if served != ["store"] * len(CELLS) or dispatched != 0:
        print("smoke: FAIL — the run directory did not serve as a store")
        return 1
    for golden_cell, (record, _) in zip(CELLS, results):
        key = cell_id(golden_cell)
        if record["digest"] != EXPECTED[key]:
            failures += 1
            print(f"smoke: MISMATCH served {key}: {record['digest']}")
    if failures:
        print(f"smoke: FAIL — {failures}/{len(CELLS)} served digests "
              "diverged")
        return 1
    print(f"smoke: OK — the run directory served all {len(CELLS)} golden "
          "digests from the store with no simulation work")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--journal", default="runs/ci-smoke")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.journal, args.jobs)
    return parent(args.journal, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
