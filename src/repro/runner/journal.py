"""Crash-safe run journals: one append-only, fsynced JSONL file.

A run directory holds one file, ``journal.jsonl``: one JSON object per
line, appended and fsynced before the writer moves on.  A run killed at
any instant leaves at worst one truncated final line, which the reader
skips — every fully written record survives, and the next append starts
a fresh line rather than extending the fragment.  Two kinds of record
share the file:

``{"v": 1, "kind": "cell", "hash": …, "status": "ok"|"failed", …}``
    One terminal cell outcome, keyed by the cell's **config hash** (see
    :mod:`repro.runner.plan`).
``{"v": 1, "kind": "run", "event": "start"|"end", …}``
    :func:`~repro.runner.run_plan`'s bracket around one run: the plan
    and its creating argv at the start, the status and counters at the
    end.  ``repro-sim runs`` reads them (:mod:`repro.runner.report`).

``--resume`` skips the cells with a success record and re-runs failed or
missing ones.  The service's result store (:mod:`repro.svc.store`) is
the same file read by byte offset, so one run directory serves both.
See ``docs/RUNNER.md`` for the full schema.
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    IO, TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Set, Tuple,
)

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

JOURNAL_NAME = "journal.jsonl"

#: Journal record schema version.
SCHEMA_VERSION = 1


def write_json_atomic(path: str, payload: Any, indent: int = 2) -> None:
    """Write JSON durably: tmp file in the same directory, fsync, rename.

    A process killed mid-write can never leave a truncated file at
    ``path`` — it either has the old content or the new.  Benchmarks use
    this for ``BENCH_*.json`` baselines so a killed run cannot poison
    later ``--baseline`` gating.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp_path, "w") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(directory)


def _fsync_dir(directory: str) -> None:
    """Durably record a rename/append in the directory entry (best effort;
    some filesystems refuse O_RDONLY directory fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class Journal:
    """One run directory: append-only cell and run records."""

    def __init__(
        self,
        directory: str,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.directory = directory
        self.journal_path = os.path.join(directory, JOURNAL_NAME)
        self._handle: Optional[IO[bytes]] = None
        #: Optional registry: each append observes its fsync latency into
        #: ``runner.journal_fsync_ms`` (a durability SLI — the fsync is
        #: the journal's whole crash-safety story, so a slow device shows
        #: up here first).
        self._metrics = metrics
        #: Lines the most recent read skipped: lines that do not parse,
        #: and lines that parse to something other than an object.  A
        #: torn *final* line is the expected crash shape; once a later
        #: append has started a fresh line after it, the fragment stays
        #: behind as a malformed mid-file line — every reader skips and
        #: counts both alike (runner metrics:
        #: ``runner.journal_skipped_lines``).
        self.skipped_lines = 0

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record and fsync before returning: once ``append``
        returns, the record survives any crash.  Returns the byte offset
        at which the record's line starts (see :meth:`read_at`).

        A journal whose last byte is not a newline ends in a torn record
        (a crash mid-append, or a tear from outside); the new record
        starts on a fresh line after it.  Appending onto the fragment
        would glue the two into one malformed line, and the loader would
        skip the new record with it.
        """
        record = dict(record)
        record.setdefault("v", SCHEMA_VERSION)
        if self._handle is None:
            os.makedirs(self.directory, exist_ok=True)
            self._handle = open(self.journal_path, "a+b")
            _fsync_dir(self.directory)  # a new file's name is durable too
        handle = self._handle
        offset = handle.seek(0, os.SEEK_END)
        if offset and os.pread(handle.fileno(), 1, offset - 1) != b"\n":
            handle.write(b"\n")
            offset += 1
        handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")
        handle.flush()
        if self._metrics is None:
            os.fsync(handle.fileno())
        else:
            fsync_start = time.perf_counter()
            os.fsync(handle.fileno())
            from repro.obs.metrics import FSYNC_BUCKETS_MS

            self._metrics.histogram(
                "runner.journal_fsync_ms", FSYNC_BUCKETS_MS
            ).observe((time.perf_counter() - fsync_start) * 1000.0)
        return offset

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _scan(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Each object record with the byte offset its line starts at,
        oldest first; once exhausted, the lines it skipped are in
        :attr:`skipped_lines`.  Every reader is a view of this one pass,
        so they all skip, and count, the same lines."""
        skipped = 0
        offset = 0
        try:
            with open(self.journal_path, "rb") as handle:
                for line in handle:
                    start = offset
                    offset += len(line)
                    try:
                        record = json.loads(line.decode())
                    except ValueError:  # torn, garbage, or not UTF-8
                        if line.strip():
                            skipped += 1
                        continue
                    if isinstance(record, dict):
                        yield start, record
                    else:
                        skipped += 1
        except OSError:
            pass
        self.skipped_lines = skipped

    def _cells(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """The cell records of :meth:`_scan`: those with a string hash."""
        return (
            (offset, record) for offset, record in self._scan()
            if record.get("kind") == "cell"
            and isinstance(record.get("hash"), str)
        )

    def records(self) -> List[Dict[str, Any]]:
        """Every fully written record, oldest first."""
        return [record for _, record in self._scan()]

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Latest successful record per config hash (resume skip-set)."""
        return {
            record["hash"]: record for _, record in self._cells()
            if record.get("status") == "ok"
        }

    def completed_offsets(self) -> Dict[str, int]:
        """Byte offset of the latest successful record per config hash:
        :meth:`completed` as an index for :meth:`read_at`."""
        return {
            record["hash"]: offset for offset, record in self._cells()
            if record.get("status") == "ok"
        }

    def read_at(self, offset: int) -> Optional[Dict[str, Any]]:
        """The record whose line starts at byte ``offset``, or None when
        that line is missing or malformed (torn, or overwritten from
        outside since the offset was taken)."""
        try:
            with open(self.journal_path, "rb") as handle:
                handle.seek(offset)
                line = handle.readline()
            record = json.loads(line)
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def failures(self) -> List[Dict[str, Any]]:
        """Latest failure record per config hash, for cells that never
        succeeded (before or after the failure)."""
        done: Set[str] = set()
        failed: Dict[str, Dict[str, Any]] = {}
        for _, record in self._cells():
            status = record.get("status")
            if status == "ok":
                done.add(record["hash"])
            elif status == "failed":
                failed[record["hash"]] = record
        return [r for h, r in failed.items() if h not in done]

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def list_runs(root: str) -> List[Journal]:
    """Journals under ``root``, sorted by directory name."""
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return []
    return [
        Journal(os.path.join(root, name)) for name in entries
        if os.path.isfile(os.path.join(root, name, JOURNAL_NAME))
    ]
