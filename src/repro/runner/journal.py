"""Crash-safe run journals: append-only fsynced JSONL + atomic manifest.

A run directory holds two files:

``journal.jsonl``
    One JSON record per line, appended and fsynced as each cell finishes
    (``{"v": 1, "kind": "cell", "hash": …, "status": "ok"|"failed", …}``).
    A run killed at any instant leaves at worst one truncated final line,
    which the loader skips — every fully written record survives, and the
    next append starts a fresh line rather than extending the fragment.

``manifest.json``
    Plan-level metadata (plan hash, cell count, creating argv, status),
    rewritten atomically (tmp + ``os.replace``) so readers never observe
    a torn manifest.

``--resume`` keys on the cell **config hash** (see
:mod:`repro.runner.plan`): completed cells are skipped, failed or missing
cells re-run.  The service's result store (:mod:`repro.svc.store`) is
the same directory read by byte offset, so one run directory serves
both.  See ``docs/RUNNER.md`` for the full schema.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

JOURNAL_NAME = "journal.jsonl"
MANIFEST_NAME = "manifest.json"

#: Journal/manifest schema version.
SCHEMA_VERSION = 1


def sweep_stale_tmp(directory: str) -> int:
    """Remove orphaned ``.*.tmp`` files left by a crash mid-
    :func:`write_json_atomic` (killed between tmp-write and ``os.replace``).

    Callers invoke this when they *open* a run directory — never
    concurrently with a live writer, which is the same single-writer
    assumption the fixed tmp name already makes.  Returns the number of
    stale files removed.
    """
    removed = 0
    try:
        entries = os.listdir(directory)
    except OSError:
        return 0
    for name in entries:
        if not (name.startswith(".") and name.endswith(".tmp")):
            continue
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            continue
    return removed


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
    """One run directory: append-only cell records plus a manifest."""

    def __init__(
        self,
        directory: str,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.directory = directory
        self.journal_path = os.path.join(directory, JOURNAL_NAME)
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self._handle: Optional[IO[bytes]] = None
        #: Optional registry: each append observes its fsync latency into
        #: ``runner.journal_fsync_ms`` (a durability SLI — the fsync is
        #: the journal's whole crash-safety story, so a slow device shows
        #: up here first).
        self._metrics = metrics
        self._swept = False
        #: Orphaned ``.*.tmp`` files removed when this journal first wrote
        #: to its directory (a crash between tmp-write and rename).
        self.swept_tmp = 0
        #: Malformed lines skipped by the most recent :meth:`records` or
        #: :meth:`completed_offsets` read.  A torn *final* line is the
        #: expected crash shape; once a later append has started a fresh
        #: line after it, the fragment stays behind as a malformed
        #: mid-file line — both are skipped and counted here (runner
        #: metrics: ``runner.journal_skipped_lines``).
        self.skipped_lines = 0

    def _open_directory(self) -> None:
        """Create the run directory and sweep crash debris, once."""
        os.makedirs(self.directory, exist_ok=True)
        if not self._swept:
            self._swept = True
            self.swept_tmp = sweep_stale_tmp(self.directory)

    # -- manifest ---------------------------------------------------------

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        self._open_directory()
        manifest = dict(manifest)
        manifest.setdefault("v", SCHEMA_VERSION)
        write_json_atomic(self.manifest_path, manifest)

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.manifest_path) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    # -- journal ----------------------------------------------------------

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
            self._open_directory()
            self._handle = open(self.journal_path, "a+b")
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

    def records(self) -> List[Dict[str, Any]]:
        """Every fully written record, oldest first.

        Malformed lines are skipped, not fatal, wherever they appear: a
        crash mid-append leaves a torn *final* line, which stays behind
        as a malformed *mid-file* line once a later append has started a
        fresh line.  Each call recounts the skips into
        :attr:`skipped_lines`.
        """
        records: List[Dict[str, Any]] = []
        skipped = 0
        try:
            with open(self.journal_path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        skipped += 1  # torn tail, or garbage appended over
        except OSError:
            pass
        self.skipped_lines = skipped
        return records

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Latest successful record per config hash (resume skip-set)."""
        done: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            if record.get("kind") == "cell" and record.get("status") == "ok":
                done[record["hash"]] = record
        return done

    def completed_offsets(self) -> Dict[str, int]:
        """Byte offset of the latest successful record per config hash:
        :meth:`completed` as an index for :meth:`read_at`, built in one
        scan.  Skips are recounted into :attr:`skipped_lines`."""
        offsets: Dict[str, int] = {}
        skipped = 0
        offset = 0
        try:
            with open(self.journal_path, "rb") as handle:
                for line in handle:
                    start = offset
                    offset += len(line)
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        skipped += 1
                        continue
                    if (
                        isinstance(record, dict)
                        and record.get("kind") == "cell"
                        and record.get("status") == "ok"
                        and isinstance(record.get("hash"), str)
                    ):
                        offsets[record["hash"]] = start
        except OSError:
            pass
        self.skipped_lines = skipped
        return offsets

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
        """Failure records whose cells never subsequently succeeded."""
        done = self.completed()
        failures: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            if record.get("kind") != "cell":
                continue
            if record.get("status") == "failed" and record["hash"] not in done:
                failures[record["hash"]] = record
        return list(failures.values())

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def list_runs(root: str) -> List[Journal]:
    """Journals under ``root``, sorted by directory name."""
    journals: List[Journal] = []
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return []
    for name in entries:
        directory = os.path.join(root, name)
        if os.path.isfile(os.path.join(directory, MANIFEST_NAME)) or \
                os.path.isfile(os.path.join(directory, JOURNAL_NAME)):
            journals.append(Journal(directory))
    return journals
