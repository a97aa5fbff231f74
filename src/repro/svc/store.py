"""The service's result store: a run journal read by config hash.

The store maps a cell's **config hash** to its completed journal record
(result, digest, wall time).  It is deliberately shaped like the caches
this repository simulates: requests *hit* or *miss*, and the hit ratio
is a first-class reported metric — the paper's own subject matter,
dogfooded (see ``docs/SERVICE.md``).

A store directory is a run directory (``docs/RUNNER.md``): the results
are the records of ``<root>/journal.jsonl``, appended and fsynced by
:class:`repro.runner.Journal`.  The store adds an in-memory index from
each config hash to the byte offset of its latest successful record,
rebuilt by one scan on open.  So a sweep's run directory can be served,
and a service store resumed by ``run_plan(..., resume=True)``.

Durability is the journal's: ``put`` is one append that returns only
after its line is fsynced, and a crash leaves at worst one torn final
line, which the journal never appends onto.  ``get`` reads and checks
the one indexed line; a line that fails the check (torn or overwritten
from outside: the chaos harness, a bad disk) is a *corrupt* miss that
leaves the index, and the recompute appends a fresh record.

Crash points (:func:`repro.svc.chaos.crash_point`) bracket the append:
``store.put.pre-log`` → ``store.put.post-log``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

from repro.runner.journal import Journal
from repro.svc.chaos import crash_point


class ResultStore:
    """Completed cell records by config hash, over one run journal.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`; the
    store mirrors its counters there under ``svc.store.*``, and the
    journal observes each append's fsync into ``runner.journal_fsync_ms``.
    Single writer: one process appends to a store directory at a time.
    """

    def __init__(
        self, root: str, metrics: Optional["MetricsRegistry"] = None
    ) -> None:
        self.root = root
        self.metrics = metrics
        self.journal = Journal(root, metrics=metrics)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.put_dedup = 0
        self.corrupt = 0
        #: Config hash -> byte offset of its latest ``status == "ok"``
        #: record in the journal.
        self._offsets: Dict[str, int] = self.journal.completed_offsets()

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _read(self, config_hash: str) -> Optional[Dict[str, Any]]:
        """The indexed record for ``config_hash`` if it checks out; a
        line that does not is dropped from the index as corrupt."""
        offset = self._offsets.get(config_hash)
        if offset is None:
            return None
        record = self.journal.read_at(offset)
        if (
            record is not None
            and record.get("hash") == config_hash
            and record.get("status") == "ok"
            and isinstance(record.get("digest"), str)
        ):
            return record
        del self._offsets[config_hash]
        self.corrupt += 1
        self._inc("svc.store.corrupt")
        return None

    # -- the cache surface -------------------------------------------------

    def get(self, config_hash: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``config_hash``, or None on a miss."""
        record = self._read(config_hash)
        if record is None:
            self.misses += 1
            self._inc("svc.store.misses")
            return None
        self.hits += 1
        self._inc("svc.store.hits")
        return record

    def put(self, config_hash: str, record: Dict[str, Any]) -> bool:
        """Append a completed record, fsynced before returning; False
        when a record with the same digest is already stored (an
        idempotent re-put records nothing new)."""
        if record.get("status") != "ok" or not isinstance(
            record.get("digest"), str
        ):
            raise ValueError(
                "only successful records with a digest are storable; got "
                f"status={record.get('status')!r}"
            )
        if record.get("hash") != config_hash:
            raise ValueError(
                f"record hash {record.get('hash')!r} != {config_hash!r}"
            )
        stored = self._read(config_hash)
        if stored is not None and stored["digest"] == record["digest"]:
            self.put_dedup += 1
            self._inc("svc.store.put_dedup")
            return False
        crash_point("store.put.pre-log")
        offset = self.journal.append(record)
        crash_point("store.put.post-log")
        self._offsets[config_hash] = offset
        self.writes += 1
        self._inc("svc.store.writes")
        return True

    # -- reporting ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._offsets)

    def __contains__(self, config_hash: str) -> bool:
        return config_hash in self._offsets

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups — the store reporting on itself exactly the
        way the paper reports buffer-cache performance."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "resident": len(self._offsets),
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 6),
            "writes": self.writes,
            "put_dedup": self.put_dedup,
            "corrupt": self.corrupt,
            "skipped_log_lines": self.journal.skipped_lines,
        }
