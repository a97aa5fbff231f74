"""Simulation outputs: the paper's per-run measurement vector.

Every appendix table in the paper reports, per (trace, algorithm, disks):
fetches, driver time, stall time, elapsed time, average fetch time, and
average disk utilization.  :class:`SimulationResult` carries exactly those,
plus the compute-time component and enough detail for the figures.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Tuple


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    trace_name: str
    policy_name: str
    num_disks: int
    cache_blocks: int
    fetches: int
    compute_ms: float
    driver_ms: float
    stall_ms: float
    elapsed_ms: float
    average_fetch_ms: float
    disk_utilization: float
    per_disk_busy_ms: List[float] = field(default_factory=list)
    cache_hits: int = 0
    references: int = 0
    #: Disk time burnt on failed attempts plus retry backoff waits (fault
    #: injection only; zero on healthy runs).  Not part of the elapsed-time
    #: identity — it is disk-side time, visible through stalls.
    retry_ms: float = 0.0
    #: Reads rerouted to a mirror twin after their home spindle died.
    failover_reads: int = 0
    #: Discrete fault events injected (transient errors + dead-disk fails).
    faults_injected: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        #: Per-cause stall decomposition (``repro.obs`` stall attribution;
        #: see docs/OBSERVABILITY.md).  Filled only on observed runs, and
        #: deliberately *not* a dataclass field: ``dataclasses.asdict``
        #: serializations — including the golden-digest suite — are
        #: identical whether or not a run was observed.
        self.stall_breakdown: Dict[str, float] = {}

    @property
    def degraded(self) -> bool:
        """True when data became unreachable (partial-data run): some
        references could not be served from any disk."""
        return bool(self.extras.get("unreadable_references", 0))

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ms / 1000.0

    @property
    def stall_s(self) -> float:
        return self.stall_ms / 1000.0

    @property
    def driver_s(self) -> float:
        return self.driver_ms / 1000.0

    @property
    def compute_s(self) -> float:
        return self.compute_ms / 1000.0

    def check_accounting(self, tolerance_ms: float = 1e-6) -> None:
        """Elapsed time must equal compute + driver + stall exactly (a
        non-finite residual fails too: NaN compares false with any bound)."""
        residual = self.elapsed_ms - (
            self.compute_ms + self.driver_ms + self.stall_ms
        )
        if not math.isfinite(residual) or abs(residual) > tolerance_ms:
            raise AssertionError(
                f"accounting identity violated by {residual} ms "
                f"({self.trace_name}/{self.policy_name}/{self.num_disks})"
            )

    def field_dict(self) -> Dict[str, Any]:
        """``dataclasses.asdict(self)`` without its generic deep copy: the
        same keys in the same order, with the two containers copied (their
        items are numbers).  Digests and journal records are built from it."""
        record = {name: getattr(self, name) for name in _FIELD_NAMES}
        record["per_disk_busy_ms"] = list(self.per_disk_busy_ms)
        record["extras"] = dict(self.extras)
        return record

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary.

        The ``*_s`` fields are rounded for display; the exact ``*_ms``
        fields are included alongside them so downstream JSON consumers
        can rely on the ``compute + driver + stall == elapsed`` identity
        at full float precision (rounding to 4 decimals breaks it).
        """
        d: Dict[str, object] = {
            "trace": self.trace_name,
            "policy": self.policy_name,
            "disks": self.num_disks,
            "fetches": self.fetches,
            "driver_s": round(self.driver_s, 4),
            "stall_s": round(self.stall_s, 4),
            "elapsed_s": round(self.elapsed_s, 4),
            "compute_ms": self.compute_ms,
            "driver_ms": self.driver_ms,
            "stall_ms": self.stall_ms,
            "elapsed_ms": self.elapsed_ms,
            "avg_fetch_ms": round(self.average_fetch_ms, 3),
            "disk_util": round(self.disk_utilization, 3),
        }
        if self.stall_breakdown:
            d["stall_breakdown_ms"] = dict(self.stall_breakdown)
        if self.faults_injected or self.retry_ms or self.failover_reads:
            d["faults"] = self.faults_injected
            d["retry_ms"] = round(self.retry_ms, 3)
            d["failovers"] = self.failover_reads
        return d

    def __str__(self) -> str:
        text = (
            f"{self.trace_name}/{self.policy_name} disks={self.num_disks}: "
            f"elapsed={self.elapsed_s:.3f}s "
            f"(compute={self.compute_s:.3f} driver={self.driver_s:.3f} "
            f"stall={self.stall_s:.3f}) fetches={self.fetches} "
            f"avg_fetch={self.average_fetch_ms:.2f}ms "
            f"util={self.disk_utilization:.2f}"
        )
        if self.faults_injected or self.retry_ms or self.failover_reads:
            text += (
                f" faults={self.faults_injected} "
                f"retry={self.retry_ms / 1000.0:.3f}s "
                f"failovers={self.failover_reads}"
            )
            if self.degraded:
                text += " DEGRADED"
        return text


#: The dataclass fields of :class:`SimulationResult`, in declaration order.
_FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(SimulationResult))
