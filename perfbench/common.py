"""What every workload shares: the report it hands back, the scratch
directory inside the checkout, the digest table and memory accounting."""

from __future__ import annotations

import json
import os
import resource
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: The seed the digest table was made at, and the held-out seed a claim
#: must also pass on (never used while tuning the benchmark).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Everything a run writes lives under here, in the checkout.
SCRATCH = ".bench_tmp"

#: The metrics of the final JSON line, as BENCHMARK.json lists them.
END_TO_END = (
    "setup_s", "refs_per_s", "cells_per_s", "cold_p50_ms", "cold_p90_ms",
    "cached_p50_ms", "peak_rss_mb",
)
#: Per-layer metrics measured on every workload (workload-specific layers
#: are printed in the table, not in the JSON line).
PER_LAYER = (
    "trace.build_s", "engine.construct_s", "engine.loop_self_s",
    "engine.events", "engine.us_per_event", "policy.self_s", "policy.calls",
    "disk.self_s", "disk.requests", "cache.self_s", "cache.calls",
    "nextref.self_s", "nextref.calls", "prefetch.useful_frac",
    "execute.s_per_cell", "sim.elapsed_ms", "sim.stall_ms", "sim.fetches",
    "disk.utilization", "ledger.unattributed_frac", "trace.overhead_frac",
)


def unit_of(name: str) -> str:
    """Units of the per-layer metrics, by naming convention.  Simulated
    milliseconds get their own unit: they are outputs, not host time."""
    if name.startswith("sim.") and name.endswith("_ms"):
        return "sim_ms"
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "trace.overhead_frac":
        return "ratio"
    if name.endswith("_frac") or name == "disk.utilization":
        return "frac"
    if name.startswith("engine.us_"):
        return "us"
    return "count"


@dataclass
class Report:
    """One workload run: correctness, counts, metrics and the table the
    runner prints for people."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Printed only: (name, value, unit, note), e.g. sample counts.
    rows: List[Tuple[str, float, str, str]] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.rows.append((name, float(value), unit, note))

    def show(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.rows.append((name, float(value), unit, note))

    def error(self, message: str) -> None:
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def scratch_dir(*parts: str) -> str:
    """A fresh, empty directory under :data:`SCRATCH`."""
    path = os.path.join(SCRATCH, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest peak among the
    descendants it has reaped (Linux reports both in KiB); descendants'
    own reaped children fold into theirs."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_digests() -> Dict[str, Dict[str, str]]:
    """``{workload: {config_hash: digest}}`` at :data:`DEFAULT_SEED`."""
    with open(DIGESTS_PATH) as handle:
        table: Dict[str, Dict[str, str]] = json.load(handle)
    return table


def check_digests(report: Report, table: Optional[Dict[str, str]],
                  got: Dict[str, str], label: str) -> None:
    """Every digest in ``got`` equals the table's, and none is missing."""
    if table is None:
        return
    if set(table) != set(got):
        report.error(f"{label}: {len(set(table) ^ set(got))} cells differ "
                     "from the digest table's plan")
    for config_hash, digest in sorted(got.items()):
        expected = table.get(config_hash)
        if expected is not None and expected != digest:
            report.error(f"{label}: digest mismatch for {config_hash[:12]}")
