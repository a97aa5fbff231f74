"""Declarative sweep plans: cells and their stable configuration hashes.

A :class:`Cell` is the unit of work of every evaluation artifact in the
paper: one (trace, policy, disks, parameters) combination, carried as
plain data so it can be hashed, journaled, shipped to a worker process,
and re-identified across runs.  ``experiments.py`` and the benchmark
harnesses emit lists of cells (a *plan*) instead of looping ``run_one``
inline; ``repro.runner`` executes plans serially, in a supervised
process pool, or resumed from a crash — always producing bit-identical
results (see ``docs/RUNNER.md``).

The **config hash** is a SHA-256 over the canonical JSON encoding of the
cell's parameters.  It is deliberately independent of execution details
(jobs, attempt counts, wall-clock), so a journal keyed by config hash
lets ``--resume`` recognise completed cells across interrupted runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Cell kinds understood by the stock executor (tests may register more
#: via :data:`repro.runner.execute.CELL_KINDS`).
KIND_RUN = "run"
KIND_TUNED_REVERSE = "tuned-reverse"


def jsonable(value: Any) -> Any:
    """A JSON-encodable canonical form of ``value``.

    Dataclasses (e.g. :class:`repro.faults.FaultSchedule` inside
    ``config_overrides``) encode as tagged dicts, tuples as lists, dict
    keys sorted as strings.  Anything else falls back to ``repr`` — good
    enough for hashing, and loud enough to notice in a journal.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded = {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        encoded["__type__"] = type(value).__name__
        return encoded
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): jsonable(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class Cell:
    """One declarative unit of sweep work.

    ``kind`` selects the executor: ``"run"`` is a single simulation,
    ``"tuned-reverse"`` grid-searches reverse aggressive's (F, batch)
    parameters and keeps the best elapsed time (the paper's baseline
    tuning).  ``params`` carries kind-specific options (the tuned grids).
    Explicit ``policy_kwargs`` always win over the scale-adjusted
    defaults applied at execution time.
    """

    trace: str
    policy: str
    disks: int
    kind: str = KIND_RUN
    scale: float = 1.0
    discipline: str = "cscan"
    cpu_speedup: float = 1.0
    cache_blocks: Optional[int] = None  # None: the paper's per-trace choice
    disk_model: str = "hp97560"
    seed: Optional[int] = None
    #: Apply the scale-adjusted policy defaults (horizon/batch shrink with
    #: the trace — see ``scaled_policy_kwargs``).  ``False`` runs the
    #: policy's stock parameters regardless of scale; the golden-result
    #: cells use this to pin the unmodified-policy digests.
    scaled_defaults: bool = True
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    policy_kwargs: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_setting(cls, setting: Any, trace: str, policy: str, disks: int,
                     **extra: Any) -> "Cell":
        """Build a cell from anything shaped like an ``ExperimentSetting``
        (duck-typed to avoid a circular import with ``analysis``)."""
        return cls(
            trace=trace,
            policy=policy,
            disks=disks,
            scale=setting.scale,
            discipline=setting.discipline,
            cpu_speedup=setting.cpu_speedup,
            cache_blocks=setting.cache_blocks,
            disk_model=setting.disk_model,
            seed=setting.seed,
            **extra,
        )

    @property
    def cell_id(self) -> str:
        """Human-readable identifier (mirrors the golden-test naming)."""
        suffix = "" if self.kind == KIND_RUN else f"+{self.kind}"
        return f"{self.trace}/{self.policy}/d{self.disks}/{self.discipline}{suffix}"

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready encoding (the config-hash input)."""
        return {
            "kind": self.kind,
            "trace": self.trace,
            "policy": self.policy,
            "disks": self.disks,
            "scale": self.scale,
            "discipline": self.discipline,
            "cpu_speedup": self.cpu_speedup,
            "cache_blocks": self.cache_blocks,
            "disk_model": self.disk_model,
            "seed": self.seed,
            "scaled_defaults": self.scaled_defaults,
            "config_overrides": jsonable(dict(self.config_overrides)),
            "policy_kwargs": jsonable(dict(self.policy_kwargs)),
            "params": jsonable(dict(self.params)),
        }

    @property
    def config_hash(self) -> str:
        """Stable SHA-256 of the cell's parameters (journal key)."""
        serialized = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


def plan_hash(cells: Sequence[Cell]) -> str:
    """Order-sensitive SHA-256 over a whole plan (a run's start record
    and the default journal directory name)."""
    serialized = json.dumps([cell.to_dict() for cell in cells], sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


def sweep_cells(
    setting: Any,
    trace_name: str,
    policies: Sequence[str],
    disk_counts: Sequence[int],
    tuned_reverse: bool = False,
    tuned_fetch_times: Sequence[float] = (2, 4, 8, 16, 64),
    tuned_batch_sizes: Optional[Sequence[int]] = None,
) -> List[Cell]:
    """The standard figure sweep as a plan: policies × disk counts.

    Cell order matches the historical ``sweep_policies`` loop (disks
    outer, policies inner) so rendered tables keep their row order.
    """
    cells: List[Cell] = []
    for num_disks in disk_counts:
        for policy in policies:
            if policy == "reverse-aggressive" and tuned_reverse:
                cells.append(tuned_reverse_cell(
                    setting, trace_name, num_disks,
                    fetch_times=tuned_fetch_times,
                    batch_sizes=tuned_batch_sizes,
                ))
            else:
                cells.append(Cell.from_setting(
                    setting, trace_name, policy, num_disks))
    return cells


def baseline_cells(
    setting: Any,
    trace_name: str,
    disk_counts: Sequence[int],
    policies: Sequence[str],
    tuned_reverse: bool = True,
) -> List[Cell]:
    """An Appendix-A-style table as a plan (policies outer, disks inner)."""
    cells: List[Cell] = []
    for policy in policies:
        for num_disks in disk_counts:
            if policy == "reverse-aggressive" and tuned_reverse:
                cells.append(tuned_reverse_cell(setting, trace_name, num_disks))
            else:
                cells.append(Cell.from_setting(
                    setting, trace_name, policy, num_disks))
    return cells


def tuned_reverse_cell(
    setting: Any,
    trace_name: str,
    num_disks: int,
    fetch_times: Sequence[float] = (2, 4, 8, 16, 64),
    batch_sizes: Optional[Sequence[int]] = None,
) -> Cell:
    """Reverse aggressive with the per-configuration (F, batch) grid search
    the paper's baseline uses ("chosen to minimize its elapsed time")."""
    if not tuple(fetch_times):
        raise ValueError(
            "tuned reverse-aggressive: fetch_times grid is empty — pass at "
            "least one fetch-time estimate (e.g. APPENDIX_F_FETCH_TIMES)"
        )
    if batch_sizes is not None and not tuple(batch_sizes):
        raise ValueError(
            "tuned reverse-aggressive: batch_sizes grid is empty — pass at "
            "least one reverse batch size or None for the per-disk default"
        )
    return Cell.from_setting(
        setting, trace_name, "reverse-aggressive", num_disks,
        kind=KIND_TUNED_REVERSE,
        params={
            "fetch_times": tuple(fetch_times),
            "batch_sizes": None if batch_sizes is None else tuple(batch_sizes),
        },
    )
