"""Experiment drivers: the parameter sweeps behind each table and figure.

Every evaluation artifact in the paper reduces to a sweep over (trace,
policy, number of disks, parameters).  :class:`ExperimentSetting` carries
the shared context (scale, discipline, cache), and the functions here
build declarative **cell plans** (:class:`repro.runner.Cell`) and hand
them to :mod:`repro.runner` for execution, returning
:class:`~repro.core.results.SimulationResult` lists that the table
renderers and benchmark harnesses consume.  The same plans run
unchanged — and bit-identically — on the supervised parallel runner
(``repro-sim sweep --jobs``; see ``docs/RUNNER.md``).

``scale`` shrinks traces *and* the cache proportionally, preserving the
working-set/cache ratio that determines which regime (I/O-bound vs
compute-bound) a configuration falls into.
"""

import contextlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import SimConfig, Simulator, make_policy
from repro.core.results import SimulationResult
from repro.runner.execute import (
    execute_cell,
    execute_cells,
    get_trace,
    scaled_policy_kwargs,
    validate_names,
)
from repro.runner.plan import Cell, baseline_cells, sweep_cells, tuned_reverse_cell
from repro.trace import cache_blocks_for

__all__ = [
    "PAPER_DISK_COUNTS",
    "FIGURE_POLICY_ORDER",
    "ExperimentSetting",
    "baseline_rows",
    "compare_disciplines",
    "default_scale",
    "run_one",
    "scaled_policy_kwargs",
    "sweep_policies",
    "tuned_reverse_aggressive",
]

#: Disk-array sizes simulated by the paper.
PAPER_DISK_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16)

#: The algorithms in the order the paper's figures present them.
FIGURE_POLICY_ORDER = ("fixed-horizon", "aggressive", "reverse-aggressive")


def default_scale() -> float:
    """Benchmark trace scale: 1.0 under ``REPRO_FULL=1``, else ``REPRO_SCALE``
    (default 0.25) — small enough for quick regeneration, large enough to
    keep every qualitative result."""
    if os.environ.get("REPRO_FULL") == "1":
        return 1.0
    return float(os.environ.get("REPRO_SCALE", "0.25"))


@dataclass
class ExperimentSetting:
    """Shared context for one experiment's sweep."""

    scale: float = 1.0
    discipline: str = "cscan"
    cpu_speedup: float = 1.0
    cache_blocks: Optional[int] = None  # None: the paper's per-trace choice
    disk_model: str = "hp97560"
    seed: Optional[int] = None
    _trace_cache: Dict[object, object] = field(default_factory=dict, repr=False)

    def trace(self, name: str):
        return get_trace(name, self.scale, self.seed, cache=self._trace_cache)

    def cache_for(self, trace_name: str) -> int:
        if self.cache_blocks is not None:
            return self.cache_blocks
        return cache_blocks_for(trace_name, self.scale)

    def sim_config(self, trace_name: str, **overrides) -> SimConfig:
        return SimConfig(
            cache_blocks=self.cache_for(trace_name),
            discipline=self.discipline,
            cpu_speedup=self.cpu_speedup,
            disk_model=self.disk_model,
        ).with_(**overrides)

    def cell(self, trace_name: str, policy: str, num_disks: int,
             **extra) -> Cell:
        """The declarative form of one ``run_one`` call."""
        return Cell.from_setting(self, trace_name, policy, num_disks, **extra)


def run_one(
    setting: ExperimentSetting,
    trace_name: str,
    policy: str,
    num_disks: int,
    config_overrides: dict = None,
    profiler=None,
    observer=None,
    **policy_kwargs,
) -> SimulationResult:
    """One simulation under an experiment setting.

    Unknown trace or policy names fail immediately with a ``ValueError``
    listing the valid names (the runner's failure records quote this
    message, so it must be readable).  Policies receive scale-adjusted
    horizon/batch defaults (see :func:`scaled_policy_kwargs`); explicit
    keyword arguments win.  A :class:`~repro.perf.PhaseProfiler` passed
    as ``profiler`` samples a per-phase wall-clock breakdown of the run
    without changing the result; a :class:`~repro.obs.Observer` passed as
    ``observer`` records the event trace and stall attribution (also
    without changing the result).
    """
    validate_names(trace_name, policy)
    if not isinstance(policy, str):
        # Pre-built policy instances can't ride in a declarative cell;
        # run them directly on the same code path the executor uses.
        trace = setting.trace(trace_name)
        config = setting.sim_config(trace_name, **(config_overrides or {}))
        sim = Simulator(
            trace, make_policy(policy, **policy_kwargs), num_disks, config,
            observer=observer,
        )
        with profiler if profiler is not None else contextlib.nullcontext():
            return sim.run()
    cell = setting.cell(
        trace_name, policy, num_disks,
        config_overrides=dict(config_overrides or {}),
        policy_kwargs=dict(policy_kwargs),
    )
    outcome = execute_cell(
        cell, profiler=profiler, observer=observer,
        trace_cache=setting._trace_cache,
    )
    return outcome.result


def sweep_policies(
    setting: ExperimentSetting,
    trace_name: str,
    policies: Sequence[str],
    disk_counts: Sequence[int],
    tuned_reverse: bool = False,
) -> List[SimulationResult]:
    """The standard figure sweep: policies × disk counts on one trace.

    With ``tuned_reverse``, reverse aggressive's fetch-time estimate and
    reverse batch size are grid-searched per disk count, as the paper's
    baseline does ("chosen to minimize its elapsed time").
    """
    cells = sweep_cells(
        setting, trace_name, policies, disk_counts, tuned_reverse=tuned_reverse
    )
    outcomes = execute_cells(cells, trace_cache=setting._trace_cache)
    return [outcome.result for outcome in outcomes]


def tuned_reverse_aggressive(
    setting: ExperimentSetting,
    trace_name: str,
    num_disks: int,
    fetch_times: Sequence[float] = (2, 4, 8, 16, 64),
    batch_sizes: Sequence[int] = None,
) -> SimulationResult:
    """Reverse aggressive with the best (F, reverse batch) for this config.

    The paper uses "the single best estimate of F ... for each trace" and
    per-configuration batch sizes; this helper reproduces that tuning with
    a small grid (pass :data:`APPENDIX_F_FETCH_TIMES` /
    :data:`APPENDIX_F_BATCH_SIZES` for the full Appendix F grid).  An
    empty grid raises :class:`ValueError` naming the offending argument
    rather than failing later on a missing best result.
    """
    cell = tuned_reverse_cell(
        setting, trace_name, num_disks,
        fetch_times=fetch_times, batch_sizes=batch_sizes,
    )
    outcome = execute_cell(cell, trace_cache=setting._trace_cache)
    return outcome.result


def baseline_rows(
    setting: ExperimentSetting,
    trace_name: str,
    disk_counts: Sequence[int],
    policies: Sequence[str] = (
        "fixed-horizon",
        "aggressive",
        "reverse-aggressive",
        "forestall",
    ),
    tuned_reverse: bool = True,
) -> Dict[str, List[SimulationResult]]:
    """One Appendix-A-style table: per policy, one result per disk count."""
    cells = baseline_cells(
        setting, trace_name, disk_counts, policies, tuned_reverse=tuned_reverse
    )
    outcomes = execute_cells(cells, trace_cache=setting._trace_cache)
    table: Dict[str, List[SimulationResult]] = {}
    per_policy = len(disk_counts)
    for index, policy in enumerate(policies):
        row = outcomes[index * per_policy:(index + 1) * per_policy]
        table[policy] = [outcome.result for outcome in row]
    return table


def compare_disciplines(
    setting: ExperimentSetting,
    trace_name: str,
    policy: str,
    disk_counts: Sequence[int],
) -> List[Tuple[int, SimulationResult, SimulationResult, float]]:
    """CSCAN vs FCFS (Table 5): per disk count, both results and the
    percentage improvement of CSCAN over FCFS."""
    rows = []
    for num_disks in disk_counts:
        cscan = run_one(
            setting, trace_name, policy, num_disks,
            config_overrides={"discipline": "cscan"},
        )
        fcfs = run_one(
            setting, trace_name, policy, num_disks,
            config_overrides={"discipline": "fcfs"},
        )
        improvement = 100.0 * (fcfs.elapsed_ms - cscan.elapsed_ms) / fcfs.elapsed_ms
        rows.append((num_disks, cscan, fcfs, improvement))
    return rows
