"""Cell execution: the one code path behind serial, parallel, and resumed
sweeps.

Everything that turns a declarative :class:`~repro.runner.plan.Cell` into
a :class:`~repro.core.results.SimulationResult` lives here, so a cell run
inline by ``experiments.py``, in a pool worker, or re-run after a crash
follows byte-for-byte the same path — the foundation of the runner's
bit-identity guarantee (``docs/RUNNER.md``).

The **result digest** is the SHA-256 of the full-precision JSON
serialization of the result (plus the recorded timeline where enabled),
exactly as ``tests/test_golden_results.py`` pins it; runner digests are
therefore directly comparable to the golden values.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import POLICIES, PrefetchPolicy, SimConfig, Simulator, make_policy
from repro.core.batching import batch_size_for
from repro.core.results import SimulationResult
from repro.runner.plan import KIND_RUN, KIND_TUNED_REVERSE, Cell
from repro.trace import WORKLOADS
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.obs import Observer
    from repro.perf import PhaseProfiler

#: Keyed by (name, scale, seed) — the complete build_workload signature —
#: so differently scaled cells never alias.
TraceKey = Tuple[str, float, Optional[int]]
TraceCache = Dict[TraceKey, Trace]

#: How many traces the per-process memo keeps; the least recently used
#: goes first.  Every plan the runner builds is trace-major
#: (``sweep_cells``, ``baseline_cells``), so a worker is done with a trace
#: when it moves to the next; perfbench's ``sweep`` spreads 4 traces over 2
#: workers.  A service worker sent a fresh seed never hits the memo, which
#: without a bound kept one more trace for every seed.
_TRACE_CACHE_SIZE = 4

#: Cross-cell trace memo for long-lived processes (pool workers replay
#: many cells of the same trace; rebuilding it per cell would dominate).
_TRACE_CACHE: "OrderedDict[TraceKey, Trace]" = OrderedDict()


def validate_names(trace_name: str, policy: object) -> None:
    """Fail fast, and readably, on unknown trace/policy names.

    The runner's structured failure records quote the exception message
    verbatim, so an unknown name must say what the valid names are
    instead of surfacing as a KeyError deep in ``make_policy`` or
    ``build_workload``.
    """
    if trace_name not in WORKLOADS:
        raise ValueError(
            f"unknown trace {trace_name!r}; valid traces: "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    if isinstance(policy, str) and policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; valid policies: "
            f"{', '.join(sorted(POLICIES))}"
        )


def get_trace(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    cache: Optional[TraceCache] = None,
) -> Trace:
    """Build (or reuse) a workload.  ``cache`` defaults to the module-wide
    per-process memo, which keeps the ``_TRACE_CACHE_SIZE`` most recently
    used traces; a ``cache`` the caller passes keeps every trace."""
    store = _TRACE_CACHE if cache is None else cache
    key = (name, scale, seed)
    trace = store.get(key)
    # Per-process memo by design: each forked worker builds, keeps and
    # evicts its own few traces; nothing reads the parent's copy back, so
    # the copy-on-write divergence SL014 warns about is the point.
    if trace is None:
        trace = build_workload(name, scale=scale, seed=seed)
        store[key] = trace  # simlint: disable=SL014
    if store is _TRACE_CACHE:
        _TRACE_CACHE.move_to_end(key)
        if len(_TRACE_CACHE) > _TRACE_CACHE_SIZE:
            _TRACE_CACHE.popitem(last=False)  # simlint: disable=SL014
    return trace


def scaled_policy_kwargs(
    policy: str, num_disks: int, scale: float
) -> Dict[str, object]:
    """Device-time parameters, shrunk alongside the trace.

    The prefetch horizon (62) and Table 6 batch sizes are *device*
    constants; at reduced trace scale they would dwarf the (shrunken)
    missing-block runs and distort every regime.  Scaling them with the
    trace preserves the paper's qualitative structure.
    """
    if scale >= 1.0:
        return {}
    kwargs: Dict[str, object] = {}
    if policy in ("fixed-horizon", "forestall"):
        kwargs["horizon"] = max(8, int(62 * scale))
    if policy in ("aggressive", "forestall", "reverse-aggressive"):
        kwargs["batch_size"] = max(4, int(batch_size_for(num_disks) * scale))
    if policy == "reverse-aggressive":
        kwargs["forward_batch_size"] = kwargs.pop("batch_size")
    return kwargs


def sim_config_for(cell: Cell) -> SimConfig:
    """The cell's SimConfig — identical to what ``ExperimentSetting``
    produces for the same parameters."""
    cache_blocks = cell.cache_blocks
    if cache_blocks is None:
        cache_blocks = cache_blocks_for(cell.trace, cell.scale)
    return SimConfig(
        cache_blocks=cache_blocks,
        discipline=cell.discipline,
        cpu_speedup=cell.cpu_speedup,
        disk_model=cell.disk_model,
    ).with_(**dict(cell.config_overrides))


def result_digest(result: SimulationResult,
                  timeline: Optional[List[Any]] = None) -> str:
    """SHA-256 of the complete serialized outcome (golden-test scheme:
    json renders floats via repr, so any ULP drift changes the digest)."""
    payload = result.field_dict()
    if timeline is not None:
        payload["timeline"] = timeline
    serialized = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


@dataclass
class CellOutcome:
    """One executed cell: the result, its digest, and the wall cost."""

    cell: Cell
    result: SimulationResult
    digest: str
    wall_s: float

    @property
    def config_hash(self) -> str:
        return self.cell.config_hash


def policy_for(cell: Cell, policy_kwargs: Dict[str, Any]) -> PrefetchPolicy:
    """The policy one simulation of ``cell`` runs: the scaled defaults,
    then ``policy_kwargs``.  Raises ValueError or TypeError on parameters
    the policy refuses."""
    kwargs = (
        scaled_policy_kwargs(cell.policy, cell.disks, cell.scale)
        if cell.scaled_defaults else {}
    )
    kwargs.update(policy_kwargs)
    return make_policy(cell.policy, **kwargs)


def _run_simulation(
    cell: Cell,
    policy_kwargs: Dict[str, Any],
    profiler: Optional["PhaseProfiler"] = None,
    observer: Optional["Observer"] = None,
    trace_cache: Optional[TraceCache] = None,
) -> Tuple[SimulationResult, str]:
    """One simulation for a cell; returns (result, digest)."""
    validate_names(cell.trace, cell.policy)
    trace = get_trace(cell.trace, cell.scale, cell.seed, cache=trace_cache)
    config = sim_config_for(cell)
    sim = Simulator(
        trace, policy_for(cell, policy_kwargs), cell.disks, config,
        observer=observer,
    )
    with profiler if profiler is not None else contextlib.nullcontext():
        result = sim.run()
    timeline = sim.timeline.events if config.record_timeline else None
    return result, result_digest(result, timeline)


def _execute_run(
    cell: Cell,
    profiler: Optional["PhaseProfiler"] = None,
    observer: Optional["Observer"] = None,
    trace_cache: Optional[TraceCache] = None,
) -> Tuple[SimulationResult, str]:
    return _run_simulation(
        cell, dict(cell.policy_kwargs),
        profiler=profiler, observer=observer, trace_cache=trace_cache,
    )


def _execute_tuned_reverse(
    cell: Cell,
    profiler: Optional["PhaseProfiler"] = None,
    observer: Optional["Observer"] = None,
    trace_cache: Optional[TraceCache] = None,
) -> Tuple[SimulationResult, str]:
    """The paper's baseline tuning: grid-search (F, reverse batch) and keep
    the best elapsed time (first winner on ties, like the serial loop)."""
    best: Optional[SimulationResult] = None
    for kwargs in _policy_grid(cell):
        result, _ = _run_simulation(
            cell, kwargs,
            profiler=profiler, observer=observer, trace_cache=trace_cache,
        )
        if best is None or result.elapsed_ms < best.elapsed_ms:
            best = result
    assert best is not None
    best.policy_name = "reverse-aggressive"
    return best, result_digest(best)


def _policy_grid(cell: Cell) -> List[Dict[str, Any]]:
    """The ``policy_kwargs`` of each simulation ``cell`` runs, in order:
    one per (F, reverse batch) grid point for a tuned-reverse cell, else
    the cell's own."""
    if cell.kind != KIND_TUNED_REVERSE:
        return [dict(cell.policy_kwargs)]
    fetch_times = tuple(cell.params.get("fetch_times", (2, 4, 8, 16, 64)))
    batch_sizes = cell.params.get("batch_sizes")
    if batch_sizes is None:
        batch_sizes = (batch_size_for(cell.disks),)
    else:
        batch_sizes = tuple(batch_sizes)
    if not fetch_times:
        raise ValueError(
            "tuned reverse-aggressive: fetch_times grid is empty — pass at "
            "least one fetch-time estimate"
        )
    if not batch_sizes:
        raise ValueError(
            "tuned reverse-aggressive: batch_sizes grid is empty — pass at "
            "least one reverse batch size or None for the per-disk default"
        )
    return [
        dict(cell.policy_kwargs, fetch_time_estimate=fetch_time,
             reverse_batch_size=batch)
        for fetch_time in fetch_times
        for batch in batch_sizes
    ]


def cell_policies(cell: Cell) -> List[PrefetchPolicy]:
    """Every policy ``cell``'s simulations run, built but not bound, so a
    parameter the policy refuses raises here (ValueError or TypeError)
    instead of in a worker."""
    return [policy_for(cell, kwargs) for kwargs in _policy_grid(cell)]


#: Executors by cell kind.  Tests register extra kinds (sleep, crash-once,
#: always-fail) to exercise the supervisor; the fork start method means
#: parent-registered kinds are visible in pool workers.
CELL_KINDS: Dict[str, Callable[..., Tuple[SimulationResult, str]]] = {
    KIND_RUN: _execute_run,
    KIND_TUNED_REVERSE: _execute_tuned_reverse,
}


def execute_cell(
    cell: Cell,
    profiler: Optional["PhaseProfiler"] = None,
    observer: Optional["Observer"] = None,
    trace_cache: Optional[TraceCache] = None,
) -> CellOutcome:
    """Execute one cell (any kind) and digest its outcome."""
    try:
        executor = CELL_KINDS[cell.kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {cell.kind!r}; valid kinds: "
            f"{', '.join(sorted(CELL_KINDS))}"
        ) from None
    start = time.perf_counter()
    result, digest = executor(
        cell, profiler=profiler, observer=observer, trace_cache=trace_cache
    )
    wall_s = time.perf_counter() - start
    return CellOutcome(cell=cell, result=result, digest=digest, wall_s=wall_s)


def execute_cells(
    cells: Sequence[Cell], trace_cache: Optional[TraceCache] = None
) -> List[CellOutcome]:
    """Serial in-process plan execution (the reference semantics every
    parallel/resumed run must reproduce bit-identically)."""
    local_cache: TraceCache = {} if trace_cache is None else trace_cache
    return [execute_cell(cell, trace_cache=local_cache) for cell in cells]
