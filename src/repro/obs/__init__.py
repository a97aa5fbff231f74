"""repro.obs — opt-in observability for the simulator.

Three layers, all strictly read-only with respect to simulation state:

* **event tracing** — an :class:`Observer` given to a
  :class:`~repro.core.engine.Simulator` (or a
  :class:`~repro.core.multiprocess.MultiProcessSimulator`) is a sink of the
  typed events the engine emits (references, fetch lifecycle, evictions
  with victim distance, disk busy spans, stall episodes, fault handling),
  keyed on *simulated* time and stamped with their process id;
* **metrics** — a :class:`MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms (queue depth, fetch latency, victim forward
  distance, cache occupancy, per-disk utilization) aggregated per run;
* **stall attribution** — every stall quantum is charged to exactly one
  cause (:data:`~repro.core.events.STALL_CAUSES`), named by the engine
  where it decides to stall, and each process's per-cause totals sum back
  to its ``SimulationResult.stall_ms`` to within float noise.

A simulator without an observer or a timeline has no sink, and builds no
events: every emission site in the engine sits behind one ``sink is None``
test.  See ``docs/OBSERVABILITY.md``.
"""

from repro.core.events import STALL_CAUSES, Event, StallEpisode
from repro.obs.export import (
    chrome_trace,
    iter_jsonl_rows,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.logging import (
    JsonFormatter,
    configure_logging,
    get_correlation_id,
    get_logger,
    set_correlation_id,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.prom import labeled, render_prometheus, validate_exposition
from repro.obs.report import render_report
from repro.obs.svc import (
    ServiceSpan,
    ServiceTracer,
    maybe_span,
    new_correlation_id,
    reconstruct_durations,
)

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "Observer",
    "STALL_CAUSES",
    "ServiceSpan",
    "ServiceTracer",
    "StallEpisode",
    "chrome_trace",
    "configure_logging",
    "get_correlation_id",
    "get_logger",
    "iter_jsonl_rows",
    "labeled",
    "maybe_span",
    "new_correlation_id",
    "reconstruct_durations",
    "render_prometheus",
    "render_report",
    "set_correlation_id",
    "validate_exposition",
    "write_chrome_trace",
    "write_jsonl",
]
