"""Text report over an observed run: utilization, stall attribution, and
the worst stall episodes with the event window around each.

This is the renderer behind ``repro-sim report``; the tables come from
:mod:`repro.analysis.tables` so the CLI's other subcommands and the report
share one formatting vocabulary.  That module is imported where the report
renders: importing :mod:`repro.obs` (as the service does) must not load
the experiments, figures and tables of :mod:`repro.analysis`.
"""

from __future__ import annotations

from typing import List

from repro.core import events as ev
from repro.obs.metrics import Histogram
from repro.obs.observer import Observer


def _histogram_line(histogram: Histogram) -> str:
    cells = [
        f"<={bound:g}:{count}"
        for bound, count in zip(histogram.bounds, histogram.counts)
    ]
    cells.append(f">{histogram.bounds[-1]:g}:{histogram.overflow}")
    return (
        f"{histogram.name}: n={histogram.count} mean={histogram.mean:.2f} "
        f"max={histogram.max if histogram.max is not None else 0:.2f}  "
        + " ".join(cells)
    )


def _format_event(event: ev.Event) -> str:
    parts = [f"t={event.t_ms:10.2f}", f"{event.kind:<16}"]
    if event.block != -1:
        parts.append(f"block={event.block}")
    if event.disk != -1:
        parts.append(f"disk={event.disk}")
    if event.dur_ms != 0.0:
        parts.append(f"dur={event.dur_ms:.2f}ms")
    if event.cause:
        parts.append(event.cause)
    return "  ".join(parts)


def render_report(
    observer: Observer, top: int = 5, window_lead_ms: float = 20.0,
    window_limit: int = 10,
) -> str:
    """Render the full text report for one observed run."""
    from repro.analysis.tables import (
        format_stall_table,
        format_table,
        format_utilization_table,
    )

    result = observer.result
    if result is None:
        raise ValueError("render_report needs a finished run (result is None)")
    lines: List[str] = [str(result), ""]

    lines.append("stall attribution:")
    lines.append(format_stall_table(result))
    lines.append("")

    lines.append("disk utilization:")
    lines.append(format_utilization_table(result))
    lines.append("")

    metrics = observer.metrics
    counters = [
        (name, counter.value)
        for name, counter in metrics.counters.items()
        if counter.value
    ]
    if counters:
        lines.append("counters (non-zero):")
        lines.append(format_table(("counter", "value"), counters))
        lines.append("")

    histograms = [h for h in metrics.histograms.values() if h.count]
    if histograms:
        lines.append("histograms:")
        for histogram in histograms:
            lines.append("  " + _histogram_line(histogram))
        lines.append("")

    worst = observer.worst_stalls(top)
    if worst:
        lines.append(f"top {len(worst)} stall episodes:")
        for rank, record in enumerate(worst, start=1):
            lines.append(
                f"#{rank}  {record.duration_ms:9.2f} ms  "
                f"block={record.block}  cursor={record.cursor}  "
                f"cause={record.cause}  at t={record.start_ms:.2f} ms"
            )
            for event in observer.window(
                record.start_ms, record.end_ms, lead_ms=window_lead_ms,
                limit=window_limit,
            ):
                lines.append("      " + _format_event(event))
    else:
        lines.append("no stall episodes recorded")
    return "\n".join(lines)
