"""Admission control: a bounded queue with deadline-aware shedding.

Under overload a service has exactly two honest choices: queue a bounded
amount of work, or tell the client *now* with a retryable status.  The
controller counts cells in the system (queued + running in the pool) and
admits new ones only below ``limit``; beyond that the HTTP front end
returns 429 with a Retry-After hint instead of letting the queue — and
every client's latency — grow without bound.

The queue bound alone is not enough once service times vary: a full-but-
short queue should admit while a half-full-but-slow one should not.  So
the controller also keeps an EWMA of recent cell service times and
projects, CoDel-style, how long a *new* arrival would wait before its
cell even starts.  When that projected wait exceeds the request's
deadline, :meth:`admit` sheds **early** with 429 — the client learns in
microseconds instead of burning a slot for ``request_timeout_s`` and
getting a 504 anyway.  Shedding early under sustained overload is what
keeps the goodput curve flat instead of collapsing.

All calls happen on the service's event loop thread, so plain floats
suffice; the counters mirror into ``repro.obs`` metrics for the
``/v1/metrics`` endpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

#: EWMA smoothing for observed service times: ~86% of weight in the
#: last 12 observations — fast enough to track a load shift, slow
#: enough not to flap on one outlier cell.
_EWMA_ALPHA = 0.15


class AdmissionController:
    """Admit at most ``limit`` cells into the system at once."""

    def __init__(
        self, limit: int, metrics: Optional["MetricsRegistry"] = None
    ) -> None:
        if limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        self.limit = limit
        self.in_system = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.metrics = metrics
        #: Smoothed seconds per completed cell; None until first sample.
        self.service_time_ewma_s: Optional[float] = None

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("svc.admission.in_system").set(
                float(self.in_system)
            )

    def note_service_time(self, seconds: float) -> None:
        """Feed one completed cell's wall duration into the EWMA."""
        if seconds < 0.0:
            return
        previous = self.service_time_ewma_s
        smoothed = (
            seconds if previous is None
            else previous + _EWMA_ALPHA * (seconds - previous)
        )
        self.service_time_ewma_s = smoothed
        if self.metrics is not None:
            self.metrics.gauge("svc.admission.service_time_ewma_s").set(
                smoothed
            )

    def projected_wait_s(self, workers: int) -> float:
        """Expected queue wait for an arrival right now.

        With ``in_system`` cells ahead of it and ``workers`` servers each
        averaging ``service_time_ewma_s`` seconds per cell, an M/M/c-ish
        estimate of time-to-start is ``ceil-free``: cells ahead divided
        by aggregate service rate.  Zero until the first sample — the
        controller never sheds on a guess.
        """
        if self.service_time_ewma_s is None or self.in_system == 0:
            return 0.0
        effective_workers = max(1, workers)
        queued_ahead = max(0, self.in_system - effective_workers)
        if queued_ahead == 0:
            return 0.0
        return queued_ahead * self.service_time_ewma_s / effective_workers

    def admit(
        self, deadline_s: float, workers: int
    ) -> Tuple[bool, str, float]:
        """Deadline-aware acquire.

        Returns ``(admitted, reason, retry_after_s)``.  ``reason`` is
        ``"ok"``, ``"queue_full"``, or ``"deadline"``; ``retry_after_s``
        hints when retrying could succeed.  A shed request never
        occupied a slot.
        """
        if self.in_system >= self.limit:
            self.rejected += 1
            if self.metrics is not None:
                self.metrics.inc("svc.admission.rejected")
            retry = self.service_time_ewma_s or 1.0
            return False, "queue_full", max(1.0, retry)
        projected = self.projected_wait_s(workers)
        if deadline_s > 0.0 and projected > deadline_s:
            self.rejected += 1
            self.shed += 1
            if self.metrics is not None:
                self.metrics.inc("svc.admission.rejected")
                self.metrics.inc("svc.admission.shed")
            return False, "deadline", max(1.0, projected - deadline_s)
        self.in_system += 1
        self.admitted += 1
        if self.metrics is not None:
            self.metrics.inc("svc.admission.admitted")
        self._gauge()
        return True, "ok", 0.0

    def release(self) -> None:
        """A cell reached a terminal state (ok, failed, or cancelled)."""
        if self.in_system > 0:
            self.in_system -= 1
        self._gauge()

    @property
    def available(self) -> int:
        return max(0, self.limit - self.in_system)

    def status(self) -> Dict[str, object]:
        return {
            "limit": self.limit,
            "in_system": self.in_system,
            "available": self.available,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "service_time_ewma_s": self.service_time_ewma_s,
        }
