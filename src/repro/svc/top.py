"""``repro-sim top``: a live ops console over the service HTTP API.

Polls ``GET /v1/status`` and ``GET /v1/metrics`` (the JSON export) on an
interval and redraws a single terminal frame: breaker state, admission
occupancy, per-worker utilization, store hit ratio, request counters and
latency quantiles.  Read-only — it drives the same endpoints any
monitoring system would, so watching the console never perturbs the
service beyond two extra GETs per refresh.

:func:`render_top` is a pure function from the two JSON documents to the
frame text, which is what the tests exercise; :func:`run_top` owns the
polling loop, the ANSI screen clearing, and error display (a dead or
draining service renders as a status line, not a traceback).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

#: ANSI: cursor home + clear to end of screen (avoids full-screen flash).
_CLEAR = "\x1b[H\x1b[J"


def _fetch_json(host: str, port: int, path: str,
                timeout_s: float = 5.0) -> Dict[str, Any]:
    url = f"http://{host}:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        payload = json.loads(response.read().decode())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} returned non-object JSON")
    return payload


def _bar(fraction: float, width: int) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def _quantile(hist: Dict[str, Any], q: float) -> Optional[float]:
    """Estimate a quantile from the JSON histogram export by linear
    interpolation within the winning bucket (the usual Prometheus
    ``histogram_quantile`` construction), clamped to the exact recorded
    max — a wide sparse bucket can otherwise interpolate past it."""
    count = hist.get("count") or 0
    buckets = hist.get("buckets") or []
    if not count or not buckets:
        return None
    observed_max = hist.get("max")

    def clamp(estimate: Optional[float]) -> Optional[float]:
        if estimate is None or observed_max is None:
            return estimate
        return min(estimate, float(observed_max))

    rank = q * count
    cumulative = 0
    lower = 0.0
    for bucket in buckets:
        bucket_count = bucket.get("count", 0)
        upper = bucket.get("le")
        if upper == "+Inf":
            return observed_max
        cumulative += bucket_count
        if cumulative >= rank:
            if bucket_count == 0:
                return clamp(float(upper))
            inside = rank - (cumulative - bucket_count)
            return clamp(lower + (float(upper) - lower)
                         * (inside / bucket_count))
        lower = float(upper)
    return observed_max


def _fmt_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.1f}ms" if value < 1000 else f"{value / 1000.0:.2f}s"


def render_top(status: Dict[str, Any], metrics: Dict[str, Any],
               width: int = 80) -> str:
    """One console frame from ``/v1/status`` + ``/v1/metrics`` JSON."""
    bar_width = max(10, width - 46)
    lines: List[str] = []

    draining = status.get("draining", False)
    telemetry = status.get("telemetry", {})
    state = "DRAINING" if draining else "serving"
    tracing = "on" if telemetry.get("tracing") else "off"
    lines.append(
        f"service: {state}   tracing: {tracing}"
        f" ({telemetry.get('spans', 0)} spans)"
    )

    breaker = status.get("breaker", {})
    lines.append(
        f"breaker: {breaker.get('state', '?'):9s}"
        f" failures {breaker.get('consecutive_failures', 0)}"
        f"/{breaker.get('failure_threshold', '?')}"
        f"   retry-after {breaker.get('retry_after_s', 0)}s"
    )

    admission = status.get("admission", {})
    limit = admission.get("limit") or 1
    in_system = admission.get("in_system", 0)
    lines.append(
        f"admission: [{_bar(in_system / limit, bar_width)}]"
        f" {in_system}/{limit} in system"
        f"   admitted {admission.get('admitted', 0)}"
        f" rejected {admission.get('rejected', 0)}"
    )

    pool = status.get("pool", {})
    lines.append(
        f"pool: {pool.get('jobs', '?')} workers,"
        f" queue depth {pool.get('queue_depth', 0)}"
    )
    utilization = pool.get("utilization", {})
    for worker_id in sorted(utilization, key=str):
        fraction = float(utilization[worker_id])
        lines.append(
            f"  w{worker_id}: [{_bar(fraction, bar_width)}]"
            f" {fraction * 100.0:5.1f}% busy"
        )

    store = status.get("store", {})
    hit_ratio = float(store.get("hit_ratio", 0.0))
    lines.append(
        f"store: [{_bar(hit_ratio, bar_width)}]"
        f" {hit_ratio * 100.0:5.1f}% hits"
        f"   resident {store.get('resident', 0)}"
        f"   corrupt {store.get('corrupt', 0)}"
    )

    requests = status.get("requests", {})
    served: List[Tuple[str, int]] = sorted(
        (name[len("svc.requests_"):], value)
        for name, value in requests.items()
        if name.startswith("svc.requests_")
    )
    if served:
        lines.append(
            "requests: " + "  ".join(f"{k}={v}" for k, v in served)
        )

    histograms = metrics.get("histograms", {})
    request_ms = histograms.get("svc.request_ms")
    if isinstance(request_ms, dict) and request_ms.get("count"):
        lines.append(
            f"latency: n={request_ms['count']}"
            f" p50={_fmt_ms(_quantile(request_ms, 0.5))}"
            f" p95={_fmt_ms(_quantile(request_ms, 0.95))}"
            f" max={_fmt_ms(request_ms.get('max'))}"
        )
    fsync = histograms.get("runner.journal_fsync_ms")
    if isinstance(fsync, dict) and fsync.get("count"):
        lines.append(
            f"store fsync: n={fsync['count']}"
            f" p95={_fmt_ms(_quantile(fsync, 0.95))}"
            f" max={_fmt_ms(fsync.get('max'))}"
        )
    return "\n".join(line[:width] for line in lines)


def run_top(host: str = "127.0.0.1", port: int = 8642,
            interval_s: float = 2.0, iterations: Optional[int] = None,
            width: int = 80) -> int:
    """Poll and redraw until interrupted (or for ``iterations`` frames —
    ``repro-sim top --once`` uses 1).  Returns a process exit code."""
    drawn = 0
    while iterations is None or drawn < iterations:
        try:
            status = _fetch_json(host, port, "/v1/status")
            metrics = _fetch_json(host, port, "/v1/metrics")
        except (urllib.error.URLError, ConnectionError, ValueError,
                TimeoutError) as exc:
            print(f"repro-sim top: {host}:{port} unreachable: {exc}")
            return 1
        frame = render_top(status, metrics, width=width)
        clear = _CLEAR if iterations is None or iterations > 1 else ""
        print(f"{clear}repro-sim top — {host}:{port}\n{frame}", flush=True)
        drawn += 1
        if iterations is not None and drawn >= iterations:
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            break
    return 0
