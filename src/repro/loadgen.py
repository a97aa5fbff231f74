"""repro.loadgen: a seeded open-loop load generator for ``repro-sim serve``.

Closed-loop clients (send, wait, send again) slow themselves down
exactly when the server slows down, hiding the overload they are meant
to measure.  This generator is **open-loop**: arrivals fire on a fixed
seeded timetable regardless of how the server is coping, so at 10×
capacity the server's shaping — early 429 sheds, lane refusals — is
visible instead of masked (the service's overload criteria and the soak
harness both depend on this).

Everything is deterministic from ``seed``: inter-arrival gaps
(exponential), the request mix, spec choice, and the optional
client-side chaos (dripped request bytes via
:func:`repro.svc.netchaos.paced_write`, dropped connections) all come
from ``random.Random(f"loadgen:{seed}")``-style streams, and the report
carries a plan fingerprint so two runs of the same seed can prove they
replayed the same plan.  Wall-clock *timing* of responses still varies
run to run — the plan, not the latencies, is the reproducible part.

The report aggregates per-kind status counts and latency percentiles,
plus the correctness ledger the soak invariants check: every digest
observed per config hash (conflicts mean a lost/duplicated-result bug),
and per-status shed counts.

Usage::

    repro-sim loadgen --port 8642 --rate 50 --duration 10 \\
        --mix cells=0.5,results=0.4,status=0.1 --report loadgen.json

This module is orchestration, not simulation: like ``repro.svc`` it may
read the wall clock (simlint SL002 allowlists it) and it is deliberately
outside the mypy-strict surface.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.svc.netchaos import ConnPlan, NetChaosSchedule, paced_write
from repro.svc.service import cell_from_spec

__all__ = ["LoadgenConfig", "Arrival", "build_plan", "run_loadgen",
           "DEFAULT_MIX", "DEFAULT_SPECS"]

#: Request kinds the mix distributes over.
KIND_CELLS = "cells"        # POST /v1/cells (compute lane)
KIND_RESULTS = "results"    # GET /v1/results/<hash> (read lane)
KIND_STATUS = "status"      # GET /v1/status
KIND_METRICS = "metrics"    # GET /v1/metrics
KIND_HEALTHZ = "healthz"    # GET /v1/healthz

DEFAULT_MIX: Dict[str, float] = {
    KIND_CELLS: 0.5, KIND_RESULTS: 0.4, KIND_STATUS: 0.1,
}

#: A tiny default spec pool (the golden traces at reduced scale) so the
#: generator works against any store without a specs file.
DEFAULT_SPECS: List[Dict[str, Any]] = [
    {"trace": "cscope2", "policy": "forestall", "disks": 4, "scale": 0.05},
    {"trace": "cscope2", "policy": "fixed-horizon", "disks": 4, "scale": 0.05},
    {"trace": "glimpse", "policy": "forestall", "disks": 4, "scale": 0.05},
    {"trace": "postgres-select", "policy": "aggressive", "disks": 4,
     "scale": 0.05},
]


@dataclass
class LoadgenConfig:
    """Tunables for one load-generation run (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8642
    rate_per_s: float = 20.0
    duration_s: float = 10.0
    seed: int = 0
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    specs: List[Dict[str, Any]] = field(
        default_factory=lambda: [dict(s) for s in DEFAULT_SPECS]
    )
    timeout_s: float = 30.0
    #: Client-side chaos: per-*request* plans (dripped writes, dropped
    #: connections, pre-send latency) from the same seeded schedule
    #: machinery the proxy uses.
    chaos: Optional[NetChaosSchedule] = None

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0.0:
            raise ValueError("rate_per_s must be > 0")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be > 0")
        if not self.mix:
            raise ValueError("mix must name at least one request kind")
        unknown = sorted(set(self.mix) - {
            KIND_CELLS, KIND_RESULTS, KIND_STATUS, KIND_METRICS, KIND_HEALTHZ,
        })
        if unknown:
            raise ValueError(f"unknown mix kind(s): {', '.join(unknown)}")
        total = sum(self.mix.values())
        if total <= 0.0:
            raise ValueError("mix weights must sum to > 0")


@dataclass(frozen=True)
class Arrival:
    """One planned request: when, what kind, which spec."""

    index: int
    at_s: float
    kind: str
    spec_index: int


def build_plan(config: LoadgenConfig) -> Tuple[List[Arrival], str]:
    """The seeded open-loop timetable and its fingerprint.

    Pure in ``(seed, rate, duration, mix, specs)``; the fingerprint is
    the sha256 of the serialized plan, so two runs can assert they
    replayed byte-identical plans before comparing shed counts.
    """
    rng = random.Random(f"loadgen:{config.seed}")
    kinds = sorted(config.mix)
    weights = [config.mix[kind] for kind in kinds]
    arrivals: List[Arrival] = []
    at_s = 0.0
    index = 0
    while True:
        at_s += rng.expovariate(config.rate_per_s)
        if at_s >= config.duration_s:
            break
        kind = rng.choices(kinds, weights=weights)[0]
        spec_index = rng.randrange(len(config.specs)) if config.specs else 0
        arrivals.append(Arrival(index, round(at_s, 6), kind, spec_index))
        index += 1
    serialized = json.dumps(
        [[a.index, a.at_s, a.kind, a.spec_index] for a in arrivals]
    )
    fingerprint = hashlib.sha256(serialized.encode()).hexdigest()
    return arrivals, fingerprint


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[pos]


class _Report:
    """Mutable aggregation shared by the request tasks."""

    def __init__(self) -> None:
        self.status_counts: Dict[str, int] = {}
        self.kind_status: Dict[str, Dict[str, int]] = {}
        self.latencies_ms: Dict[str, List[float]] = {}
        self.errors: Dict[str, int] = {}
        self.digests: Dict[str, set] = {}
        self.retry_after_present = 0
        self.chaos_dropped = 0
        self.completed = 0

    def record(self, kind: str, status: int, latency_ms: float,
               headers: Dict[str, str], payload: Any) -> None:
        self.completed += 1
        key = str(status)
        self.status_counts[key] = self.status_counts.get(key, 0) + 1
        per_kind = self.kind_status.setdefault(kind, {})
        per_kind[key] = per_kind.get(key, 0) + 1
        self.latencies_ms.setdefault(kind, []).append(latency_ms)
        if "retry-after" in headers:
            self.retry_after_present += 1
        if isinstance(payload, dict):
            record = payload.get("record")
            if isinstance(record, dict) and "digest" in record:
                self.digests.setdefault(
                    str(record.get("hash")), set()
                ).add(str(record["digest"]))

    def error(self, name: str) -> None:
        self.completed += 1
        self.errors[name] = self.errors.get(name, 0) + 1


async def _http_request(
    config: LoadgenConfig,
    method: str,
    path: str,
    body: Optional[bytes],
    plan: Optional[ConnPlan],
) -> Tuple[int, Dict[str, str], Any]:
    """One raw HTTP/1.1 request; returns (status, headers, json payload)."""
    reader, writer = await asyncio.open_connection(config.host, config.port)
    try:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {config.host}\r\n"
            "Connection: close\r\n"
        )
        if payload:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
            )
        raw = head.encode() + b"\r\n" + payload
        if plan is not None and plan.latency_ms > 0.0:
            await asyncio.sleep(plan.latency_ms / 1000.0)
        if plan is not None and plan.drip_chunk_bytes > 0:
            await paced_write(
                writer, raw, plan.drip_chunk_bytes,
                plan.drip_delay_ms / 1000.0,
            )
        else:
            writer.write(raw)
            await asyncio.wait_for(writer.drain(), config.timeout_s)
        status_line = await asyncio.wait_for(
            reader.readline(), config.timeout_s
        )
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"bad status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), config.timeout_s)
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if "content-length" in headers:
            data = await asyncio.wait_for(
                reader.readexactly(int(headers["content-length"])),
                config.timeout_s,
            )
        else:
            data = await asyncio.wait_for(
                reader.read(1024 * 1024), config.timeout_s
            )
        try:
            decoded = json.loads(data) if data else None
        except json.JSONDecodeError:
            decoded = None
        return status, headers, decoded
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _request_for(
    config: LoadgenConfig, arrival: Arrival
) -> Tuple[str, str, Optional[bytes]]:
    """(method, path, body) for one planned arrival."""
    spec = config.specs[arrival.spec_index % len(config.specs)]
    if arrival.kind == KIND_CELLS:
        return "POST", "/v1/cells", json.dumps(spec).encode()
    if arrival.kind == KIND_RESULTS:
        config_hash = cell_from_spec(spec).config_hash
        return "GET", f"/v1/results/{config_hash}", None
    if arrival.kind == KIND_STATUS:
        return "GET", "/v1/status", None
    if arrival.kind == KIND_METRICS:
        return "GET", "/v1/metrics", None
    return "GET", "/v1/healthz", None


async def _fire(
    config: LoadgenConfig, arrival: Arrival, report: _Report,
    start_monotonic: float,
) -> None:
    delay = start_monotonic + arrival.at_s - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    plan: Optional[ConnPlan] = None
    if config.chaos is not None:
        plan = config.chaos.plan_for(arrival.index)
        if plan.drop:
            report.chaos_dropped += 1
            return
    method, path, body = _request_for(config, arrival)
    begun = time.monotonic()
    try:
        status, headers, payload = await asyncio.wait_for(
            _http_request(config, method, path, body, plan),
            config.timeout_s + (plan.latency_ms / 1000.0 if plan else 0.0)
            + 30.0,
        )
    except asyncio.TimeoutError:
        report.error("timeout")
        return
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        report.error(type(exc).__name__)
        return
    report.record(
        arrival.kind, status, (time.monotonic() - begun) * 1000.0,
        headers, payload,
    )


async def run_loadgen(config: LoadgenConfig) -> Dict[str, Any]:
    """Drive the plan and return the aggregated report (JSON-ready)."""
    arrivals, fingerprint = build_plan(config)
    report = _Report()
    start_monotonic = time.monotonic()
    tasks = [
        asyncio.create_task(_fire(config, arrival, report, start_monotonic))
        for arrival in arrivals
    ]
    if tasks:
        await asyncio.gather(*tasks)
    wall_s = time.monotonic() - start_monotonic
    latency_summary: Dict[str, Dict[str, float]] = {}
    for kind, values in sorted(report.latencies_ms.items()):
        ordered = sorted(values)
        latency_summary[kind] = {
            "count": float(len(ordered)),
            "p50_ms": round(_percentile(ordered, 0.50), 3),
            "p99_ms": round(_percentile(ordered, 0.99), 3),
            "max_ms": round(ordered[-1], 3) if ordered else 0.0,
        }
    digest_conflicts = sorted(
        config_hash for config_hash, seen in report.digests.items()
        if len(seen) > 1
    )
    shed_statuses = ("408", "413", "429", "431", "503")
    return {
        "plan": {
            "seed": config.seed,
            "rate_per_s": config.rate_per_s,
            "duration_s": config.duration_s,
            "arrivals": len(arrivals),
            "fingerprint": fingerprint,
            "mix": dict(sorted(config.mix.items())),
            "chaos": config.chaos.to_dict() if config.chaos else None,
        },
        "completed": report.completed,
        "wall_s": round(wall_s, 3),
        "status_counts": dict(sorted(report.status_counts.items())),
        "kind_status": {
            kind: dict(sorted(counts.items()))
            for kind, counts in sorted(report.kind_status.items())
        },
        "latency_ms": latency_summary,
        "errors": dict(sorted(report.errors.items())),
        "shed": {
            status: report.status_counts.get(status, 0)
            for status in shed_statuses
            if report.status_counts.get(status, 0)
        },
        "retry_after_present": report.retry_after_present,
        "chaos_dropped": report.chaos_dropped,
        "digests": {
            config_hash: sorted(seen)
            for config_hash, seen in sorted(report.digests.items())
        },
        "digest_conflicts": digest_conflicts,
    }


def run_loadgen_blocking(config: LoadgenConfig) -> Dict[str, Any]:
    """Synchronous entry point for the CLI."""
    return asyncio.run(run_loadgen(config))
