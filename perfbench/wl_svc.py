"""Workload ``svc-mixed``: ``repro-sim serve --jobs 2`` in a child process,
driven open-loop over two keep-alive connections.

* Connection A sends cached ``GET /v1/results/<hash>`` for cells put in
  the store during set-up.
* Connection B sends cold ``POST /v1/cells``, each with its own trace
  seed so each one misses the store, well under cold capacity.

Arrivals follow a seeded timetable: one per slot of ``1/rate`` seconds,
jittered within the slot.  Latency runs from the due time, so a request
held up behind its predecessor on the connection pays for the wait.  How
late the generator itself sent is reported as ``gen.late_p99_ms``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from common import HERE, Report, peak_rss_mb, scratch_dir, unit_of
from ledger import Ledger, merge_dir
from layers import layer_metrics
import stats
from wl_engine import sim_checks

HOST = "127.0.0.1"
JOBS = 2
CACHED_RATE = 100.0
COLD_RATE = 5.0
#: Each arrival falls uniformly within +-JITTER/2 of its slot.
JITTER = 0.2
#: Server starts per run; ``setup_s`` is their median.
STARTS = 5
CACHED_TRACES = ("cscope2", "glimpse", "ld", "postgres-select")
CACHED_POLICIES = ("aggressive", "forestall")
#: About 50 ms of simulation per cold cell on a 2-vCPU VM: the service,
#: not the engine, dominates, and at COLD_RATE the connection is busy well
#: under half the time, so a slower host does not build a backlog.
COLD_SPEC = {"trace": "ld", "policy": "forestall", "disks": 2, "scale": 0.1}
TIMEOUT_S = 60.0


def cached_specs(seed: int) -> List[Dict[str, Any]]:
    return [
        {"trace": trace, "policy": policy, "disks": 4, "scale": 0.05,
         "seed": seed}
        for trace in CACHED_TRACES for policy in CACHED_POLICIES
    ]


def cold_spec(seed: int, index: int) -> Dict[str, Any]:
    """Distinct per request and per workload seed, disjoint from the
    cached specs' seeds."""
    return dict(COLD_SPEC, seed=1_000_000 + seed * 10_000 + index)


def timetable(seed: int, name: str, rate: float,
              seconds: float) -> List[float]:
    """Due offsets (seconds from the start) for one connection."""
    rng = random.Random(f"perfbench:{seed}:{name}")
    slots = max(1, int(seconds * rate))
    return [
        (slot + 0.5 + rng.uniform(-JITTER / 2, JITTER / 2)) / rate
        for slot in range(slots)
    ]


@dataclass
class Sample:
    kind: str
    due: float
    sent: float
    done: float
    late_ms: float
    status: int
    payload: Any

    @property
    def latency_ms(self) -> float:
        return stats.due_latency_ms(self.due, self.done)

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


async def roundtrip(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, method: str, path: str,
                    body: bytes) -> Tuple[int, Any, bool]:
    """One keep-alive HTTP/1.1 exchange: (status, JSON, still open)."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            "Connection: keep-alive\r\n")
    if body:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    writer.write(head.encode() + b"\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    parts = status_line.split()
    if len(parts) < 2:
        raise ConnectionError(f"bad status line {status_line!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    data = await reader.readexactly(int(headers.get("content-length", "0")))
    keep = headers.get("connection", "").lower() == "keep-alive"
    return int(parts[1]), json.loads(data) if data else None, keep


async def connection(port: int, kind: str, start: float,
                     plan: List[Tuple[float, str, str, bytes]],
                     out: List[Sample]) -> None:
    """Send ``plan`` on one connection, each request at its due time or
    as soon as the previous response is in, whichever is later."""
    clock = time.perf_counter
    reader, writer = await asyncio.open_connection(HOST, port)
    free = start
    try:
        for offset, method, path, body in plan:
            due = start + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            if writer is None:
                reader, writer = await asyncio.open_connection(HOST, port)
            sent = clock()
            late = stats.lateness_ms(due, free, sent)
            try:
                status, payload, keep = await asyncio.wait_for(
                    roundtrip(reader, writer, method, path, body), TIMEOUT_S)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError):
                status, payload, keep = -1, None, False
            free = clock()
            out.append(Sample(kind, due, sent, free, late, status, payload))
            if not keep:
                writer.close()
                writer = None
    finally:
        if writer is not None:
            writer.close()


def drive(port: int, seed: int, seconds: float,
          expected: Dict[str, str]) -> List[Sample]:
    """Run both connections' timetables; returns every sample."""
    hashes = sorted(expected)
    pick = random.Random(f"perfbench:{seed}:pick")
    cached = [
        (offset, "GET", f"/v1/results/{hashes[pick.randrange(len(hashes))]}",
         b"")
        for offset in timetable(seed, "cached", CACHED_RATE, seconds)
    ]
    cold = [
        (offset, "POST", "/v1/cells",
         json.dumps(cold_spec(seed, index)).encode())
        for index, offset in enumerate(
            timetable(seed, "cold", COLD_RATE, seconds))
    ]
    out: List[Sample] = []

    async def both() -> None:
        start = time.perf_counter() + 0.05
        await asyncio.gather(
            connection(port, "cached", start, cached, out),
            connection(port, "cold", start, cold, out),
        )

    asyncio.run(both())
    return out


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return int(sock.getsockname()[1])


def healthy(port: int) -> bool:
    conn = http.client.HTTPConnection(HOST, port, timeout=5)
    try:
        conn.request("GET", "/v1/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Server:
    """One ``serve`` child; ``setup_s`` is spawn to first healthy reply."""

    def __init__(self, store: str, port: int, log: str,
                 ledger_dir: Optional[str] = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "serve_child.py")]
        if ledger_dir is not None:
            cmd += ["--ledger-dir", ledger_dir]
        cmd += ["--port", str(port), "--store", store, "--jobs", str(JOBS),
                "--max-requests-per-connection", "1000000",
                "--request-timeout-s", str(TIMEOUT_S)]
        self.port = port
        start = time.perf_counter()
        with open(log, "ab") as handle:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                         stderr=handle)
        while not healthy(port):
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f" before answering; see {log}")
            if time.perf_counter() - start > TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not answer /v1/healthz")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def prefill(port: int, seed: int, report: Report) -> Dict[str, str]:
    """POST every cached spec once; returns config hash -> digest."""
    expected: Dict[str, str] = {}
    for spec in cached_specs(seed):
        conn = http.client.HTTPConnection(HOST, port, timeout=TIMEOUT_S)
        try:
            conn.request("POST", "/v1/cells", json.dumps(spec),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        record = payload.get("record", {}) if response.status == 200 else {}
        if record.get("status") != "ok":
            report.error(f"set-up POST failed: {response.status}")
            continue
        expected[record["hash"]] = record["digest"]
    return expected


def check(report: Report, samples: List[Sample],
          expected: Dict[str, str]) -> Dict[str, str]:
    """Every request answered 200; one digest per config hash; cached
    reads return the set-up digests, cold posts were computed.  Returns
    the cold cells' digests by hash."""
    seen: Dict[str, set] = {}
    cold: Dict[str, str] = {}
    for sample in samples:
        report.attempted += 1
        payload = sample.payload if isinstance(sample.payload, dict) else {}
        record = payload.get("record") or {}
        if sample.status != 200 or record.get("status") != "ok":
            report.failed += 1
            continue
        seen.setdefault(record["hash"], set()).add(record["digest"])
        if sample.kind == "cold":
            if payload.get("served") != "computed":
                report.error("a cold POST was not computed (store hit?)")
            cold[record["hash"]] = record["digest"]
        elif expected.get(record["hash"]) != record["digest"]:
            report.error("a cached read returned another digest than set-up")
    if report.failed:
        report.error(f"{report.failed} of {report.attempted} requests failed")
    if any(len(digests) > 1 for digests in seen.values()):
        report.error("a config hash returned more than one digest")
    return cold


def by_kind(samples: List[Sample], kind: str) -> List[Sample]:
    return [s for s in samples if s.kind == kind and s.status == 200]


def put_latency_metrics(report: Report, samples: List[Sample]) -> None:
    cold = by_kind(samples, "cold")
    cached = by_kind(samples, "cached")
    cold_ms = [s.latency_ms for s in cold]
    cached_ms = [s.latency_ms for s in cached]
    if not cold_ms or not cached_ms:
        report.error("no successful requests to measure")
        return
    cold_s = sum(cold_ms) / 1000.0
    refs = sum(s.payload["record"]["result"]["references"] for s in cold)
    report.put("refs_per_s", refs / cold_s, "1/s",
               "cold cells' references per second of cold latency")
    report.put("cells_per_s", len(cold) / cold_s, "1/s",
               "cold cells per second of cold latency")
    rule = {kind: stats.tail_percentile(len(values))
            for kind, values in (("cold", cold_ms), ("cached", cached_ms))}
    report.put("cold_p50_ms", stats.percentile(cold_ms, 50), "ms",
               f"from due time, n={len(cold_ms)}")
    report.put("cold_p90_ms", stats.percentile(cold_ms, 90), "ms",
               f"n={len(cold_ms)}, tail rule allows p{rule['cold']}")
    report.put("cached_p50_ms", stats.percentile(cached_ms, 50), "ms",
               f"from due time, n={len(cached_ms)}")
    report.show(f"cached_p{rule['cached']:g}_ms",
                stats.percentile(cached_ms, rule["cached"]), "ms",
                f"tail rule, n={len(cached_ms)}")
    late = [s.late_ms for s in samples]
    report.show("gen.late_p99_ms", stats.percentile(late, 99), "ms",
                f"generator lateness, n={len(late)}")


def start_servers(report: Report, store: str, port: int, log: str,
                  seed: int) -> Tuple[Server, List[float], Dict[str, str]]:
    """:data:`STARTS` starts on one store (the first fills it); returns
    the last, still running, with every start's set-up time."""
    setups: List[float] = []
    expected: Dict[str, str] = {}
    for start in range(STARTS):
        server = Server(store, port, log)
        setups.append(server.setup_s)
        if start == 0:
            try:
                expected = prefill(port, seed, report)
            except BaseException:
                server.stop()
                raise
        if start < STARTS - 1:
            server.stop()
    return server, setups, expected


def run(seed: int, seconds: float, traced: bool) -> Report:
    report = Report("svc-mixed", seed, traced)
    root = scratch_dir("svc")
    store = os.path.join(root, "store")
    log = os.path.join(root, "server.log")
    port = free_port()
    if traced:
        return run_traced(report, store, root, log, port, seed, seconds)
    server, setups, expected = start_servers(report, store, port, log, seed)
    try:
        samples = drive(port, seed, seconds, expected)
    finally:
        server.stop()
    check(report, samples, expected)
    report.put("setup_s", stats.median(setups), "s",
               f"median of {len(setups)} starts: spawn to /v1/healthz")
    put_latency_metrics(report, samples)
    report.put("peak_rss_mb", peak_rss_mb(), "MB")
    report.show("failed_frac", stats.share(report.failed, report.attempted),
                "frac", f"attempted={report.attempted}")
    return report


def run_traced(report: Report, store: str, root: str, log: str, port: int,
               seed: int, seconds: float) -> Report:
    """The same timetable against an untraced server, then against a
    traced one on a copy of the same filled store."""
    from repro.core import SimulationResult

    server = Server(store, port, log)
    try:
        expected = prefill(port, seed, report)
    finally:
        server.stop()
    traced_store = os.path.join(root, "store-traced")
    shutil.copytree(store, traced_store)
    server = Server(store, port, log)
    try:
        plain = drive(port, seed, seconds, expected)
    finally:
        server.stop()
    ledger_dir = scratch_dir("svc-ledger")
    server = Server(traced_store, port, log, ledger_dir=ledger_dir)
    try:
        traced = drive(port, seed, seconds, expected)
    finally:
        server.stop()
    plain_cold = check(report, plain, expected)
    traced_cold = check(report, traced, expected)
    if plain_cold != traced_cold:
        report.error("traced and untraced cold digests differ")

    workers = Ledger()
    merge_dir(workers, os.path.join(ledger_dir, "workers"))
    server_ledger = Ledger()
    merge_dir(server_ledger, ledger_dir)  # server.json

    cold = by_kind(traced, "cold")
    cached = by_kind(traced, "cached")
    mean = stats.mean
    svc = server_ledger.samples
    parts = {
        "send wait": mean([max(0.0, s.sent - s.due) * 1000.0 for s in cold]),
        "http": mean([s.service_ms for s in cold])
        - mean(svc.get("run_cell_computed_ms", [])),
        "store.get": mean(svc.get("store_get_miss_ms", [])),
        "admission": mean(svc.get("admission_ms", [])),
        "queue": mean(svc.get("queue_ms", [])),
        "execute": mean(svc.get("execute_ms", [])),
        "store.put": mean(svc.get("store_put_ms", [])),
    }
    cold_mean = mean([s.latency_ms for s in cold])
    unattributed = stats.residual(cold_mean, parts)

    metrics = layer_metrics(workers)
    metrics.update(sim_checks([
        SimulationResult(**s.payload["record"]["result"]) for s in cold
    ]))
    metrics["execute.s_per_cell"] = parts["execute"] / 1000.0
    metrics["ledger.unattributed_frac"] = stats.share(unattributed, cold_mean)
    metrics["trace.overhead_frac"] = stats.share(
        sum(s.latency_ms for s in traced), sum(s.latency_ms for s in plain))
    for name, value in metrics.items():
        report.put(name, value, unit_of(name))

    hits = len(svc.get("store_get_hit_ms", []))
    misses = len(svc.get("store_get_miss_ms", []))
    report.show("svc.http_ms", mean([s.service_ms for s in cached])
                - mean(svc.get("store_get_hit_ms", [])), "ms",
                "cached: client send-to-reply minus ResultStore.get")
    report.show("svc.cold_http_ms", parts["http"], "ms",
                "cold: client send-to-reply minus run_cell")
    report.show("svc.store_get_ms", mean(svc.get("store_get_hit_ms", [])),
                "ms", f"hits, n={hits}")
    report.show("svc.store_hit_frac", stats.share(hits, hits + misses),
                "frac")
    report.show("svc.admission_ms", parts["admission"], "ms")
    report.show("svc.shed", server_ledger.counters.get("svc.shed", 0.0),
                "count")
    report.show("svc.queue_ms", parts["queue"], "ms",
                "submit to store.put, less execute")
    report.show("svc.execute_ms", parts["execute"], "ms", "worker wall_s")
    report.show("svc.store_put_ms", parts["store.put"], "ms")
    report.show("svc.unattributed_ms", unattributed, "ms",
                f"of a {cold_mean:.3f} ms mean cold request")
    report.show("gen.late_p99_ms",
                stats.percentile([s.late_ms for s in traced], 99), "ms")
    return report
