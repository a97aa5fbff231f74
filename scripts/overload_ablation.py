#!/usr/bin/env python3
"""Re-run the service's overload ablation (docs/SERVICE.md, "Overload
ablation"): workloads W1-W4 against ``repro-sim serve --jobs 2``.

Each run starts the server from one source tree in a child process, with
two cell kinds registered before the pool forks:

``sleep``
    a healthy cell that sleeps ``params.sleep_s`` seconds;
``crash``
    a cell whose worker calls ``os._exit(3)`` on every attempt.

An open-loop client (seeded exponential arrivals from
:func:`repro.loadgen.build_plan`, one connection per request) POSTs
distinct cells while it GETs one stored result at 50/s.  The reads also
run alone for 3 s before the load, as the unloaded baseline.

==========  ==============================================================
workload    load
==========  ==============================================================
W1          0.2 s cells, 100 POST/s for 8 s (10x what two workers serve)
W2          1 s cells, 20 POST/s for 10 s, ``--request-timeout-s 5``
W3          2 s cells, 200 POST/s for 8 s over 4 specs (followers coalesce)
W4          a crash storm: 10 POST/s for 15 s, a seeded ``--crash-share``
            of them ``crash`` cells and the rest 0.2 s ``sleep`` cells;
            then one healthy POST every 0.5 s for 40 s
==========  ==============================================================

Every run prints one JSON row and appends it to ``--out``.  Sides run
alternately: the first side leads on even runs, the second on odd ones,
and every side runs the same seeds.  From the root of a checkout::

    python3 scripts/overload_ablation.py --side parent=../parent/src \\
        --side change=src --workloads W4 --crash-shares 0.3,0.6 --runs 3 \\
        --out overload.jsonl

``--start cold`` restarts the server over the store it warmed before the
load begins, so admission starts with no service-time sample.  A run of
W4 takes about a minute; the others take 15-20 s.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Cached reads per second, alongside the load and before it.
READ_RATE = 50.0
UNLOADED_S = 3.0
#: Generous: a POST is bounded by the server's request timeout (120 s).
CLIENT_TIMEOUT_S = 180.0


@dataclass(frozen=True)
class Workload:
    cell_s: float
    rate: float
    seconds: float
    serve_args: Tuple[str, ...] = ()
    #: Distinct specs the POSTs cycle over; 0 means every POST is new.
    specs: int = 0
    #: W4 only: healthy POSTs at a fixed period after the storm.
    tail_s: float = 0.0
    tail_period_s: float = 0.5


WORKLOADS = {
    "W1": Workload(cell_s=0.2, rate=100.0, seconds=8.0),
    "W2": Workload(cell_s=1.0, rate=20.0, seconds=10.0,
                   serve_args=("--request-timeout-s", "5")),
    "W3": Workload(cell_s=2.0, rate=200.0, seconds=8.0, specs=4),
    "W4": Workload(cell_s=0.2, rate=10.0, seconds=15.0, tail_s=40.0),
}


# -- the server child ---------------------------------------------------------------


def serve_child(argv: Sequence[str]) -> int:
    """``repro-sim serve ARGV`` with the ``sleep`` and ``crash`` kinds
    registered before the pool forks (``repro`` comes from PYTHONPATH)."""
    from repro.cli import main as cli_main
    from repro.core.results import SimulationResult
    from repro.runner.execute import CELL_KINDS

    def result() -> SimulationResult:
        return SimulationResult(
            trace_name="slept", policy_name="demand", num_disks=1,
            cache_blocks=4, fetches=1, compute_ms=1.0, driver_ms=0.5,
            stall_ms=0.0, elapsed_ms=1.5, average_fetch_ms=0.5,
            disk_utilization=0.1,
        )

    def sleep_kind(cell, **_: Any):
        time.sleep(float(cell.params["sleep_s"]))
        return result(), "digest-slept"

    def crash_kind(cell, **_: Any):
        os._exit(3)

    CELL_KINDS["sleep"] = sleep_kind
    CELL_KINDS["crash"] = crash_kind
    return int(cli_main(["serve"] + list(argv)))


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get_json(port: int, path: str) -> Tuple[int, Any]:
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, json.loads(response.read())


def post_json(port: int, path: str, body: Any) -> Tuple[int, Any]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode(),
        method="POST", headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return response.status, json.loads(response.read())


class Server:
    """One ``serve --jobs 2`` child over ``store``, from source ``src``."""

    def __init__(self, src: str, store: str, log: str,
                 serve_args: Sequence[str]) -> None:
        self.port = free_port()
        self.log_path = log
        args = ["--port", str(self.port), "--store", store, "--jobs", "2",
                *serve_args]
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "serve-child", *args],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode} at startup; "
                    f"see {log}"
                )
            try:
                if get_json(self.port, "/v1/healthz")[0] == 200:
                    return
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        self.stop()
        raise RuntimeError(f"server never became healthy; see {log}")

    def stop(self) -> Optional[int]:
        """SIGTERM (a graceful drain), then SIGKILL after 60 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


# -- the client -----------------------------------------------------------------------


@dataclass
class Outcome:
    group: str
    due_s: float
    status: Optional[int]
    latency_ms: float


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return None
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return round(value, 2)


def arrival_times(rate: float, seconds: float, seed: int) -> List[float]:
    from repro.loadgen import LoadgenConfig, build_plan

    arrivals, _ = build_plan(LoadgenConfig(
        rate_per_s=rate, duration_s=seconds, seed=seed,
        mix={"cells": 1.0}, specs=[{}],
    ))
    return [arrival.at_s for arrival in arrivals]


def cell_spec(kind: str, **params: Any) -> Dict[str, Any]:
    return {"trace": "ld", "policy": "demand", "disks": 1, "kind": kind,
            "params": params}


def post_plan(name: str, workload: Workload, seed: int,
              crash_share: float) -> List[Tuple[float, str, Dict[str, Any]]]:
    """``(due_s, group, spec)`` for every POST of one run."""
    plan: List[Tuple[float, str, Dict[str, Any]]] = []
    coin = random.Random(f"overload:{name}:{seed}")
    for n, at_s in enumerate(
            arrival_times(workload.rate, workload.seconds, seed)):
        if workload.specs:
            plan.append((at_s, "post", cell_spec(
                "sleep", sleep_s=workload.cell_s, n=n % workload.specs)))
        elif crash_share and coin.random() < crash_share:
            plan.append((at_s, "crash", cell_spec("crash", n=n)))
        else:
            group = "healthy_storm" if workload.tail_s else "post"
            plan.append((at_s, group, cell_spec(
                "sleep", sleep_s=workload.cell_s, n=n)))
    ticks = int(round(workload.tail_s / workload.tail_period_s))
    for k in range(ticks):
        plan.append((workload.seconds + k * workload.tail_period_s,
                     "healthy_tail", cell_spec(
                         "sleep", sleep_s=workload.cell_s, n=100000 + k)))
    return plan


async def drive(port: int, posts: List[Tuple[float, str, Dict[str, Any]]],
                reads: List[float], read_path: str) -> List[Outcome]:
    from repro.loadgen import LoadgenConfig, _http_request

    config = LoadgenConfig(port=port, timeout_s=CLIENT_TIMEOUT_S)
    start = time.monotonic()
    outcomes: List[Outcome] = []

    async def fire(due_s: float, group: str, method: str, path: str,
                   body: Optional[bytes]) -> None:
        delay = start + due_s - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            status: Optional[int] = (await _http_request(
                config, method, path, body, None))[0]
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            status = None
        latency_ms = (time.monotonic() - start - due_s) * 1000.0
        outcomes.append(Outcome(group, due_s, status, latency_ms))

    tasks = [fire(due_s, group, "POST", "/v1/cells",
                  json.dumps(spec).encode())
             for due_s, group, spec in posts]
    tasks += [fire(due_s, "read", "GET", read_path, None) for due_s in reads]
    await asyncio.gather(*tasks)
    return outcomes


def status_counts(outcomes: Sequence[Outcome], group: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.group == group:
            key = str(outcome.status) if outcome.status else "error"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def latencies(outcomes: Sequence[Outcome], group: str,
              status: Optional[int] = None) -> List[float]:
    return [o.latency_ms for o in outcomes if o.group == group
            and (status is None or o.status == status)]


def recover_s(outcomes: Sequence[Outcome], storm_s: float) -> Optional[float]:
    """From the storm's end to the first tail POST after which every
    healthy tail POST answered 200; None if the last one did not."""
    tail = sorted((o for o in outcomes if o.group == "healthy_tail"),
                  key=lambda o: o.due_s)
    if not tail or tail[-1].status != 200:
        return None
    first_ok = len(tail)
    while first_ok > 0 and tail[first_ok - 1].status == 200:
        first_ok -= 1
    return round(tail[first_ok].due_s - storm_s, 2)


def run_once(name: str, side: str, src: str, seed: int, crash_share: float,
             start: str) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    scratch = tempfile.mkdtemp(prefix="overload-")
    store = os.path.join(scratch, "store")
    log = os.path.join(scratch, "server.log")
    server = Server(src, store, log, workload.serve_args)
    try:
        code, payload = post_json(server.port, "/v1/cells",
                                  cell_spec("sleep", sleep_s=0.0, n=-1))
        if code != 200:
            raise RuntimeError(f"warm-up POST answered {code}")
        read_path = "/v1/results/" + payload["record"]["hash"]
        if start == "cold":
            server.stop()
            server = Server(src, store, log, workload.serve_args)
        unloaded = asyncio.run(drive(
            server.port, [],
            arrival_times(READ_RATE, UNLOADED_S, seed + 20000), read_path,
        ))
        posts = post_plan(name, workload, seed, crash_share)
        load_s = workload.seconds + workload.tail_s
        began = time.monotonic()
        outcomes = asyncio.run(drive(
            server.port, posts,
            arrival_times(READ_RATE, load_s, seed + 10000), read_path,
        ))
        wall_s = time.monotonic() - began
        pool = get_json(server.port, "/v1/status")[1]["pool"]["counters"]
    finally:
        exit_code = server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    groups = sorted({o.group for o in outcomes} - {"read"})
    unloaded_ms = latencies(unloaded, "read")
    read_ms = latencies(outcomes, "read")
    row: Dict[str, Any] = {
        "workload": name, "side": side, "seed": seed, "start": start,
        "serve_args": list(workload.serve_args),
        "status": {group: status_counts(outcomes, group) for group in groups},
        "reads": status_counts(outcomes, "read"),
        "read_p50_ms": percentile(read_ms, 50),
        "read_p90_ms": percentile(read_ms, 90),
        "read_p99_ms": percentile(read_ms, 99),
        "unloaded_read_p50_ms": percentile(unloaded_ms, 50),
        "unloaded_read_p99_ms": percentile(unloaded_ms, 99),
        "5xx": sum(1 for o in outcomes
                   if o.status is not None and o.status >= 500),
        "crashes": pool.get("crashes", 0),
        "respawns": pool.get("respawns", 0),
        "wall_s": round(wall_s, 1),
        "server_exit": exit_code,
    }
    if workload.tail_s:
        healthy = [o for o in outcomes if o.group.startswith("healthy")]
        ok_ms = [o.latency_ms for o in healthy if o.status == 200]
        row.update({
            "crash_share": crash_share,
            "healthy_200_p50_ms": percentile(ok_ms, 50),
            "healthy_200_p90_ms": percentile(ok_ms, 90),
            "recover_s": recover_s(outcomes, workload.seconds),
        })
    else:
        row["shed_429_p50_ms"] = percentile(
            latencies(outcomes, "post", 429), 50)
    return row


def main(argv: Optional[List[str]] = None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    if args_in[:1] == ["serve-child"]:
        return serve_child(args_in[1:])
    # Only the client imports this checkout's repro (lazily, below); the
    # server child imports its side's from PYTHONPATH.
    if os.path.join(REPO, "src") not in sys.path:
        sys.path.insert(0, os.path.join(REPO, "src"))
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--side", action="append", default=None, metavar="NAME=SRC",
        help="a source tree to serve from, by name (repeatable; default "
        "change=src of this checkout)",
    )
    parser.add_argument("--workloads", default="W1,W2,W3,W4")
    parser.add_argument("--crash-shares", default="0.3,0.6",
                        help="W4's crash shares, one set of runs each")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per side, workload and crash share")
    parser.add_argument("--seed", type=int, default=1,
                        help="run i uses seed SEED + i on every side")
    parser.add_argument("--start", choices=("warm", "cold"), default="warm")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append each JSON row to FILE")
    args = parser.parse_args(args_in)
    sides: List[Tuple[str, str]] = []
    for item in args.side or [f"change={os.path.join(REPO, 'src')}"]:
        name, sep, src = item.partition("=")
        if not sep or not os.path.isdir(os.path.join(src, "repro")):
            parser.error(f"--side {item!r}: want NAME=SRC, SRC holding repro/")
        sides.append((name, src))
    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    shares = [float(s) for s in args.crash_shares.split(",") if s.strip()]
    for run in range(args.runs):
        seed = args.seed + run
        order = sides if run % 2 == 0 else sides[::-1]
        for name in names:
            for share in (shares if WORKLOADS[name].tail_s else [0.0]):
                for side, src in order:
                    row = run_once(name, side, src, seed, share, args.start)
                    line = json.dumps(row, sort_keys=True)
                    print(line, flush=True)
                    if args.out:
                        with open(args.out, "a") as handle:
                            handle.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
