#!/usr/bin/env python
"""CI chaos smoke check for the simulation service (docs/SERVICE.md).

Starts ``repro.cli serve`` in a subprocess, submits the 14 golden cells
(tests/test_golden_results.py) as one sweep over real HTTP, and attacks
the run while it is in flight:

1. SIGKILLs a forked pool worker mid-cell (the supervisor must retry);
2. SIGKILLs the *server process itself* once a few results are resident
   in the store's journal (no drain, no cleanup).

It then restarts the server over the same store directory and submits
the identical sweep.  The check passes only if every one of the 14
digests equals the pinned golden value — i.e. results computed before,
during, and after the chaos all agree bit-for-bit with an undisturbed
serial run — and a third identical sweep is served entirely from the
store (hit ratio 1.0, zero simulation work).

The servers run with ``--trace``, so the smoke also covers the
telemetry tier (docs/OBSERVABILITY.md, "Service telemetry"): it scrapes
``/v1/metrics`` as Prometheus text mid-sweep and fails on any
``validate_exposition`` error, and before shutting down it downloads
``GET /v1/trace`` — asserting service spans and re-homed simulation
rows share a correlation ID — and writes the merged Perfetto document
next to the store for artifact upload.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py --store runs/chaos-store

Exit status: 0 on success, 1 on any divergence or unexpected server
behaviour.  The store directory (one append-only journal of results) is
left in place for artifact upload.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (REPO, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from tests.test_golden_results import CELLS, EXPECTED, SCALE, cell_id  # noqa: E402


def golden_specs():
    specs = []
    for trace, policy, disks, discipline, timeline in CELLS:
        spec = {
            "trace": trace, "policy": policy, "disks": disks,
            "scale": SCALE, "discipline": discipline,
            "scaled_defaults": False,
        }
        if timeline:
            spec["config_overrides"] = {"record_timeline": True}
        specs.append(spec)
    return specs


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def api(port: int, method: str, path: str, body=None, timeout_s=300.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return response.status, json.loads(response.read())


def api_text(port: int, path: str, accept="text/plain", timeout_s=10.0):
    """GET a non-JSON body (the Prometheus exposition)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers={"Accept": accept})
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


def start_server(port: int, store: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--store", store, "--jobs", "2", "--trace",
         "--request-timeout-s", "600"],
        cwd=REPO, env=dict(os.environ, PYTHONPATH="src"),
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server died at startup: {proc.returncode}")
        try:
            status, _ = api(port, "GET", "/v1/healthz", timeout_s=2.0)
            if status == 200:
                return proc
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    raise RuntimeError("server never became healthy")


def child_pids(pid: int):
    """Forked pool workers of the server (Linux /proc).

    Workers are forked from the service's pool *thread*, so they appear
    under that thread's task entry — scan every task of the process.
    """
    pids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                pids.extend(int(token) for token in handle.read().split())
        except OSError:
            continue
    return pids


def prometheus_scrape_errors(port: int):
    """Scrape ``/v1/metrics`` as Prometheus text and structurally
    validate it (line grammar, ``+Inf`` buckets, monotonicity)."""
    from repro.obs.prom import validate_exposition

    status, content_type, text = api_text(port, "/v1/metrics")
    errors = []
    if status != 200:
        errors.append(f"scrape status {status}")
    if not content_type.startswith("text/plain; version=0.0.4"):
        errors.append(f"unexpected content type {content_type!r}")
    errors.extend(validate_exposition(text))
    if "repro_svc_requests_total" not in text:
        errors.append("repro_svc_requests_total missing from exposition")
    return errors


def check_trace_document(port: int, store: str, expect_sim_rows: bool):
    """Download ``GET /v1/trace``, verify service spans and (when any
    cell was actually computed this incarnation) simulation rows linked
    by correlation ID, and write the document next to the store for
    artifact upload.  Returns a list of error strings."""
    status, document = api(port, "GET", "/v1/trace", timeout_s=30.0)
    if status != 200:
        return [f"/v1/trace returned {status}"]
    rows = [event for event in document.get("traceEvents", [])
            if event.get("ph") == "X"]
    svc_rows = [row for row in rows if row.get("pid") == 1]
    sim_rows = [row for row in rows if row.get("pid", 0) >= 100]
    errors = []
    if not svc_rows:
        errors.append("trace document has no service spans")
    if expect_sim_rows and not sim_rows:
        errors.append("trace document has no simulation rows despite "
                      "computed cells")
    if sim_rows and svc_rows:
        sim_ids = {row.get("args", {}).get("corr_id") for row in sim_rows}
        svc_ids = {row.get("args", {}).get("corr_id") for row in svc_rows}
        if not (sim_ids & svc_ids):
            errors.append("no correlation ID shared between service "
                          "spans and simulation rows")
    path = os.path.join(os.path.dirname(store), "chaos-service-trace.json")
    with open(path, "w") as handle:
        json.dump(document, handle)
    print(f"chaos: wrote merged Perfetto trace ({len(svc_rows)} service "
          f"spans, {len(sim_rows)} simulation rows) to {path}")
    return errors


def resident(port: int) -> int:
    try:
        _, payload = api(port, "GET", "/v1/store", timeout_s=2.0)
        return payload["resident"]
    except (urllib.error.URLError, OSError, KeyError):
        return -1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default="runs/chaos-store")
    args = parser.parse_args()
    store = os.path.abspath(args.store)
    port = free_port()
    specs = golden_specs()

    # -- round 1: sweep under fire --------------------------------------
    server = start_server(port, store)
    sweep_error = []

    def submit():
        try:
            api(port, "POST", "/v1/sweeps", {"cells": specs})
        except Exception as exc:  # the SIGKILL below makes this expected
            sweep_error.append(exc)

    sweeper = threading.Thread(target=submit, daemon=True)
    sweeper.start()

    # Kill a forked pool worker as soon as one exists — workers are
    # prestarted, so this lands while the sweep is (or is about to be)
    # in flight and forces the supervisor down the crash/retry path.
    deadline = time.monotonic() + 120.0
    killed_worker = False
    while time.monotonic() < deadline and sweeper.is_alive():
        workers = child_pids(server.pid)
        if workers:
            try:
                os.kill(workers[0], signal.SIGKILL)
                killed_worker = True
                print(f"chaos: SIGKILLed pool worker {workers[0]}")
            except OSError:
                continue
            break
        time.sleep(0.01)

    # Scrape the Prometheus exposition mid-sweep — the text endpoint
    # must stay structurally valid while the pool is computing and the
    # supervisor is replacing the worker we just killed.
    scrape_errors = prometheus_scrape_errors(port)
    if scrape_errors:
        for error in scrape_errors:
            print(f"chaos: FAIL — prometheus scrape: {error}")
        server.send_signal(signal.SIGKILL)
        return 1
    print("chaos: mid-sweep /v1/metrics scrape is valid Prometheus "
          "exposition")

    # SIGKILL the server itself once a few results are resident — no
    # drain, no atexit, nothing: the store's journal is all that survives.
    # On a fast machine the sweep may finish first; the kill still
    # exercises an undrained death and the restart-over-store path.
    while time.monotonic() < deadline and sweeper.is_alive():
        count = resident(port)
        if count >= 2 or server.poll() is not None:
            break
        time.sleep(0.01)
    survivors = resident(port)
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=60.0)
    sweeper.join(timeout=60.0)
    print(f"chaos: SIGKILLed server mid-sweep with ~{survivors} results "
          f"resident (worker killed: {killed_worker})")

    # -- round 2: restart over the same store, finish the sweep ---------
    server = start_server(port, store)
    try:
        status, first = api(port, "POST", "/v1/sweeps", {"cells": specs})
        if status != 200:
            print(f"chaos: FAIL — post-restart sweep returned {status}")
            return 1
        counts = first["counts"]
        print(f"chaos: post-restart sweep served {counts['store']} from the "
              f"store, computed {counts['computed']}"
              f" (+{counts['coalesced']} coalesced)")
        failures = 0
        by_position = first["cells"]
        for golden_cell, entry in zip(CELLS, by_position):
            key = cell_id(golden_cell)
            if entry.get("digest") != EXPECTED[key]:
                failures += 1
                print(f"chaos: MISMATCH {key}: "
                      f"{entry.get('digest')} != {EXPECTED[key]}")
        if failures:
            print(f"chaos: FAIL — {failures}/{len(CELLS)} digests diverged "
                  "after worker+server kills")
            return 1

        # -- round 3: the identical sweep must be pure store ------------
        status, again = api(port, "POST", "/v1/sweeps", {"cells": specs})
        counts = again["counts"]
        if counts["store"] != len(CELLS) or counts["computed"] != 0:
            print(f"chaos: FAIL — repeat sweep not served from store: "
                  f"{counts}")
            return 1
        for before, after in zip(by_position, again["cells"]):
            if before["digest"] != after["digest"]:
                print("chaos: FAIL — store hit differs from computed record")
                return 1
        # -- telemetry: merged Perfetto trace from the live server ------
        trace_errors = check_trace_document(
            port, store, expect_sim_rows=first["counts"]["computed"] > 0)
        if trace_errors:
            for error in trace_errors:
                print(f"chaos: FAIL — trace: {error}")
            return 1

        print(f"chaos: OK — all {len(CELLS)} digests bit-identical to the "
              "pinned golden values; repeat sweep hit ratio 1.0 with zero "
              "simulation work")
        return 0
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
