"""The chaos harness: kill it, tear it, fill it — lose nothing.

Every scenario here attacks a window the service claims to survive and
then asserts the service-level invariants (docs/SERVICE.md) on the one
log the store keeps, its run journal:

* **No lost result** — every whole successful record in the journal is
  a store hit with that record's digest; a torn record is a miss that
  recomputes to the same digest.
* **No duplicate computation recorded** — per config hash, every digest
  the journal ever records is identical; an idempotent re-put after a
  crash recompute adds no new line.
* **Bit-identity under fire** — with workers SIGKILLed mid-cell, records
  torn at random offsets, the process dying on either side of the
  journal append, and ENOSPC on the store, the 14 pinned golden digests
  of ``tests/test_golden_results.py`` still come out exactly.
* **Clean restart-and-resume** — a killed service reopens its store and
  serves previously computed cells with zero simulation work, and a
  store and a sweep's run directory are interchangeable.
"""

import asyncio
import json
import os
import random
import subprocess
import sys
import textwrap
import time

from repro.runner import Cell, Journal, execute_cell, run_plan
from repro.svc import (
    CHAOS_EXIT_CODE,
    CRASH_ENV,
    RAISE_ENV,
    ResultStore,
    ServiceConfig,
    SimulationService,
    kill_worker,
    tear_file,
    worker_pids,
)

from tests import test_golden_results as golden
from tests.test_runner import golden_plan, kind_cell, test_kinds  # noqa: F401

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN_DIGESTS = set(golden.EXPECTED.values())


def assert_store_invariants(root):
    """The journal is the authority; the reopened store must agree."""
    # One log: nothing but the journal.
    assert set(os.listdir(root)) <= {"journal.jsonl"}
    digests_by_hash = {}
    for record in Journal(root).records():
        if record.get("kind") == "cell" and record.get("status") == "ok":
            digests_by_hash.setdefault(record["hash"], set()).add(
                record["digest"]
            )
    store = ResultStore(root)
    try:
        assert len(store) == len(digests_by_hash)
        for config_hash, digests in digests_by_hash.items():
            # No duplicate computation recorded: every digest ever
            # journaled for one hash is the same digest.
            assert len(digests) == 1, (
                f"{config_hash}: divergent digests recorded {digests}"
            )
            # No lost result: every whole record is a hit.
            record = store.get(config_hash)
            assert record is not None and record["digest"] in digests
    finally:
        store.close()


def service_scenario(tmp_path, scenario, **config_kwargs):
    config_kwargs.setdefault("store_dir", str(tmp_path / "store"))
    config_kwargs.setdefault("jobs", 2)

    async def main():
        service = SimulationService(ServiceConfig(**config_kwargs))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.drain("signal")

    return asyncio.run(main())


# -- worker SIGKILL mid-cell ------------------------------------------------------------


class TestWorkerKills:
    def test_killed_worker_retries_to_the_same_digest(self, test_kinds, tmp_path):
        async def scenario(service):
            cell = kind_cell("sleep", sleep_s=0.5)
            task = asyncio.ensure_future(service.run_cell(cell))
            deadline = time.monotonic() + 30.0
            while service.pool.counters["dispatched"] < 1:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            pids = worker_pids(service.pool)
            assert pids
            assert kill_worker(pids[0])
            record, served = await task
            assert served == "computed"
            assert record["status"] == "ok"
            assert record["digest"] == "digest-slept"
            assert record["attempt"] == 2
            assert service.pool.counters["crashes"] == 1
            assert service.pool.counters["retries"] == 1
            # Exactly one result recorded despite the violent first attempt.
            assert len(service.store.journal.records()) == 1

        service_scenario(tmp_path, scenario, jobs=1, retry_backoff_s=0.05)
        assert_store_invariants(str(tmp_path / "store"))

    def test_golden_digests_survive_worker_kills(self, tmp_path):
        """The headline: SIGKILL workers repeatedly during the golden
        sweep; every one of the 14 pinned digests still comes out."""

        async def scenario(service):
            cells = golden_plan()
            sweep = asyncio.ensure_future(service.run_cells(cells))
            killed = 0
            deadline = time.monotonic() + 120.0
            while killed < 3 and not sweep.done():
                assert time.monotonic() < deadline
                await asyncio.sleep(0.3)
                pids = worker_pids(service.pool)
                if pids and kill_worker(pids[killed % len(pids)]):
                    killed += 1
            results = await sweep
            assert killed >= 1, "chaos never landed a kill"
            digests = set()
            for (record, served), cell in zip(results, cells):
                assert record is not None, cell.cell_id
                assert record["status"] == "ok", record
                digests.add(record["digest"])
            assert digests == GOLDEN_DIGESTS
            assert service.pool.counters["crashes"] >= 1

        service_scenario(tmp_path, scenario, jobs=2, max_retries=4,
                         retry_backoff_s=0.05, request_timeout_s=300.0)
        assert_store_invariants(str(tmp_path / "store"))


# -- torn files -------------------------------------------------------------------------


class TestTornWrites:
    def test_torn_result_files_recompute_to_logged_digest(
            self, test_kinds, tmp_path):
        async def scenario(service):
            earlier = kind_cell("instant", n=41)
            await service.run_cell(earlier)
            cell = kind_cell("instant", n=42)
            first, _ = await service.run_cell(cell)
            path = service.store.journal.journal_path
            rng = random.Random(1996)
            for round_no in range(5):
                # Tear inside the journal's last line, which always holds
                # the latest record for ``cell``.
                with open(path, "rb") as handle:
                    last_start = len(b"".join(handle.readlines()[:-1]))
                offset = tear_file(path, rng, min_remaining=last_start + 1)
                assert offset is not None
                again, served = await service.run_cell(cell)
                # Torn record → corrupt miss → recompute; the digest
                # must match what the journal pinned the first time.
                assert served in ("computed", "store")
                assert again["digest"] == first["digest"]
            assert service.store.corrupt >= 1
            # Earlier records stay hits.
            _, served = await service.run_cell(earlier)
            assert served == "store"

        service_scenario(tmp_path, scenario, jobs=1)
        assert_store_invariants(str(tmp_path / "store"))

    def test_torn_journal_line_loses_only_that_record(
            self, test_kinds, tmp_path):
        root = str(tmp_path / "store")
        cells = [kind_cell("instant", n=n) for n in (1, 2, 3)]

        async def fill(service):
            return [await service.run_cell(cell) for cell in cells]

        computed = service_scenario(tmp_path, fill, jobs=1)
        # Tear a line mid-file (not just the tail).
        path = os.path.join(root, "journal.jsonl")
        with open(path) as handle:
            lines = handle.readlines()
        assert len(lines) == 3
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)

        async def reserve(service):
            assert service.store.stats()["skipped_log_lines"] == 1
            assert len(service.store) == 2
            return [await service.run_cell(cell) for cell in cells]

        served = service_scenario(tmp_path, reserve, jobs=1)
        assert [how for _, how in served] == ["store", "computed", "store"]
        assert [record["digest"] for record, _ in served] == \
            [record["digest"] for record, _ in computed]
        assert_store_invariants(root)


# -- ENOSPC on the store ----------------------------------------------------------------


class TestFullDisk:
    def test_enospc_still_serves_results_uncached(
            self, test_kinds, tmp_path, monkeypatch):
        async def scenario(service):
            monkeypatch.setenv(RAISE_ENV, "store.put.pre-log")
            cell = kind_cell("instant", n=7)
            record, served = await service.run_cell(cell)
            # The client is served even though the store is "full".
            assert served == "computed" and record["status"] == "ok"
            assert service.metrics.counters["svc.store.put_errors"].value == 1
            assert len(service.store) == 0
            # Disk "recovers": the recompute caches and pins the same
            # digest the full-disk request produced.
            monkeypatch.delenv(RAISE_ENV)
            again, served = await service.run_cell(cell)
            assert served == "computed"
            assert again["digest"] == record["digest"]
            final, served = await service.run_cell(cell)
            assert served == "store" and final == again

        service_scenario(tmp_path, scenario, jobs=1)
        assert_store_invariants(str(tmp_path / "store"))


# -- process death inside the put window ------------------------------------------------


CRASH_DRIVER = textwrap.dedent(
    """
    import asyncio, os, sys
    sys.path[:0] = [r"{repo}", r"{repo}/src"]
    os.environ[{crash_env!r}] = {point!r}
    from repro.runner import Cell
    from repro.svc import ServiceConfig, SimulationService

    async def main():
        service = SimulationService(
            ServiceConfig(store_dir=r"{store}", jobs=1,
                          request_timeout_s=120.0)
        )
        await service.start()
        record, served = await service.run_cell(
            Cell(trace="ld", policy="demand", disks=1, scale=0.05)
        )
        print("UNREACHABLE", served, flush=True)

    asyncio.run(main())
    """
)


def run_crash_driver(store_dir, point):
    proc = subprocess.run(
        [sys.executable, "-c", CRASH_DRIVER.format(
            repo=REPO_ROOT, store=store_dir, point=point,
            crash_env=CRASH_ENV,
        )],
        cwd=REPO_ROOT, capture_output=True, timeout=120.0,
    )
    assert proc.returncode == CHAOS_EXIT_CODE, proc.stderr.decode()
    assert b"UNREACHABLE" not in proc.stdout
    return proc


class TestCrashWindows:
    CELL = Cell(trace="ld", policy="demand", disks=1, scale=0.05)

    def serve_once(self, store_dir):
        async def main():
            service = SimulationService(
                ServiceConfig(store_dir=store_dir, jobs=1)
            )
            await service.start()
            try:
                return await service.run_cell(self.CELL), service.status()
            finally:
                await service.drain("signal")

        return asyncio.run(main())

    def test_killed_after_log_append_restart_serves_from_store(
            self, tmp_path):
        """SIGKILL just after the fsynced append, before anything else
        happens: the result is durable, so a restart computes nothing."""
        store_dir = str(tmp_path / "store")
        run_crash_driver(store_dir, "store.put.post-log")
        (record, served), status = self.serve_once(store_dir)
        assert served == "store"
        assert record["status"] == "ok"
        assert status["pool"]["counters"]["dispatched"] == 0
        # Cross-check: an independent in-process compute agrees.
        outcome = execute_cell(self.CELL)
        assert record["digest"] == outcome.digest
        assert_store_invariants(store_dir)

    def test_killed_before_log_is_a_clean_recompute(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_crash_driver(store_dir, "store.put.pre-log")
        assert Journal(store_dir).records() == []
        (record, served), _ = self.serve_once(store_dir)
        assert served == "computed"
        outcome = execute_cell(self.CELL)
        assert record["digest"] == outcome.digest
        assert_store_invariants(store_dir)


# -- the acceptance sweep: golden cells, cached == computed, hit ratio 1.0 --------------


class TestGoldenAcceptance:
    def test_golden_sweep_then_identical_resweep_is_pure_store(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def scenario(service):
            cells = golden_plan()
            first = await service.run_cells(cells)
            digests = {}
            for (record, served), gcell in zip(first, golden.CELLS):
                assert record is not None and record["status"] == "ok"
                assert served in ("computed", "coalesced")
                digests[golden.cell_id(gcell)] = record["digest"]
            # Computed digests are exactly the pinned golden values.
            assert digests == golden.EXPECTED

            hits_before = service.store.hits
            misses_before = service.store.misses
            dispatched_before = service.pool.counters["dispatched"]
            writes_before = service.store.writes

            second = await service.run_cells(cells)
            for (a, _), (b, served) in zip(first, second):
                assert served == "store"
                assert b == a  # cached == computed, byte for byte

            # The repeated sweep: hit ratio 1.0, zero simulation work,
            # nothing new recorded.
            assert service.store.misses == misses_before
            assert service.store.hits == hits_before + len(cells)
            assert service.pool.counters["dispatched"] == dispatched_before
            assert service.store.writes == writes_before
            bundle_hits = service.store.hits - hits_before
            bundle_misses = service.store.misses - misses_before
            assert bundle_hits / (bundle_hits + bundle_misses) == 1.0

        service_scenario(tmp_path, scenario, jobs=2, request_timeout_s=300.0)
        assert_store_invariants(store_dir)

        # And across a restart: a fresh service over the same store still
        # serves all 14 bit-identically with zero simulation work.
        async def restart_scenario(service):
            results = await service.run_cells(golden_plan())
            for (record, served), gcell in zip(results, golden.CELLS):
                assert served == "store"
                assert record["digest"] == golden.EXPECTED[
                    golden.cell_id(gcell)
                ]
            assert service.pool.counters["dispatched"] == 0
            assert service.store.hit_ratio == 1.0

        service_scenario(tmp_path, restart_scenario, jobs=2,
                         request_timeout_s=300.0)


# -- one log: a run directory is a store, a store is a run directory ---------------------


class TestOneLog:
    def test_swept_run_directory_serves_from_store(self, tmp_path):
        run_dir = str(tmp_path / "run")
        swept = run_plan(golden_plan(), journal_dir=run_dir, jobs=2,
                         install_signal_handlers=False)
        assert swept.exit_code == 0
        journaled = Journal(run_dir).completed()

        async def scenario(service):
            results = await service.run_cells(golden_plan())
            for (record, served), gcell in zip(results, golden.CELLS):
                assert served == "store"
                assert record["digest"] == golden.EXPECTED[
                    golden.cell_id(gcell)
                ]
                assert record == journaled[record["hash"]]
            assert service.pool.counters["dispatched"] == 0

        service_scenario(tmp_path, scenario, store_dir=run_dir)
        assert_store_invariants(run_dir)

    def test_service_store_resumes_as_a_sweep(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def scenario(service):
            return await service.run_cells(golden_plan())

        served = service_scenario(tmp_path, scenario, store_dir=store_dir,
                                  request_timeout_s=300.0)
        resumed = run_plan(golden_plan(), journal_dir=store_dir, jobs=1,
                           resume=True, install_signal_handlers=False)
        assert resumed.exit_code == 0
        assert resumed.skipped == len(golden.CELLS)
        assert resumed.counters["dispatched"] == 0
        digests = {
            golden.cell_id(gcell): resumed.digests[cell.config_hash]
            for gcell, cell in zip(golden.CELLS, golden_plan())
        }
        assert digests == golden.EXPECTED
        assert [record for record, _ in served] == [
            resumed.records[cell.config_hash] for cell in golden_plan()
        ]
        assert_store_invariants(store_dir)
