"""The supervised runner: plans, journals, pool supervision, bit-identity.

The load-bearing guarantees (docs/RUNNER.md):

* **Bit-identity** — a plan executed on the parallel pool, resumed from a
  journal, or interrupted by SIGTERM and resumed produces exactly the
  digests of an uninterrupted serial run; verified here against the 14
  pinned golden cells of ``tests/test_golden_results.py``.
* **Supervision** — timeouts, worker crashes, and in-cell exceptions
  become structured failure records while every other cell completes;
  crashes are retried with backoff, deterministic exceptions are not.
* **Durability** — every journal record is fsynced before the runner
  moves on; a torn final line is skipped, not fatal.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core.results import SimulationResult
from repro.obs import MetricsRegistry
from repro.runner import (
    Cell,
    Journal,
    RunReport,
    execute_cell,
    execute_cells,
    plan_hash,
    run_plan,
    sweep_cells,
    tuned_reverse_cell,
    validate_names,
    write_json_atomic,
)
from repro.runner.execute import CELL_KINDS
from repro.runner.runner import (
    EXIT_DEADLINE,
    EXIT_FAILED_CELLS,
    EXIT_INTERRUPTED,
    EXIT_OK,
)

from tests import test_golden_results as golden

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def golden_plan():
    """The 14 golden cells as a runner plan (stock policy parameters, so
    digests are directly comparable to the pinned values)."""
    cells = []
    for trace, policy, disks, discipline, timeline in golden.CELLS:
        overrides = {"record_timeline": True} if timeline else {}
        cells.append(Cell(
            trace=trace, policy=policy, disks=disks, scale=golden.SCALE,
            discipline=discipline, scaled_defaults=False,
            config_overrides=overrides,
        ))
    return cells


GOLDEN_DIGESTS = set(golden.EXPECTED.values())


def fake_result(tag="fake"):
    return SimulationResult(
        trace_name=tag, policy_name="demand", num_disks=1, cache_blocks=4,
        fetches=1, compute_ms=1.0, driver_ms=0.5, stall_ms=0.0,
        elapsed_ms=1.5, average_fetch_ms=0.5, disk_utilization=0.1,
    )


# -- test cell kinds (inherited by fork workers) ----------------------------------------

def _kind_sleep(cell, profiler=None, observer=None, trace_cache=None):
    time.sleep(float(cell.params["sleep_s"]))
    return fake_result("slept"), "digest-slept"


def _kind_crash_once(cell, profiler=None, observer=None, trace_cache=None):
    sentinel = cell.params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed\n")
        os._exit(3)  # hard crash: no exception record, just a dead worker
    return fake_result("recovered"), "digest-recovered"


def _kind_always_fail(cell, profiler=None, observer=None, trace_cache=None):
    raise RuntimeError("injected deterministic failure")


def _kind_always_crash(cell, profiler=None, observer=None, trace_cache=None):
    os._exit(3)


def _kind_fixed(cell, profiler=None, observer=None, trace_cache=None):
    return fake_result("fixed"), "digest-fixed"


def _kind_instant(cell, profiler=None, observer=None, trace_cache=None):
    return fake_result("instant"), f"digest-{cell.params['n']}"


@pytest.fixture
def test_kinds():
    extra = {
        "sleep": _kind_sleep,
        "crash-once": _kind_crash_once,
        "always-crash": _kind_always_crash,
        "always-fail": _kind_always_fail,
        "instant": _kind_instant,
    }
    CELL_KINDS.update(extra)
    yield extra
    for name in extra:
        CELL_KINDS.pop(name, None)


def kind_cell(kind, **params):
    return Cell(trace="ld", policy="demand", disks=1, kind=kind,
                params=params)


# -- plans and hashes -------------------------------------------------------------------


class TestPlan:
    def test_config_hash_is_stable_and_param_sensitive(self):
        a = Cell(trace="ld", policy="demand", disks=2)
        b = Cell(trace="ld", policy="demand", disks=2)
        c = Cell(trace="ld", policy="demand", disks=4)
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_config_hash_ignores_kwarg_insertion_order(self):
        a = Cell(trace="ld", policy="aggressive", disks=2,
                 policy_kwargs={"batch_size": 8, "horizon": 4})
        b = Cell(trace="ld", policy="aggressive", disks=2,
                 policy_kwargs={"horizon": 4, "batch_size": 8})
        assert a.config_hash == b.config_hash

    def test_plan_hash_is_order_sensitive(self):
        a = Cell(trace="ld", policy="demand", disks=1)
        b = Cell(trace="ld", policy="demand", disks=2)
        assert plan_hash([a, b]) != plan_hash([b, a])

    def test_cell_id_mirrors_golden_naming(self):
        cell = Cell(trace="cscope1", policy="demand", disks=4)
        assert cell.cell_id == "cscope1/demand/d4/cscan"

    def test_sweep_cells_order_matches_historical_loop(self):
        class Setting:
            scale = 0.1
            discipline = "cscan"
            cpu_speedup = 1.0
            cache_blocks = None
            disk_model = "hp97560"
            seed = None

        cells = sweep_cells(Setting(), "ld", ("demand", "forestall"), (1, 2))
        assert [(c.disks, c.policy) for c in cells] == [
            (1, "demand"), (1, "forestall"), (2, "demand"), (2, "forestall"),
        ]


class TestValidation:
    def test_unknown_trace_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid traces.*cscope1"):
            validate_names("nonesuch", "demand")

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid policies.*aggressive"):
            validate_names("ld", "lru")

    def test_run_one_rejects_unknown_policy_up_front(self):
        from repro.analysis.experiments import ExperimentSetting, run_one
        setting = ExperimentSetting(scale=0.05)
        with pytest.raises(ValueError, match="valid policies"):
            run_one(setting, "ld", "lru", 1)

    def test_empty_fetch_time_grid_is_a_clear_error(self):
        class Setting:
            scale = 0.1
            discipline = "cscan"
            cpu_speedup = 1.0
            cache_blocks = None
            disk_model = "hp97560"
            seed = None

        with pytest.raises(ValueError, match="fetch_times grid is empty"):
            tuned_reverse_cell(Setting(), "ld", 2, fetch_times=())
        with pytest.raises(ValueError, match="batch_sizes grid is empty"):
            tuned_reverse_cell(Setting(), "ld", 2, batch_sizes=())

    def test_unknown_cell_kind(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            execute_cell(kind_cell("no-such-kind"))


# -- journal durability -----------------------------------------------------------------


class TestJournal:
    def test_append_then_records_roundtrip(self, tmp_path):
        journal = Journal(str(tmp_path / "run"))
        journal.append({"kind": "cell", "hash": "h1", "status": "ok"})
        journal.append({"kind": "cell", "hash": "h2", "status": "failed"})
        journal.close()
        records = journal.records()
        assert [r["hash"] for r in records] == ["h1", "h2"]
        assert all(r["v"] == 1 for r in records)

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = Journal(str(tmp_path / "run"))
        journal.append({"kind": "cell", "hash": "h1", "status": "ok"})
        journal.close()
        with open(journal.journal_path, "a") as handle:
            handle.write('{"kind": "cell", "hash": "h2", "sta')  # killed here
        assert [r["hash"] for r in journal.records()] == ["h1"]
        assert set(journal.completed()) == {"h1"}

    def test_completed_excludes_failures_and_failures_exclude_retried(
            self, tmp_path):
        journal = Journal(str(tmp_path / "run"))
        journal.append({"kind": "cell", "hash": "h1", "status": "failed"})
        journal.append({"kind": "cell", "hash": "h1", "status": "ok"})
        journal.append({"kind": "cell", "hash": "h2", "status": "failed"})
        journal.close()
        assert set(journal.completed()) == {"h1"}
        assert [r["hash"] for r in journal.failures()] == ["h2"]

    def test_manifest_atomic_roundtrip(self, tmp_path):
        journal = Journal(str(tmp_path / "run"))
        journal.write_manifest({"status": "running", "cells": 3})
        manifest = journal.read_manifest()
        assert manifest["status"] == "running"
        assert manifest["v"] == 1
        assert not [
            name for name in os.listdir(journal.directory)
            if name.endswith(".tmp")
        ]

    def test_write_json_atomic_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_atomic(str(path), {"b": 2, "a": 1})
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}
        assert os.listdir(tmp_path) == ["out.json"]


# -- supervision: timeouts, crashes, failures -------------------------------------------


class TestSupervision:
    def test_timeout_fires_and_other_cells_complete(self, test_kinds, tmp_path):
        plan = [
            kind_cell("sleep", sleep_s=30.0),
            kind_cell("instant", n=1),
            kind_cell("instant", n=2),
        ]
        report = run_plan(
            plan, journal_dir=str(tmp_path / "run"), jobs=2, timeout_s=1.0,
            install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_FAILED_CELLS
        assert report.completed == 2
        (failure,) = report.failures
        assert failure["failure"] == "timeout"
        assert failure["error"]["type"] == "CellTimeout"
        assert "exceeded the per-cell timeout" in failure["error"]["message"]
        assert report.counters["timeouts"] == 1
        assert report.counters["respawns"] >= 1

    def test_timeout_does_not_fire_on_fast_cells(self, test_kinds, tmp_path):
        plan = [kind_cell("instant", n=1), kind_cell("instant", n=2)]
        report = run_plan(
            plan, journal_dir=str(tmp_path / "run"), jobs=2, timeout_s=30.0,
            install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_OK
        assert report.counters["timeouts"] == 0
        assert report.counters["respawns"] == 0

    def test_crashed_worker_retries_then_succeeds(self, test_kinds, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        plan = [kind_cell("crash-once", sentinel=sentinel),
                kind_cell("instant", n=1)]
        report = run_plan(
            plan, journal_dir=str(tmp_path / "run"), jobs=2,
            retry_backoff_s=0.05, install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_OK
        assert os.path.exists(sentinel)
        assert report.counters["crashes"] == 1
        assert report.counters["retries"] == 1
        assert report.counters["respawns"] == 1
        crash_hash = plan[0].config_hash
        assert report.records[crash_hash]["status"] == "ok"
        assert report.records[crash_hash]["attempt"] == 2

    def test_permanently_crashing_cell_exhausts_retries(
            self, test_kinds, tmp_path):
        plan = [kind_cell("always-crash"), kind_cell("instant", n=1)]
        report = run_plan(
            plan, journal_dir=str(tmp_path / "run"), jobs=2, max_retries=1,
            retry_backoff_s=0.05, install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_FAILED_CELLS
        assert report.completed == 1  # the healthy cell still finished
        (failure,) = report.failures
        assert failure["failure"] == "crash"
        assert failure["error"]["type"] == "WorkerCrashed"
        assert failure["attempt"] == 2  # initial + 1 retry
        assert report.counters["crashes"] == 2

    def test_in_cell_exception_is_not_retried(self, test_kinds, tmp_path):
        plan = [kind_cell("always-fail"), kind_cell("instant", n=1)]
        report = run_plan(
            plan, journal_dir=str(tmp_path / "run"), jobs=1,
            install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_FAILED_CELLS
        (failure,) = report.failures
        assert failure["failure"] == "exception"
        assert failure["error"]["type"] == "RuntimeError"
        assert "injected deterministic failure" in failure["error"]["message"]
        assert "RuntimeError" in failure["error"]["traceback"]
        assert failure["attempt"] == 1  # deterministic: retrying is futile
        assert report.counters["retries"] == 0

    def test_runner_counters_reach_metrics(self, test_kinds, tmp_path):
        metrics = MetricsRegistry()
        run_plan(
            [kind_cell("instant", n=1)], journal_dir=str(tmp_path / "run"),
            jobs=1, metrics=metrics, install_signal_handlers=False,
        )
        counters = metrics.to_dict()["counters"]
        assert counters["runner.cells_total"] == 1
        assert counters["runner.ok"] == 1
        assert counters["runner.dispatched"] == 1


# -- journal hardening: mid-file corruption, stale tmp sweep ----------------------------


class TestJournalHardening:
    def test_malformed_midfile_lines_are_skipped_and_counted(self, tmp_path):
        journal = Journal(str(tmp_path / "run"))
        journal.append({"kind": "cell", "hash": "h1", "status": "ok"})
        journal.append({"kind": "cell", "hash": "h2", "status": "ok"})
        journal.close()
        # Corrupt the middle of the file, not just the tail: a partial
        # overwrite or bad sector, not a torn final append.
        with open(journal.journal_path) as handle:
            lines = handle.readlines()
        lines.insert(1, '{"kind": "cell", "hash": "h-torn", "sta\n')
        lines.insert(2, "\x00\x00garbage\x00\n")
        with open(journal.journal_path, "w") as handle:
            handle.writelines(lines)
        assert [r["hash"] for r in journal.records()] == ["h1", "h2"]
        assert journal.skipped_lines == 2
        assert set(journal.completed()) == {"h1", "h2"}

    def test_skipped_lines_reach_runner_metrics(self, test_kinds, tmp_path):
        journal_dir = str(tmp_path / "run")
        plan = [kind_cell("instant", n=1)]
        run_plan(plan, journal_dir=journal_dir, jobs=1,
                 install_signal_handlers=False)
        with open(os.path.join(journal_dir, "journal.jsonl"), "a") as handle:
            handle.write('{"kind": "cell", "hash": "h-torn", "sta\n')
        metrics = MetricsRegistry()
        resumed = run_plan(plan, journal_dir=journal_dir, jobs=1, resume=True,
                           metrics=metrics, install_signal_handlers=False)
        assert resumed.skipped == 1
        counters = metrics.to_dict()["counters"]
        assert counters["runner.journal_skipped_lines"] == 1

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        from repro.runner import sweep_stale_tmp

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        # The write_json_atomic naming scheme: .<name>.<pid>.tmp
        stale = run_dir / ".manifest.json.12345.tmp"
        stale.write_text('{"half": ')
        keeper = run_dir / "manifest.json"
        keeper.write_text("{}")
        journal = Journal(str(run_dir))
        journal.append({"kind": "cell", "hash": "h1", "status": "ok"})
        journal.close()
        assert not stale.exists()
        assert keeper.exists()
        assert journal.swept_tmp == 1
        # Idempotent and selective: nothing left to sweep.
        assert sweep_stale_tmp(str(run_dir)) == 0

    def test_sweep_reaches_runner_metrics(self, test_kinds, tmp_path):
        journal_dir = tmp_path / "run"
        journal_dir.mkdir()
        (journal_dir / ".manifest.json.999.tmp").write_text("{")
        metrics = MetricsRegistry()
        run_plan([kind_cell("instant", n=1)], journal_dir=str(journal_dir),
                 jobs=1, metrics=metrics, install_signal_handlers=False)
        assert metrics.to_dict()["counters"]["runner.journal_swept_tmp"] == 1


# -- fake-clock scheduling: backoff values, timeout/respawn ordering --------------------


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class StubWorker:
    """A worker stand-in for scheduling tests: no process, no pipe."""

    def __init__(self, worker_id=0):
        self.id = worker_id
        self.task = None
        self.started_at = 0.0
        self.killed = False
        self.dispatched = []

    @property
    def busy(self):
        return self.task is not None

    def dispatch(self, cell, attempt, now, meta=None):
        self.task = (cell, attempt, meta)
        self.started_at = now
        self.dispatched.append((cell.config_hash, attempt, now))

    def kill(self):
        self.killed = True


class TestPoolScheduling:
    """The pool's retry/backoff/timeout arithmetic under a fake clock —
    no real processes, no real sleeps, exact expected values."""

    def make_pool(self, clock, **kwargs):
        from repro.runner.pool import SupervisedPool

        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("retry_backoff_s", 0.5)
        return SupervisedPool(clock=clock, **kwargs)

    def test_backoff_is_exponential_from_base(self):
        pool = self.make_pool(FakeClock(), retry_backoff_s=0.5)
        assert [pool.backoff_s(a) for a in (1, 2, 3, 4)] == [
            0.5, 1.0, 2.0, 4.0,
        ]

    def test_retry_waits_out_backoff_on_the_clock(self, test_kinds):
        clock = FakeClock(now=100.0)
        pool = self.make_pool(clock)
        cell = kind_cell("instant", n=1)
        pool._schedule_retry(cell, attempt=1)  # crashed on attempt 1
        assert pool.counters["retries"] == 1
        # Backoff for attempt 1 is 0.5s: not ready at +0.49, ready at +0.5.
        clock.advance(0.49)
        assert pool._next_ready(clock()) is None
        clock.advance(0.01)
        ready = pool._next_ready(clock())
        assert ready is not None
        ready_cell, attempt, _meta = ready
        assert ready_cell.config_hash == cell.config_hash
        assert attempt == 2

    def test_second_retry_doubles_the_wait(self, test_kinds):
        clock = FakeClock(now=50.0)
        pool = self.make_pool(clock)
        cell = kind_cell("instant", n=1)
        pool._schedule_retry(cell, attempt=2)
        clock.advance(0.99)  # attempt-2 backoff is 1.0s
        assert pool._next_ready(clock()) is None
        clock.advance(0.01)
        assert pool._next_ready(clock()) is not None

    def test_backing_off_retry_does_not_block_fresh_work(self, test_kinds):
        clock = FakeClock(now=10.0)
        pool = self.make_pool(clock)
        retry = kind_cell("instant", n=1)
        fresh = kind_cell("instant", n=2)
        pool._schedule_retry(retry, attempt=1)  # head of the queue, gated
        pool.submit(fresh)
        ready = pool._next_ready(clock())
        assert ready is not None and ready[0].config_hash == fresh.config_hash
        # The gated retry is still queued, untouched.
        assert pool.queue_depth() == 1

    def test_timeout_kills_respawns_then_dispatches_next(self, test_kinds):
        clock = FakeClock(now=0.0)
        pool = self.make_pool(clock, timeout_s=5.0)
        replacement = StubWorker(worker_id=99)
        pool._spawn = lambda: replacement  # no real processes
        worker = StubWorker(worker_id=0)
        pool._workers = [worker]

        slow = kind_cell("sleep", sleep_s=99.0)
        nxt = kind_cell("instant", n=1)
        pool.submit(slow)
        pool.submit(nxt)
        pool._dispatch(clock())
        assert worker.task is not None
        assert worker.started_at == 0.0

        emitted = []
        clock.advance(5.0)  # exactly at the limit: not expired yet
        pool._expire_timeouts(emitted.append)
        assert not worker.killed and not emitted

        clock.advance(0.01)  # past the limit: kill, record, respawn
        pool._expire_timeouts(emitted.append)
        assert worker.killed
        (record,) = emitted
        assert record["failure"] == "timeout"
        assert record["hash"] == slow.config_hash
        assert "exceeded the per-cell timeout" in record["error"]["message"]
        assert pool.counters["timeouts"] == 1
        assert pool.counters["respawns"] == 1
        # The replacement worker is in place and immediately usable: the
        # next dispatch puts the next cell on it with a fresh start time.
        assert pool._workers == [replacement]
        pool._dispatch(clock())
        assert replacement.task == (nxt, 1, None)
        assert replacement.started_at == clock.now

    def test_dispatch_to_freshly_dead_worker_requeues_and_respawns(
            self, test_kinds):
        """A worker SIGKILLed between the liveness check and the pipe
        send must not crash the supervisor: the cell is requeued at the
        SAME attempt (the death was not its failure) and the corpse is
        replaced."""
        clock = FakeClock(now=0.0)
        pool = self.make_pool(clock)
        replacement = StubWorker(worker_id=99)
        pool._spawn = lambda: replacement

        class DeadWorker(StubWorker):
            def dispatch(self, cell, attempt, now, meta=None):
                raise BrokenPipeError(32, "Broken pipe")

        corpse = DeadWorker(worker_id=0)
        pool._workers = [corpse]
        cell = kind_cell("instant", n=1)
        pool.submit(cell)

        pool._dispatch(clock())
        assert corpse.killed
        assert pool._workers == [replacement]
        assert pool.counters["respawns"] == 1
        assert pool.counters["dispatched"] == 0
        assert pool.counters["retries"] == 0  # no retry budget consumed
        # The cell went back to the head of the queue, immediately ready,
        # and the next dispatch lands it on the replacement at attempt 1.
        assert pool.queue_depth() == 1
        pool._dispatch(clock())
        assert replacement.task == (cell, 1, None)
        assert pool.counters["dispatched"] == 1


# -- cancellation (real processes) ------------------------------------------------------


class TestPoolCancellation:
    def run_serve(self, pool, emit):
        import threading

        thread = threading.Thread(target=pool.serve, args=(emit,))
        thread.start()
        return thread

    def test_cancel_pending_cell_drops_it_before_dispatch(self, test_kinds):
        from repro.runner.pool import SupervisedPool

        pool = SupervisedPool(jobs=1)
        records = []
        slow = kind_cell("sleep", sleep_s=0.4)
        queued = kind_cell("instant", n=1)
        pool.submit(slow)
        pool.submit(queued)
        thread = self.run_serve(pool, records.append)
        try:
            assert pool.cancel(queued.config_hash) is True
            deadline = time.monotonic() + 30.0
            while len(records) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            pool.request_stop()
            thread.join(timeout=30.0)
        by_hash = {r["hash"]: r for r in records}
        assert by_hash[slow.config_hash]["status"] == "ok"
        cancelled = by_hash[queued.config_hash]
        assert cancelled["failure"] == "cancelled"
        assert cancelled["error"]["type"] == "CellCancelled"
        assert pool.counters["cancelled"] == 1

    def test_cancel_running_cell_kills_and_respawns(self, test_kinds):
        from repro.runner.pool import SupervisedPool

        pool = SupervisedPool(jobs=1)
        records = []
        stuck = kind_cell("sleep", sleep_s=60.0)
        after = kind_cell("instant", n=2)
        pool.submit(stuck)
        thread = self.run_serve(pool, records.append)
        try:
            deadline = time.monotonic() + 30.0
            while pool.counters["dispatched"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert pool.cancel(stuck.config_hash) is True
            pool.submit(after)  # the respawned worker picks this up
            while len(records) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            pool.request_stop()
            thread.join(timeout=30.0)
        by_hash = {r["hash"]: r for r in records}
        assert by_hash[stuck.config_hash]["failure"] == "cancelled"
        assert by_hash[after.config_hash]["status"] == "ok"
        assert pool.counters["respawns"] >= 1

    def test_cancel_unknown_hash_is_a_noop(self, test_kinds):
        from repro.runner.pool import SupervisedPool

        pool = SupervisedPool(jobs=1)
        assert pool.cancel("no-such-hash") is False
        assert pool.counters["cancelled"] == 0


# -- event-driven supervision (real processes) ------------------------------------------

SUPERVISOR_THREAD = "supervisor-under-test"


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class SupervisorProbe:
    """Counts the blocking calls the supervision thread makes — pipe and
    wake-channel waits, and sleeps — and tells whether it is blocked in
    one right now, and with what timeout."""

    def __init__(self, monkeypatch):
        import multiprocessing.connection

        self.calls = 0
        self.blocked = False
        self.timeout = None
        monkeypatch.setattr(
            multiprocessing.connection, "wait",
            self._counted(multiprocessing.connection.wait, timeout_arg=1),
        )
        monkeypatch.setattr(time, "sleep", self._counted(time.sleep, 0))

    def _counted(self, real, timeout_arg):
        def call(*args, **kwargs):
            if threading.current_thread().name != SUPERVISOR_THREAD:
                return real(*args, **kwargs)
            self.calls += 1
            self.timeout = (
                args[timeout_arg] if len(args) > timeout_arg
                else kwargs.get("timeout")
            )
            self.blocked = True
            try:
                return real(*args, **kwargs)
            finally:
                self.blocked = False

        return call

    def serve(self, pool, emit):
        thread = threading.Thread(
            target=pool.serve, args=(emit,), name=SUPERVISOR_THREAD
        )
        thread.start()
        return thread

    def wait_blocked_without_timer(self):
        wait_until(lambda: self.blocked)
        assert self.timeout is None


class TestEventDrivenSupervision:
    """The loop blocks on worker pipes plus the pool's wake channel, and
    times out only for a real timer: an idle pool makes no periodic
    wake-ups, and submit, cancel and stop act at once."""

    def test_idle_serve_pool_makes_no_periodic_wakeups(self, monkeypatch):
        from repro.runner.pool import SupervisedPool

        probe = SupervisorProbe(monkeypatch)
        pool = SupervisedPool(jobs=1)
        thread = probe.serve(pool, [].append)
        try:
            time.sleep(0.5)
            idle_calls = probe.calls
        finally:
            pool.request_stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        # A 50 ms poll would have woken about ten times.
        assert idle_calls <= 2

    def test_submit_wakes_an_idle_supervisor(self, test_kinds, monkeypatch):
        from repro.runner.pool import SupervisedPool

        probe = SupervisorProbe(monkeypatch)
        pool = SupervisedPool(jobs=1)
        records = []
        thread = probe.serve(pool, records.append)
        try:
            probe.wait_blocked_without_timer()
            started = time.monotonic()
            pool.submit(kind_cell("instant", n=1))
            wait_until(lambda: len(records) == 1)
            assert time.monotonic() - started < 1.0
            assert records[0]["status"] == "ok"
        finally:
            pool.request_stop()
            thread.join(timeout=30.0)

    def test_cancel_of_a_queued_cell_wakes_the_supervisor(
            self, test_kinds, monkeypatch):
        from repro.runner.pool import SupervisedPool

        probe = SupervisorProbe(monkeypatch)
        pool = SupervisedPool(jobs=1)
        records = []
        slow = kind_cell("sleep", sleep_s=30.0)
        queued = kind_cell("instant", n=2)
        pool.submit(slow)
        pool.submit(queued)
        thread = probe.serve(pool, records.append)
        try:
            wait_until(lambda: pool.counters["dispatched"] == 1)
            probe.wait_blocked_without_timer()
            started = time.monotonic()
            assert pool.cancel(queued.config_hash) is True
            wait_until(lambda: len(records) == 1)
            assert time.monotonic() - started < 1.0
            assert records[0]["hash"] == queued.config_hash
            assert records[0]["failure"] == "cancelled"
        finally:
            pool.cancel(slow.config_hash)
            pool.request_stop()
            thread.join(timeout=30.0)

    def test_request_stop_wakes_an_idle_supervisor(self, monkeypatch):
        from repro.runner.pool import SupervisedPool

        probe = SupervisorProbe(monkeypatch)
        pool = SupervisedPool(jobs=1)
        thread = probe.serve(pool, [].append)
        try:
            probe.wait_blocked_without_timer()
            started = time.monotonic()
            pool.request_stop()
            thread.join(timeout=30.0)
            assert time.monotonic() - started < 1.0
        finally:
            pool.request_stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_wake_after_supervision_ends_is_harmless(self, test_kinds):
        from repro.runner.pool import SupervisedPool

        pool = SupervisedPool(jobs=1)
        status = pool.run([kind_cell("instant", n=1)], [].append)
        assert status.stop_reason is None
        pool.submit(kind_cell("instant", n=2))
        assert pool.cancel(kind_cell("instant", n=2).config_hash) is True
        pool.request_stop()
        assert pool.queue_depth() == 1

    def test_deadline_drains_the_running_cell_and_leaves_the_rest(
            self, test_kinds, tmp_path):
        journal_dir = str(tmp_path / "run")
        plan = [kind_cell("sleep", sleep_s=0.6)] + [
            kind_cell("instant", n=n) for n in range(3)
        ]
        report = run_plan(
            plan, journal_dir=journal_dir, jobs=1, max_minutes=0.2 / 60.0,
            install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_DEADLINE
        assert report.stop_reason == "deadline"
        # The cell running at the deadline drained into the journal ...
        assert report.records[plan[0].config_hash]["status"] == "ok"
        # ... and the rest were never dispatched: left for --resume.
        assert report.counters["dispatched"] == 1
        assert report.results()[1:] == [None, None, None]
        assert Journal(journal_dir).read_manifest()["status"] == "deadline"
        resumed = run_plan(plan, journal_dir=journal_dir, jobs=1,
                           resume=True, install_signal_handlers=False)
        assert resumed.exit_code == EXIT_OK
        assert resumed.skipped == 1 and resumed.completed == 4


# -- resume -----------------------------------------------------------------------------


class TestResume:
    def test_resume_skips_completed_and_reruns_failed(
            self, test_kinds, tmp_path):
        journal_dir = str(tmp_path / "run")
        plan = [kind_cell("always-fail"), kind_cell("instant", n=1)]
        first = run_plan(plan, journal_dir=journal_dir, jobs=1,
                         install_signal_handlers=False)
        assert first.exit_code == EXIT_FAILED_CELLS

        # Second run: the failed cell is retried, the ok cell skipped.
        CELL_KINDS["always-fail"] = _kind_fixed  # "fixed" between runs
        second = run_plan(
            plan, journal_dir=journal_dir, jobs=1, resume=True,
            install_signal_handlers=False,
        )
        assert second.exit_code == EXIT_OK
        assert second.skipped == 1
        assert second.completed == 2

    def test_resumed_results_are_reconstructed_in_plan_order(self, tmp_path):
        journal_dir = str(tmp_path / "run")
        plan = [
            Cell(trace="ld", policy="demand", disks=d, scale=0.05)
            for d in (1, 2)
        ]
        first = run_plan(plan, journal_dir=journal_dir, jobs=1,
                         install_signal_handlers=False)
        resumed = run_plan(plan, journal_dir=journal_dir, jobs=1, resume=True,
                           install_signal_handlers=False)
        assert resumed.skipped == 2
        firsts = first.results()
        seconds = resumed.results()
        assert all(isinstance(r, SimulationResult) for r in seconds)
        # Reconstructed results are bit-identical to the live originals.
        for a, b in zip(firsts, seconds):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_without_resume_completed_cells_rerun(self, test_kinds, tmp_path):
        journal_dir = str(tmp_path / "run")
        plan = [kind_cell("instant", n=1)]
        run_plan(plan, journal_dir=journal_dir, jobs=1,
                 install_signal_handlers=False)
        again = run_plan(plan, journal_dir=journal_dir, jobs=1,
                         install_signal_handlers=False)
        assert again.skipped == 0
        assert again.completed == 1


# -- bit-identity against the golden cells ----------------------------------------------


class TestBitIdentity:
    def test_serial_plan_reproduces_golden_digests(self):
        outcomes = execute_cells(golden_plan())
        for golden_cell, outcome in zip(golden.CELLS, outcomes):
            assert outcome.digest == golden.EXPECTED[golden.cell_id(golden_cell)]

    def test_parallel_pool_reproduces_golden_digests(self, tmp_path):
        report = run_plan(
            golden_plan(), journal_dir=str(tmp_path / "run"), jobs=2,
            install_signal_handlers=False,
        )
        assert report.exit_code == EXIT_OK
        assert set(report.digests.values()) == GOLDEN_DIGESTS

    def test_interrupted_then_resumed_matches_serial(self, tmp_path):
        """The headline property: SIGTERM mid-sweep + --resume == serial.

        A subprocess starts the golden plan on two workers, is SIGTERMed
        mid-flight (graceful drain, exit 75), and the journal is resumed
        in-process.  The union of digests must be exactly the 14 pinned
        golden values — no cell lost, none duplicated, none altered.
        """
        journal_dir = str(tmp_path / "run")
        driver = textwrap.dedent(
            """
            import sys
            sys.path[:0] = [r"{repo}", r"{repo}/src"]
            from tests.test_runner import golden_plan
            from repro.runner import run_plan
            report = run_plan(golden_plan(), journal_dir=r"{journal}", jobs=2)
            sys.exit(report.exit_code)
            """
        ).format(repo=REPO_ROOT, journal=journal_dir)
        proc = subprocess.Popen(
            [sys.executable, "-c", driver], cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        # Let a few cells land in the journal, then interrupt.
        deadline = time.monotonic() + 60.0
        journal = Journal(journal_dir)
        while time.monotonic() < deadline and proc.poll() is None:
            if len(journal.completed()) >= 2:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60.0)
        stderr = proc.stderr.read().decode()

        interrupted = journal.completed()
        if proc.returncode == EXIT_INTERRUPTED:
            # The interesting case: some cells done, some not.
            assert 0 < len(interrupted) < len(golden.CELLS), stderr
        else:
            # The sweep can win the race on a fast machine; then the
            # journal must already be complete.
            assert proc.returncode == EXIT_OK, stderr
            assert len(interrupted) == len(golden.CELLS)

        resumed = run_plan(
            golden_plan(), journal_dir=journal_dir, jobs=2, resume=True,
            install_signal_handlers=False,
        )
        assert resumed.exit_code == EXIT_OK
        assert resumed.skipped == len(interrupted)
        assert set(resumed.digests.values()) == GOLDEN_DIGESTS
        # And the full-precision reconstructions match the pinned digests
        # cell by cell, in plan order.
        for golden_cell, result in zip(golden.CELLS, resumed.results()):
            assert result is not None, golden.cell_id(golden_cell)


# -- signals ----------------------------------------------------------------------------


class TestSignals:
    def test_sigterm_drains_and_exits_75(self, test_kinds, tmp_path):
        journal_dir = str(tmp_path / "run")
        driver = textwrap.dedent(
            """
            import sys, time
            sys.path[:0] = [r"{repo}", r"{repo}/src"]
            from tests.test_runner import kind_cell, _kind_sleep, _kind_instant
            from repro.runner import run_plan
            from repro.runner.execute import CELL_KINDS
            CELL_KINDS["sleep"] = _kind_sleep
            CELL_KINDS["instant"] = _kind_instant
            plan = [kind_cell("sleep", sleep_s=0.6)] + [
                kind_cell("instant", n=i) for i in range(50)
            ]
            print("ready", flush=True)
            report = run_plan(plan, journal_dir=r"{journal}", jobs=1)
            sys.exit(report.exit_code)
            """
        ).format(repo=REPO_ROOT, journal=journal_dir)
        proc = subprocess.Popen(
            [sys.executable, "-c", driver], cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().strip() == b"ready"
        time.sleep(0.3)  # inside the first (sleeping) cell
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30.0)
        assert proc.returncode == EXIT_INTERRUPTED, stderr.decode()
        journal = Journal(journal_dir)
        # The in-flight cell drained (it is in the journal) and the
        # manifest records the interruption for `repro-sim runs`.
        assert len(journal.completed()) >= 1
        assert journal.read_manifest()["status"] == "interrupted"


# -- CLI --------------------------------------------------------------------------------


class TestCli:
    def test_supervised_sweep_then_runs_list_and_show(self, capsys, tmp_path):
        from repro.cli import main
        journal_dir = str(tmp_path / "run")
        code = main([
            "sweep", "-t", "ld", "-p", "demand,forestall", "-d", "1,2",
            "--scale", "0.05", "--jobs", "2", "--journal", journal_dir,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "demand" in out and "forestall" in out
        assert "elapsed_s" in out

        code = main(["runs", "list", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete" in out

        code = main(["runs", "show", journal_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "ld/demand/d1" in out

    def test_sweep_resume_skips_completed(self, capsys, tmp_path):
        from repro.cli import main
        journal_dir = str(tmp_path / "run")
        argv = [
            "sweep", "-t", "ld", "-p", "demand", "-d", "1",
            "--scale", "0.05", "--jobs", "1", "--journal", journal_dir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume" in out.lower()

    def test_legacy_sweep_unchanged(self, capsys):
        from repro.cli import main
        code = main([
            "sweep", "-t", "ld", "-p", "demand", "-d", "1", "--scale", "0.05",
        ])
        assert code == 0
        assert "elapsed_s" in capsys.readouterr().out
