"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import ledger as ledger_mod
import stats
from common import END_TO_END, PER_LAYER, unit_of
from ledger import Ledger, Patcher
from wl_svc import JITTER, timetable


# -- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (1999, 99.0), (2000, 99.5), (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= 10


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile(list(range(101)), 99) == 99.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- residual arithmetic -----------------------------------------------------


def test_residual_is_what_the_parts_leave():
    assert stats.residual(10.0, {"a": 3.0, "b": 4.5}) == 2.5
    assert stats.residual(1.0, {}) == 1.0
    assert stats.residual(2.0, {"over": 3.0}) == -1.0  # never clamped
    assert stats.share(2.5, 10.0) == 0.25
    assert stats.share(1.0, 0.0) == 0.0


def test_pass_estimate_keeps_fastest_work_and_fastest_overhead():
    from types import SimpleNamespace

    from wl_sweep import JOBS, pass_estimate

    # Two passes of two cells: the first is slow in its cells, the second
    # in its overhead; the estimate takes the better half of each.
    slow_cells = SimpleNamespace(wall_s=1.1, cell_ms={"a": 800.0, "b": 1200.0})
    slow_pool = SimpleNamespace(wall_s=1.0, cell_ms={"a": 400.0, "b": 600.0})
    fastest = [400.0, 600.0]
    overheads = (1.1 - 2.0 / JOBS, 1.0 - 1.0 / JOBS)
    assert pass_estimate(fastest, [slow_cells, slow_pool]) == pytest.approx(
        1.0 / JOBS + min(overheads))


# -- due-time latency --------------------------------------------------------


def test_latency_runs_from_due_time_not_send_time():
    # Due at 1.0 s, sent late at 1.2 s behind a slow predecessor, done at
    # 1.25 s: 250 ms of latency, of which none is generator lateness.
    assert stats.due_latency_ms(1.0, 1.25) == pytest.approx(250.0)
    assert stats.lateness_ms(1.0, 1.2, 1.2) == 0.0


def test_lateness_counts_only_the_generators_own_delay():
    assert stats.lateness_ms(1.0, 0.5, 1.003) == pytest.approx(3.0)
    assert stats.lateness_ms(1.0, 1.1, 1.104) == pytest.approx(4.0)
    assert stats.lateness_ms(1.0, 0.5, 0.999) == 0.0


def test_timetable_is_seeded_and_stays_in_its_slots():
    one = timetable(3, "cold", 5.0, 4.0)
    assert one == timetable(3, "cold", 5.0, 4.0)
    assert one != timetable(4, "cold", 5.0, 4.0)
    assert len(one) == 20
    for slot, due in enumerate(one):
        assert abs(due * 5.0 - (slot + 0.5)) <= JITTER / 2


# -- the ledger ----------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_partition_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(ledger_mod.time, "perf_counter", clock)
    book = Ledger()

    def inner() -> None:
        clock.now += 2.0

    wrapped_inner = book.wrap(inner, "disk")

    def outer() -> None:
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 0.5

    book.wrap(outer, "policy")()
    assert book.self_s["policy"] == pytest.approx(1.5)
    assert book.self_s["disk"] == pytest.approx(4.0)
    assert book.incl_s["policy"] == pytest.approx(5.5)
    assert book.calls == {"policy": 1, "disk": 2}
    assert not book.stack


def test_reentering_a_layer_is_charged_and_counted_once(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(ledger_mod.time, "perf_counter", clock)
    book = Ledger()

    def hook(depth: int) -> None:
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)

    wrapped = book.wrap(hook, "policy")
    wrapped(2)
    assert book.self_s["policy"] == pytest.approx(3.0)
    assert book.incl_s["policy"] == pytest.approx(3.0)
    assert book.calls["policy"] == 1


def test_frames_close_when_the_call_raises(monkeypatch):
    book = Ledger()

    def boom() -> None:
        raise KeyError("x")

    with pytest.raises(KeyError):
        book.wrap(boom, "cache")()
    assert not book.stack and book.calls["cache"] == 1


def test_dump_and_merge_add_up(tmp_path):
    one, two = Ledger(), Ledger()
    one.self_s["disk"] = 1.0
    one.samples["queue_ms"].append(3.0)
    two.self_s["disk"] = 2.0
    two.counters["prefetch.useful"] = 4
    one.dump(str(tmp_path / "1.json"))
    two.dump(str(tmp_path / "2.json"))
    total = Ledger()
    assert ledger_mod.merge_dir(total, str(tmp_path)) == 2
    assert total.self_s["disk"] == 3.0
    assert total.samples["queue_ms"] == [3.0]
    assert total.counters["prefetch.useful"] == 4


def test_patcher_restores_class_and_inherited_attributes():
    class Base:
        def hook(self) -> str:
            return "base"

    class Child(Base):
        pass

    with Patcher() as patcher:
        patcher.replace(Child, "hook", lambda self: "patched")
        patcher.replace(Base, "hook", lambda self: "patched base")
        assert Child().hook() == "patched"
    assert Child().hook() == "base"
    assert "hook" not in vars(Child)


# -- the manifest --------------------------------------------------------------


def test_manifest_lists_exactly_the_metrics_the_runner_prints():
    path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
    with open(path) as handle:
        manifest = json.load(handle)
    assert [m["name"] for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(PER_LAYER)
    for metric in manifest["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])
