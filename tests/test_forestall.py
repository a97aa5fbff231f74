"""Forestall: stall-inevitability triggering and adaptive estimation."""

import math
import random
import sys
from array import array
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Forestall, Simulator
from repro.core.forestall import (
    _RECHECK_CAP,
    APPENDIX_H_FETCH_TIMES,
    _MissingTracker,
)
from repro.core.nextref import INFINITE
from tests.conftest import make_trace, run, simple_config
from tests.survey_oracle import rank_by_rank_survey


def listed(tracker):
    """Every position the tracker lists, in order."""
    return sorted(p for entries in tracker.lists for p in entries)


class TestMissingTracker:
    def _tracker(self, blocks, cache_blocks=4, window=100, disks=1):
        trace = make_trace(blocks)
        policy = Forestall()
        sim = Simulator(trace, policy, disks, simple_config(cache_blocks))
        return _MissingTracker(sim, window), sim

    def test_extend_discovers_missing_blocks(self):
        tracker, _sim = self._tracker([5, 6, 7])
        tracker.extend(0)
        assert listed(tracker) == [0, 1, 2]

    def test_extend_deduplicates_blocks(self):
        tracker, _sim = self._tracker([5, 5, 6, 5])
        tracker.extend(0)
        assert listed(tracker) == [0, 2]

    def test_extend_never_rescans(self):
        tracker, _sim = self._tracker([5, 6, 7, 8])
        tracker.extend(0)
        assert tracker.scanned_to == 4
        before = listed(tracker)
        tracker.extend(0)
        assert listed(tracker) == before

    def test_remove_on_fetch(self):
        tracker, _sim = self._tracker([5, 6, 7])
        tracker.extend(0)
        tracker.remove(6)
        assert listed(tracker) == [0, 2]
        tracker.remove(6)  # idempotent
        assert listed(tracker) == [0, 2]

    def test_evict_reinserts_at_next_use(self):
        tracker, _sim = self._tracker([5, 6, 5, 7])
        tracker.extend(0)
        tracker.remove(5)
        tracker.on_evict(5, 2)
        assert 2 in listed(tracker)

    def test_evict_beyond_window_ignored(self):
        tracker, _sim = self._tracker([5, 6, 7])
        tracker.extend(0)
        tracker.on_evict(9, INFINITE)
        tracker.on_evict(9, 50)  # past scanned_to
        assert all(p <= 2 for p in listed(tracker))

    def test_walk_yields_in_position_order(self):
        # Each disk's list is sorted and holds only that disk's blocks.
        tracker, sim = self._tracker(list(range(12, 0, -1)), disks=3)
        tracker.extend(0)
        lists, starts = tracker.by_disk(0, sim.disk_of)
        assert starts == [0, 0, 0]
        assert sorted(p for entries in lists for p in entries) == list(range(12))
        for disk, entries in enumerate(lists):
            assert list(entries) == sorted(entries)
            assert all(sim.disk_of(sim.blocks[p]) == disk for p in entries)

    def test_walk_skips_behind_cursor(self):
        tracker, sim = self._tracker([5, 6, 7])
        tracker.extend(0)
        lists, starts = tracker.by_disk(2, sim.disk_of)
        assert list(lists[0][starts[0]:]) == [2]

    def test_entries_behind_cursor_dropped_past_threshold(self):
        # A block listed behind the cursor is not listed again until the
        # entry is dropped, so when that happens is part of the results.
        tracker, sim = self._tracker(list(range(600)), window=600)
        tracker.extend(0)
        lists, starts = tracker.by_disk(256, sim.disk_of)
        assert starts == [256] and len(lists[0]) == 600
        lists, starts = tracker.by_disk(257, sim.disk_of)
        assert starts == [0] and lists[0][0] == 257
        assert 0 not in tracker._position_of and 257 in tracker._position_of


def global_walk(lists, cursor, estimates, horizon, cap=None):
    """The survey by brute force: every entry at/past the cursor in global
    position order, each disk's rank counted as the walk meets it.  A
    least slack at or above ``cap`` is reported as None."""
    entries = sorted(
        (position, disk)
        for disk, positions in enumerate(lists)
        for position in positions
        if position >= cursor
    )
    counts = {}
    triggered, backstopped = set(), set()
    min_slack = first_distance = None
    for position, disk in entries:
        distance = position - cursor
        if first_distance is None:
            first_distance = distance
        count = counts.get(disk, 0) + 1
        counts[disk] = count
        if disk in triggered:
            continue
        if distance <= horizon:
            backstopped.add(disk)
        if count * estimates[disk] > distance:
            triggered.add(disk)
        else:
            slack = distance - count * estimates[disk]
            if min_slack is None or slack < min_slack:
                min_slack = slack
    if cap is not None and min_slack is not None and min_slack >= cap:
        min_slack = None
    return triggered, backstopped, min_slack, first_distance


@st.composite
def survey_cases(draw):
    """Per-disk sorted missing positions (some behind the cursor), with
    gaps near ``rank * F' + lift`` so that triggers fire at chosen ranks
    and whole-number products give slack of exactly 0.0 (lift 0) or
    exactly the recheck cap (lift 32)."""
    disks = draw(st.integers(1, 4))
    cursor = draw(st.integers(0, 3000)
                  | st.integers(2**31 - 10**5, 2**31 - 5 * 10**4))
    fixed = draw(st.sampled_from(
        (None, 0.25, 0.5, 0.999, 1.0000001) + APPENDIX_H_FETCH_TIMES
    ))
    estimates = [
        float(fixed) if fixed is not None
        else draw(st.sampled_from([1.0, 1.5, 2.5, 7.0]) | st.floats(1.0, 60.0))
        for _ in range(disks)
    ]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    taken = set()
    lists = []
    for est in estimates:
        size = draw(st.sampled_from([0, 1, 2, 47, 48, 49, 700])
                    | st.integers(0, 700))
        fire = draw(st.sampled_from([None, 1, 2, 30, 48, 49, 50, 300]))
        lift = draw(st.sampled_from([0, 0, 31, 32, 33]))
        behind = min(cursor, size, rng.choice([0, 0, 3, 300]))
        positions = [p for p in rng.sample(range(cursor), behind)
                     if p not in taken]
        distance = -1
        for rank in range(1, size - behind + 1):
            target = math.ceil(rank * est) + lift
            if fire is not None and rank >= fire:
                target -= lift + rng.choice((1, 1, 4))
            else:
                target += rng.choice((0, 0, 0, 1, 5))
            distance = max(distance + 1, target)
            if cursor + distance not in taken:
                positions.append(cursor + distance)
        taken.update(positions)
        lists.append(sorted(positions))
    horizon = draw(st.sampled_from([0, 8, 62, 10**6]))
    return lists, cursor, estimates, horizon


def survey(lists, cursor, estimates, horizon, walk=Forestall._survey):
    """Forestall's survey over ``lists`` as its per-disk index."""
    top = max([cursor] + [p for positions in lists for p in positions])
    # Fixed placement (``fixed_disk_of``), so the survey splits nothing
    # with ``disk_of``.
    sim = SimpleNamespace(fixed_disk_of={}, num_disks=len(lists),
                          blocks=range(top + 1), lost_blocks=set(),
                          cache=SimpleNamespace(present=set()), disk_of=None)
    tracker = _MissingTracker(sim, window=0)
    tracker.lists = [array("q", positions) for positions in lists]
    policy = Forestall(horizon=horizon)
    policy.sim = sim
    policy._tracker = tracker
    return walk(policy, cursor, estimates)


class TestSurveyOracle:
    """Both surveys give the global-order walk's four outputs: the survey
    in use ("as-built"), jumping over ranks, with its least slack capped
    at the recheck interval; the rank-by-rank walk kept in
    ``tests/survey_oracle.py`` ("walk") uncapped.  "no-numpy" is the
    survey in use with numpy unimportable while it runs."""

    PATHS = {
        "as-built": (Forestall._survey, _RECHECK_CAP, {}),
        "no-numpy": (Forestall._survey, _RECHECK_CAP, {"numpy": None}),
        "walk": (rank_by_rank_survey, None, {}),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_matches_global_walk(self, path):
        walk, cap, blocked = self.PATHS[path]

        @given(case=survey_cases())
        @settings(max_examples=400, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(case):
            with mock.patch.dict(sys.modules, blocked):
                outputs = survey(*case, walk=walk)
            assert outputs == global_walk(*case, cap=cap)

        check()

    def test_cap_is_the_recheck_interval(self):
        # A least slack of exactly the cap is reported as None, one just
        # below it as itself.
        assert survey([[33]], 0, [1.0], 0) == (set(), set(), None, 33)
        assert survey([[33]], 0, [1.5], 0) == (set(), set(), 31.5, 33)


class TestEstimation:
    def test_fixed_estimate_respected(self):
        trace = make_trace([0, 1, 2])
        policy = Forestall(fixed_estimate=30)
        Simulator(trace, policy, 2, simple_config())
        assert policy.estimate(0) == 30
        assert policy.estimate(1) == 30
        assert "30" in policy.name

    def test_dynamic_estimate_tracks_ratio(self):
        trace = make_trace([0, 1, 2], compute_ms=2.0)
        policy = Forestall()
        Simulator(trace, policy, 1, simple_config())
        for _ in range(100):
            policy.on_fetch_complete(0, 4.0)   # fast disk: < 5 ms
            policy.on_reference_served(0, 2.0)
        assert policy.estimate(0) == pytest.approx(2.0, rel=0.05)

    def test_slow_disk_overestimates_4x(self):
        """Section 5: F' = 4F when average access time exceeds 5 ms."""
        trace = make_trace([0, 1, 2], compute_ms=2.0)
        policy = Forestall()
        Simulator(trace, policy, 1, simple_config())
        for _ in range(100):
            policy.on_fetch_complete(0, 16.0)
            policy.on_reference_served(0, 2.0)
        assert policy.estimate(0) == pytest.approx(4 * 8.0, rel=0.05)

    def test_appendix_h_values(self):
        assert APPENDIX_H_FETCH_TIMES == (1, 2, 4, 8, 15, 30, 60)


class TestTriggering:
    def test_compute_bound_behaves_like_fixed_horizon(self):
        """With ample compute time between misses, forestall must not
        prefetch much deeper than its backstop (the cold start, where every
        block is missing, legitimately fires the trigger): fetch counts and
        elapsed time stay close to FH's."""
        blocks = list(range(10)) * 8
        forestall = run(blocks, policy="forestall", num_disks=4,
                        cache_blocks=6, compute_ms=40.0, horizon=3)
        fh = run(blocks, policy="fixed-horizon", num_disks=4,
                 cache_blocks=6, compute_ms=40.0, horizon=3)
        assert forestall.fetches <= fh.fetches * 1.2
        assert forestall.elapsed_ms <= fh.elapsed_ms * 1.01

    def test_io_bound_prefetches_like_aggressive(self):
        blocks = list(range(16)) * 6
        forestall = run(blocks, policy="forestall", cache_blocks=12,
                        compute_ms=5.0, horizon=2, batch_size=8)
        fh = run(blocks, policy="fixed-horizon", cache_blocks=12,
                 compute_ms=5.0, horizon=2)
        assert forestall.stall_ms < fh.stall_ms

    def test_trigger_fires_before_inevitable_stall(self):
        """Five missing blocks at distance ~40 with F'=10: 5*10 > 40 means a
        stall is coming; forestall must start fetching well before the
        cursor reaches them."""
        issued_at = []

        class Spy(Forestall):
            def issue(self, block, victim):
                issued_at.append((block, self.sim.cursor))
                super().issue(block, victim)

        # 40 cached refs then 5 missing blocks
        blocks = [0] * 40 + [1, 2, 3, 4, 5]
        trace = make_trace(blocks, compute_ms=1.0)
        sim = Simulator(
            trace,
            Spy(fixed_estimate=10.0, horizon=3, batch_size=8),
            1,
            simple_config(cache_blocks=8, access_ms=10.0),
        )
        sim.run()
        first_prefetch_cursor = min(c for b, c in issued_at if b != 0)
        assert first_prefetch_cursor < 37  # earlier than the backstop alone

    def test_no_trigger_when_slack_is_ample(self):
        """One missing block far ahead with small F': forestall waits for
        the backstop instead of fetching early (late replacement)."""
        issued_at = []

        class Spy(Forestall):
            def issue(self, block, victim):
                issued_at.append((block, self.sim.cursor))
                super().issue(block, victim)

        blocks = [0] * 50 + [1]
        trace = make_trace(blocks, compute_ms=5.0)
        sim = Simulator(
            trace,
            Spy(fixed_estimate=2.0, horizon=4),
            1,
            simple_config(cache_blocks=8),
        )
        sim.run()
        cursor_when_1_issued = [c for b, c in issued_at if b == 1][0]
        assert cursor_when_1_issued >= 46  # backstop, not early fire


class TestEndToEnd:
    def test_tracks_best_of_both_worlds(self):
        """Section 5.1: forestall is close to the best of FH/aggressive in
        both regimes."""
        blocks = list(range(16)) * 6
        for compute, horizon in ((5.0, 2), (40.0, 2)):
            fh = run(blocks, policy="fixed-horizon", cache_blocks=12,
                     compute_ms=compute, horizon=horizon)
            agg = run(blocks, policy="aggressive", cache_blocks=12,
                      compute_ms=compute, batch_size=8)
            forestall = run(blocks, policy="forestall", cache_blocks=12,
                            compute_ms=compute, horizon=horizon, batch_size=8)
            assert forestall.elapsed_ms <= min(fh.elapsed_ms,
                                               agg.elapsed_ms) * 1.10

    def test_accounting_on_multi_disk(self):
        blocks = [0, 3, 6, 1, 4, 7, 2, 5, 8] * 4
        result = run(blocks, policy="forestall", num_disks=3, cache_blocks=6)
        total = result.compute_ms + result.driver_ms + result.stall_ms
        assert result.elapsed_ms == pytest.approx(total)


class TestParameters:
    """Out-of-range parameters are refused when the policy is built, with
    the parameter named; they used to run silently or fail mid-run."""

    @pytest.mark.parametrize("kwargs", [
        {"fixed_estimate": math.nan},
        {"fixed_estimate": 0},
        {"fixed_estimate": -1.0},
        {"horizon": -1},
        {"history": 0},  # a ZeroDivisionError in the first survey
        {"lookahead_caches": 0},
        {"batch_size": 0},
        {"fast_disk_threshold_ms": math.nan},
        {"overestimate_factor": 0},
    ])
    def test_out_of_range_parameters_are_refused(self, kwargs):
        (name, _), = kwargs.items()
        with pytest.raises(ValueError, match=name):
            Forestall(**kwargs)

    def test_edge_values_in_range_are_kept(self):
        policy = Forestall(horizon=0, history=1, lookahead_caches=1,
                           fixed_estimate=0.5, fast_disk_threshold_ms=0.0)
        assert policy.horizon == 0 and policy.history == 1
