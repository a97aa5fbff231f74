"""Theoretical-model simulator: section 2.1 semantics and Figure 1, and
the model in use against the one it replaced (``tests/model_oracle.py``)."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.theory.model as model_module
from repro.core import (
    DemandFetching, FixedHorizon, ReverseAggressive, SimConfig, Simulator,
)
from repro.theory.model import (
    ModelEvent,
    run_aggressive_model,
    run_demand_model,
    run_fixed_horizon_model,
    run_reverse_aggressive_model,
)
from tests import model_oracle
from tests.conftest import make_trace

# Figure 1: disk 0 holds A,C,E,F; disk 1 holds b,d.  Cache K=4, F=2.
A, B_, C, D_, E, F_ = "A", "b", "C", "d", "E", "F"
FIG1_SEQUENCE = [A, B_, C, D_, E, F_]
FIG1_DISK = {A: 0, C: 0, E: 0, F_: 0, B_: 1, D_: 1}.__getitem__
FIG1_CACHE = (A, B_, D_, F_)


class TestFigure1:
    def test_aggressive_takes_seven_time_units(self):
        """Figure 1(a): the greedy schedule costs 7 units."""
        run = run_aggressive_model(
            FIG1_SEQUENCE, cache_blocks=4, fetch_time=2, num_disks=2,
            disk_of=FIG1_DISK, batch_size=1, initial_cache=FIG1_CACHE,
        )
        assert run.elapsed == 7
        assert run.stall == 1

    def test_fixed_horizon_no_better_than_aggressive_here(self):
        run = run_fixed_horizon_model(
            FIG1_SEQUENCE, cache_blocks=4, fetch_time=2, num_disks=2,
            disk_of=FIG1_DISK, horizon=2, initial_cache=FIG1_CACHE,
        )
        assert run.elapsed >= 7

    def test_demand_is_worst(self):
        run = run_demand_model(
            FIG1_SEQUENCE, cache_blocks=4, fetch_time=2, num_disks=2,
            disk_of=FIG1_DISK, initial_cache=FIG1_CACHE,
        )
        assert run.elapsed >= 7


class TestModelSemantics:
    def one_disk(self, _b):
        return 0

    def test_all_hits_cost_one_unit_each(self):
        run = run_demand_model(
            [1, 1, 1], cache_blocks=2, fetch_time=5, num_disks=1,
            disk_of=self.one_disk, initial_cache=(1,),
        )
        assert run.elapsed == 3
        assert run.stall == 0
        assert run.fetches == 0

    def test_demand_miss_stalls_full_fetch(self):
        run = run_demand_model(
            [1], cache_blocks=1, fetch_time=5, num_disks=1,
            disk_of=self.one_disk,
        )
        assert run.elapsed == 6  # 5 stall + 1 reference
        assert run.stall == 5

    def test_elapsed_equals_references_plus_stall(self):
        blocks = [1, 2, 3, 1, 2, 3, 4]
        for runner in (run_demand_model, run_aggressive_model):
            run = runner(
                blocks, cache_blocks=3, fetch_time=3, num_disks=1,
                disk_of=self.one_disk,
            )
            assert run.elapsed == len(blocks) + run.stall

    def test_aggressive_overlaps_fetch_with_compute(self):
        # After the cold miss on 1, block 2 is prefetched during the hits.
        blocks = [1, 1, 1, 1, 1, 1, 2]
        run = run_aggressive_model(
            blocks, cache_blocks=2, fetch_time=3, num_disks=1,
            disk_of=self.one_disk,
        )
        # Only the cold-start stall on block 1 remains.
        assert run.stall == 3

    def test_single_disk_serializes(self):
        blocks = [1, 2]
        run = run_aggressive_model(
            blocks, cache_blocks=2, fetch_time=4, num_disks=1,
            disk_of=self.one_disk,
        )
        # Both fetched back to back: 2 arrives at t=8; stall = 8 - 1 hit...
        assert run.elapsed == pytest.approx(2 + run.stall)
        assert run.stall >= 4

    def test_two_disks_parallelize(self):
        blocks = [1, 2]
        serial = run_aggressive_model(
            blocks, cache_blocks=2, fetch_time=4, num_disks=1,
            disk_of=self.one_disk,
        )
        parallel = run_aggressive_model(
            blocks, cache_blocks=2, fetch_time=4, num_disks=2,
            disk_of=lambda b: b % 2,
        )
        assert parallel.elapsed < serial.elapsed

    def test_events_record_victims(self):
        blocks = [1, 2, 3, 1]
        run = run_aggressive_model(
            blocks, cache_blocks=2, fetch_time=2, num_disks=1,
            disk_of=self.one_disk,
        )
        assert run.fetches == len(run.events)
        # First two fetches use free buffers; any later fetch evicts.
        free_buffer_fetches = [e for e in run.events if e.victim is None]
        assert len(free_buffer_fetches) == 2

    def test_final_cache_within_capacity(self):
        blocks = list(range(10))
        run = run_aggressive_model(
            blocks, cache_blocks=4, fetch_time=2, num_disks=2,
            disk_of=lambda b: b % 2,
        )
        assert len(run.final_cache) <= 4

    def test_fixed_horizon_model_respects_horizon(self):
        blocks = list(range(8))
        run = run_fixed_horizon_model(
            blocks, cache_blocks=10, fetch_time=2, num_disks=1,
            disk_of=self.one_disk, horizon=3,
        )
        for event in run.events:
            assert event.target_position - event.issue_cursor <= 3

    def test_initial_cache_validated(self):
        with pytest.raises(ValueError):
            run_demand_model(
                [1], cache_blocks=1, fetch_time=1, num_disks=1,
                disk_of=self.one_disk, initial_cache=(1, 2),
            )


# -- the model in use against the model it replaced --------------------------------

RUNNERS = ("aggressive", "fixed_horizon", "demand", "reverse_aggressive")


def outcome(runner, *args, **kwargs):
    """Everything a ModelRun says, or the error a run raised."""
    try:
        run = runner(*args, **kwargs)
    except RuntimeError as exc:
        return ("raised", str(exc))
    events = [
        (event.issue_cursor, event.target_position, event.block, event.victim)
        for event in run.events
    ]
    return (run.elapsed, run.stall, run.fetches, events, run.final_cache)


@st.composite
def model_instances(draw):
    universe = draw(st.integers(1, 10))
    ids = draw(st.lists(st.integers(0, universe - 1), max_size=30))
    cache_blocks = draw(st.integers(1, 6))
    num_disks = draw(st.integers(1, 4))
    # Two ids past the sequence's range: initial-cache blocks never used.
    layout = draw(st.lists(st.integers(0, num_disks - 1),
                           min_size=universe + 2, max_size=universe + 2))
    initial = draw(st.lists(st.integers(0, universe + 1), unique=True,
                            max_size=cache_blocks))
    if draw(st.booleans()):  # label blocks, as in Figure 1
        names = [f"b{i}" for i in range(universe + 2)]
        blocks = [names[i] for i in ids]
        initial = [names[i] for i in initial]
        disk_of = dict(zip(names, layout)).__getitem__
    else:
        blocks = ids
        disk_of = layout.__getitem__
    fetch_time = draw(st.sampled_from([1, 2, 3, 5, 8, 0.5, 1.5, 2.25, 7.3]))
    return dict(blocks=blocks, cache_blocks=cache_blocks,
                fetch_time=fetch_time, num_disks=num_disks, disk_of=disk_of,
                initial_cache=tuple(initial))


class TestAgainstTheParentModel:
    """Aggressive's run stopped polling; every ModelRun stays the same as
    the model's that filled at every step (``tests/model_oracle.py``)."""

    @given(instance=model_instances(), batch_size=st.integers(1, 5),
           horizon=st.integers(1, 10))
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_runner_returns_the_oracles_run(
            self, instance, batch_size, horizon):
        for name in RUNNERS:
            extra = {"horizon": horizon} if name == "fixed_horizon" else (
                {} if name == "demand" else {"batch_size": batch_size})
            runner = f"run_{name}_model"
            assert outcome(getattr(model_module, runner), **instance, **extra) \
                == outcome(getattr(model_oracle, runner), **instance, **extra), \
                name

    @given(
        ids=st.lists(st.integers(0, 15), min_size=1, max_size=60),
        cache_blocks=st.integers(1, 8),
        layout=st.sampled_from([(1, False), (2, False), (3, False),
                                (4, False), (2, True), (4, True)]),
        fetch_time=st.one_of(st.none(), st.sampled_from([1, 2.5, 4, 16])),
        reverse_batch=st.one_of(st.none(), st.integers(1, 5)),
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reverse_aggressive_schedule_matches_the_oracles(
            self, ids, cache_blocks, layout, fetch_time, reverse_batch):
        disks, mirrored = layout
        config = SimConfig(cache_blocks=cache_blocks, disk_model="simple",
                           mirrored=mirrored)
        policy = ReverseAggressive(fetch_time_estimate=fetch_time,
                                   reverse_batch_size=reverse_batch)
        sim = Simulator(make_trace(ids), policy, disks, config)
        estimate = fetch_time if fetch_time is not None \
            else policy._auto_estimate(sim)
        batch = reverse_batch if reverse_batch is not None \
            else policy.batch_size
        blocks = list(sim.blocks)
        n = len(blocks)
        # disk_of at time 0 with the array idle, as when the policy bound.
        run = model_oracle.run_aggressive_model(
            blocks[::-1], cache_blocks, float(estimate), sim.num_disks,
            sim.disk_of, batch_size=batch,
        )
        expected = sorted(
            ((n - event.target_position, event.block)
             for event in reversed(run.events) if event.victim is not None),
            key=lambda pair: pair[0],
        )
        assert policy._evictions == expected


class TestModelParameters:
    """A NaN fetch time never lands, so the serve loop spun forever; the
    empty sequences here returned before the loop instead of refusing."""

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("fetch_time", [math.nan, math.inf, 0, -2])
    def test_fetch_time_must_be_finite_and_positive(self, runner, fetch_time):
        extra = {"horizon": 2} if runner == "fixed_horizon" else {}
        with pytest.raises(ValueError, match="fetch_time"):
            getattr(model_module, f"run_{runner}_model")(
                [], 1, fetch_time, 1, lambda b: 0, **extra)

    @pytest.mark.parametrize(
        "runner", [run_aggressive_model, run_reverse_aggressive_model])
    @pytest.mark.parametrize("batch_size", [0, -1, math.nan])
    def test_batch_size_must_be_at_least_one(self, runner, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            runner([1, 2, 1], 1, 2, 1, lambda b: 0, batch_size=batch_size)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_must_be_at_least_one(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            run_fixed_horizon_model([1, 2, 1], 1, 2, 1, lambda b: 0,
                                    horizon=horizon)

    def test_disk_of_is_asked_once_per_block(self):
        asked = []

        def disk_of(block):
            asked.append(block)
            return block % 2

        run_aggressive_model([1, 2, 3, 1, 2, 4, 1], 2, 3, 2, disk_of,
                             batch_size=2)
        assert sorted(asked) == [1, 2, 3, 4]

    def test_model_event_is_a_named_tuple_of_four_fields(self):
        run = run_aggressive_model([1, 2, 1], 1, 2, 1, lambda b: 0)
        event = run.events[0]
        assert isinstance(event, ModelEvent) and isinstance(event, tuple)
        assert ModelEvent._fields == (
            "issue_cursor", "target_position", "block", "victim")
        assert (event.issue_cursor, event.target_position, event.block,
                event.victim) == tuple(event) == (0, 0, 1, None)


class TestEngineUnderModelConditions:
    """The engine equals the model under the model's rules: every fetch
    takes F, every reference one unit of compute, no driver overhead or
    readahead, and FCFS queues, because the model serves each disk's
    fetches in issue order.  (Aggressive differs until the engine lands
    every completion of an instant before its policy decides.)"""

    @given(
        ids=st.lists(st.integers(0, 9), min_size=1, max_size=30),
        cache_blocks=st.integers(1, 6),
        fetch_time=st.sampled_from([1, 2, 3, 5, 8]),
        num_disks=st.integers(1, 3),
        horizon=st.integers(1, 8),
    )
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_demand_and_fixed_horizon_match_the_model(
            self, ids, cache_blocks, fetch_time, num_disks, horizon):
        config = SimConfig(
            cache_blocks=cache_blocks, disk_model="simple",
            simple_access_ms=fetch_time, simple_sequential_ms=fetch_time,
            readahead=False, driver_overhead_ms=0.0, discipline="fcfs",
        )
        trace = make_trace(ids, compute_ms=1.0)
        for policy, runner, extra in (
            (DemandFetching(), run_demand_model, {}),
            (FixedHorizon(horizon), run_fixed_horizon_model,
             {"horizon": horizon}),
        ):
            sim = Simulator(trace, policy, num_disks, config)
            result = sim.run()
            model = runner(ids, cache_blocks, fetch_time, num_disks,
                           sim.disk_of, **extra)
            assert (result.elapsed_ms, result.fetches) \
                == (model.elapsed, model.fetches), policy.name
