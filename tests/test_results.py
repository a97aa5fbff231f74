"""SimulationResult: derived quantities, accounting check, rendering."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import SimulationResult


def result(**overrides):
    base = dict(
        trace_name="t", policy_name="p", num_disks=2, cache_blocks=64,
        fetches=10, compute_ms=1000.0, driver_ms=5.0, stall_ms=95.0,
        elapsed_ms=1100.0, average_fetch_ms=9.5, disk_utilization=0.5,
    )
    base.update(overrides)
    return SimulationResult(**base)


class TestDerived:
    def test_second_conversions(self):
        r = result()
        assert r.elapsed_s == pytest.approx(1.1)
        assert r.compute_s == pytest.approx(1.0)
        assert r.driver_s == pytest.approx(0.005)
        assert r.stall_s == pytest.approx(0.095)


class TestAccounting:
    def test_consistent_passes(self):
        result().check_accounting()

    def test_inconsistent_raises(self):
        bad = result(elapsed_ms=1200.0)
        with pytest.raises(AssertionError, match="accounting identity"):
            bad.check_accounting()

    @pytest.mark.parametrize("overrides", [
        {"elapsed_ms": float("nan")},
        {"compute_ms": float("inf"), "elapsed_ms": float("inf")},
    ])
    def test_non_finite_residual_raises(self, overrides):
        # NaN compares false with any tolerance; it must not pass as exact.
        with pytest.raises(AssertionError, match="accounting identity"):
            result(**overrides).check_accounting()

    def test_tolerance_respected(self):
        nearly = result(elapsed_ms=1100.0 + 1e-9)
        nearly.check_accounting(tolerance_ms=1e-6)


class TestRendering:
    def test_str_mentions_components(self):
        text = str(result())
        for token in ("t/p", "disks=2", "elapsed=1.100s", "fetches=10"):
            assert token in text

    def test_to_dict_rounding(self):
        d = result().to_dict()
        assert d["trace"] == "t"
        assert d["elapsed_s"] == 1.1
        assert d["disks"] == 2

    def test_to_dict_exact_ms_fields_preserve_identity(self):
        # The rounded *_s display fields break the accounting identity
        # (compute + driver + stall == elapsed); the exact *_ms fields
        # alongside them must preserve it at full float precision.
        r = result(
            compute_ms=1000.0001, driver_ms=5.00004, stall_ms=95.00003,
            elapsed_ms=1000.0001 + 5.00004 + 95.00003,
        )
        d = r.to_dict()
        assert d["compute_ms"] + d["driver_ms"] + d["stall_ms"] == d["elapsed_ms"]
        assert d["compute_ms"] == r.compute_ms
        assert d["elapsed_ms"] == r.elapsed_ms
        # The rounded fields are still present for human consumption.
        assert d["elapsed_s"] == round(r.elapsed_s, 4)

    def test_to_dict_includes_stall_breakdown_only_when_attributed(self):
        r = result()
        assert "stall_breakdown_ms" not in r.to_dict()
        r.stall_breakdown = {"demand-miss-never-prefetched": 95.0}
        assert r.to_dict()["stall_breakdown_ms"] == {
            "demand-miss-never-prefetched": 95.0
        }

    def test_stall_breakdown_is_not_a_dataclass_field(self):
        # Keeping the breakdown out of dataclasses.asdict() keeps golden
        # digests stable across observed/unobserved runs.
        import dataclasses

        r = result()
        r.stall_breakdown = {"failover": 1.0}
        assert "stall_breakdown" not in dataclasses.asdict(r)


numbers = st.floats(allow_nan=False, allow_infinity=False, width=64)
counts = st.integers(min_value=0, max_value=10**9)
results = st.builds(
    SimulationResult,
    trace_name=st.text(max_size=12), policy_name=st.text(max_size=24),
    num_disks=st.integers(1, 16), cache_blocks=counts, fetches=counts,
    compute_ms=numbers, driver_ms=numbers, stall_ms=numbers,
    elapsed_ms=numbers, average_fetch_ms=numbers, disk_utilization=numbers,
    per_disk_busy_ms=st.lists(numbers, max_size=8), cache_hits=counts,
    references=counts, retry_ms=numbers, failover_reads=counts,
    faults_injected=counts,
    extras=st.dictionaries(st.text(max_size=16), st.one_of(counts, numbers),
                           max_size=8),
)


class TestFieldDict:
    """``field_dict`` replaces ``dataclasses.asdict`` in digests and journal
    records, so it must be asdict exactly: keys, order and values."""

    @given(r=results)
    @settings(max_examples=100, deadline=None)
    def test_equals_asdict(self, r):
        fields = r.field_dict()
        expected = dataclasses.asdict(r)
        assert fields == expected
        assert list(fields) == list(expected)
        assert json.dumps(fields) == json.dumps(expected)

    def test_copies_the_containers(self):
        r = result(per_disk_busy_ms=[1.0, 2.0], extras={"writes": 3})
        fields = r.field_dict()
        fields["per_disk_busy_ms"].append(3.0)
        fields["extras"]["flushes"] = 1
        assert r.per_disk_busy_ms == [1.0, 2.0]
        assert r.extras == {"writes": 3}

    def test_leaves_out_the_stall_breakdown(self):
        r = result()
        r.stall_breakdown = {"failover": 1.0}
        assert "stall_breakdown" not in r.field_dict()


class TestSimpleDrive:
    def test_uniform_access(self):
        from repro.disk.simple import SimpleDrive

        drive = SimpleDrive(access_ms=7.0)
        assert drive.service(100, 0.0).total == pytest.approx(7.0)
        assert drive.service(5, 0.0).total == pytest.approx(7.0)

    def test_sequential_discount(self):
        from repro.disk.simple import SimpleDrive

        drive = SimpleDrive(access_ms=10.0, sequential_ms=2.0)
        drive.service(50, 0.0)
        b = drive.service(51, 10.0)
        assert b.cache_hit
        assert b.total == pytest.approx(2.0)
        b2 = drive.service(53, 20.0)
        assert not b2.cache_hit

    def test_counters(self):
        from repro.disk.simple import SimpleDrive

        drive = SimpleDrive(access_ms=1.0, sequential_ms=0.5)
        drive.service(1, 0.0)
        drive.service(2, 1.0)
        assert drive.requests_served == 2
        assert drive.cache_hits == 1
