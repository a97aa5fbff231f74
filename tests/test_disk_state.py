"""The disk layer's derived state: the array's free/ready disk sets, the
geometry's one-call ``locate``, and queue keys in each drive's head units."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk import (
    HP97560,
    HP97560_ZONED,
    IBM0661,
    DiskArray,
    DiskDrive,
    SimpleDrive,
)
from repro.faults import DiskFailure, FaultSchedule

DRIVES = {"hp97560": DiskDrive, "simple": SimpleDrive}

operations = st.lists(
    st.tuples(
        st.sampled_from(["submit", "start", "complete"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=HP97560.total_blocks - 1),
    ),
    max_size=80,
)


def recomputed_sets(array):
    """``(free, ready)`` from first principles: the idle disks with an
    empty queue, and the idle disks with queued work."""
    idle = [d for d in range(array.num_disks) if array.in_service[d] is None]
    free = {d for d in idle if array.queue_length(d) == 0}
    ready = {d for d in idle if array.queue_length(d) > 0}
    return free, ready


class TestFreeReadySets:
    @given(
        disks=st.integers(min_value=1, max_value=4),
        discipline=st.sampled_from(["fcfs", "cscan", "sstf"]),
        drive=st.sampled_from(sorted(DRIVES)),
        dead_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=300.0)),
        ops=operations,
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sets_match_queues_and_service_state(
        self, disks, discipline, drive, dead_at, ops
    ):
        faults = None
        if dead_at is not None:
            faults = FaultSchedule(
                disk_failures=(DiskFailure(disk=disks - 1, at_ms=dead_at),)
            )
        array = DiskArray(disks, drive_factory=DRIVES[drive],
                          discipline=discipline, faults=faults)
        assert (array.free, array.ready) == recomputed_sets(array)
        now = 0.0
        for op, disk, lbn in ops:
            disk %= disks
            if op == "submit":
                array.submit(disk, lbn, lbn)
            elif op == "start":
                was_ready = disk in array.ready
                started = array.start_next(disk, now)
                # The event loops start only ready disks: start_next must
                # start exactly those.
                assert (started is not None) == was_ready
            elif array.in_service[disk] is None:
                with pytest.raises(RuntimeError):
                    array.complete(disk)
            else:
                array.complete(disk)
                array.take_outcome(disk)
            now += 7.0
            assert (array.free, array.ready) == recomputed_sets(array)


class TestLocate:
    @pytest.mark.parametrize(
        "geometry", [HP97560, IBM0661, HP97560_ZONED],
        ids=["hp97560", "ibm0661", "hp97560-zoned"],
    )
    def test_equals_single_question_methods(self, geometry):
        total = geometry.total_blocks
        per_cylinder = geometry.blocks_per_cylinder
        boundaries = {0, 1, 4, 5, per_cylinder - 1, per_cylinder,
                      per_cylinder + 1, total - 2, total - 1}
        for block_start, _cylinder, _zone in getattr(geometry, "_zone_starts", ()):
            boundaries.update({block_start - 1, block_start, block_start + 1})
        rng = random.Random(14)
        lbns = sorted(b for b in boundaries if 0 <= b < total)
        lbns += [rng.randrange(total) for _ in range(500)]
        for lbn in lbns:
            assert geometry.locate(lbn) == (
                geometry.block_to_cylinder(lbn),
                geometry.block_to_track(lbn),
                geometry.rotational_fraction(lbn),
                geometry.media_transfer_ms(lbn),
            ), lbn

    @pytest.mark.parametrize(
        "geometry", [HP97560, IBM0661, HP97560_ZONED],
        ids=["hp97560", "ibm0661", "hp97560-zoned"],
    )
    def test_range_checked(self, geometry):
        with pytest.raises(ValueError):
            geometry.locate(-1)
        with pytest.raises(ValueError):
            geometry.locate(geometry.total_blocks)


class TestQueueHeadUnits:
    """Each queue keys requests in its own drive's head units.  The
    uniform drive reports its head as the last LBN served, so its queues
    must key by LBN too: keyed by HP 97560 cylinder, CSCAN on it served
    LBN 100 first after LBN 50000."""

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    @pytest.mark.parametrize("discipline, expected", [
        ("cscan", [50001, 60000, 120000, 100, 49000]),
        ("sstf", [50001, 49000, 60000, 100, 120000]),
    ])
    def test_order_after_serving_lbn_50000(self, drive, discipline, expected):
        array = DiskArray(1, drive_factory=DRIVES[drive], discipline=discipline)
        array.submit(0, 50000, 50000)
        started = array.start_next(0, 0.0)
        assert started is not None
        now = started[1]
        array.complete(0)
        queued = (100, 49000, 50001, 60000, 120000)
        for lbn in queued:
            array.submit(0, lbn, lbn)
        served = []
        for _ in queued:
            started = array.start_next(0, now)
            assert started is not None
            request, now, _breakdown = started
            array.complete(0)
            served.append(request.lbn)
        assert served == expected
