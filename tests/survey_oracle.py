"""Test oracle: forestall's survey as it was before it jumped over ranks.
``Forestall._survey`` in ``repro.core.forestall`` is the survey in use.

Kept as it was: every disk's missing entries are walked one rank at a
time up to the disk's first trigger, and the least slack is reported
whatever its size (``Forestall._check`` caps the re-check interval
itself).  ``tests/test_forestall.py`` checks this walk against a
brute-force global-order walk, and ``tests/test_properties_extended.py``
and ``tests/test_writes.py`` check that whole forestall runs give the same
digests with it patched in as ``Forestall._survey``.
"""

from itertools import islice
from typing import List, Optional, Set

from repro.core.forestall import Forestall, Survey

_INF = float("inf")


def rank_by_rank_survey(
    policy: Forestall, cursor: int, estimates: List[float]
) -> Survey:
    """The four survey outputs, from a walk of every rank up to each
    disk's first trigger."""
    lists, starts = policy._tracker.by_disk(cursor, policy.sim.disk_of)
    horizon = policy.horizon
    triggered: Set[int] = set()
    backstopped: Set[int] = set()
    least_slack = _INF
    first_distance: Optional[int] = None
    for disk, est in enumerate(estimates):
        entries = lists[disk]
        start = starts[disk]
        if start == len(entries):
            continue
        distance = entries[start] - cursor
        if first_distance is None or distance < first_distance:
            first_distance = distance
        if distance <= horizon:
            backstopped.add(disk)
        low = _INF  # the least slack before the trigger
        for rank, position in enumerate(islice(entries, start, None), 1):
            slack = (position - cursor) - rank * est
            if slack < 0.0:
                triggered.add(disk)
                break
            if slack < low:
                low = slack
        if low < least_slack:
            least_slack = low
    min_slack = None if least_slack == _INF else least_slack
    return triggered, backstopped, min_slack, first_distance
