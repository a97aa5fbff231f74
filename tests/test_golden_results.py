"""Golden results: optimized runs must be bit-identical to pre-PR outputs.

The hot-path optimization work (deque FCFS queue, cylinder-keyed SSTF,
timeline sort caching, missing-scan memoization, profiler hooks) promises
to change *performance only*.  This test pins SHA-256 digests of the full
``SimulationResult`` serialization — every float at full precision, plus
the recorded timeline where enabled — for all five hinted policies on two
small workloads across all three disk scheduling disciplines.  Any change
to a digest means an optimization altered simulated behaviour and must be
treated as a bug (or, for an intentional model change, regenerated with an
explanation in the PR).

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden_results.py --regen
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import SimConfig, Simulator, make_policy
from repro.runner import result_digest
from repro.trace import build as build_workload
from repro.trace import cache_blocks_for

#: Trace scale for the golden cells — big enough to exercise eviction
#: pressure, stalls, and scheduler reordering; small enough to stay fast.
SCALE = 0.3

FIVE_POLICIES = (
    "demand", "fixed-horizon", "aggressive", "reverse-aggressive", "forestall"
)

#: (trace, policy, disks, discipline, record_timeline)
CELLS = (
    [("ld", policy, 2, "cscan", False) for policy in FIVE_POLICIES]
    + [("cscope1", policy, 4, "cscan", False) for policy in FIVE_POLICIES]
    + [
        ("ld", "forestall", 3, "fcfs", False),
        ("ld", "aggressive", 2, "sstf", False),
        ("cscope1", "demand", 2, "fcfs", False),
        ("ld", "forestall", 2, "cscan", True),
    ]
)


def cell_id(cell) -> str:
    trace, policy, disks, discipline, timeline = cell
    suffix = "+timeline" if timeline else ""
    return f"{trace}/{policy}/d{disks}/{discipline}{suffix}"


def simulate(cell, observer=None):
    """Run one cell: its result, and its timeline's events when recorded."""
    trace_name, policy, disks, discipline, record_timeline = cell
    trace = build_workload(trace_name, scale=SCALE)
    config = SimConfig(
        cache_blocks=cache_blocks_for(trace_name, SCALE),
        discipline=discipline,
        record_timeline=record_timeline,
    )
    sim = Simulator(trace, make_policy(policy), disks, config,
                    observer=observer)
    result = sim.run()
    return result, sim.timeline.events if record_timeline else None


def run_cell(cell, observer=None) -> str:
    """Run one cell and digest its complete serialized outcome.

    ``observer`` lets tests/test_obs.py assert the read-only guarantee:
    digests must be identical with a ``repro.obs.Observer`` attached.
    """
    result, timeline = simulate(cell, observer)
    payload = dataclasses.asdict(result)
    if timeline is not None:
        payload["timeline"] = timeline
    # json renders floats via repr: exact, so any ULP drift changes the digest.
    serialized = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


#: Digests captured before this PR's optimizations (seed behaviour).
EXPECTED = {
    "ld/demand/d2/cscan": "07f52fd9602600bcacdb5ce0b918ea4477194172ec4fbc4d90fa1662480f3f85",
    "ld/fixed-horizon/d2/cscan": "c99fa88d0d92f43b766444edf327d50e2c9f55e5e06996322de74c6960592c5c",
    "ld/aggressive/d2/cscan": "43ce72110a0df603f689dceb732a9976b3579ab4610b5abb91622b716566c4c1",
    "ld/reverse-aggressive/d2/cscan": "5f9e3449de055e0ab418a993ec587176b4e6163af193e5d961336cada7ca8272",
    "ld/forestall/d2/cscan": "06ecf3c71a743b8888394248fa26e68eabb664b827022ed4a8bbefec83cde78f",
    "cscope1/demand/d4/cscan": "67939f7854bc131b8b8e96eb9e3b5262f651d813963fd1d1b540d40177821c36",
    "cscope1/fixed-horizon/d4/cscan": "64238cc3e4ca7704d8247a3bd5a44144bca01d20e9c93ab043dedf9b6601664c",
    "cscope1/aggressive/d4/cscan": "546b71b8fadc7f4aebe5d84d929d717619a676419d6e840eca6712f1aac1c654",
    "cscope1/reverse-aggressive/d4/cscan": "14ffc70166f270b23bee4bae7b53feaeafb029765259b374a3486ab3c44bde56",
    "cscope1/forestall/d4/cscan": "5df8a6db9d6f6132218f0579903d174945f37a8a00bf15bb452024433039febe",
    "ld/forestall/d3/fcfs": "ed8ab323f42851611806b943661704717fa852dd8f2873d997b11895cf6808d1",
    "ld/aggressive/d2/sstf": "6d41b8282bb9c1edbe7daed98dd2bcf783ed5b0d225020853ab1ebf6303e95f6",
    "cscope1/demand/d2/fcfs": "694bf6fb04877357170d1d2a12c46413d379283634a5cf716dbaad4fe466e683",
    "ld/forestall/d2/cscan+timeline": "076b736df92c72f5d66d5e0d71b1a297f290d906cff70665580879e967631b87",
}


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_results_bit_identical_to_seed(cell):
    assert run_cell(cell) == EXPECTED[cell_id(cell)], (
        f"{cell_id(cell)}: SimulationResult serialization changed — an "
        "optimization altered simulated behaviour (see docs/PERFORMANCE.md)"
    )


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_runner_digest_and_field_dict_match_asdict(cell):
    """The runner digests (and journals) ``field_dict``, not asdict."""
    result, timeline = simulate(cell)
    fields = result.field_dict()
    assert fields == dataclasses.asdict(result)
    assert list(fields) == list(dataclasses.asdict(result))
    assert result_digest(result, timeline) == EXPECTED[cell_id(cell)]


def test_every_cell_has_a_pinned_digest():
    assert {cell_id(c) for c in CELLS} == set(EXPECTED)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        print("EXPECTED = {")
        for cell in CELLS:
            print(f'    "{cell_id(cell)}": "{run_cell(cell)}",')
        print("}")
    else:
        sys.exit("usage: python tests/test_golden_results.py --regen")
