"""Regenerate ``digests.json``: the result digest of every ``engine`` and
``sweep`` cell at the default seed, computed by ``execute_cell`` (the XL
cell, which ``execute_cell``'s name check does not admit, by the same
construction without the check).  Run it only after a change that is
meant to alter results, and say so in that change."""

from __future__ import annotations

import json
from typing import Dict

from common import DEFAULT_SEED, DIGESTS_PATH
import wl_engine
import wl_sweep


def compute() -> Dict[str, Dict[str, str]]:
    from repro.runner import execute_cell, result_digest
    from repro.trace import WORKLOADS

    engine: Dict[str, str] = {}
    traces: Dict = {}
    for cell in wl_engine.plan():
        if cell.trace in WORKLOADS:
            engine[cell.config_hash] = execute_cell(
                cell, trace_cache=traces).digest
        else:
            sim = wl_engine.simulator_for(cell, traces)
            engine[cell.config_hash] = result_digest(sim.run())
    sweep = {
        cell.config_hash: execute_cell(cell, trace_cache=traces).digest
        for cell in wl_sweep.plan(DEFAULT_SEED)
    }
    return {"engine": engine, "sweep": sweep}


def write() -> None:
    table = compute()
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(len(v) for v in table.values())} digests to "
          f"{DIGESTS_PATH}")
