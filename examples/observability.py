#!/usr/bin/env python3
"""Looking inside a run: stall episodes, disk activity, and attribution.

The paper's tables compress each run to six numbers.  The engine emits a
typed event at each decision, and a ``repro.obs.Observer`` attached to a
run keeps them all: its stall episodes with the cause of each, every
disk's busy time, metrics, an *exact* decomposition of stall time into
causes, and a Perfetto export (see docs/OBSERVABILITY.md).  The result
is bit-identical to an unobserved run's.

Run:  python examples/observability.py [trace-name] [num-disks]

Writes ``<trace-name>.trace.json`` (forestall's run) to the working
directory.
"""

import sys

import repro
from repro.analysis.tables import format_stall_table
from repro.core import SimConfig, Simulator, make_policy
from repro.core import events as ev
from repro.obs import Observer, write_chrome_trace
from repro.trace import cache_blocks_for


def main() -> None:
    trace_name = sys.argv[1] if len(sys.argv) > 1 else "ld"
    num_disks = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    trace = repro.build_workload(trace_name, scale=0.5)
    config = SimConfig(cache_blocks=cache_blocks_for(trace_name, 0.5))

    for policy_name in ("fixed-horizon", "forestall"):
        observer = Observer()
        policy = make_policy(policy_name, horizon=31)
        result = Simulator(
            trace, policy, num_disks, config, observer=observer
        ).run()
        durations = [e.duration_ms for e in observer.stall_episodes]
        fetches = [0] * num_disks
        for event in observer.events:
            if event.kind == ev.FETCH_ISSUE:
                fetches[event.disk] += 1
        balance = min(fetches) / max(fetches) if max(fetches) else 1.0

        print(f"{result.policy_name} on {trace.name}, {num_disks} disks:")
        print(f"  elapsed {result.elapsed_s:.2f}s, "
              f"{len(durations)} stall episodes totalling "
              f"{sum(durations) / 1000:.2f}s "
              f"(mean {sum(durations) / max(1, len(durations)):.1f} ms, "
              f"max {max(durations, default=0.0):.1f} ms)")
        print(f"  fetch load balance across disks: {balance:.2f} "
              f"(1.0 = perfectly even)")
        for worst in observer.worst_stalls(1):
            print(f"  worst stall: block {worst.block} for "
                  f"{worst.duration_ms:.1f} ms at t={worst.start_ms:.0f} ms "
                  f"— cause: {worst.cause}")
        for disk, busy in enumerate(observer.busy_ms_per_disk):
            print(f"  disk {disk}: {fetches[disk]} fetches, "
                  f"{busy / 1000:.2f}s of service")
        print(format_stall_table(result))
        print()

    print("Forestall should stall fewer times and for less in total: it")
    print("starts fetching exactly when the i*F' > d_i test proves a stall")
    print("is otherwise inevitable.")

    out_path = f"{trace_name}.trace.json"
    write_chrome_trace(observer, out_path)
    print(f"forestall's timeline written to {out_path} "
          f"— open at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
