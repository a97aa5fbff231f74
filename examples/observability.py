#!/usr/bin/env python3
"""Looking inside a run: stall episodes, disk activity, and attribution.

The paper's tables compress each run to six numbers.  The engine emits a
typed event at each decision, and two sinks of that stream recover the
time axis:

* ``record_timeline=True`` keeps compact stall/fetch records;
* a ``repro.obs.Observer`` keeps every event, metrics, and an *exact*
  decomposition of stall time into causes, plus Perfetto export
  (see docs/OBSERVABILITY.md).

Run:  python examples/observability.py [trace-name] [num-disks]
"""

import sys

import repro
from repro.analysis.tables import format_stall_table
from repro.core import SimConfig, Simulator, make_policy
from repro.obs import Observer, write_chrome_trace
from repro.trace import cache_blocks_for


def main() -> None:
    trace_name = sys.argv[1] if len(sys.argv) > 1 else "ld"
    num_disks = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    trace = repro.build_workload(trace_name, scale=0.5)
    config = SimConfig(
        cache_blocks=cache_blocks_for(trace_name, 0.5),
        record_timeline=True,
    )

    for policy_name in ("fixed-horizon", "forestall"):
        policy = make_policy(policy_name, horizon=31)
        sim = Simulator(trace, policy, num_disks, config)
        result = sim.run()
        timeline = sim.timeline
        summary = timeline.summary()
        episodes = sorted(
            timeline.stall_episodes(),
            key=lambda e: e.duration_ms, reverse=True,
        )

        print(f"{result.policy_name} on {trace.name}, {num_disks} disks:")
        print(f"  elapsed {result.elapsed_s:.2f}s, "
              f"{summary['stall_episodes']} stall episodes totalling "
              f"{summary['stall_total_ms'] / 1000:.2f}s "
              f"(mean {summary['stall_mean_ms']:.1f} ms, "
              f"max {summary['stall_max_ms']:.1f} ms)")
        print(f"  fetch load balance across disks: "
              f"{summary['disk_balance']:.2f} "
              f"(1.0 = perfectly even)")
        if episodes:
            worst = episodes[0]
            print(f"  worst stall: block {worst.block} for "
                  f"{worst.duration_ms:.1f} ms at t={worst.start_ms:.0f} ms")
        for disk in range(num_disks):
            spans = timeline.busy_intervals(disk)
            busy = sum(end - start for start, end in spans)
            print(f"  disk {disk}: {len(spans)} busy spans, "
                  f"{busy / 1000:.2f}s of service")
        print()

    print("Forestall's episodes should be fewer and shorter: it starts")
    print("fetching exactly when the i*F' > d_i test proves a stall is")
    print("otherwise inevitable.")

    # -- the observer: why did it stall, not just how long ------------------
    observer = Observer()
    sim = Simulator(
        trace, make_policy("forestall", horizon=31), num_disks,
        SimConfig(cache_blocks=cache_blocks_for(trace_name, 0.5)),
        observer=observer,
    )
    result = sim.run()
    print()
    print("forestall with an Observer attached (result is bit-identical):")
    print(format_stall_table(result))
    worst = observer.worst_stalls(1)
    if worst:
        episode = worst[0]
        print(f"  worst stall: block {episode.block} for "
              f"{episode.duration_ms:.1f} ms — cause: {episode.cause}")
    out_path = f"{trace_name}.trace.json"
    write_chrome_trace(observer, out_path)
    print(f"  timeline written to {out_path} — open at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
