"""Command-line interface: ``repro-sim``.

Subcommands::

    repro-sim traces                        # Table 3 summary of all workloads
    repro-sim run -t ld -p forestall -d 4   # one simulation
    repro-sim sweep -t cscope2 -d 1,2,3,4   # all algorithms across an array
    repro-sim figure -t synth -d 1,2,3,4    # paper-style stacked-bar figure
    repro-sim characterize                  # locality fingerprints
    repro-sim hints -t cscope2 -d 2         # degraded-hint sensitivity
    repro-sim faults -t cscope2 -d 2        # fault-injection sensitivity
    repro-sim export -t ld -o ld.trace      # write a workload to a file
    repro-sim lint src/repro                # simlint determinism analysis
    repro-sim report -t ld -p forestall     # stall attribution + worst stalls
    repro-sim serve --store svc-store       # crash-safe simulation service

Use ``--scale`` to shrink workloads for quick experiments.  ``run`` and
``sweep`` accept ``--fault-*`` flags to inject transient read errors,
fail-slow spindles, and disk deaths (see ``docs/FAULTS.md``).

``sweep`` can run under the crash-safe supervised runner: ``--jobs N``
fans cells out to worker processes with per-cell ``--timeout-s`` and
crash retries, journaling every result so ``--resume`` (or
``repro-sim runs resume``) continues an interrupted sweep — bit-identical
to the serial run (see ``docs/RUNNER.md``).  ``repro-sim runs`` lists and
inspects run journals.

``run`` and ``report`` accept ``--trace-out FILE`` (Chrome ``trace_event``
JSON, loadable in Perfetto) and ``--metrics FILE`` (JSONL events +
metrics); either flag attaches a ``repro.obs`` observer, which never
changes simulation results (see ``docs/OBSERVABILITY.md``).  The flag is
``--trace-out`` because ``--trace`` already names the workload.
"""

import argparse
import json
import sys

from repro.analysis.experiments import ExperimentSetting, run_one, sweep_policies
from repro.analysis.figures import render_figure
from repro.analysis.locality import characterize
from repro.analysis.tables import format_breakdown_table, format_table
from repro.core import POLICIES, HintQuality
from repro.faults import DiskFailure, FaultSchedule, SlowWindow
from repro.lint.cli import add_lint_arguments, run_lint
from repro.trace import TABLE3, WORKLOADS, build as build_workload


def _split_list(raw: str, what: str, allowed=None):
    """Parse a comma-separated option value into a clean list.

    Tokens are stripped and empties dropped, so ``"a, b,"`` means
    ``["a", "b"]``.  Unknown tokens raise :class:`SystemExit` naming the
    offending token and the valid choices, instead of failing later with
    an opaque KeyError deep in the experiment code.
    """
    tokens = [token.strip() for token in raw.split(",")]
    tokens = [token for token in tokens if token]
    if not tokens:
        raise SystemExit(f"--{what} {raw!r}: expected a comma-separated list")
    if allowed is not None:
        for token in tokens:
            if token not in allowed:
                raise SystemExit(
                    f"--{what}: unknown value {token!r} "
                    f"(choose from {', '.join(sorted(allowed))})"
                )
    return tokens


def _split_ints(raw: str, what: str):
    """Like :func:`_split_list` but for integer lists such as ``--disks``."""
    values = []
    for token in _split_list(raw, what):
        try:
            values.append(int(token))
        except ValueError:
            raise SystemExit(f"--{what}: {token!r} is not an integer")
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", "-t", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cache", type=int, default=None, help="cache blocks")
    parser.add_argument(
        "--discipline", choices=["cscan", "fcfs", "sstf"], default="cscan"
    )


def _setting(args) -> ExperimentSetting:
    return ExperimentSetting(
        scale=args.scale,
        discipline=args.discipline,
        cache_blocks=args.cache,
    )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--fault-error-rate", type=float, default=0.0, metavar="P",
        help="per-read transient error probability (default 0: no faults)",
    )
    group.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the deterministic fault draws",
    )
    group.add_argument(
        "--fault-slow", action="append", default=[], metavar="DISK:FACTOR[:START:END]",
        help="fail-slow window: service times on DISK multiplied by FACTOR "
        "(optionally only between START and END ms); repeatable",
    )
    group.add_argument(
        "--fault-kill", action="append", default=[], metavar="DISK@MS",
        help="permanent disk failure: DISK dies at MS wall-clock ms; repeatable",
    )
    group.add_argument(
        "--fault-max-retries", type=int, default=3,
        help="demand-fetch retry budget before UnrecoverableReadError",
    )
    group.add_argument(
        "--fault-backoff-ms", type=float, default=1.0,
        help="base retry backoff (doubles per attempt)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability (docs/OBSERVABILITY.md)")
    group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace_event JSON timeline (open in Perfetto); "
        "named --trace-out because --trace selects the workload",
    )
    group.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write events, counters, and histograms as JSON Lines",
    )
    group.add_argument(
        "--trace-full", action="store_true",
        help="include per-reference/per-fetch instants in the timeline "
        "(larger files; default keeps spans, counters, and faults)",
    )


def _maybe_observer(args):
    """An attached-to-nothing Observer when any --trace-out/--metrics flag
    asks for one; None otherwise (the zero-overhead default)."""
    if args.trace_out is None and args.metrics is None:
        return None
    from repro.obs import Observer

    return Observer()


def _write_obs_outputs(observer, args) -> None:
    if observer is None:
        return
    from repro.obs import write_chrome_trace, write_jsonl

    full = getattr(args, "trace_full", False)
    if args.trace_out is not None:
        write_chrome_trace(observer, args.trace_out, full=full)
        print(f"wrote timeline ({len(observer.events)} events) to "
              f"{args.trace_out} — open at https://ui.perfetto.dev")
    if args.metrics is not None:
        write_jsonl(observer, args.metrics)
        print(f"wrote metrics to {args.metrics}")


def _parse_slow(spec: str) -> SlowWindow:
    parts = spec.split(":")
    if len(parts) not in (2, 4):
        raise SystemExit(
            f"--fault-slow {spec!r}: expected DISK:FACTOR or DISK:FACTOR:START:END"
        )
    disk, factor = int(parts[0]), float(parts[1])
    if len(parts) == 2:
        return SlowWindow(factor=factor, disk=disk)
    return SlowWindow(factor=factor, disk=disk,
                      start_ms=float(parts[2]), end_ms=float(parts[3]))


def _parse_kill(spec: str) -> DiskFailure:
    disk, _, at_ms = spec.partition("@")
    if not _:
        raise SystemExit(f"--fault-kill {spec!r}: expected DISK@MS")
    return DiskFailure(disk=int(disk), at_ms=float(at_ms))


def _fault_schedule(args):
    """Build a FaultSchedule from --fault-* flags; None when all defaults."""
    try:
        schedule = FaultSchedule(
            seed=args.fault_seed,
            read_error_rate=args.fault_error_rate,
            slow_windows=tuple(_parse_slow(s) for s in args.fault_slow),
            disk_failures=tuple(_parse_kill(s) for s in args.fault_kill),
            max_retries=args.fault_max_retries,
            retry_backoff_ms=args.fault_backoff_ms,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid --fault-* flags: {exc}")
    return None if schedule.is_null else schedule


def cmd_traces(_args) -> int:
    rows = []
    for name in WORKLOADS:
        trace = build_workload(name)
        paper = TABLE3[name]
        rows.append(
            (
                name, trace.reads, trace.distinct_blocks,
                round(trace.compute_time_s, 1),
                paper[0], paper[1], paper[2],
            )
        )
    print(
        format_table(
            (
                "trace", "reads", "distinct", "compute_s",
                "paper_reads", "paper_distinct", "paper_compute_s",
            ),
            rows,
        )
    )
    return 0


def cmd_run(args) -> int:
    faults = _fault_schedule(args)
    overrides = {"faults": faults} if faults is not None else None
    profiler = None
    if args.profile or args.profile_json is not None:
        from repro.perf import PhaseProfiler

        profiler = PhaseProfiler()
    observer = _maybe_observer(args)
    result = run_one(
        _setting(args), args.trace, args.policy, args.disks,
        config_overrides=overrides, profiler=profiler, observer=observer,
    )
    print(format_breakdown_table([result]))
    if faults is not None:
        print(str(result))
    if observer is not None:
        from repro.analysis.tables import format_stall_table

        print()
        print("stall attribution:")
        print(format_stall_table(result))
    if profiler is not None:
        if args.profile:
            print()
            print("wall-clock phase breakdown (sampled):")
            print(profiler.report())
        if args.profile_json is not None:
            payload = json.dumps(profiler.to_dict(), indent=2, sort_keys=True)
            if args.profile_json == "-":
                print(payload)
            else:
                with open(args.profile_json, "w") as handle:
                    handle.write(payload + "\n")
                print(f"wrote phase profile to {args.profile_json}")
    _write_obs_outputs(observer, args)
    return 0


def cmd_report(args) -> int:
    """Run one observed simulation and print the observability report:
    stall attribution, per-disk utilization, counters, histograms, and the
    top-K worst stalls with their surrounding event windows."""
    from repro.obs import Observer, render_report

    faults = _fault_schedule(args)
    overrides = {"faults": faults} if faults is not None else None
    observer = Observer()
    run_one(
        _setting(args), args.trace, args.policy, args.disks,
        config_overrides=overrides, observer=observer,
    )
    print(render_report(observer, top=args.top))
    _write_obs_outputs(observer, args)
    return 0


def _sweep_cells(args):
    """The sweep's declarative plan (shared by both execution paths)."""
    from repro.runner import Cell, sweep_cells

    disk_counts = _split_ints(args.disks, "disks")
    policies = (
        _split_list(args.policies, "policies", allowed=POLICIES)
        if args.policies else sorted(POLICIES)
    )
    faults = _fault_schedule(args)
    setting = _setting(args)
    if faults is None:
        return sweep_cells(
            setting, args.trace, policies, disk_counts,
            tuned_reverse=args.tuned_reverse,
        )
    return [
        Cell.from_setting(setting, args.trace, policy, disks,
                          config_overrides={"faults": faults})
        for policy in policies
        for disks in disk_counts
    ]


def cmd_sweep(args) -> int:
    supervised = (
        args.jobs is not None or args.resume or args.journal is not None
        or args.timeout_s is not None or args.max_minutes is not None
    )
    if supervised:
        return _cmd_sweep_supervised(args)
    from repro.runner import execute_cells

    results = [outcome.result for outcome in execute_cells(_sweep_cells(args))]
    print(format_breakdown_table(results))
    return 0


def _cmd_sweep_supervised(args) -> int:
    """Journaled, resumable, parallel sweep (docs/RUNNER.md)."""
    from repro.obs import MetricsRegistry
    from repro.runner import (
        default_journal_dir,
        format_failure,
        run_plan,
        write_json_atomic,
    )

    cells = _sweep_cells(args)
    journal_dir = args.journal or default_journal_dir(cells)
    metrics = MetricsRegistry()

    def progress(record, done, total):
        status = record["status"]
        detail = (
            f"digest={record['digest'][:12]} {record.get('wall_s', 0):.2f}s"
            if status == "ok"
            else f"{record.get('failure')}: {record['error']['message']}"
        )
        print(f"[{done}/{total}] {status:6s} {record['cell_id']}  {detail}")

    report = run_plan(
        cells,
        journal_dir=journal_dir,
        jobs=args.jobs or 1,
        timeout_s=args.timeout_s,
        max_retries=args.retries,
        retry_backoff_s=args.retry_backoff_s,
        resume=args.resume,
        max_minutes=args.max_minutes,
        metrics=metrics,
        progress=progress,
        argv=getattr(args, "_raw_argv", None),
    )
    results = [result for result in report.results() if result is not None]
    if results:
        print()
        print(format_breakdown_table(results))
    if report.skipped:
        print(f"resumed: skipped {report.skipped} completed cells")
    if report.failures:
        print(f"{len(report.failures)} cells failed:")
        for record in report.failures:
            print(format_failure(record))
    if report.stop_reason is not None:
        print(
            f"sweep {report.status} — journal saved to {journal_dir}; "
            f"continue with --resume (or: repro-sim runs resume "
            f"{journal_dir})"
        )
    counters = ", ".join(
        f"{name}={value}"
        for name, value in sorted(report.counters.items()) if value
    )
    print(f"runner: {counters or 'nothing to do'}  [journal: {journal_dir}]")
    if args.runner_metrics is not None:
        write_json_atomic(args.runner_metrics, metrics.to_dict())
        print(f"wrote runner metrics to {args.runner_metrics}")
    return report.exit_code


def cmd_runs(args) -> int:
    """List, inspect, and resume run journals."""
    import os

    from repro.runner import (
        Journal,
        format_run_detail,
        format_runs_table,
        resume_argv,
    )

    if args.runs_action == "list":
        print(format_runs_table(args.root))
        return 0

    directory = args.run
    if not os.path.isdir(directory):
        candidate = os.path.join(args.root, directory)
        if os.path.isdir(candidate):
            directory = candidate
        else:
            raise SystemExit(
                f"no run journal at {args.run!r} or {candidate!r} "
                f"(try: repro-sim runs list --root {args.root})"
            )
    journal = Journal(directory)

    if args.runs_action == "show":
        print(format_run_detail(journal, verbose=args.verbose))
        return 0

    # resume: re-issue the creating sweep command with --resume appended.
    argv = resume_argv(journal)
    if argv is None:
        raise SystemExit(
            f"{directory}: manifest records no creating command; re-run the "
            "original sweep with --resume and --journal pointing here"
        )
    print(f"resuming: repro-sim {' '.join(argv)}")
    return main(argv)


def cmd_serve(args) -> int:
    """Run the crash-safe simulation service (docs/SERVICE.md)."""
    from repro.svc import ProtocolLimits, ServiceConfig, serve_forever

    if args.log_json:
        from repro.obs import configure_logging

        configure_logging(level=args.log_level)
    trace = bool(args.trace or args.trace_out)
    limits = ProtocolLimits(
        max_header_bytes=args.max_header_bytes,
        max_body_bytes=args.max_body_bytes,
        header_timeout_s=args.header_timeout_s,
        body_timeout_s=args.body_timeout_s,
        max_connections=args.max_connections,
        reserved_read_connections=args.reserved_read_connections,
        max_requests_per_connection=args.max_requests_per_connection,
    )
    config = ServiceConfig(
        store_dir=args.store,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        request_timeout_s=args.request_timeout_s,
        cell_timeout_s=args.timeout_s,
        max_retries=args.retries,
        retry_backoff_s=args.retry_backoff_s,
        breaker_failures=args.breaker_failures,
        breaker_reset_s=args.breaker_reset_s,
        trace=trace,
        trace_out=args.trace_out,
        limits=limits,
    )
    deadline_s = args.max_minutes * 60.0 if args.max_minutes else None
    print(
        f"repro-sim service on http://{args.host}:{args.port} "
        f"(store: {args.store}, {args.jobs} workers"
        f"{', tracing' if trace else ''}) — "
        "POST /v1/cells, GET /v1/status; Ctrl-C drains gracefully"
    )
    return serve_forever(config, args.host, args.port, deadline_s)


def cmd_top(args) -> int:
    """Live ops console over a running service (docs/OBSERVABILITY.md)."""
    from repro.svc import run_top

    return run_top(
        host=args.host, port=args.port, interval_s=args.interval_s,
        iterations=1 if args.once else None, width=args.width,
    )


def cmd_loadgen(args) -> int:
    """Open-loop load generation against a running service, optionally
    through a client-side netchaos schedule (docs/SERVICE.md)."""
    import json as _json

    from repro.loadgen import DEFAULT_MIX, LoadgenConfig, run_loadgen_blocking
    from repro.svc import load_schedule

    mix = dict(DEFAULT_MIX)
    if args.mix:
        mix = {}
        for token in _split_list(args.mix, "mix"):
            kind, sep, weight = token.partition("=")
            if not sep:
                raise SystemExit(
                    f"--mix entries are kind=weight, got {token!r}"
                )
            try:
                mix[kind] = float(weight)
            except ValueError:
                raise SystemExit(f"bad --mix weight in {token!r}") from None
    specs = None
    if args.cells_file:
        with open(args.cells_file) as handle:
            specs = _json.load(handle)
        if not isinstance(specs, list) or not specs:
            raise SystemExit("--cells-file must hold a JSON list of specs")
    chaos = load_schedule(args.chaos) if args.chaos else None
    kwargs = {}
    if specs is not None:
        kwargs["specs"] = specs
    try:
        config = LoadgenConfig(
            host=args.host, port=args.port, rate_per_s=args.rate,
            duration_s=args.duration, seed=args.seed, mix=mix,
            timeout_s=args.timeout_s, chaos=chaos, **kwargs,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    report = run_loadgen_blocking(config)
    rendered = _json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote loadgen report ({report['completed']} requests, "
              f"plan {report['plan']['fingerprint'][:12]}) to {args.report}")
    else:
        print(rendered)
    if report["digest_conflicts"]:
        print("DIGEST CONFLICTS: " + ", ".join(report["digest_conflicts"]))
        return 1
    return 0


def cmd_figure(args) -> int:
    disk_counts = _split_ints(args.disks, "disks")
    policies = (
        _split_list(args.policies, "policies", allowed=POLICIES)
        if args.policies
        else ["fixed-horizon", "aggressive", "forestall"]
    )
    setting = _setting(args)
    results = sweep_policies(setting, args.trace, policies, disk_counts)
    print(render_figure(f"{args.trace} — elapsed time breakdown", results))
    return 0


def cmd_characterize(args) -> int:
    names = (
        _split_list(args.traces, "traces", allowed=WORKLOADS)
        if args.traces else sorted(WORKLOADS)
    )
    rows = []
    for name in names:
        trace = build_workload(name, scale=args.scale)
        fp = characterize(trace)
        rows.append(
            (
                name, fp["references"], fp["distinct_blocks"],
                fp["sequentiality"], fp["hot10_share"],
                fp["miss_ratio_small_cache"], fp["miss_ratio_full_cache"],
            )
        )
    print(
        format_table(
            (
                "trace", "refs", "distinct", "sequentiality", "hot10",
                "miss@K/8", "miss@K",
            ),
            rows,
        )
    )
    return 0


def cmd_export(args) -> int:
    trace = build_workload(args.trace, scale=args.scale)
    from repro.trace import io as trace_io

    if args.output.endswith(".json"):
        trace.save(args.output)
    else:
        trace_io.dump(trace, args.output)
    print(f"wrote {trace.references} references "
          f"({trace.distinct_blocks} distinct blocks) to {args.output}")
    return 0


def cmd_hints(args) -> int:
    trace = build_workload(args.trace, scale=args.scale)
    import repro

    qualities = [
        ("perfect", HintQuality()),
        ("10% missing", HintQuality(missing_fraction=0.10, seed=42)),
        ("25% missing", HintQuality(missing_fraction=0.25, seed=42)),
        ("10% wrong", HintQuality(wrong_fraction=0.10, seed=42)),
    ]
    policies = (
        _split_list(args.policies, "policies", allowed=POLICIES)
        if args.policies
        else ["fixed-horizon", "aggressive", "forestall"]
    )
    rows = []
    for label, quality in qualities:
        row = [label]
        for policy in policies:
            result = repro.run_simulation(
                trace, policy=policy, num_disks=args.disks,
                cache_blocks=args.cache, hint_quality=quality,
            )
            row.append(round(result.elapsed_s, 2))
        rows.append(tuple(row))
    print(format_table(("hint quality",) + tuple(policies), rows))
    return 0


def cmd_faults(args) -> int:
    trace = build_workload(args.trace, scale=args.scale)
    import repro

    scenarios = [
        ("healthy", None),
        ("2% errors", FaultSchedule(read_error_rate=0.02, seed=args.fault_seed)),
        ("10% errors", FaultSchedule(read_error_rate=0.10, seed=args.fault_seed)),
        ("disk 0 3x slow",
         FaultSchedule(slow_windows=(SlowWindow(factor=3.0, disk=0),))),
        ("disk 0 10x slow",
         FaultSchedule(slow_windows=(SlowWindow(factor=10.0, disk=0),))),
    ]
    policies = (
        _split_list(args.policies, "policies", allowed=POLICIES)
        if args.policies
        else ["demand", "fixed-horizon", "aggressive", "forestall"]
    )
    rows = []
    for label, schedule in scenarios:
        row = [label]
        for policy in policies:
            result = repro.run_simulation(
                trace, policy=policy, num_disks=args.disks,
                cache_blocks=args.cache, faults=schedule,
            )
            row.append(round(result.elapsed_s, 2))
        rows.append(tuple(row))
    print(format_table(("fault scenario",) + tuple(policies), rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Trace-driven parallel prefetching/caching simulator "
        "(Kimbrel et al., OSDI 1996 reproduction)",
        epilog="exit codes: 0 success; 1 failed cells; 75 interrupted "
        "by a signal, resumable with --resume (sweep) or from the result "
        "store (serve); 76 stopped at --max-minutes, equally resumable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("traces", help="summarize the built-in workloads")

    run_parser = sub.add_parser("run", help="run one simulation")
    _add_common(run_parser)
    run_parser.add_argument(
        "--policy", "-p", default="forestall", choices=sorted(POLICIES)
    )
    run_parser.add_argument("--disks", "-d", type=int, default=1)
    run_parser.add_argument(
        "--profile", action="store_true",
        help="print a sampled wall-clock phase breakdown of the simulator "
        "(policy / disk / cache / dispatch; see docs/PERFORMANCE.md)",
    )
    run_parser.add_argument(
        "--profile-json", default=None, metavar="FILE",
        help="write the phase profile as JSON (implies profiling; "
        "use - for stdout)",
    )
    _add_fault_flags(run_parser)
    _add_obs_flags(run_parser)

    sweep_parser = sub.add_parser("sweep", help="sweep policies x disks")
    _add_common(sweep_parser)
    _add_fault_flags(sweep_parser)
    sweep_parser.add_argument(
        "--policies", "-p", default=None, help="comma-separated policy names"
    )
    sweep_parser.add_argument("--disks", "-d", default="1,2,4")
    sweep_parser.add_argument(
        "--tuned-reverse", action="store_true",
        help="grid-search reverse aggressive's parameters per disk count",
    )
    runner_group = sweep_parser.add_argument_group(
        "supervised runner (docs/RUNNER.md)"
    )
    runner_group.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="run cells on N supervised worker processes with a crash-safe "
        "journal (default: in-process, unjournaled)",
    )
    runner_group.add_argument(
        "--journal", default=None, metavar="DIR",
        help="journal directory (default: runs/run-<planhash>, so the same "
        "sweep command finds its own journal)",
    )
    runner_group.add_argument(
        "--resume", action="store_true",
        help="skip cells already completed in the journal; re-run failures",
    )
    runner_group.add_argument(
        "--timeout-s", type=float, default=None, metavar="S",
        help="kill any cell running longer than S seconds and record a "
        "structured timeout failure (the sweep continues)",
    )
    runner_group.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry budget for cells whose worker process crashes "
        "(exceptions are deterministic and never retried; default 2)",
    )
    runner_group.add_argument(
        "--retry-backoff-s", type=float, default=0.5, metavar="S",
        help="base backoff before a crash retry (doubles per attempt)",
    )
    runner_group.add_argument(
        "--max-minutes", type=float, default=None, metavar="M",
        help="stop dispatching after M minutes, drain in-flight cells, and "
        "exit resumable (code 76)",
    )
    runner_group.add_argument(
        "--runner-metrics", default=None, metavar="FILE",
        help="write runner counters (repro.obs metrics) as JSON",
    )
    sweep_parser.epilog = (
        "exit codes: 0 all cells completed; 1 some cells failed; "
        "75 interrupted by SIGINT/SIGTERM after a graceful drain "
        "(resume with --resume); 76 stopped at --max-minutes "
        "(also resumable)."
    )

    serve_parser = sub.add_parser(
        "serve",
        help="serve simulations over HTTP with a crash-safe result store",
        description="A long-lived simulation service: cells arrive as "
        "JSON over HTTP, results are cached in a run journal indexed by "
        "config hash (an identical request is O(1) and bit-identical), "
        "identical in-flight requests are coalesced, and overload answers "
        "429/503 instead of queueing without bound (docs/SERVICE.md).",
        epilog="exit codes: 75 drained after SIGINT/SIGTERM — restart "
        "resumes from the store; 76 drained at --max-minutes.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument(
        "--store", default="svc-store", metavar="DIR",
        help="result store directory (default: svc-store)",
    )
    serve_parser.add_argument(
        "--jobs", "-j", type=int, default=2, metavar="N",
        help="supervised worker processes (default 2)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="admission limit: cells in the system before 429 (default 32)",
    )
    serve_parser.add_argument(
        "--request-timeout-s", type=float, default=120.0, metavar="S",
        help="per-request timeout before 504 (default 120)",
    )
    serve_parser.add_argument(
        "--timeout-s", type=float, default=None, metavar="S",
        help="per-cell compute timeout (kills and respawns the worker)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="crash retry budget per cell (default 2)",
    )
    serve_parser.add_argument(
        "--retry-backoff-s", type=float, default=0.5, metavar="S",
        help="base crash-retry backoff, doubling per attempt (default 0.5)",
    )
    serve_parser.add_argument(
        "--breaker-failures", type=int, default=5, metavar="N",
        help="consecutive crash/timeouts that trip the circuit breaker "
        "(default 5)",
    )
    serve_parser.add_argument(
        "--breaker-reset-s", type=float, default=30.0, metavar="S",
        help="open-breaker cooldown before a half-open probe (default 30)",
    )
    serve_parser.add_argument(
        "--max-minutes", type=float, default=None, metavar="M",
        help="drain and exit 76 after M minutes (smoke tests, cron)",
    )
    serve_parser.add_argument(
        "--trace", action="store_true",
        help="record request-scoped service spans (http.parse, "
        "admission.wait, worker.execute, ...) merged with each computed "
        "cell's simulation timeline; export via GET /v1/trace "
        "(docs/OBSERVABILITY.md). Off by default: zero overhead when off.",
    )
    serve_parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the merged Perfetto timeline to FILE on drain "
        "(implies --trace)",
    )
    serve_parser.add_argument(
        "--log-json", action="store_true",
        help="structured JSON logs on stderr, one object per line, every "
        "record carrying the request correlation ID",
    )
    serve_parser.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="minimum level for --log-json (default info)",
    )
    serve_parser.add_argument(
        "--max-header-bytes", type=int, default=16 * 1024, metavar="N",
        help="request line + header budget before 431 (default 16384; "
        "hard ceiling 65536 — no configuration is memory-unbounded)",
    )
    serve_parser.add_argument(
        "--max-body-bytes", type=int, default=4 * 1024 * 1024, metavar="N",
        help="request body budget before 413 (default 4 MiB; hard "
        "ceiling 8 MiB)",
    )
    serve_parser.add_argument(
        "--header-timeout-s", type=float, default=10.0, metavar="S",
        help="deadline to receive the full header block before 408 — "
        "slowloris protection (default 10)",
    )
    serve_parser.add_argument(
        "--body-timeout-s", type=float, default=30.0, metavar="S",
        help="deadline to receive the full body before 408 (default 30)",
    )
    serve_parser.add_argument(
        "--max-connections", type=int, default=256, metavar="N",
        help="open connections beyond this are refused 503 + Retry-After "
        "at accept (default 256)",
    )
    serve_parser.add_argument(
        "--reserved-read-connections", type=int, default=32, metavar="N",
        help="connection headroom reserved for read-only routes: compute "
        "POSTs beyond max-connections minus this answer 429 while cached "
        "reads keep flowing (default 32)",
    )
    serve_parser.add_argument(
        "--max-requests-per-connection", type=int, default=100, metavar="N",
        help="keep-alive requests served per connection before close "
        "(default 100)",
    )

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="open-loop load generator for a running service",
        description="Fire a seeded open-loop request plan at a running "
        "repro-sim serve instance: arrivals keep their timetable however "
        "the server copes, so overload shaping (429 sheds, priority "
        "lanes) is measured instead of masked. The report "
        "carries a plan fingerprint — the same seed replays the same "
        "plan — plus per-kind status counts, latency percentiles, and a "
        "digest ledger that fails the run on any lost/duplicated result "
        "(docs/SERVICE.md, 'Overload and hostile networks').",
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, default=8642)
    loadgen_parser.add_argument(
        "--rate", type=float, default=20.0, metavar="R",
        help="mean arrival rate, requests/second (default 20)",
    )
    loadgen_parser.add_argument(
        "--duration", type=float, default=10.0, metavar="S",
        help="plan length in seconds (default 10)",
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=0,
        help="plan seed: arrivals, mix draws, and spec choices replay "
        "exactly (default 0)",
    )
    loadgen_parser.add_argument(
        "--mix", default=None, metavar="K=W,...",
        help="request mix as kind=weight pairs over cells, results, "
        "status, metrics, healthz (default cells=0.5,results=0.4,"
        "status=0.1)",
    )
    loadgen_parser.add_argument(
        "--cells-file", default=None, metavar="FILE",
        help="JSON list of cell specs to draw from (default: a built-in "
        "reduced-scale pool)",
    )
    loadgen_parser.add_argument(
        "--chaos", default=None, metavar="FILE",
        help="netchaos schedule JSON applied client-side per request "
        "(drips, drops, latency) — see docs/SERVICE.md for the format",
    )
    loadgen_parser.add_argument(
        "--timeout-s", type=float, default=30.0, metavar="S",
        help="per-request client timeout (default 30)",
    )
    loadgen_parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the JSON report to FILE instead of stdout",
    )

    top_parser = sub.add_parser(
        "top",
        help="live ops console for a running service",
        description="Poll GET /v1/status and /v1/metrics on an interval "
        "and redraw one terminal frame: breaker state, admission "
        "occupancy, worker utilization, store hit ratio, and request "
        "latency quantiles. Read-only.",
    )
    top_parser.add_argument("--host", default="127.0.0.1")
    top_parser.add_argument("--port", type=int, default=8642)
    top_parser.add_argument(
        "--interval-s", type=float, default=2.0, metavar="S",
        help="refresh interval (default 2)",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (scripts, tests)",
    )
    top_parser.add_argument(
        "--width", type=int, default=80, metavar="COLS",
        help="frame width (default 80)",
    )

    runs_parser = sub.add_parser(
        "runs", help="list, inspect, and resume sweep run journals"
    )
    runs_sub = runs_parser.add_subparsers(dest="runs_action", required=True)
    runs_list = runs_sub.add_parser("list", help="summarize runs under --root")
    runs_list.add_argument("--root", default="runs")
    runs_show = runs_sub.add_parser(
        "show", help="manifest, digests, and outstanding failures of one run"
    )
    runs_show.add_argument("run", help="run directory (or name under --root)")
    runs_show.add_argument("--root", default="runs")
    runs_show.add_argument(
        "--verbose", "-v", action="store_true",
        help="include failure tracebacks",
    )
    runs_resume = runs_sub.add_parser(
        "resume", help="re-issue a journaled sweep command with --resume"
    )
    runs_resume.add_argument("run", help="run directory (or name under --root)")
    runs_resume.add_argument("--root", default="runs")

    figure_parser = sub.add_parser(
        "figure", help="render a paper-style stacked-bar figure"
    )
    _add_common(figure_parser)
    figure_parser.add_argument("--policies", "-p", default=None)
    figure_parser.add_argument("--disks", "-d", default="1,2,4")

    char_parser = sub.add_parser(
        "characterize", help="locality fingerprints of the workloads"
    )
    char_parser.add_argument("--traces", default=None,
                             help="comma-separated workload names")
    char_parser.add_argument("--scale", type=float, default=1.0)

    hints_parser = sub.add_parser(
        "hints", help="elapsed time under degraded hints"
    )
    _add_common(hints_parser)
    hints_parser.add_argument("--policies", "-p", default=None)
    hints_parser.add_argument("--disks", "-d", type=int, default=2)

    faults_parser = sub.add_parser(
        "faults", help="elapsed time under injected hardware faults"
    )
    _add_common(faults_parser)
    faults_parser.add_argument("--policies", "-p", default=None)
    faults_parser.add_argument("--disks", "-d", type=int, default=2)
    faults_parser.add_argument("--fault-seed", type=int, default=0)

    report_parser = sub.add_parser(
        "report", help="observed run: stall attribution, utilization, "
        "metrics, and the worst stalls with event context"
    )
    _add_common(report_parser)
    report_parser.add_argument(
        "--policy", "-p", default="forestall", choices=sorted(POLICIES)
    )
    report_parser.add_argument("--disks", "-d", type=int, default=1)
    report_parser.add_argument(
        "--top", type=int, default=5,
        help="how many worst stalls to show with event windows",
    )
    _add_fault_flags(report_parser)
    _add_obs_flags(report_parser)

    lint_parser = sub.add_parser(
        "lint", help="simlint: determinism & policy-contract static analysis"
    )
    add_lint_arguments(lint_parser)

    export_parser = sub.add_parser(
        "export", help="write a built-in workload to a trace file"
    )
    export_parser.add_argument("--trace", "-t", required=True,
                               choices=sorted(WORKLOADS))
    export_parser.add_argument("--scale", type=float, default=1.0)
    export_parser.add_argument(
        "--output", "-o", required=True,
        help="destination (.json for native format, else text)",
    )

    args = parser.parse_args(argv)
    # The raw argv is journaled by supervised sweeps so `repro-sim runs
    # resume` can re-issue the exact creating command.
    args._raw_argv = list(argv) if argv is not None else sys.argv[1:]
    handler = {
        "traces": cmd_traces,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "figure": cmd_figure,
        "characterize": cmd_characterize,
        "hints": cmd_hints,
        "faults": cmd_faults,
        "export": cmd_export,
        "report": cmd_report,
        "lint": run_lint,
        "runs": cmd_runs,
        "serve": cmd_serve,
        "top": cmd_top,
        "loadgen": cmd_loadgen,
    }
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
