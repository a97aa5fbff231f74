"""Where the traced run puts its brackets: the public entry points of each
layer of ``repro``, named after the layer's module.

- ``trace``: ``repro.trace.build``, as the runner calls it.
- ``engine.construct``: ``Simulator.__init__`` and
  ``MultiProcessSimulator.__init__``.
- ``engine.run``: ``Simulator.run``; its self time is the event loop
  outside every other layer.
- ``engine.multi_run``: ``MultiProcessSimulator.run``, its own copy of
  the loop.
- ``policy``: every hook the engine calls on a policy.
- ``disk``: ``DiskArray.submit`` / ``start_next`` / ``complete`` /
  ``take_outcome``.
- ``cache``: ``BufferCache`` lookups and fetch bookkeeping.
- ``nextref``: ``NextRefIndex``, ``EvictionHeap``, ``ScanSupport``.
- ``execute``: ``execute_cell`` in pool workers (digest, config).
- ``svc.*``: the service's request path, in the server process.

The ``after`` hooks also count engine events and track prefetch
usefulness: a fetched block is *useful* when the application references
it before it is evicted.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Dict, Set

from ledger import Ledger, Patcher

POLICY_HOOKS = (
    "bind", "before_reference", "on_disk_idle", "on_miss",
    "on_fetch_complete", "on_reference_served", "on_evict",
    "choose_victim",
)
CACHE_METHODS = (
    "__contains__", "is_in_flight", "present_or_coming", "begin_fetch",
    "abort_fetch", "complete_fetch",
)
DISK_METHODS = ("submit", "start_next", "complete", "take_outcome")


def install_engine_layers(patcher: Patcher, ledger: Ledger) -> None:
    """Bracket the simulator's layers (and the runner's trace builds)."""
    import repro.runner.execute as execute_mod
    from repro.core import (
        POLICIES,
        BufferCache,
        EvictionHeap,
        MultiProcessSimulator,
        NextRefIndex,
        PrefetchPolicy,
        ScanSupport,
        Simulator,
    )
    from repro.disk.array import DiskArray

    #: id(cache) -> blocks fetched and not yet referenced.
    pending: Dict[int, Set[int]] = {}
    counters = ledger.counters

    def fetched(_result: Any, args: Any, _kw: Any, _s: float) -> None:
        pending.setdefault(id(args[0]), set()).add(args[1])

    def referenced(_result: Any, args: Any, _kw: Any, _s: float) -> None:
        sim = args[0].sim
        blocks = pending.get(id(sim.cache))
        if blocks:
            block = sim.app_blocks[args[1]]
            if block in blocks:
                blocks.discard(block)
                counters["prefetch.useful"] += 1

    def evicted(_result: Any, args: Any, _kw: Any, _s: float) -> None:
        sim = args[0].sim
        blocks = pending.get(id(sim.cache))
        if blocks:
            blocks.discard(args[1])

    def ran(result: Any, args: Any, _kw: Any, _s: float) -> None:
        sim = args[0]
        counters["engine.events"] += sim.events_dispatched
        counters["prefetch.fetches"] += result.fetches
        pending.pop(id(sim.cache), None)

    def ran_multi(result: Any, args: Any, _kw: Any, _s: float) -> None:
        for process, outcome in zip(args[0].processes, result):
            counters["prefetch.fetches"] += outcome.fetches
            pending.pop(id(process.cache), None)

    after = {
        "on_reference_served": referenced,
        "on_evict": evicted,
    }

    def wrap_method(owner: Any, name: str, layer: str,
                    hook: Any = None) -> None:
        patcher.replace(
            owner, name, ledger.wrap(getattr(owner, name), layer, hook)
        )

    wrap_method(execute_mod, "build_workload", "trace")
    wrap_method(Simulator, "__init__", "engine.construct")
    wrap_method(Simulator, "run", "engine.run", ran)
    wrap_method(MultiProcessSimulator, "__init__", "engine.construct")
    # Its own layer: it counts no events, so it must not dilute
    # engine.us_per_event.
    wrap_method(MultiProcessSimulator, "run", "engine.multi_run", ran_multi)
    classes = {PrefetchPolicy, *POLICIES.values()}
    for cls in sorted(classes, key=lambda c: c.__name__):
        for hook in POLICY_HOOKS:
            if hook in vars(cls):
                wrap_method(cls, hook, "policy", after.get(hook))
    for name in DISK_METHODS:
        wrap_method(DiskArray, name, "disk")
    for name in CACHE_METHODS:
        hook = fetched if name == "complete_fetch" else None
        wrap_method(BufferCache, name, "cache", hook)
    for name in ("__init__", "next_use", "next_use_cold"):
        wrap_method(NextRefIndex, name, "nextref")
    for name in ("push", "best_victim"):
        wrap_method(EvictionHeap, name, "nextref")
    wrap_method(ScanSupport, "missing_candidates", "nextref")


def install_worker_dump(patcher: Patcher, ledger: Ledger,
                        directory: str) -> None:
    """Make pool workers (forked after this call) bracket ``execute_cell``
    and dump their ledger to ``directory/<pid>.json`` after every cell,
    so the parent can merge what happened in processes it cannot see."""
    import repro.runner.pool as pool_mod

    inner = ledger.wrap(pool_mod.execute_cell, "execute")

    def execute_cell(*args: Any, **kwargs: Any) -> Any:
        ledger.claim()
        try:
            return inner(*args, **kwargs)
        finally:
            ledger.dump(os.path.join(directory, f"{os.getpid()}.json"))

    patcher.replace(pool_mod, "execute_cell", execute_cell)


def install_service_layers(patcher: Patcher, ledger: Ledger) -> None:
    """Bracket the service's request path inside the server process.

    Samples (milliseconds, one per call): ``store_get_hit_ms`` and
    ``store_get_miss_ms`` (``ResultStore.get``), ``admission_ms``
    (``AdmissionController.admit``), ``store_put_ms``; per computed cell
    ``execute_ms`` (the worker's own ``wall_s``) and ``queue_ms`` (from
    ``SupervisedPool.submit`` returning to ``ResultStore.put`` starting,
    less ``execute_ms``: dispatch wait, pipe transfer and the hop back to
    the event loop); per request ``run_cell_<served>_ms``
    (``SimulationService.run_cell``, the server's whole handling).
    """
    from repro.runner.pool import SupervisedPool
    from repro.svc.admission import AdmissionController
    from repro.svc.service import SimulationService
    from repro.svc.store import ResultStore

    samples = ledger.samples
    clock = time.perf_counter
    submitted: Dict[str, float] = {}

    def got(result: Any, _args: Any, _kw: Any, spent: float) -> None:
        kind = "hit" if result is not None else "miss"
        samples[f"store_get_{kind}_ms"].append(spent * 1000.0)

    def admitted(result: Any, _args: Any, _kw: Any, spent: float) -> None:
        samples["admission_ms"].append(spent * 1000.0)
        if not result[0]:
            ledger.counters["svc.shed"] += 1

    def queued(_result: Any, args: Any, _kw: Any, _s: float) -> None:
        submitted[args[1].config_hash] = clock()

    def stored(_result: Any, args: Any, _kw: Any, spent: float) -> None:
        start = clock() - spent
        samples["store_put_ms"].append(spent * 1000.0)
        since = submitted.pop(args[1], None)
        wall_s = args[2].get("wall_s")
        if since is not None and isinstance(wall_s, float):
            samples["execute_ms"].append(wall_s * 1000.0)
            samples["queue_ms"].append((start - since - wall_s) * 1000.0)

    def wrap_method(owner: Any, name: str, layer: str, hook: Any) -> None:
        patcher.replace(
            owner, name, ledger.wrap(getattr(owner, name), layer, hook)
        )

    wrap_method(ResultStore, "get", "svc.store", got)
    wrap_method(ResultStore, "put", "svc.store", stored)
    wrap_method(AdmissionController, "admit", "svc.admission", admitted)
    wrap_method(SupervisedPool, "submit", "svc.pool", queued)

    inner = SimulationService.run_cell

    # A coroutine cannot sit on the start/stop stack (other requests run
    # while it awaits), so whole-request handling is timed on its own.
    @functools.wraps(inner)
    async def run_cell(self: Any, *args: Any, **kwargs: Any) -> Any:
        start = clock()
        record, served = await inner(self, *args, **kwargs)
        samples[f"run_cell_{served}_ms"].append((clock() - start) * 1000.0)
        return record, served

    patcher.replace(SimulationService, "run_cell", run_cell)


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """The per-layer metrics every workload reports, from one ledger."""
    self_s = ledger.self_s
    calls = ledger.calls
    counters = ledger.counters
    events = counters.get("engine.events", 0.0)
    loop_s = self_s.get("engine.run", 0.0)
    fetches = counters.get("prefetch.fetches", 0.0)
    return {
        "trace.build_s": self_s.get("trace", 0.0),
        "engine.construct_s": ledger.incl_s.get("engine.construct", 0.0),
        "engine.loop_self_s": loop_s,
        "engine.events": events,
        "engine.us_per_event": loop_s / events * 1e6 if events else 0.0,
        "policy.self_s": self_s.get("policy", 0.0),
        "policy.calls": float(calls.get("policy", 0)),
        "disk.self_s": self_s.get("disk", 0.0),
        "disk.requests": float(calls.get("disk", 0)),
        "cache.self_s": self_s.get("cache", 0.0),
        "cache.calls": float(calls.get("cache", 0)),
        "nextref.self_s": self_s.get("nextref", 0.0),
        "nextref.calls": float(calls.get("nextref", 0)),
        "prefetch.useful_frac": (
            counters.get("prefetch.useful", 0.0) / fetches if fetches else 0.0
        ),
    }
