"""repro.svc: a crash-safe simulation service over the supervised runner.

The service turns the batch runner into a long-lived, chaos-tested
daemon: cells arrive over HTTP/JSON, are deduplicated against a
:class:`ResultStore` — a run journal indexed by config hash, so a second
identical request is O(1) and bit-identical — coalesced while in flight,
guarded by admission control, and drained gracefully on signals using
the runner's resumable exit codes.  ``repro.svc.chaos`` provides the
fault-injection hooks the chaos test suite drives.

See ``docs/SERVICE.md`` for the API surface, the store's durability
model, and the invariants the chaos harness asserts.
"""

from repro.svc.admission import AdmissionController
from repro.svc.chaos import (
    CHAOS_EXIT_CODE,
    CRASH_ENV,
    RAISE_ENV,
    crash_point,
    kill_worker,
    tear_file,
    worker_pids,
)
from repro.svc.http import ServiceServer, serve_async, serve_forever
from repro.svc.limits import (
    HARD_MAX_BODY_BYTES,
    HARD_MAX_HEADER_BYTES,
    ProtocolLimits,
)
from repro.svc.netchaos import (
    ChaosProxy,
    ConnPlan,
    NetChaosSchedule,
    load_schedule,
    paced_write,
)
from repro.svc.service import (
    SERVED_COALESCED,
    SERVED_COMPUTED,
    SERVED_STORE,
    Overloaded,
    RequestTimedOut,
    ServiceConfig,
    SimulationService,
    SpecError,
    cell_from_spec,
)
from repro.svc.singleflight import SingleFlight
from repro.svc.store import ResultStore
from repro.svc.top import render_top, run_top

__all__ = [
    "AdmissionController",
    "CHAOS_EXIT_CODE",
    "CRASH_ENV",
    "RAISE_ENV",
    "crash_point",
    "kill_worker",
    "tear_file",
    "worker_pids",
    "ServiceServer",
    "serve_async",
    "serve_forever",
    "HARD_MAX_BODY_BYTES",
    "HARD_MAX_HEADER_BYTES",
    "ProtocolLimits",
    "ChaosProxy",
    "ConnPlan",
    "NetChaosSchedule",
    "load_schedule",
    "paced_write",
    "SERVED_STORE",
    "SERVED_COMPUTED",
    "SERVED_COALESCED",
    "Overloaded",
    "RequestTimedOut",
    "ServiceConfig",
    "SimulationService",
    "SpecError",
    "cell_from_spec",
    "SingleFlight",
    "ResultStore",
    "render_top",
    "run_top",
]
