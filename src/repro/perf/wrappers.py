"""Profiling wrappers that bracket hot-path calls with phase timing.

Kept out of the engine so an unprofiled :class:`Simulator` never touches
this module: the wrapper is swapped in only when a profiler is attached,
and it delegates every call unchanged — the wrapped policy cannot tell it
is being observed, which is what keeps profiled runs bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.core.policy import PrefetchPolicy, SimulatorLike, Victim
    from repro.perf.profiler import PhaseProfiler


class ProfiledPolicy:
    """Wraps a :class:`PrefetchPolicy`, timing its consultations.

    Every decision point and observation hook is bracketed with the
    ``policy`` phase; anything else (attributes, helper methods the
    policy calls on itself) passes straight through via delegation.
    """

    def __init__(self, policy: PrefetchPolicy, profiler: PhaseProfiler) -> None:
        self._policy = policy
        self._profiler = profiler

    @property
    def name(self) -> str:
        return self._policy.name

    def bind(self, sim: SimulatorLike) -> None:
        self._policy.bind(sim)

    # -- timed decision points --------------------------------------------------

    def before_reference(self, cursor: int, now: float) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.before_reference(cursor, now)
        finally:
            profiler.stop()

    def on_disk_idle(self, disk: int, now: float) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.on_disk_idle(disk, now)
        finally:
            profiler.stop()

    def on_miss(self, cursor: int, now: float) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.on_miss(cursor, now)
        finally:
            profiler.stop()

    def choose_victim(self, cursor: int, exclude: Iterable[int] = ()) -> Victim:
        profiler = self._profiler
        profiler.start("policy")
        try:
            return self._policy.choose_victim(cursor, exclude)
        finally:
            profiler.stop()

    # -- timed observation hooks ------------------------------------------------

    def on_fetch_complete(self, disk: int, service_ms: float) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.on_fetch_complete(disk, service_ms)
        finally:
            profiler.stop()

    def on_reference_served(self, cursor: int, compute_ms: float) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.on_reference_served(cursor, compute_ms)
        finally:
            profiler.stop()

    def on_evict(self, block: int, next_use: float) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.on_evict(block, next_use)
        finally:
            profiler.stop()

    def on_write_allocate(self, block: int) -> None:
        profiler = self._profiler
        profiler.start("policy")
        try:
            self._policy.on_write_allocate(block)
        finally:
            profiler.stop()

    # -- transparent delegation -------------------------------------------------

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._policy, attribute)
