"""Sampling profiler for the simulator's phases."""

import signal
import time
from types import FrameType
from typing import Any, Callable, Dict, List, Optional

#: The engine's phase vocabulary (reports order phases by self time, not
#: by this tuple):
#:
#: * ``policy``   — time inside policy decision points and hooks
#:   (``before_reference``, ``on_disk_idle``, ``on_miss``, …);
#: * ``disk``     — starting queued requests and computing their service
#:   times (:meth:`Simulator._start_disks`);
#: * ``cache``    — issue-side bookkeeping of a fetch (buffer reservation,
#:   eviction, request submission: :meth:`Simulator.issue_fetch`);
#: * ``dispatch`` — the event loop itself: heap pops, completions, app
#:   steps, and everything not attributed to a nested phase.
PHASES = ("policy", "disk", "cache", "dispatch")

#: Wall time between samples.
INTERVAL_S = 0.001

#: Function name -> the phase a frame running it opens.  A sample belongs
#: to the innermost such frame on the stack, else to ``dispatch``.
_PHASE_OF_FUNCTION: Dict[str, str] = {
    "issue_fetch": "cache",
    "_start_disks": "disk",
}
for _hook in (
    "before_reference", "on_disk_idle", "on_miss", "choose_victim",
    "on_fetch_complete", "on_reference_served", "on_evict",
    "on_write_allocate",
):
    _PHASE_OF_FUNCTION[_hook] = "policy"


def phase_of(frame: Optional[FrameType]) -> str:
    """The phase of the innermost phase-opening frame at or above
    ``frame``; ``dispatch`` when there is none."""
    while frame is not None:
        phase = _PHASE_OF_FUNCTION.get(frame.f_code.co_name)
        if phase is not None:
            return phase
        frame = frame.f_back
    return "dispatch"


class PhaseProfiler:
    """Attributes a run's time to the four phases by sampling its stack.

    Use it as a context manager around ``sim.run()``.  Every
    :data:`INTERVAL_S` of wall time a ``SIGALRM`` timer (``signal.setitimer``
    with ``ITIMER_REAL``; the CPU-time timers tick only every few
    milliseconds) interrupts the main thread, and the handler charges one
    sample to :func:`phase_of` the interrupted frame.  The simulator itself
    carries no timing code, so profiled and unprofiled runs execute the
    same instructions and produce bit-identical results.

    A phase's time is its share of the samples times the wall time spent
    inside the ``with`` block.  The profiler reports its sample count and
    its own overhead: the time its handler ran.  It must run in the main
    thread (a signal-handler constraint).

    The clock is injectable for deterministic tests; it must be a
    callable returning integer nanoseconds.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter_ns
        self.samples: Dict[str, int] = {}
        #: Wall time inside the ``with`` blocks, and the part of it the
        #: sample handler took.
        self.wall_ns = 0
        self.overhead_ns = 0
        self._entered_ns: Optional[int] = None
        self._previous: Any = None

    # -- sampling ----------------------------------------------------------------

    def __enter__(self) -> "PhaseProfiler":
        if self._entered_ns is not None:
            raise RuntimeError("PhaseProfiler is already running")
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._entered_ns = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        entered = self._entered_ns
        assert entered is not None
        self.wall_ns += self._clock() - entered
        self._entered_ns = None
        previous = self._previous
        signal.signal(
            signal.SIGALRM, previous if previous is not None else signal.SIG_DFL
        )

    def _on_signal(self, _signum: int, frame: Optional[FrameType]) -> None:
        start = self._clock()
        self.sample(frame)
        self.overhead_ns += self._clock() - start

    def sample(self, frame: Optional[FrameType]) -> None:
        """Charge one sample to the phase ``frame`` is running in."""
        phase = phase_of(frame)
        self.samples[phase] = self.samples.get(phase, 0) + 1

    def reset(self) -> None:
        self.samples.clear()
        self.wall_ns = 0
        self.overhead_ns = 0

    # -- reporting --------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return sum(self.samples.values())

    @property
    def total_ms(self) -> float:
        return self.wall_ns / 1e6

    @property
    def overhead_ms(self) -> float:
        return self.overhead_ns / 1e6

    def share(self, phase: str) -> float:
        count = self.sample_count
        return self.samples.get(phase, 0) / count if count else 0.0

    def ms(self, phase: str) -> float:
        return self.share(phase) * self.total_ms

    def _ordered_phases(self) -> List[str]:
        # Hottest first: the report exists to answer "where did the time
        # go", so order by samples descending, name breaking ties.  Every
        # phase is listed, sampled or not.
        phases = set(PHASES) | set(self.samples)
        return sorted(phases, key=lambda p: (-self.samples.get(p, 0), p))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary: per-phase ms, samples and shares, plus the
        sample count and the profiler's own overhead."""
        total = self.total_ms
        phases: Dict[str, Dict[str, object]] = {}
        for phase in self._ordered_phases():
            phases[phase] = {
                "ms": round(self.ms(phase), 3),
                "samples": self.samples.get(phase, 0),
                "share": round(self.share(phase), 4),
            }
        return {
            "total_ms": round(total, 3),
            "samples": self.sample_count,
            "overhead_ms": round(self.overhead_ms, 3),
            "phases": phases,
        }

    def report(self) -> str:
        """Human-readable phase breakdown table."""
        total = self.total_ms
        lines = [
            f"{'phase':<10} {'self ms':>10} {'share':>7} {'samples':>10}"
        ]
        for phase in self._ordered_phases():
            lines.append(
                f"{phase:<10} {self.ms(phase):>10.1f} {self.share(phase):>6.1%} "
                f"{self.samples.get(phase, 0):>10,}"
            )
        lines.append(f"{'total':<10} {total:>10.1f}")
        overhead = self.overhead_ms / total if total else 0.0
        lines.append(
            f"{self.sample_count:,} samples, one per "
            f"{INTERVAL_S * 1000.0:g} ms; profiler overhead "
            f"{self.overhead_ms:.1f} ms ({overhead:.1%})"
        )
        return "\n".join(lines)
