"""Phase profiling for the simulator hot path.

The simulator spends its time in four places: consulting the policy,
modelling disk service, cache bookkeeping, and dispatching events.
:class:`PhaseProfiler` attributes a run's time to those phases by sampling
the interpreter's stack on a CPU-time timer: a sample belongs to the
innermost frame of a policy hook, ``issue_fetch`` or ``_start_disks``,
else to dispatch.

Profiling is strictly opt-in and happens entirely outside the engine:
wrap ``sim.run()`` in the profiler.  A profiled run executes the same code
as an unprofiled one and produces a bit-identical
:class:`SimulationResult` (``tests/test_perf.py`` pins this); the profiler
reports its sample count and its own overhead.
"""

from repro.perf.profiler import PHASES, PhaseProfiler, phase_of

__all__ = ["PHASES", "PhaseProfiler", "phase_of"]
