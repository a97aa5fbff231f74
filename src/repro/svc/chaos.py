"""Chaos injection points: crash or fail the process at named instants.

The service's crash-safety claims are only worth something if they are
*exercised* — this module gives the chaos harness
(``tests/test_svc_chaos.py``, ``scripts/chaos_smoke.py``) surgical
control over where a process dies or where a write fails:

* ``REPRO_CHAOS_EXIT_AT=<point>`` — the process calls ``os._exit(137)``
  the first time execution reaches :func:`crash_point` with that name,
  simulating SIGKILL at exactly that instant (e.g. just before or just
  after the store's fsynced journal append).
* ``REPRO_CHAOS_RAISE_AT=<point>`` — :func:`crash_point` raises
  ``OSError(ENOSPC)`` at that point, simulating a full run directory;
  unlike the exit, this repeats on every hit so the caller's error
  handling is exercised continuously.

Both are read from the environment on every call, so a harness can flip
them for a *subprocess* without touching the parent.  When neither
variable is set the check is two dict lookups — cheap at cell
granularity (the points sit on store writes, not simulation hot paths).

The named points, ``store.put.pre-log`` and ``store.put.post-log``, live
in :mod:`repro.svc.store`; see ``docs/SERVICE.md`` for the catalogue and
the invariants the harness asserts around each.
"""

from __future__ import annotations

import errno
import os
import random
from typing import List, Optional

#: Environment variable naming the point at which to hard-exit.
CRASH_ENV = "REPRO_CHAOS_EXIT_AT"
#: Environment variable naming the point at which to raise ENOSPC.
RAISE_ENV = "REPRO_CHAOS_RAISE_AT"
#: Exit status of a chaos-killed process (mirrors SIGKILL's 128+9).
CHAOS_EXIT_CODE = 137


def crash_point(name: str) -> None:
    """Die or fail here if the environment says so; otherwise a no-op."""
    if os.environ.get(CRASH_ENV) == name:
        os._exit(CHAOS_EXIT_CODE)
    if os.environ.get(RAISE_ENV) == name:
        raise OSError(
            errno.ENOSPC, f"chaos: injected ENOSPC at {name!r}"
        )


def tear_file(path: str, rng: random.Random,
              min_remaining: int = 0) -> Optional[int]:
    """Truncate ``path`` at a random offset, simulating a torn write.

    Returns the offset, or None when the file is missing or empty (there
    is nothing to tear).  ``rng`` must be a seeded ``random.Random`` so
    chaos scenarios replay deterministically.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return None
    if size <= min_remaining:
        return None
    offset = rng.randrange(min_remaining, size)
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return offset


def kill_worker(pid: int) -> bool:
    """SIGKILL one pool worker mid-cell; True if the signal was sent."""
    import signal

    try:
        os.kill(pid, signal.SIGKILL)
        return True
    except (OSError, ProcessLookupError):
        return False


def worker_pids(pool: object) -> List[int]:
    """The live worker PIDs of a :class:`~repro.runner.pool.SupervisedPool`
    (chaos targets)."""
    pids: List[int] = []
    for worker in getattr(pool, "_workers", []):
        process = getattr(worker, "process", None)
        if process is not None and process.pid is not None:
            if process.is_alive():
                pids.append(process.pid)
    return pids
