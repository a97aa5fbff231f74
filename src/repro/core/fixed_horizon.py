"""The fixed horizon algorithm (TIP2 restricted to one hinting process).

    Whenever there is a missing block at most H references in the future,
    issue a fetch for that block, replacing the cached block whose next
    reference is furthest in the future, provided that reference is further
    than H accesses in the future.

``H`` is the ratio of the average disk response time to the time to read a
block from the cache: the paper uses 15 ms / 243 µs ≈ 62.  Fixed horizon
never looks beyond ``H`` references, so it can leave disks idle (and stall)
when bandwidth is scarce — the central trade-off the paper studies.  It may
hold up to ``H`` outstanding requests, giving the disk scheduler latitude.
"""

from __future__ import annotations

from typing import cast

from repro.core.policy import MissingScanner, PrefetchPolicy, SimulatorLike

#: The paper's baseline prefetch horizon (15 ms / 243 µs).
DEFAULT_HORIZON = 62


class FixedHorizon(PrefetchPolicy):
    """Prefetch exactly the missing blocks within ``horizon`` references."""

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        super().__init__()
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = horizon
        if horizon == DEFAULT_HORIZON:
            self.name = "fixed-horizon"
        else:
            self.name = f"fixed-horizon(H={horizon})"
        self._scanner = cast(MissingScanner, None)  # set in bind()

    def bind(self, sim: SimulatorLike) -> None:
        super().bind(sim)
        self._scanner = MissingScanner(sim)

    def on_evict(self, block: int, next_use: float) -> None:
        self._scanner.invalidate(next_use)

    def before_reference(self, cursor: int, now: float) -> None:
        self._scan(cursor)

    def on_disk_idle(self, disk: int, now: float) -> None:
        self._scan(self.sim.cursor)

    def _scan(self, cursor: int) -> None:
        end = cursor + self.horizon  # victims must be needed after this
        issued_floor = end
        for position, block in self._scanner.missing_in(cursor, end):
            victim = self.harmless_victim(cursor, end)
            if victim is False:
                issued_floor = position
                break
            self.issue(block, victim)
        self._scanner.floor = max(self._scanner.floor, min(issued_floor, end))
