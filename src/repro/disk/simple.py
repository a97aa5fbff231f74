"""Uniform-service-time drive model.

This stands in for the paper's second simulator (CMU's modified RaidSim with
IBM 0661 drives) in the Table 2 cross-validation: a structurally different
disk model that should nonetheless produce the same algorithm rankings.  It
is also the disk model of the *theoretical* framework (every fetch costs F),
which makes it useful for tests that want deterministic service times.
"""

from typing import Optional

from repro.disk.drive import ServiceBreakdown


class SimpleDrive:
    """A drive whose every request costs a fixed time, plus optional
    sequential discount.

    ``sequential_ms`` (if given) is charged when the request immediately
    follows the previous one on the LBN axis, mimicking a readahead cache
    with none of the mechanics.
    """

    def __init__(
        self, access_ms: float = 15.0, sequential_ms: Optional[float] = None
    ) -> None:
        self.access_ms = access_ms
        self.sequential_ms = sequential_ms
        self._last_lbn: Optional[int] = None
        self.requests_served = 0
        self.cache_hits = 0

    def service(self, lbn: int, start_time: float) -> ServiceBreakdown:
        sequential = self._last_lbn is not None and lbn == self._last_lbn + 1
        self._last_lbn = lbn
        self.requests_served += 1
        if sequential and self.sequential_ms is not None:
            self.cache_hits += 1
            return ServiceBreakdown(transfer=self.sequential_ms, cache_hit=True)
        return ServiceBreakdown(transfer=self.access_ms)

    def cylinder_of(self, lbn: int) -> int:
        """Head units are LBNs: scheduling queues key requests by LBN, the
        unit :attr:`cylinder` reports the head in."""
        return lbn

    @property
    def cylinder(self) -> int:
        """Head position for scheduling: the last LBN served."""
        return 0 if self._last_lbn is None else self._last_lbn
