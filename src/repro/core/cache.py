"""Buffer cache with in-flight fetch reservation accounting.

Following the paper's model: the cache holds ``capacity`` block buffers.
Starting a fetch immediately consumes a buffer — the evicted block becomes
unavailable the moment the fetch is issued, and the incoming block becomes
available only when the fetch completes.  Resident blocks plus in-flight
reservations therefore never exceed the capacity.
"""

from __future__ import annotations

from typing import Optional, Set


class CacheFullError(RuntimeError):
    """Raised when a fetch is issued with no free buffer and no victim."""


class BufferCache:
    """Fixed-capacity block cache with explicit eviction."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.resident: Set[int] = set()
        self.in_flight: Set[int] = set()
        #: Maintained union of ``resident`` and ``in_flight`` — the
        #: missing-set complement.  Hot scan loops test membership on this
        #: set directly instead of paying a method call per reference.
        self.present: Set[int] = set()
        self.evictions = 0
        self.fills = 0
        #: Set by :meth:`shrink`: the cache may then hold more blocks than
        #: its capacity until evictions drain it.
        self.allow_overflow = False
        #: Optional dense 0/1 mirror of ``present`` for vectorized scans
        #: (see :class:`repro.core.nextref.ScanSupport`).  Blocks outside
        #: the mask's range (speculative prefetch targets past the trace
        #: footprint) are simply not mirrored — the vectorized probes only
        #: ever ask about traced positions.
        self.present_mask: Optional[bytearray] = None

    def attach_present_mask(self, mask: bytearray) -> None:
        """Keep ``mask[block]`` in lockstep with ``block in present``."""
        self.present_mask = mask
        for block in sorted(self.present):
            if 0 <= block < len(mask):
                mask[block] = 1

    def __contains__(self, block: int) -> bool:
        return block in self.resident

    def __len__(self) -> int:
        return len(self.resident)

    @property
    def free_buffers(self) -> int:
        free = self.capacity - len(self.resident) - len(self.in_flight)
        return free if free > 0 else 0  # a shrunk cache may be over capacity

    def shrink(self, count: int, floor: int) -> int:
        """Give up to ``count`` buffers away, keeping at least ``floor``;
        returns how many went.  Blocks already held stay: the cache has no
        free buffer until evictions drain it below its new capacity."""
        granted = max(0, min(count, self.capacity - floor))
        if granted:
            self.capacity -= granted
            self.allow_overflow = True
        return granted

    def grow(self, count: int) -> None:
        """Take ``count`` more buffers (the other side of :meth:`shrink`)."""
        self.capacity += count

    @property
    def occupancy(self) -> int:
        """Buffers in use: resident blocks plus in-flight reservations."""
        return len(self.resident) + len(self.in_flight)

    def is_in_flight(self, block: int) -> bool:
        return block in self.in_flight

    def present_or_coming(self, block: int) -> bool:
        return block in self.present

    def begin_fetch(self, block: int, victim: Optional[int]) -> None:
        """Reserve a buffer for ``block``, evicting ``victim`` if given.

        ``victim is None`` requires a free buffer.  The victim becomes
        unavailable immediately.
        """
        if block in self.resident or block in self.in_flight:
            raise ValueError(f"block {block} already present or being fetched")
        if victim is None:
            if self.free_buffers <= 0:
                raise CacheFullError(
                    "no free buffer: a victim must be supplied when the "
                    "cache is full"
                )
        else:
            if victim not in self.resident:
                raise ValueError(f"victim {victim} is not resident")
            self.resident.remove(victim)
            self.present.remove(victim)
            self.evictions += 1
        self.in_flight.add(block)
        self.present.add(block)
        mask = self.present_mask
        if mask is not None:
            if victim is not None and 0 <= victim < len(mask):
                mask[victim] = 0
            if 0 <= block < len(mask):
                mask[block] = 1

    def abort_fetch(self, block: int) -> None:
        """The fetch of ``block`` will never complete (abandoned prefetch
        or dead disk); its buffer reservation frees immediately."""
        if block not in self.in_flight:
            raise ValueError(f"block {block} has no fetch in flight")
        self.in_flight.remove(block)
        self.present.remove(block)
        mask = self.present_mask
        if mask is not None and 0 <= block < len(mask):
            mask[block] = 0

    def complete_fetch(self, block: int) -> None:
        """The fetch of ``block`` finished; it is now referenceable."""
        if block not in self.in_flight:
            raise ValueError(f"block {block} has no fetch in flight")
        self.in_flight.remove(block)
        self.resident.add(block)
        self.fills += 1
        occupancy = len(self.resident) + len(self.in_flight)
        if occupancy > self.capacity and not self.allow_overflow:
            raise AssertionError("cache over capacity — accounting bug")
