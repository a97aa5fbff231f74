"""Detailed single-disk service-time model.

The drive services one request at a time.  A request's service time is the
sum of controller overhead, seek, rotational latency, and media transfer —
unless the block is resident in the drive's readahead cache, in which case
only controller overhead and a bus transfer are charged.

Rotational position is a pure function of wall-clock time (the platter never
stops spinning), so the model only has to remember the head's cylinder/track
and the state of the readahead cache between requests.

After every mechanical read the drive keeps reading sequentially into its
cache (128 KB on the HP 97560); a block ``k`` positions past the last
mechanical read becomes available roughly ``k`` media-transfer times later.
This is what gives sequential workloads their 3–4 ms average response times
in the paper.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.disk.geometry import HP97560, DiskGeometry
from repro.disk.seek import SeekModel


@dataclass
class ServiceBreakdown:
    """Component times of one serviced request (all ms).

    ``fault_ms`` is extra service time added by fault injection — a
    fail-slow spindle stretching the mechanical work (see
    :mod:`repro.faults`).  It is zero on healthy hardware.
    """

    overhead: float = 0.0
    seek: float = 0.0
    rotation: float = 0.0
    transfer: float = 0.0
    cache_wait: float = 0.0
    fault_ms: float = 0.0
    cache_hit: bool = False

    @property
    def total(self) -> float:
        return (
            self.overhead
            + self.seek
            + self.rotation
            + self.transfer
            + self.cache_wait
            + self.fault_ms
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready component breakdown (zero components omitted), used
        by the ``repro.obs`` disk-busy trace events."""
        row: Dict[str, object] = {"total_ms": self.total}
        for name in ("overhead", "seek", "rotation", "transfer",
                     "cache_wait", "fault_ms"):
            value = getattr(self, name)
            if value:
                row[name] = value
        if self.cache_hit:
            row["cache_hit"] = True
        return row


class DiskDrive:
    """HP 97560-class drive with seek curve, rotation, and readahead cache.

    Stateful: :meth:`service` must be called in nondecreasing start-time
    order (the array layer guarantees this since each drive serves one
    request at a time).
    """

    def __init__(
        self,
        geometry: DiskGeometry = HP97560,
        seek_model: Optional[SeekModel] = None,
        readahead: bool = True,
    ) -> None:
        self.geometry = geometry
        self.seek_model = seek_model if seek_model is not None else SeekModel()
        self.readahead = readahead
        self._cylinder = 0
        self._track = 0
        # Readahead cache state: blocks [origin, origin + span) are (or are
        # becoming) cached; block origin+k is ready at origin_time + k*media.
        self._ra_origin = -1
        self._ra_origin_time = 0.0
        self._ra_span = 0
        self.requests_served = 0
        self.cache_hits = 0

    # -- cache helpers -------------------------------------------------------

    def _cache_ready_time(self, lbn: int) -> Optional[float]:
        """Return when ``lbn`` is available in the readahead cache, or None."""
        if not self.readahead or self._ra_origin < 0:
            return None
        offset = lbn - self._ra_origin
        if not 0 <= offset < self._ra_span:
            return None
        # Streaming rate approximated by the origin block's zone.
        return self._ra_origin_time + offset * self.geometry.media_transfer_ms(
            self._ra_origin
        )

    def _start_readahead(
        self, lbn: int, done_time: float, media_ms: float
    ) -> None:
        """Begin prefetching the blocks after ``lbn`` into the drive cache
        (``media_ms`` is ``lbn``'s own media transfer time)."""
        if not self.readahead:
            return
        self._ra_origin = lbn + 1
        self._ra_origin_time = done_time + media_ms
        self._ra_span = min(
            self.geometry.cache_blocks,
            self.geometry.total_blocks - self._ra_origin,
        )

    def _position(
        self, cylinder: int, track: int, fraction: float, t: float
    ) -> Tuple[float, float]:
        """Seek and rotational latency of a mechanical read of the block at
        (``cylinder``, ``track``, ``fraction``) starting at ``t`` (past the
        controller overhead), without touching drive state."""
        geom = self.geometry
        if cylinder != self._cylinder:
            seek = self.seek_model.seek_time(cylinder - self._cylinder)
        elif track != self._track:
            seek = geom.head_switch_ms
        else:
            seek = 0.0
        # The platter angle is a function of absolute time.
        rotation_ms = geom.rotation_ms
        angle_fraction = ((t + seek) / rotation_ms) % 1.0
        return seek, ((fraction - angle_fraction) % 1.0) * rotation_ms

    # -- service -------------------------------------------------------------

    def service(self, lbn: int, start_time: float) -> ServiceBreakdown:
        """Service a read of block ``lbn`` beginning at ``start_time``.

        Returns the per-component breakdown; the completion time is
        ``start_time + breakdown.total``.
        """
        geom = self.geometry
        cylinder, track, fraction, media_ms = geom.locate(lbn)
        out = ServiceBreakdown(overhead=geom.controller_overhead_ms)
        t = start_time + out.overhead
        seek, rotation = self._position(cylinder, track, fraction, t)

        ready = self._cache_ready_time(lbn)
        if ready is not None:
            cache_wait = max(0.0, ready - t)
            cache_total = cache_wait + geom.block_bus_transfer_ms
            # A distant readahead block may still be streaming off the
            # media; the drive serves whichever path finishes first, and a
            # fresh mechanical read beats waiting out a long stream.
            if cache_total <= seek + rotation + media_ms:
                out.cache_hit = True
                out.cache_wait = cache_wait
                out.transfer = geom.block_bus_transfer_ms
                self.requests_served += 1
                self.cache_hits += 1
                return out

        out.seek = seek
        t += seek
        out.rotation = rotation
        t += rotation
        # Bus is faster than the media on this drive, so transfers overlap.
        out.transfer = media_ms
        t += media_ms

        self._cylinder = cylinder
        self._track = track
        self._start_readahead(lbn, t, media_ms)
        self.requests_served += 1
        return out

    def cylinder_of(self, lbn: int) -> int:
        """The cylinder of ``lbn``: the head unit scheduling queues key
        requests by."""
        return self.geometry.block_to_cylinder(lbn)

    @property
    def cylinder(self) -> int:
        """Current head cylinder (used by CSCAN scheduling)."""
        return self._cylinder
