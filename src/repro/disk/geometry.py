"""Disk geometry: physical layout constants and LBN address arithmetic.

All times in this package are expressed in **milliseconds** and all sizes in
**bytes** unless a name says otherwise.  Logical block numbers (LBNs) address
fixed-size file-system blocks (8 KB in the paper); sector numbers address
512-byte device sectors.
"""

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class DiskGeometry:
    """Physical characteristics of a disk drive.

    The defaults of the module-level :data:`HP97560` instance match Table 1
    of the paper (HP 97560 per Ruemmler & Wilkes).
    """

    sector_size: int = 512
    sectors_per_track: int = 72
    tracks_per_cylinder: int = 19
    cylinders: int = 1962
    rpm: float = 4002.0
    cache_bytes: int = 128 * 1024
    transfer_rate_bytes_per_ms: float = 10_000_000 / 1000.0  # 10 MB/s SCSI-II
    block_size: int = 8192
    # Fixed per-request controller/command processing time at the drive.
    controller_overhead_ms: float = 1.1
    # Time to switch between heads within a cylinder.
    head_switch_ms: float = 2.5

    # Derived constants, computed once in __post_init__ (via
    # object.__setattr__; the class is frozen): the drive model reads them
    # on every simulated request.
    sectors_per_cylinder: int = field(init=False, repr=False, compare=False)
    sectors_per_block: int = field(init=False, repr=False, compare=False)
    blocks_per_track: float = field(init=False, repr=False, compare=False)
    blocks_per_cylinder: int = field(init=False, repr=False, compare=False)
    total_sectors: int = field(init=False, repr=False, compare=False)
    total_blocks: int = field(init=False, repr=False, compare=False)
    #: Time for one full platter revolution.
    rotation_ms: float = field(init=False, repr=False, compare=False)
    #: Time for one sector to pass under the head.
    sector_time_ms: float = field(init=False, repr=False, compare=False)
    #: Time to read one block off the media (no seek/rotate).
    block_media_transfer_ms: float = field(init=False, repr=False, compare=False)
    #: Time to move one block over the interface bus.
    block_bus_transfer_ms: float = field(init=False, repr=False, compare=False)
    #: Capacity of the on-drive readahead cache, in blocks.
    cache_blocks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.block_size % self.sector_size:
            raise ValueError("block_size must be a multiple of sector_size")
        sectors_per_cylinder = self.sectors_per_track * self.tracks_per_cylinder
        sectors_per_block = self.block_size // self.sector_size
        total_sectors = sectors_per_cylinder * self.cylinders
        rotation_ms = 60_000.0 / self.rpm
        sector_time_ms = rotation_ms / self.sectors_per_track
        derived = {
            "sectors_per_cylinder": sectors_per_cylinder,
            "sectors_per_block": sectors_per_block,
            "blocks_per_track": self.sectors_per_track / sectors_per_block,
            "blocks_per_cylinder": sectors_per_cylinder // sectors_per_block,
            "total_sectors": total_sectors,
            "total_blocks": total_sectors // sectors_per_block,
            "rotation_ms": rotation_ms,
            "sector_time_ms": sector_time_ms,
            "block_media_transfer_ms": sector_time_ms * sectors_per_block,
            "block_bus_transfer_ms": (
                self.block_size / self.transfer_rate_bytes_per_ms
            ),
            "cache_blocks": self.cache_bytes // self.block_size,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # --- address arithmetic -------------------------------------------------

    def block_to_cylinder(self, lbn: int) -> int:
        self._check_block(lbn)
        return lbn * self.sectors_per_block // self.sectors_per_cylinder

    def block_to_track(self, lbn: int) -> int:
        """Absolute track index (cylinder * tracks_per_cylinder + head)."""
        self._check_block(lbn)
        return lbn * self.sectors_per_block // self.sectors_per_track

    def block_rotational_offset(self, lbn: int) -> int:
        """First sector of the block within its track."""
        self._check_block(lbn)
        return lbn * self.sectors_per_block % self.sectors_per_track

    def _check_block(self, lbn: int) -> None:
        if not 0 <= lbn < self.total_blocks:
            raise ValueError(
                f"LBN {lbn} out of range [0, {self.total_blocks})"
            )

    def locate(self, lbn: int) -> Tuple[int, int, float, float]:
        """``(cylinder, absolute track, rotational fraction, media ms)`` of
        block ``lbn``, range-checked once: everything the drive model needs
        to service one request.  Each element equals the matching
        single-question method (``block_to_cylinder``, ``block_to_track``,
        ``rotational_fraction``, ``media_transfer_ms``) exactly."""
        self._check_block(lbn)
        sector = lbn * self.sectors_per_block
        per_track = self.sectors_per_track
        return (
            sector // self.sectors_per_cylinder,
            sector // per_track,
            sector % per_track / per_track,
            self.block_media_transfer_ms,
        )

    # -- per-LBN rotational interface (overridden by zoned geometries) -------

    def rotational_fraction(self, lbn: int) -> float:
        """Angular position of the block's first sector, as a fraction of
        one revolution."""
        return self.block_rotational_offset(lbn) / self.sectors_per_track

    def media_transfer_ms(self, lbn: int) -> float:
        """Time to stream this block off the media (zone-dependent on
        zoned drives; uniform here)."""
        return self.block_media_transfer_ms


HP97560 = DiskGeometry()
"""The HP 97560 geometry from Table 1 of the paper."""

IBM0661 = DiskGeometry(
    sector_size=512,
    sectors_per_track=48,
    tracks_per_cylinder=14,
    cylinders=949,
    rpm=4316.0,
    cache_bytes=32 * 1024,
    transfer_rate_bytes_per_ms=10_000_000 / 1000.0,
    controller_overhead_ms=1.0,
    head_switch_ms=1.5,
)
"""The IBM 0661 "Lightning" (Lee & Katz constants) — the drive RaidSim
modelled for the paper's second (CMU) simulator."""


@dataclass(frozen=True)
class Zone:
    """A band of cylinders sharing a sectors-per-track count."""

    cylinders: int
    sectors_per_track: int


@dataclass(frozen=True)
class ZonedGeometry(DiskGeometry):
    """Zone-bit-recorded drive: outer zones pack more sectors per track.

    ``sectors_per_track`` on the base class is interpreted as nominal
    (used nowhere once zones are given); addressing walks the zone table.
    The default four-zone layout is an illustrative HP 97560-class
    variant (mean ~72 sectors/track), not a published zone map — the
    paper's Kotz/Ruemmler-Wilkes model is flat, so this exists for the
    zoning ablation.
    """

    zones: Tuple[Zone, ...] = (
        Zone(500, 84),
        Zone(500, 76),
        Zone(500, 68),
        Zone(462, 60),
    )
    # Derived in __post_init__ (via object.__setattr__; the class is frozen).
    _zone_starts: Tuple[Tuple[int, int, Zone], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if sum(zone.cylinders for zone in self.zones) != self.cylinders:
            raise ValueError("zone cylinders must sum to the cylinder count")
        starts: List[Tuple[int, int, Zone]] = []
        block_start = 0
        cylinder_start = 0
        for zone in self.zones:
            starts.append((block_start, cylinder_start, zone))
            block_start += self._zone_blocks(zone)
            cylinder_start += zone.cylinders
        object.__setattr__(self, "_zone_starts", tuple(starts))
        object.__setattr__(self, "total_blocks", block_start)

    def _zone_blocks(self, zone: Zone) -> int:
        sectors = zone.cylinders * self.tracks_per_cylinder * zone.sectors_per_track
        return sectors // self.sectors_per_block

    def _zone_of(self, lbn: int) -> Tuple[int, int, Zone]:
        self._check_block(lbn)
        for block_start, cylinder_start, zone in reversed(self._zone_starts):
            if lbn >= block_start:
                return block_start, cylinder_start, zone
        raise AssertionError("unreachable")

    def _zone_address(self, lbn: int) -> Tuple[Zone, int, int, int]:
        """(zone, cylinder, track-in-cylinder, sector offset in track)."""
        block_start, cylinder_start, zone = self._zone_of(lbn)
        sector = (lbn - block_start) * self.sectors_per_block
        per_cylinder = zone.sectors_per_track * self.tracks_per_cylinder
        cylinder = cylinder_start + sector // per_cylinder
        within = sector % per_cylinder
        track = within // zone.sectors_per_track
        offset = within % zone.sectors_per_track
        return zone, cylinder, track, offset

    def locate(self, lbn: int) -> Tuple[int, int, float, float]:
        zone, cylinder, track, offset = self._zone_address(lbn)
        per_track = zone.sectors_per_track
        return (
            cylinder,
            cylinder * self.tracks_per_cylinder + track,
            offset / per_track,
            self.rotation_ms / per_track * self.sectors_per_block,
        )

    def block_to_cylinder(self, lbn: int) -> int:
        _zone, cylinder, _track, _offset = self._zone_address(lbn)
        return cylinder

    def block_to_track(self, lbn: int) -> int:
        _zone, cylinder, track, _offset = self._zone_address(lbn)
        return cylinder * self.tracks_per_cylinder + track

    def block_rotational_offset(self, lbn: int) -> int:
        _zone, _cylinder, _track, offset = self._zone_address(lbn)
        return offset

    def rotational_fraction(self, lbn: int) -> float:
        zone, _cylinder, _track, offset = self._zone_address(lbn)
        return offset / zone.sectors_per_track

    def media_transfer_ms(self, lbn: int) -> float:
        zone, _c, _t, _o = self._zone_address(lbn)
        sector_time = self.rotation_ms / zone.sectors_per_track
        return sector_time * self.sectors_per_block


HP97560_ZONED = ZonedGeometry()
"""An illustrative zoned HP 97560-class geometry (see ZonedGeometry)."""
