"""Striped disk arrays and data placement.

The paper stripes data across the array with a one-block stripe unit, and
places each *file* at a random starting point within a group of 8550 blocks
(100 cylinders on the HP 97560), modelling typical file-system clustering.
Traces that use raw logical block numbers are placed directly.
"""

import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
)

from repro.disk.drive import DiskDrive, ServiceBreakdown
from repro.disk.geometry import HP97560, DiskGeometry
from repro.disk.scheduler import Request, RequestQueue, make_queue

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule

#: Size of a file placement group, in blocks (100 HP 97560 cylinders).
PLACEMENT_GROUP_BLOCKS = 8550


class DriveModel(Protocol):
    """What the array needs from a drive: a head position for scheduling,
    the same position unit for any block (``cylinder_of``), and a
    service-time model (satisfied by :class:`DiskDrive` and
    :class:`~repro.disk.simple.SimpleDrive`)."""

    @property
    def cylinder(self) -> int: ...

    def cylinder_of(self, lbn: int) -> int: ...

    def service(self, lbn: int, start_time: float) -> ServiceBreakdown: ...


@dataclass(frozen=True)
class StripedLayout:
    """One-block stripe unit across ``num_disks`` disks.

    Global block ``g`` lives on disk ``g % num_disks`` at per-disk address
    ``g // num_disks``.
    """

    num_disks: int

    def disk_of(self, global_block: int) -> int:
        return global_block % self.num_disks

    def lbn_of(self, global_block: int) -> int:
        return global_block // self.num_disks


class Placement:
    """Maps trace block identities to global array block numbers.

    Blocks with file structure (``(file_id, offset)``) get a per-file random
    group start, emulating file-system clustering; plain integer block ids
    are used as-is (the paper's "logical filesystem block number" traces).
    """

    def __init__(
        self,
        total_blocks: int,
        group_blocks: int = PLACEMENT_GROUP_BLOCKS,
        seed: int = 0,
    ) -> None:
        self.total_blocks = total_blocks
        self.group_blocks = group_blocks
        self._rng = random.Random(seed)
        self._file_starts: Dict[int, int] = {}

    def _start_for_file(self, file_id: int) -> int:
        start = self._file_starts.get(file_id)
        if start is None:
            num_groups = max(1, self.total_blocks // self.group_blocks)
            group = self._rng.randrange(num_groups)
            start = group * self.group_blocks
            self._file_starts[file_id] = start
        return start

    def place(self, block: Union[int, Tuple[int, int]]) -> int:
        """Return the global array block number for a trace block identity."""
        if isinstance(block, tuple):
            file_id, offset = block
            return (self._start_for_file(file_id) + offset) % self.total_blocks
        return block % self.total_blocks


#: Service outcomes under fault injection (see :mod:`repro.faults`).
OUTCOME_OK = "ok"
OUTCOME_TRANSIENT = "transient"  # full service consumed, data bad
OUTCOME_DEAD = "dead"  # spindle permanently failed; request failed fast


class DiskArray:
    """A bank of independent drives, each with its own request queue.

    The simulation engine owns all timing decisions; the array tracks which
    drive is busy, orders queued requests by the chosen discipline, and
    accumulates per-disk statistics.

    With a :class:`~repro.faults.FaultSchedule` attached, starting a
    request also decides its fate: a dead spindle fails it fast, a
    fail-slow window stretches its service time, and a transient error
    lets it consume full service before reporting failure.  The outcome is
    surfaced to the engine via :meth:`take_outcome`; the array itself
    never retries — recovery policy (backoff, failover, abandonment) is
    the engine's job.

    Two sets answer "which disks can take work" without polling every
    disk: :attr:`free` holds the idle disks with an empty queue (ready for
    a new batch) and :attr:`ready` the idle disks with queued work (what
    :meth:`start_next` would start).  :meth:`submit`, :meth:`start_next`
    and :meth:`complete` keep both exact; callers only read them.

    Several simulated processes may share one array (see
    ``repro.core.multiprocess``): :meth:`submit` stamps each request with
    its ``owner`` process, and the engine routes the completion back to it.

    The engine reports the request lifecycle (queue-depth samples, busy
    spans) as events of its own; nothing instruments the array.
    """

    def __init__(
        self,
        num_disks: int,
        drive_factory: Optional[Callable[[], DriveModel]] = None,
        discipline: str = "cscan",
        geometry: DiskGeometry = HP97560,
        faults: Optional["FaultSchedule"] = None,
    ) -> None:
        if num_disks < 1:
            raise ValueError("need at least one disk")
        if drive_factory is None:
            drive_factory = lambda: DiskDrive(geometry)
        self.num_disks = num_disks
        self.layout = StripedLayout(num_disks)
        self.geometry = geometry
        self.faults = faults
        self.drives: List[DriveModel] = [drive_factory() for _ in range(num_disks)]
        # Each queue keys requests in its own drive's head units, the unit
        # pop() is handed the head position in.
        self.queues: List[RequestQueue] = [
            make_queue(discipline, drive.cylinder_of) for drive in self.drives
        ]
        self.in_service: List[Optional[Request]] = [None] * num_disks
        self.free: Set[int] = set(range(num_disks))
        self.ready: Set[int] = set()
        self.busy_time = [0.0] * num_disks
        self.service_time_total = 0.0
        self.requests_started = 0
        self.requests_completed = 0
        self._seq = 0
        self._outcomes: List[str] = [OUTCOME_OK] * num_disks
        self.transient_errors = 0
        self.dead_errors = 0
        self.slowed_requests = 0

    # -- request lifecycle ---------------------------------------------------

    def submit(
        self, disk: int, block: int, lbn: int, kind: str = "read",
        attempt: int = 0, owner: int = 0,
    ) -> Request:
        """Queue a request for ``lbn`` (application block ``block``) on
        ``disk`` for process ``owner``; ``kind`` is "read" or "write"."""
        self._seq += 1
        request = Request(lbn, block, self._seq, kind, attempt, owner)
        self.queues[disk].push(request)
        if self.in_service[disk] is None:
            self.free.discard(disk)
            self.ready.add(disk)
        return request

    def is_idle(self, disk: int) -> bool:
        return self.in_service[disk] is None

    def queue_length(self, disk: int) -> int:
        return len(self.queues[disk])

    def start_next(
        self, disk: int, now: float
    ) -> Optional[Tuple[Request, float, ServiceBreakdown]]:
        """If ``disk`` is idle and has queued work, start its next request.

        Returns ``(request, completion_time, breakdown)`` or ``None``.
        """
        if self.in_service[disk] is not None:
            return None
        drive = self.drives[disk]
        request = self.queues[disk].pop(drive.cylinder)
        if request is None:
            return None
        faults = self.faults
        if faults is not None and faults.is_dead(disk, now):
            # Dead spindle: the controller reports the error fast without
            # touching the (gone) mechanics — the drive's head state and
            # readahead cache are left as they were.
            breakdown = ServiceBreakdown(overhead=faults.fail_fast_ms)
            self._outcomes[disk] = OUTCOME_DEAD
            self.dead_errors += 1
        else:
            breakdown = drive.service(request.lbn, now)
            if faults is not None:
                factor = faults.slow_factor(disk, now)
                if factor != 1.0:
                    breakdown.fault_ms = breakdown.total * (factor - 1.0)
                    self.slowed_requests += 1
                if faults.draw_error(disk, request.seq, now):
                    # The media was read (full mechanical time consumed);
                    # the transfer was bad.
                    self._outcomes[disk] = OUTCOME_TRANSIENT
                    self.transient_errors += 1
                else:
                    self._outcomes[disk] = OUTCOME_OK
        total = breakdown.total
        self.in_service[disk] = request
        self.ready.discard(disk)
        self.busy_time[disk] += total
        self.service_time_total += total
        self.requests_started += 1
        return request, now + total, breakdown

    def complete(self, disk: int) -> Request:
        """Mark the in-service request on ``disk`` finished."""
        request = self.in_service[disk]
        if request is None:
            raise RuntimeError(f"disk {disk} has no request in service")
        self.in_service[disk] = None
        if self.queues[disk]:
            self.ready.add(disk)
        else:
            self.free.add(disk)
        self.requests_completed += 1
        return request

    def take_outcome(self, disk: int) -> str:
        """The fault outcome of the request just completed on ``disk``
        (:data:`OUTCOME_OK` / :data:`OUTCOME_TRANSIENT` /
        :data:`OUTCOME_DEAD`); resets to OK for the next request."""
        outcome = self._outcomes[disk]
        self._outcomes[disk] = OUTCOME_OK
        return outcome

    @property
    def faults_injected(self) -> int:
        """Discrete fault events injected so far (transient + dead)."""
        return self.transient_errors + self.dead_errors

    # -- statistics ----------------------------------------------------------

    def average_service_ms(self) -> float:
        if not self.requests_completed:
            return 0.0
        return self.service_time_total / self.requests_completed

    def utilization(self, elapsed_ms: float) -> float:
        """Mean per-disk busy fraction over ``elapsed_ms``."""
        if elapsed_ms <= 0:
            return 0.0
        return sum(self.busy_time) / (self.num_disks * elapsed_ms)
