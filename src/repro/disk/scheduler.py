"""Disk head scheduling disciplines: FCFS, CSCAN, and SSTF.

Each per-disk queue holds outstanding read requests while the drive is busy.
CSCAN serves requests in ascending cylinder order starting from the head's
current cylinder and wraps around to the lowest cylinder — always sweeping
in the direction the platter readahead runs, which is why the paper prefers
it to SCAN on the HP 97560.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple, Type,
    Union,
)


class Request(NamedTuple):
    """An outstanding request for one disk.

    ``block`` is the application-level block identity; ``lbn`` is the block's
    address on this disk.  ``seq`` breaks ties deterministically in arrival
    order.  ``kind`` is ``"read"`` (fetch into the cache) or ``"write"``
    (write-behind flush of an evicted dirty block).  ``attempt`` counts
    prior failed attempts at this fetch: 0 for a first issue, n for the
    n-th retry after transient read errors (see :mod:`repro.faults`).
    ``owner`` is the index of the simulated process that submitted it
    (always 0 with one process); its completion goes back to that process.

    A named tuple rather than a frozen dataclass: one is built per disk
    request, and a frozen dataclass's per-field ``object.__setattr__``
    made construction about three times slower.
    """

    lbn: int
    block: int
    seq: int
    kind: str = "read"
    attempt: int = 0
    owner: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form for trace exports (``repro.obs``)."""
        row: Dict[str, object] = {
            "lbn": self.lbn, "block": self.block, "seq": self.seq,
            "kind": self.kind,
        }
        if self.attempt:
            row["attempt"] = self.attempt
        return row


class FCFSQueue:
    """First-come first-served request queue.

    Backed by a deque: ``pop`` is O(1).  A list's ``pop(0)`` shifts the
    whole queue, turning a demand burst of depth n into O(n^2) work.
    """

    name = "fcfs"

    def __init__(self, cylinder_of: Optional[Callable[[int], int]] = None) -> None:
        self._queue: Deque[Request] = deque()

    def push(self, request: Request) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int) -> Optional[Request]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Request]:
        return iter(list(self._queue))


class CSCANQueue:
    """Circular-SCAN request queue.

    Requests are kept sorted by (cylinder, lbn, seq); ``pop`` returns the
    first request at or past the head's current cylinder, wrapping to the
    lowest cylinder when the sweep reaches the end.
    """

    name = "cscan"

    def __init__(self, cylinder_of: Optional[Callable[[int], int]] = None) -> None:
        self._cylinder_of = cylinder_of if cylinder_of is not None else (lambda lbn: lbn)
        self._keys: List[Tuple[int, int, int]] = []  # sorted (cylinder, lbn, seq)
        self._requests: Dict[Tuple[int, int, int], Request] = {}

    def push(self, request: Request) -> None:
        key = (self._cylinder_of(request.lbn), request.lbn, request.seq)
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._requests[key] = request

    def pop(self, head_cylinder: int) -> Optional[Request]:
        if not self._keys:
            return None
        index = bisect.bisect_left(self._keys, (head_cylinder, -1, -1))
        if index == len(self._keys):
            index = 0  # wrap: sweep restarts at the lowest cylinder
        key = self._keys.pop(index)
        return self._requests.pop(key)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Request]:
        return iter([self._requests[key] for key in self._keys])


class SSTFQueue:
    """Shortest-seek-time-first request queue.

    Serves whichever request is closest to the head's current cylinder.
    Greedy and starvation-prone (a steady stream of nearby requests can
    strand a distant one forever), which is why the paper's systems use
    CSCAN; it exists here as the classic comparison point.
    """

    name = "sstf"

    def __init__(self, cylinder_of: Optional[Callable[[int], int]] = None) -> None:
        self._cylinder_of = cylinder_of if cylinder_of is not None else (lambda lbn: lbn)
        self._keys: List[Tuple[int, int]] = []  # sorted (cylinder, seq)
        self._requests: Dict[Tuple[int, int], Request] = {}

    def push(self, request: Request) -> None:
        key = (self._cylinder_of(request.lbn), request.seq)
        bisect.insort(self._keys, key)
        self._requests[key] = request

    def pop(self, head_cylinder: int) -> Optional[Request]:
        # The nearest request is the lowest-seq entry of either the nearest
        # cylinder at/above the head or the nearest cylinder below it; keys
        # are sorted (cylinder, seq), so each is one bisect away — no linear
        # scan.  Tie-breaking matches the definitional argmin over
        # (|cylinder - head|, seq) exactly.
        keys = self._keys
        if not keys:
            return None
        index = bisect.bisect_left(keys, (head_cylinder, -1))
        best_index = None
        if index < len(keys):
            above = keys[index]
            best_index = index
            best = (above[0] - head_cylinder, above[1])
        if index > 0:
            below_cylinder = keys[index - 1][0]
            below_index = bisect.bisect_left(keys, (below_cylinder, -1))
            below = keys[below_index]
            candidate = (head_cylinder - below[0], below[1])
            if best_index is None or candidate < best:
                best_index = below_index
        assert best_index is not None  # keys is non-empty
        key = keys.pop(best_index)
        return self._requests.pop(key)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Request]:
        # Arrival order, like the original list-backed queue: seq is
        # assigned monotonically at submit time.
        return iter(sorted(self._requests.values(), key=lambda r: r.seq))


#: Any of the three disciplines — they share push/pop/len/iter.
RequestQueue = Union[FCFSQueue, CSCANQueue, SSTFQueue]

_QUEUE_TYPES: Dict[str, Type[Union[FCFSQueue, CSCANQueue, SSTFQueue]]] = {
    "fcfs": FCFSQueue, "cscan": CSCANQueue, "sstf": SSTFQueue,
}

#: The discipline names :func:`make_queue` accepts (in any letter case).
DISCIPLINES = tuple(sorted(_QUEUE_TYPES))


def make_queue(
    discipline: str, cylinder_of: Optional[Callable[[int], int]] = None
) -> RequestQueue:
    """Build a request queue for the named discipline (see DISCIPLINES)."""
    try:
        queue_type = _QUEUE_TYPES[discipline.lower()]
    except KeyError:
        raise ValueError(
            f"unknown disk scheduling discipline {discipline!r}; "
            f"expected one of {list(DISCIPLINES)}"
        ) from None
    return queue_type(cylinder_of)
