"""Next-reference index structures over a known request sequence.

All four algorithms exploit full advance knowledge of the reference stream.
The two queries they need constantly are:

* ``next_use(block, cursor)`` — the first position at or after the cursor
  that references ``block`` (:attr:`NextRefIndex.never` if none), used by
  the *optimal replacement* and *do-no-harm* rules; and
* "the resident block whose next reference is furthest in the future" —
  the optimal eviction victim.

The index precomputes a **successor array**: ``succ[i]`` is the next
position after ``i`` that references ``blocks[i]`` (``len(blocks)`` when
there is none).  Next-use queries then walk the array with a per-block
cached position — amortized O(1) for the monotone cursors the engine
produces, with an exact bisect fallback when a cursor moves backwards.
"Never referenced again" is the integer ``len(blocks)``, one past the end
of the stream, so every comparison in the hot path is an exact integer
comparison — no float identity, no ``inf`` arithmetic (the hazard class
simlint SL009 now rejects).

Everything here is the standard library: the successor array is built
by one ``array``-module walk over the stream.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from typing import (
    Collection,
    Container,
    Dict,
    KeysView,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Float sentinel retained for the analysis layer's reuse-distance series
#: (cold misses have no previous reference).  The simulator core itself
#: uses :attr:`NextRefIndex.never` — an int — for "never referenced again".
INFINITE = float("inf")


class NextRefIndex:
    """Successor-array next-use index with an exact integer sentinel."""

    def __init__(self, blocks: Sequence[int]) -> None:
        self.blocks = blocks
        n = len(blocks)
        #: "Never referenced again": one past the end of the stream.  Every
        #: real next-use is < ``never``, so ordering comparisons against
        #: positions behave exactly like the old ``float('inf')`` sentinel
        #: while staying in exact integer arithmetic.
        self.never: int = n
        succ = array("q", [n]) * n if n else array("q")
        #: block -> first position referencing it, in first-occurrence order.
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        for position, block in enumerate(blocks):
            previous = last.get(block)
            if previous is None:
                first[block] = position
            else:
                succ[previous] = position
            last[block] = position
        self._succ = succ
        self._first = first
        #: block -> [last queried cursor, cached first position >= it].
        self._state: Dict[int, List[int]] = {
            block: [0, position] for block, position in self._first.items()
        }
        self._positions: Optional[Dict[int, List[int]]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def distinct_blocks(self) -> int:
        return len(self._first)

    @property
    def successors(self) -> "array[int]":
        """The successor array: ``successors[i]`` is the next position after
        ``i`` that references ``blocks[i]``, or ``never``."""
        return self._succ

    def unique_blocks(self) -> KeysView[int]:
        """Distinct referenced blocks, in first-occurrence order."""
        return self._first.keys()

    @property
    def positions(self) -> Dict[int, List[int]]:
        """Per-block sorted position lists (compat view, built lazily —
        only the cold-query bisect path and a few tests need it)."""
        if self._positions is None:
            table: Dict[int, List[int]] = {}
            for position, block in enumerate(self.blocks):
                table.setdefault(block, []).append(position)
            self._positions = table
        return self._positions

    def next_use(self, block: int, cursor: int) -> int:
        """First position >= cursor referencing ``block``, else ``never``.

        Queries for one block normally use nondecreasing cursors (the
        application cursor is monotone) and cost amortized O(1) via the
        successor array.  A backwards cursor is detected against the
        per-block anchor and answered exactly with a bisect instead of
        silently returning a too-late position.
        """
        state = self._state.get(block)
        if state is None:
            return self.never
        anchor, position = state
        if cursor < anchor:
            position = self.next_use_cold(block, cursor)
        else:
            if cursor > self.never:
                cursor = self.never
            succ = self._succ
            while position < cursor:
                position = succ[position]
        state[0] = cursor
        state[1] = position
        return position

    def next_use_cold(self, block: int, cursor: int) -> int:
        """Like :meth:`next_use` but stateless: exact for any cursor."""
        plist = self.positions.get(block)
        if plist is None:
            return self.never
        index = bisect.bisect_left(plist, cursor)
        if index == len(plist):
            return self.never
        return plist[index]


class ReferenceNextRefIndex:
    """Executable specification for :class:`NextRefIndex`.

    The original dict-of-lists structure, kept deliberately slow and
    obvious: every query bisects the block's sorted position list, so it
    is exact for *any* cursor order with no cached state to go stale.  The
    randomized agreement tests drive :class:`NextRefIndex` against this
    class.
    """

    def __init__(self, blocks: Sequence[int]) -> None:
        self.blocks = blocks
        self.never: int = len(blocks)
        self.positions: Dict[int, List[int]] = {}
        for position, block in enumerate(blocks):
            self.positions.setdefault(block, []).append(position)

    def __len__(self) -> int:
        return len(self.blocks)

    def next_use(self, block: int, cursor: int) -> int:
        plist = self.positions.get(block)
        if plist is None:
            return self.never
        index = bisect.bisect_left(plist, cursor)
        if index == len(plist):
            return self.never
        return plist[index]

    next_use_cold = next_use


class EvictionHeap:
    """Lazy max-heap yielding the resident block with the furthest next use.

    Entries go stale when a block is evicted or when the cursor passes one
    of its references; staleness is detected on pop by revalidating against
    the index and the resident set.  Keys are negated integer positions
    (``-index.never`` for "never again"), so ordering and revalidation are
    exact integer comparisons — never float identity or float ``!=``.
    """

    def __init__(self, index: NextRefIndex, resident: Container[int]) -> None:
        self._index = index
        self._resident = resident  # any container supporting "in"
        self._heap: List[Tuple[int, int]] = []  # (-next_use, block)

    def push(self, block: int, cursor: int) -> None:
        key = -self._index.next_use(block, cursor)
        heapq.heappush(self._heap, (key, block))

    def best_victim(self, cursor: int, exclude: Container[int] = ()) -> Optional[int]:
        """Pop/peek the resident block with the furthest next use.

        The returned block is *not* removed from the heap (the caller
        decides whether to evict); stale entries encountered along the way
        are discarded.  Blocks in ``exclude`` are skipped but kept.
        """
        skipped: List[Tuple[int, int]] = []
        victim = None
        while self._heap:
            key, block = self._heap[0]
            if block not in self._resident:
                heapq.heappop(self._heap)
                continue
            true_key = -self._index.next_use(block, cursor)
            if true_key != key:
                heapq.heapreplace(self._heap, (true_key, block))
                continue
            if block in exclude:
                skipped.append(heapq.heappop(self._heap))
                continue
            victim = block
            break
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        return victim


class ScanSupport:
    """Forestall's window probe: which positions of a span of the reference
    stream name a block that is not in a present set.

    ``_MissingTracker.extend`` calls it for every span it scans.  The
    missing-block walk of every other policy is ``MissingScanner.missing_in``,
    which tests each position as its caller reaches it.  It stays a class
    because perfbench's traced ledger wraps ``missing_candidates`` by name.
    """

    def __init__(self, blocks: Sequence[int]) -> None:
        self.blocks = blocks

    def missing_candidates(
        self, start: int, end: int, present: Collection[int]
    ) -> List[int]:
        """Positions in ``[start, end)`` whose block is not in ``present``,
        in order.

        A snapshot of ``present`` at call time: a caller that changes the
        cache between consuming positions must re-test each one.
        """
        blocks = self.blocks
        return [
            position for position in range(start, min(end, len(blocks)))
            if blocks[position] not in present
        ]
