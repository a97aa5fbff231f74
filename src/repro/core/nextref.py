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

Construction is vectorized with numpy when available and falls back to a
stdlib ``array``-module build otherwise; both produce bit-identical
structures (see tests/test_batched_core.py).
"""

from __future__ import annotations

import bisect
import heapq
import os
from array import array
from typing import (
    Any,
    Container,
    Dict,
    Iterator,
    KeysView,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Optional numpy handle.  ``REPRO_PURE_PYTHON=1`` forces the stdlib path
#: even when numpy is importable (used by tests and CI to prove the two
#: paths are bit-identical).
_np: Any
try:
    import numpy

    _np = numpy
except ImportError:
    _np = None
if os.environ.get("REPRO_PURE_PYTHON"):
    _np = None

HAVE_NUMPY = _np is not None

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
        if _np is not None:
            try:
                succ, first = self._build_numpy(blocks, n)
            except (ValueError, TypeError, OverflowError):
                # Non-integer block ids (the theory model uses labels) or
                # ids beyond int64: the stdlib build handles any hashable.
                succ, first = self._build_python(blocks, n)
        else:
            succ, first = self._build_python(blocks, n)
        self._succ = succ
        #: block -> first position referencing it, in first-occurrence order
        #: (both construction paths produce the identical dict).
        self._first = first
        #: block -> [last queried cursor, cached first position >= it].
        self._state: Dict[int, List[int]] = {
            block: [0, position] for block, position in first.items()
        }
        self._positions: Optional[Dict[int, List[int]]] = None

    @staticmethod
    def _build_numpy(
        blocks: Sequence[int], n: int
    ) -> Tuple["array[int]", Dict[int, int]]:
        first: Dict[int, int] = {}
        succ = array("q")
        if n == 0:
            return succ, first
        blk = _np.asarray(blocks, dtype=_np.int64)
        order = _np.argsort(blk, kind="stable")
        succ_np = _np.full(n, n, dtype=_np.int64)
        same = blk[order[:-1]] == blk[order[1:]]
        succ_np[order[:-1][same]] = order[1:][same]
        succ.frombytes(succ_np.tobytes())
        starts = _np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = blk[order[1:]] != blk[order[:-1]]
        for position in _np.sort(order[starts]).tolist():
            first[blocks[position]] = position
        return succ, first

    @staticmethod
    def _build_python(
        blocks: Sequence[int], n: int
    ) -> Tuple["array[int]", Dict[int, int]]:
        succ = array("q", [n]) * n if n else array("q")
        nxt: Dict[int, int] = {}
        for position in range(n - 1, -1, -1):
            block = blocks[position]
            later = nxt.get(block)
            if later is not None:
                succ[position] = later
            nxt[block] = position
        first = dict(sorted(nxt.items(), key=lambda item: item[1]))
        return succ, first

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
    randomized agreement tests drive :class:`NextRefIndex` (both the numpy
    and the stdlib construction) against this class.
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
    """Vectorized missing-block candidate probes over the reference stream.

    Built by the engine when numpy is available: the stream as an int64
    array plus a dense 0/1 ``bytearray`` present mask kept in lockstep with
    the cache's ``present`` set (see ``BufferCache.attach_present_mask``).
    One :meth:`missing_candidates` call resolves a whole lookahead window;
    callers re-validate each candidate against live cache state, so the
    lazy-evaluation semantics of the scalar scan loops are preserved
    exactly (see ``MissingScanner.missing_in``).
    """

    #: Refuse to build a mask beyond this many entries: a sparse block-id
    #: space would waste memory on it.
    MAX_MASK_ENTRIES = 1 << 26

    def __init__(self, blocks_arr: Any, mask: bytearray, mask_np: Any) -> None:
        self.blocks_arr = blocks_arr
        self.mask = mask
        self.mask_np = mask_np

    @classmethod
    def build(cls, blocks: Sequence[int]) -> Optional["ScanSupport"]:
        """A ScanSupport for ``blocks``, or None when ineligible (no numpy,
        empty stream, negative ids, or an unreasonably sparse id space)."""
        if _np is None or not blocks:
            return None
        try:
            blocks_arr = _np.asarray(blocks, dtype=_np.int64)
        except (OverflowError, ValueError):
            return None
        if int(blocks_arr.min()) < 0:
            return None
        size = int(blocks_arr.max()) + 1
        if size > cls.MAX_MASK_ENTRIES:
            return None
        mask = bytearray(size)
        mask_np = _np.frombuffer(mask, dtype=_np.uint8)
        return cls(blocks_arr, mask, mask_np)

    def missing_candidates(self, start: int, end: int) -> List[int]:
        """Positions in ``[start, end)`` whose block's mask bit is clear.

        A probe, not an answer: the mask reflects the cache at call time,
        so callers that issue fetches or evict between consuming candidates
        must re-validate each one (and re-probe after an eviction).
        """
        if start >= end:
            return []
        window = self.blocks_arr[start:end]
        hits = self.mask_np[window]
        missing = _np.flatnonzero(hits == 0)
        result: List[int] = (missing + start).tolist()
        return result

    #: Candidates are materialized to Python ints in slices of this many,
    #: so a consumer that stops after a small per-disk batch budget never
    #: pays for the whole probe window.
    ITER_SLICE = 64

    def missing_candidates_iter(self, start: int, end: int) -> Iterator[int]:
        """Lazy :meth:`missing_candidates`: same positions, same order,
        converted to Python ints a slice at a time.

        On mostly-missing windows (cold sweeps, tiny caches) nearly every
        position is a hit; eagerly listing thousands of candidates a
        consumer will abandon after a dozen dominated the aggressive
        policy's profile on the synth-xl tier.
        """
        if start >= end:
            return
        window = self.blocks_arr[start:end]
        hits = self.mask_np[window]
        missing = _np.flatnonzero(hits == 0)
        step = self.ITER_SLICE
        for i in range(0, len(missing), step):
            yield from (missing[i : i + step] + start).tolist()
