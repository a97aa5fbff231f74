"""Next-reference index and the furthest-future eviction heap."""

from repro.core.nextref import (
    EvictionHeap,
    NextRefIndex,
)


class TestNextRefIndex:
    def test_positions_collected_per_block(self):
        index = NextRefIndex([1, 2, 1, 3, 1])
        assert index.positions[1] == [0, 2, 4]
        assert index.positions[3] == [3]

    def test_next_use_at_cursor_zero(self):
        index = NextRefIndex([5, 6, 5])
        assert index.next_use(5, 0) == 0
        assert index.next_use(6, 0) == 1

    def test_next_use_advances_with_cursor(self):
        index = NextRefIndex([5, 6, 5])
        assert index.next_use(5, 1) == 2
        assert index.next_use(5, 3) == index.never

    def test_unknown_block_is_never_sentinel(self):
        index = NextRefIndex([1, 2, 3])
        assert index.next_use(99, 0) == index.never

    def test_never_sentinel_is_exact_int_past_the_end(self):
        # The sentinel is len(blocks): an exact integer that compares
        # greater than every real position — no float identity involved.
        index = NextRefIndex([1, 2, 3])
        assert index.never == 3
        assert isinstance(index.next_use(99, 0), int)

    def test_next_use_exactly_at_position(self):
        index = NextRefIndex([7, 8, 7])
        assert index.next_use(7, 2) == 2

    def test_cold_query_any_cursor_order(self):
        index = NextRefIndex([1, 2, 1, 2, 1])
        assert index.next_use_cold(1, 4) == 4
        assert index.next_use_cold(1, 0) == 0  # backwards is fine cold
        assert index.next_use_cold(2, 4) == index.never

    def test_backwards_cursor_answers_exactly(self):
        # The old pointer-based index silently returned a too-late position
        # when the cursor moved backwards for a previously-queried block
        # (see TestMonotoneCursorRegression); the rewrite falls back to a
        # bisect and stays exact.
        index = NextRefIndex([7, 7, 7])
        assert index.next_use(7, 2) == 2
        assert index.next_use(7, 0) == 0
        assert index.next_use(7, 1) == 1
        index2 = NextRefIndex([1, 2, 1, 2, 1])
        assert index2.next_use(1, 4) == 4
        assert index2.next_use(1, 1) == 2
        assert index2.next_use(1, 0) == 0

    def test_distinct_blocks(self):
        index = NextRefIndex([1, 1, 2, 3, 3, 3])
        assert index.distinct_blocks == 3

    def test_len_is_reference_count(self):
        assert len(NextRefIndex([4, 4, 4])) == 3


class TestEvictionHeap:
    def _setup(self, blocks, resident):
        index = NextRefIndex(blocks)
        resident_set = set(resident)
        heap = EvictionHeap(index, resident_set)
        for block in resident_set:
            heap.push(block, 0)
        return index, resident_set, heap

    def test_picks_furthest_next_use(self):
        # refs: a=0, b=1, c=5; resident all -> victim is c (furthest).
        _, _, heap = self._setup([1, 2, 9, 9, 9, 3], resident=[1, 2, 3])
        assert heap.best_victim(0) == 3

    def test_never_referenced_again_is_best(self):
        _, _, heap = self._setup([1, 2, 3], resident=[1, 2, 7])
        assert heap.best_victim(0) == 7

    def test_stale_entries_revalidated_after_cursor_moves(self):
        blocks = [1, 2, 1, 2]
        index, resident, heap = self._setup(blocks, resident=[1, 2])
        # At cursor 0: next uses 1->0, 2->1, so 2 is victim.
        assert heap.best_victim(0) == 2
        # After consuming both once (cursor 2): 1->2, 2->3: still 2.
        heap.push(1, 2)
        heap.push(2, 2)
        assert heap.best_victim(2) == 2
        # At cursor 3, block 1 never again (INF), block 2 at 3 -> victim 1.
        heap.push(1, 3)
        heap.push(2, 3)
        assert heap.best_victim(3) == 1

    def test_evicted_blocks_skipped(self):
        _, resident, heap = self._setup([1, 2, 3], resident=[1, 2, 3])
        resident.discard(3)
        victim = heap.best_victim(0)
        assert victim in (1, 2)

    def test_exclude_does_not_lose_entries(self):
        _, _, heap = self._setup([1, 2, 3], resident=[1, 2, 3])
        first = heap.best_victim(0, exclude={3})
        assert first == 2
        # 3 must still be discoverable afterwards.
        assert heap.best_victim(0) == 3

    def test_empty_heap_returns_none(self):
        _, _, heap = self._setup([1], resident=[])
        assert heap.best_victim(0) is None


class TestMonotoneCursorRegression:
    """The pre-rewrite pointer walk answered backwards queries wrongly.

    The old ``next_use`` advanced a per-block pointer monotonically and
    never rewound it, so querying a smaller cursor after a larger one
    silently returned a too-late position instead of the correct one.
    ``_old_next_use`` below is that implementation, verbatim in miniature;
    the test documents the wrong answer it gives and asserts the rewritten
    index returns the right one.
    """

    @staticmethod
    def _old_next_use(positions, pointers, block, cursor, infinite):
        plist = positions.get(block)
        if plist is None:
            return infinite
        pointer = pointers.get(block, 0)
        while pointer < len(plist) and plist[pointer] < cursor:
            pointer += 1
        pointers[block] = pointer
        if pointer == len(plist):
            return infinite
        return plist[pointer]

    def test_old_code_returns_wrong_answer_backwards(self):
        positions = {7: [0, 1, 2]}
        pointers = {}
        # Forward query advances the pointer past positions 0 and 1...
        assert self._old_next_use(positions, pointers, 7, 2, None) == 2
        # ...so the backwards query returns 2 even though 0 is correct.
        assert self._old_next_use(positions, pointers, 7, 0, None) == 2

    def test_new_index_detects_regression_and_answers_exactly(self):
        index = NextRefIndex([7, 7, 7])
        assert index.next_use(7, 2) == 2
        assert index.next_use(7, 0) == 0  # old code said 2

    def test_interleaved_backwards_and_forwards(self):
        blocks = [3, 1, 3, 2, 3, 1, 3]
        index = NextRefIndex(blocks)
        for cursor in [5, 1, 6, 0, 4, 2, 3, 0, 6]:
            for block in [1, 2, 3, 9]:
                expected = next(
                    (
                        p
                        for p in range(cursor, len(blocks))
                        if blocks[p] == block
                    ),
                    index.never,
                )
                assert index.next_use(block, cursor) == expected

    def test_dead_pointer_attribute_is_gone(self):
        assert not hasattr(NextRefIndex([1]), "_last_cursor")
