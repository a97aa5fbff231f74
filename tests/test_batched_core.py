"""Randomized agreement tests for the array-backed hot core.

The rewrite's safety argument has two legs: the 14 golden digests (end to
end) and these direct structural checks — the successor-array index and
forestall's window probe must agree with the retained reference
implementations on hundreds of random traces, including the
backwards-cursor queries the old index answered wrongly; and the scalar
missing-block walk must yield exactly the naive missing positions while
its caller changes the cache.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import BufferCache
from repro.core.nextref import (
    EvictionHeap,
    NextRefIndex,
    ReferenceNextRefIndex,
    ScanSupport,
)
from repro.core.policy import MissingScanner

#: (trace count, max length, max distinct blocks) per shape family.
TRACE_SHAPES = [
    (120, 40, 8),  # short, dense reuse
    (60, 200, 30),  # medium
    (30, 400, 300),  # long, mostly cold
]


def random_traces():
    """Yield 210 seeded random traces across the shape families."""
    seed = 0
    for count, max_len, max_blocks in TRACE_SHAPES:
        for _ in range(count):
            seed += 1
            rng = random.Random(seed)
            n = rng.randrange(0, max_len + 1)
            universe = rng.randrange(1, max_blocks + 1)
            yield seed, [rng.randrange(universe) for _ in range(n)]


class TestIndexAgreesWithReference:
    def test_monotone_and_backwards_queries(self):
        total = 0
        for seed, blocks in random_traces():
            total += 1
            rng = random.Random(10_000 + seed)
            index = NextRefIndex(blocks)
            reference = ReferenceNextRefIndex(blocks)
            assert index.never == reference.never == len(blocks)
            universe = (set(blocks) or {0}) | {max(blocks, default=0) + 7}
            queries = [
                (rng.choice(sorted(universe)), rng.randrange(len(blocks) + 1))
                for _ in range(min(60, 4 * (len(blocks) + 1)))
            ]
            # Deliberately unsorted cursors: half the point is that the
            # rewritten index answers backwards queries exactly.
            for block, cursor in queries:
                expected = reference.next_use(block, cursor)
                assert index.next_use(block, cursor) == expected, (
                    seed,
                    block,
                    cursor,
                )
                assert index.next_use_cold(block, cursor) == expected
        assert total >= 200  # the satellite's contract: 200+ random traces

    def test_distinct_blocks_and_first_occurrence_order(self):
        for seed, blocks in random_traces():
            index = NextRefIndex(blocks)
            firsts = list(dict.fromkeys(blocks))
            assert list(index.unique_blocks()) == firsts, seed
            assert index.distinct_blocks == len(set(blocks))

    def test_positions_compat_view(self):
        for _seed, blocks in random_traces():
            index = NextRefIndex(blocks)
            reference = ReferenceNextRefIndex(blocks)
            assert index.positions == reference.positions

    def test_successor_array_matches_brute_force(self):
        for seed, blocks in random_traces():
            n = len(blocks)
            expected = [
                next((later for later in range(position + 1, n)
                      if blocks[later] == block), n)
                for position, block in enumerate(blocks)
            ]
            assert list(NextRefIndex(blocks).successors) == expected, seed


class TestBatchedScanAgreesWithGenerator:
    def test_missing_candidates_matches_naive_probe(self):
        for seed, blocks in random_traces():
            if not blocks:
                continue
            rng = random.Random(30_000 + seed)
            scan = ScanSupport(blocks)
            present = {b for b in set(blocks) if rng.random() < 0.5}
            # The cache may hold blocks the stream never names.
            present.add(max(blocks) + 7)
            for _ in range(4):
                start = rng.randrange(len(blocks) + 1)
                end = rng.randrange(len(blocks) + 2)
                expected = [
                    p
                    for p in range(start, min(end, len(blocks)))
                    if blocks[p] not in present
                ]
                got = scan.missing_candidates(start, end, present)
                assert got == expected, seed


class TestMissingScannerIsLazy:
    """``MissingScanner.missing_in`` tests each position against the live
    cache when its walk reaches it, so fetches, evictions and aborts the
    caller makes between two yields decide what the walk yields next."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_yields_naive_missing_positions_while_cache_changes(self, data):
        universe = data.draw(st.integers(2, 8), label="universe")
        block_ids = st.integers(0, universe - 1)
        blocks = data.draw(
            st.lists(block_ids, min_size=1, max_size=60), label="blocks"
        )
        # Fewer buffers than blocks, all in use: every fetch evicts.
        capacity = data.draw(st.integers(1, universe - 1), label="K")
        cache = BufferCache(capacity)
        held = data.draw(
            st.sets(block_ids, min_size=capacity, max_size=capacity),
            label="held",
        )
        for block in sorted(held):
            cache.begin_fetch(block, None)
            if data.draw(st.booleans(), label="landed"):
                cache.complete_fetch(block)
        lost = data.draw(st.frozensets(block_ids, max_size=2), label="lost")
        scanner = MissingScanner(
            SimpleNamespace(blocks=blocks, cache=cache, lost_blocks=lost)
        )
        scanner.floor = data.draw(st.integers(0, len(blocks)), label="floor")
        cursor = data.draw(st.integers(0, len(blocks)), label="cursor")
        end = data.draw(st.integers(cursor, len(blocks) + 3), label="end")

        def naive_next(start):
            """The first position at/past ``start`` missing right now."""
            for position in range(start, min(end, len(blocks))):
                block = blocks[position]
                if block not in cache.present and block not in lost:
                    return position
            return None

        expected = naive_next(max(cursor, scanner.floor))
        for position, block in scanner.missing_in(cursor, end):
            assert (position, block) == (expected, blocks[expected])
            action = data.draw(
                st.sampled_from(("fetch", "fetch", "none", "abort", "complete")),
                label="action",
            )
            if action == "fetch":
                # Fetch a missing block (often the one just yielded),
                # evicting a resident one when no buffer is free.
                target = data.draw(
                    st.just(block) | st.sampled_from(range(universe)),
                    label="target",
                )
                victim = None
                if not cache.free_buffers and cache.resident:
                    victim = data.draw(
                        st.sampled_from(sorted(cache.resident)), label="victim"
                    )
                if target not in cache.present and (
                    cache.free_buffers or victim is not None
                ):
                    cache.begin_fetch(target, victim)
            elif action in ("abort", "complete") and cache.in_flight:
                flying = data.draw(
                    st.sampled_from(sorted(cache.in_flight)), label="flying"
                )
                if action == "abort":
                    cache.abort_fetch(flying)
                else:
                    cache.complete_fetch(flying)
            expected = naive_next(position + 1)
        assert expected is None


class TestIntegerHeapKeys:
    def test_heap_orders_like_reference_next_use(self):
        for seed, blocks in random_traces():
            if not blocks:
                continue
            rng = random.Random(40_000 + seed)
            index = NextRefIndex(blocks)
            reference = ReferenceNextRefIndex(blocks)
            resident = {b for b in set(blocks) if rng.random() < 0.5}
            heap = EvictionHeap(index, resident)
            cursor = rng.randrange(len(blocks) + 1)
            for block in sorted(resident):
                heap.push(block, cursor)
            victim = heap.best_victim(cursor)
            if resident:
                # max next-use, ties broken toward the smaller block id
                # (heap tuples compare (-next_use, block)).
                expected = min(
                    sorted(resident),
                    key=lambda b: (-reference.next_use(b, cursor), b),
                )
                assert victim == expected, seed
            else:
                assert victim is None
