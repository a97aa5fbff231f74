"""Randomized agreement tests for the array-backed hot core.

The rewrite's safety argument has two legs: the 14 golden digests (end to
end) and these direct structural checks — the successor-array index, both
of its construction paths, and the vectorized missing-block probe must
agree with the retained pure-Python reference implementations on hundreds of
random traces, including the backwards-cursor queries the old index
answered wrongly.
"""

import random

import pytest

from repro.core.nextref import (
    HAVE_NUMPY,
    EvictionHeap,
    NextRefIndex,
    ReferenceNextRefIndex,
    ScanSupport,
)

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


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy to compare paths")
class TestConstructionPathsAgree:
    def test_numpy_and_python_builds_identical(self):
        for seed, blocks in random_traces():
            n = len(blocks)
            succ_np, first_np = NextRefIndex._build_numpy(blocks, n)
            succ_py, first_py = NextRefIndex._build_python(blocks, n)
            assert succ_np == succ_py, seed
            assert first_np == first_py, seed
            # dict equality ignores order; first-occurrence order is part
            # of the contract.
            assert list(first_np) == list(first_py), seed


class TestBatchedScanAgreesWithGenerator:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="ScanSupport needs numpy")
    def test_missing_candidates_matches_naive_probe(self):
        for seed, blocks in random_traces():
            if not blocks:
                continue
            rng = random.Random(30_000 + seed)
            scan = ScanSupport.build(blocks)
            assert scan is not None
            present = {b for b in set(blocks) if rng.random() < 0.5}
            for block in sorted(present):
                scan.mask[block] = 1
            for _ in range(4):
                start = rng.randrange(len(blocks) + 1)
                end = rng.randrange(len(blocks) + 2)
                expected = [
                    p
                    for p in range(start, min(end, len(blocks)))
                    if blocks[p] not in present
                ]
                assert scan.missing_candidates(start, end) == expected, seed


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
