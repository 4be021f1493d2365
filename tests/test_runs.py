"""Tests for the block-streaming run merge (repro.storage.runs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.disk import LocalDisk
from repro.storage.external_sort import external_sort
from repro.storage.runs import RunReader, streaming_merge
from repro.storage.table import Relation


def spill_run(disk, keys):
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    rel = Relation(keys[:, None], keys.astype(np.float64))
    return disk.spill(rel, hint="run"), keys.shape[0], keys


class TestRunReader:
    def test_block_at_a_time(self):
        disk = LocalDisk(block_size=4)
        token, n, keys = spill_run(disk, np.arange(10))
        disk.stats.blocks_read = 0
        reader = RunReader(disk, token, n)
        assert disk.stats.blocks_read == 1  # exactly one block buffered
        assert reader.buffer_max == 3

    def test_take_upto(self):
        disk = LocalDisk(block_size=8)
        token, n, _ = spill_run(disk, np.arange(8))
        reader = RunReader(disk, token, n)
        got, _ = reader.take_upto(4)
        assert got.tolist() == [0, 1, 2, 3, 4]
        got, _ = reader.take_upto(100)
        assert got.tolist() == [5, 6, 7]
        assert reader.exhausted

    def test_refill_progression(self):
        disk = LocalDisk(block_size=3)
        token, n, _ = spill_run(disk, np.arange(7))
        reader = RunReader(disk, token, n)
        seen = []
        while not reader.exhausted:
            keys, _ = reader.take_upto(10**9)
            seen.extend(keys.tolist())
            reader.refill()
        assert seen == list(range(7))


class TestStreamingMerge:
    def test_two_runs(self):
        disk = LocalDisk(block_size=4)
        t1, n1, _ = spill_run(disk, [1, 3, 5, 7, 9])
        t2, n2, _ = spill_run(disk, [0, 2, 4, 6, 8])
        keys, values = streaming_merge(disk, [t1, t2], [n1, n2])
        assert keys.tolist() == list(range(10))
        assert values.tolist() == [float(i) for i in range(10)]

    def test_empty_runs_skipped(self):
        disk = LocalDisk(block_size=4)
        t1, n1, _ = spill_run(disk, [5, 6])
        t2, n2, _ = spill_run(disk, [])
        keys, _ = streaming_merge(disk, [t1, t2], [n1, n2])
        assert keys.tolist() == [5, 6]

    def test_all_empty(self):
        disk = LocalDisk(block_size=4)
        keys, values = streaming_merge(disk, [], [])
        assert keys.size == 0 and values.size == 0

    def test_duplicate_keys_preserved(self):
        disk = LocalDisk(block_size=2)
        t1, n1, _ = spill_run(disk, [1, 1, 2])
        t2, n2, _ = spill_run(disk, [1, 2, 2])
        keys, _ = streaming_merge(disk, [t1, t2], [n1, n2])
        assert keys.tolist() == [1, 1, 1, 2, 2, 2]

    def test_skewed_run_lengths(self):
        disk = LocalDisk(block_size=8)
        t1, n1, _ = spill_run(disk, np.arange(1000))
        t2, n2, _ = spill_run(disk, [500])
        keys, _ = streaming_merge(disk, [t1, t2], [n1, n2])
        assert keys.shape[0] == 1001
        assert np.all(np.diff(keys) >= 0)

    @settings(max_examples=20)
    @given(
        st.lists(
            st.lists(st.integers(0, 1000), max_size=60),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 16),
    )
    def test_equals_global_sort(self, runs, block):
        disk = LocalDisk(block_size=block)
        tokens, counts, everything = [], [], []
        for raw in runs:
            token, n, keys = spill_run(disk, raw)
            tokens.append(token)
            counts.append(n)
            everything.extend(keys.tolist())
        keys, _ = streaming_merge(disk, tokens, counts)
        assert keys.tolist() == sorted(everything)


class TestStreamingExternalSort:
    @pytest.mark.parametrize("n,budget,block", [(1024, 64, 8), (777, 33, 5)])
    def test_identical_to_whole_run_merge(self, n, budget, block):
        """Streaming over the runs external_sort forms gives what its
        whole-run merge passes give, reading each spilled block once."""
        keys = np.random.default_rng(n).integers(0, 10**9, n).astype(np.int64)
        whole = external_sort(
            keys, keys.astype(np.float64), LocalDisk(block_size=block), budget
        )
        disk = LocalDisk(block_size=block)
        tokens, rows, _ = zip(
            *(spill_run(disk, keys[s : s + budget]) for s in range(0, n, budget))
        )
        streamed = streaming_merge(disk, list(tokens), list(rows))
        assert np.array_equal(whole[0], streamed[0])
        assert np.array_equal(whole[1], streamed[1])
        assert disk.stats.blocks_read == disk.stats.blocks_written
