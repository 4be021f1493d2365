"""Tests for repro.storage.external_sort."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.disk import LocalDisk, WorkMeter
from repro.storage.external_sort import (
    external_sort,
    merge_fanin,
    sort_cost_blocks,
)
from repro.storage.sortkernels import KERNEL_NAMES, force_kernel


def run_sort(keys, budget, block=8):
    disk = LocalDisk(block_size=block)
    keys = np.asarray(keys, dtype=np.int64)
    vals = np.arange(len(keys), dtype=np.float64)
    sk, sv = external_sort(keys, vals, disk, budget)
    return sk, sv, disk


class TestCorrectness:
    def test_in_memory_path(self):
        sk, sv, disk = run_sort([3, 1, 2], budget=10)
        assert sk.tolist() == [1, 2, 3]
        assert sv.tolist() == [1.0, 2.0, 0.0]
        assert disk.stats.blocks_total == 0  # fits memory: no disk traffic

    def test_external_path_sorted(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1000, 500)
        sk, sv, disk = run_sort(keys, budget=32)
        assert np.all(np.diff(sk) >= 0)
        assert disk.stats.blocks_total > 0

    def test_payload_follows_key(self):
        keys = np.array([5, 1, 5, 0], dtype=np.int64)
        sk, sv, _ = run_sort(keys, budget=2)
        pairs = sorted(zip(keys.tolist(), [0.0, 1.0, 2.0, 3.0]))
        assert list(zip(sk.tolist(), sv.tolist())) == pairs

    def test_stability_in_memory(self):
        keys = np.array([1, 1, 1], dtype=np.int64)
        sk, sv, _ = run_sort(keys, budget=10)
        assert sv.tolist() == [0.0, 1.0, 2.0]

    def test_empty(self):
        sk, sv, disk = run_sort([], budget=8)
        assert sk.size == 0
        assert disk.stats.blocks_total == 0

    def test_rejects_mismatched(self):
        disk = LocalDisk(block_size=4)
        with pytest.raises(ValueError):
            external_sort(
                np.zeros(3, dtype=np.int64), np.zeros(2), disk, 10
            )

    @given(st.lists(st.integers(0, 10_000), max_size=300))
    def test_multiset_preserved(self, raw):
        keys = np.array(raw, dtype=np.int64)
        sk, sv, _ = run_sort(keys, budget=16, block=4)
        assert np.all(np.diff(sk) >= 0) if sk.size else True
        assert sorted(sk.tolist()) == sorted(raw)
        assert sorted(sv.tolist()) == sorted(range(len(raw)))


class TestCostModel:
    def test_fanin(self):
        assert merge_fanin(64, 8) == 7
        assert merge_fanin(16, 8) == 2  # floor at 2
        assert merge_fanin(8, 8) == 2

    def test_in_memory_zero_cost(self):
        assert sort_cost_blocks(100, 1000, 8) == 0

    def test_measured_matches_model_aligned(self):
        # n, budget and block all powers of two: exact match expected.
        n, budget, block = 1024, 64, 8
        keys = np.random.default_rng(1).integers(0, 10**6, n)
        _, _, disk = run_sort(keys, budget=budget, block=block)
        assert disk.stats.blocks_total == sort_cost_blocks(n, budget, block)

    def test_measured_close_to_model_unaligned(self):
        n, budget, block = 1000, 60, 8
        keys = np.random.default_rng(2).integers(0, 10**6, n)
        _, _, disk = run_sort(keys, budget=budget, block=block)
        model = sort_cost_blocks(n, budget, block)
        # per-run rounding can add at most one block per run per pass
        assert model <= disk.stats.blocks_total <= model + 4 * (n // budget + 1)

    def test_logarithmic_passes(self):
        # 64 runs with fan-in 7 -> 3 passes (64 -> 10 -> 2 -> 1)
        n, budget, block = 64 * 64, 64, 8
        blocks = -(-n // block)
        assert sort_cost_blocks(n, budget, block) == blocks + 2 * blocks * 3 + blocks

    def test_work_meter_charged(self):
        disk = LocalDisk(block_size=8)
        keys = np.arange(100, dtype=np.int64)
        external_sort(keys, keys.astype(float), disk, 1000)
        assert disk.work.rows_sorted == 100
        assert disk.work.seconds > 0


def charged_sort(keys, budget=1 << 20, **hints):
    """``(sorted keys, modelled sort levels charged, rows charged)`` with a
    meter whose sort constant is 1 and whose scans are free."""
    disk = LocalDisk(block_size=8, work=WorkMeter(1.0, 0.0))
    keys = np.asarray(keys, dtype=np.int64)
    out, _ = external_sort(keys, keys.astype(float), disk, budget, **hints)
    return out, disk.work.seconds, disk.work.rows_sorted


def levels(n):
    return n * max(1.0, math.log2(n))


class TestSegmentCharge:
    """A sort is charged for the order it cannot reuse: rows clustered by a
    shared prefix pay ``sum n_s * max(1, log2 n_s)`` over the clusters."""

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=12),
        st.integers(2, 50),
        st.integers(0, 2**31),
    )
    def test_charge_is_the_sum_over_the_true_segments(self, lengths, w, seed):
        rng = np.random.default_rng(seed)
        prefix = np.repeat(
            np.cumsum(rng.integers(1, 5, len(lengths))), lengths
        )
        keys = prefix * w + rng.integers(0, w, prefix.size)
        n = keys.size
        want = sum(levels(m) for m in lengths)
        for kernel in KERNEL_NAMES:  # read off the data, not the kernel
            with force_kernel(kernel):
                out, seconds, rows = charged_sort(keys, seg_divisor=w)
            assert np.array_equal(out, np.sort(keys))
            assert seconds == pytest.approx(want) and rows == n, kernel
        assert want <= levels(n) + 1e-9
        flat = charged_sort(keys)[1]
        assert flat == pytest.approx(levels(n))
        if len(lengths) == 1:
            assert want == pytest.approx(flat)
        else:
            # Prefix values now fall: the promise fails its check and the
            # sort pays in full, with the right answer all the same.
            out, seconds, rows = charged_sort(keys[::-1], seg_divisor=w)
            assert np.array_equal(out, np.sort(keys))
            assert seconds == pytest.approx(levels(n)) and rows == n

    def test_a_spilling_sort_pays_the_flat_charge(self):
        """Run formation cuts the segments and the merge passes compare
        across them, so only an in-memory sort is credited."""
        keys = np.repeat(np.arange(8), 16) * 100 + np.tile(
            np.arange(16)[::-1], 8
        )
        assert charged_sort(keys, seg_divisor=100)[1] == pytest.approx(
            8 * levels(16)
        )
        out, seconds, _ = charged_sort(keys, budget=32, seg_divisor=100)
        assert np.array_equal(out, np.sort(keys))
        assert seconds == pytest.approx(levels(128))
