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
        """Every row handed to a sort counts as sorted, but an input that
        is already one run pays no sort term; reversed, each row is a run
        of its own and the charge is the full ``n log2 n``."""
        disk = LocalDisk(block_size=8)
        keys = np.arange(100, dtype=np.int64)
        external_sort(keys, keys.astype(float), disk, 1000)
        assert disk.work.rows_sorted == 100
        assert disk.work.seconds == 0.0
        external_sort(keys[::-1], keys.astype(float), disk, 1000)
        assert disk.work.rows_sorted == 200
        assert disk.work.seconds == pytest.approx(
            disk.work.sort_sec_per_row_level * levels(100)
        )


def charged_sort(keys, budget=1 << 20, block=8, **hints):
    """``(sorted keys, modelled sort levels charged, rows charged, blocks
    moved)`` with a meter whose sort constant is 1 and whose scans are
    free."""
    disk = LocalDisk(block_size=block, work=WorkMeter(1.0, 0.0))
    keys = np.asarray(keys, dtype=np.int64)
    out, _ = external_sort(keys, keys.astype(float), disk, budget, **hints)
    return out, disk.work.seconds, disk.work.rows_sorted, disk.stats.blocks_total


def levels(n):
    return n * max(1.0, math.log2(n))


def walk_runs(keys):
    """Ascending runs of ``keys``, counted by a pure-Python walk."""
    keys = [int(k) for k in keys]
    return 1 + sum(b < a for a, b in zip(keys, keys[1:]))


def true_segments(keys, w):
    """The maximal groups of equal ``key // w`` as lists of keys, or
    ``None`` when those prefix values fall somewhere (a broken promise)."""
    groups = []
    for k in (int(k) for k in keys):
        if groups and groups[-1][0] == k // w:
            groups[-1][1].append(k)
        elif groups and groups[-1][0] > k // w:
            return None
        else:
            groups.append((k // w, [k]))
    return [keys for _, keys in groups]


def charge_oracle(keys, w=None):
    """``(Σ n_s log2 r_s, Σ n_s max(1, log2 n_s))`` over the segments the
    charge rule uses: the true segments of a promise that holds, else the
    whole array.  The second term is the charge before runs were counted."""
    segments = None if w is None else true_segments(keys, w)
    if segments is None:
        segments = [list(keys)]
    segments = [s for s in segments if s]
    return (
        sum(len(s) * math.log2(walk_runs(s)) for s in segments),
        sum(levels(len(s)) for s in segments),
    )


class TestSegmentCharge:
    """A sort that fits is charged for the runs it merges: each segment
    of ``n_s`` rows holding ``r_s`` ascending runs pays ``n_s log2 r_s``,
    over the clusters of a shared-prefix promise that holds and over the
    whole array otherwise.  A sort that spills pays the flat charge."""

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
        want, before = charge_oracle(keys, w)
        assert before == pytest.approx(sum(levels(m) for m in lengths))
        out, seconds, rows, _ = charged_sort(keys, seg_divisor=w)
        assert np.array_equal(out, np.sort(keys))
        assert seconds == pytest.approx(want) and rows == n
        assert want <= before + 1e-9 <= levels(n) + 2e-9
        # No promise: the runs are counted over the whole array.
        whole = charged_sort(keys)[1]
        assert whole == pytest.approx(charge_oracle(keys)[0])
        if len(lengths) > 1:
            # Prefix values now fall: the promise fails its check and the
            # runs are counted over the whole array, with the right answer
            # all the same.
            out, seconds, rows, _ = charged_sort(keys[::-1], seg_divisor=w)
            assert np.array_equal(out, np.sort(keys))
            assert seconds == pytest.approx(charge_oracle(keys[::-1])[0])
            assert rows == n

    @given(
        st.lists(  # segments, each a list of runs of raw suffix values
            st.lists(
                st.lists(st.integers(0, 10**4), min_size=1, max_size=8),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=6,
        ),
        st.integers(2, 50),
        st.sampled_from(["none", "kept", "broken"]),
    )
    def test_charge_counts_the_runs_it_merges(self, segments, w, promise):
        """Over concatenations of sorted runs, with a segment promise kept,
        broken or absent: the charge is the run rule, never more than the
        charge before runs were counted; a sort that spills pays the flat
        charge and its block envelope."""
        parts = [
            [(s + 1) * w + np.sort(np.array(run) % w) for run in runs]
            for s, runs in enumerate(segments)
        ]
        if promise == "broken":
            parts.reverse()  # prefix values fall once there are two
        keys = np.concatenate([run for runs in parts for run in runs])
        n = keys.size
        hints = {} if promise == "none" else {"seg_divisor": w}
        want, before = charge_oracle(keys, hints.get("seg_divisor"))
        # Spill with one merge pass and one-row blocks, so that the block
        # envelope is exact: ceil(n / budget) runs <= fan-in budget - 1.
        budget = math.isqrt(n) + 2
        out, seconds, rows, blocks = charged_sort(keys, **hints)
        spilled = charged_sort(keys, budget, 1, **hints)
        assert np.array_equal(out, np.sort(keys, kind="stable"))
        assert np.array_equal(spilled[0], out)
        assert seconds == pytest.approx(want) and rows == n
        assert seconds <= before + 1e-9
        assert blocks == 0
        if budget < n:
            assert spilled[1] == pytest.approx(levels(n))
            assert spilled[3] == sort_cost_blocks(n, budget, 1) > 0

    def test_a_spilling_sort_pays_the_flat_charge(self):
        """Run formation cuts the segments and the merge passes compare
        across them, so only an in-memory sort is credited for its runs
        (here every row of a segment is a run of its own)."""
        keys = np.repeat(np.arange(8), 16) * 100 + np.tile(
            np.arange(16)[::-1], 8
        )
        assert charged_sort(keys, seg_divisor=100)[1] == pytest.approx(
            8 * 16 * math.log2(16)
        )
        out, seconds, *_ = charged_sort(keys, budget=32, seg_divisor=100)
        assert np.array_equal(out, np.sort(keys))
        assert seconds == pytest.approx(levels(128))
