"""Tests for repro.storage.scan: sorted-run aggregation and merging."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.scan import aggregate_sorted_keys, merge_runs, merge_sorted


class TestAggregateSortedKeys:
    def test_sum(self):
        keys = np.array([1, 1, 2, 3, 3, 3], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert k.tolist() == [1, 2, 3]
        assert v.tolist() == [3.0, 3.0, 3.0]

    def test_count(self):
        keys = np.array([5, 5, 5, 9], dtype=np.int64)
        vals = np.array([1.0, 7.0, 3.0, 2.0])
        k, v = aggregate_sorted_keys(keys, vals, "count")
        assert k.tolist() == [5, 9]
        assert v.tolist() == [3.0, 1.0]

    def test_min_max(self):
        keys = np.array([1, 1, 2], dtype=np.int64)
        vals = np.array([3.0, -1.0, 5.0])
        _, vmin = aggregate_sorted_keys(keys, vals, "min")
        _, vmax = aggregate_sorted_keys(keys, vals, "max")
        assert vmin.tolist() == [-1.0, 5.0]
        assert vmax.tolist() == [3.0, 5.0]

    def test_empty(self):
        k, v = aggregate_sorted_keys(
            np.empty(0, dtype=np.int64), np.empty(0), "sum"
        )
        assert k.size == 0 and v.size == 0

    def test_all_distinct_unchanged(self):
        keys = np.arange(10, dtype=np.int64)
        vals = np.arange(10, dtype=np.float64)
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert np.array_equal(k, keys)
        assert np.array_equal(v, vals)

    def test_single_group(self):
        keys = np.zeros(5, dtype=np.int64)
        vals = np.ones(5)
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert k.tolist() == [0]
        assert v.tolist() == [5.0]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_sorted_keys(np.zeros(3, dtype=np.int64), np.zeros(2))

    def test_rejects_unknown_agg(self):
        with pytest.raises(ValueError, match="unsupported"):
            aggregate_sorted_keys(
                np.zeros(1, dtype=np.int64), np.zeros(1), "median"
            )

    @given(st.lists(st.integers(0, 10), max_size=60))
    def test_sum_preserved_property(self, raw):
        keys = np.sort(np.array(raw, dtype=np.int64))
        vals = np.ones(len(raw))
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert v.sum() == pytest.approx(len(raw))
        assert np.all(np.diff(k) > 0)  # strictly increasing output keys


class TestMergeSorted:
    def test_interleave(self):
        ka = np.array([1, 3, 5], dtype=np.int64)
        kb = np.array([2, 4, 6], dtype=np.int64)
        k, v = merge_sorted(ka, ka * 10.0, kb, kb * 10.0)
        assert k.tolist() == [1, 2, 3, 4, 5, 6]
        assert v.tolist() == [10, 20, 30, 40, 50, 60]

    def test_stability_a_first_on_ties(self):
        ka = np.array([5], dtype=np.int64)
        kb = np.array([5], dtype=np.int64)
        k, v = merge_sorted(ka, np.array([1.0]), kb, np.array([2.0]))
        assert v.tolist() == [1.0, 2.0]

    def test_empty_sides(self):
        ka = np.array([1], dtype=np.int64)
        va = np.array([1.0])
        empty_k = np.empty(0, dtype=np.int64)
        empty_v = np.empty(0)
        k, v = merge_sorted(ka, va, empty_k, empty_v)
        assert k.tolist() == [1]
        k, v = merge_sorted(empty_k, empty_v, ka, va)
        assert k.tolist() == [1]

    @given(
        st.lists(st.integers(-50, 50), max_size=50),
        st.lists(st.integers(-50, 50), max_size=50),
    )
    def test_merge_equals_sorted_concat(self, a, b):
        ka = np.sort(np.array(a, dtype=np.int64))
        kb = np.sort(np.array(b, dtype=np.int64))
        va = np.arange(len(a), dtype=np.float64)
        vb = np.arange(len(b), dtype=np.float64) + 1000
        k, v = merge_sorted(ka, va, kb, vb)
        assert np.array_equal(k, np.sort(np.concatenate([ka, kb])))
        # multiset of (key, value) pairs preserved
        got = sorted(zip(k.tolist(), v.tolist()))
        want = sorted(
            zip(np.concatenate([ka, kb]).tolist(),
                np.concatenate([va, vb]).tolist())
        )
        assert got == want


class TestMergeRuns:
    @given(
        st.lists(
            st.lists(st.integers(-8, 8), max_size=12), max_size=17
        )
    )
    def test_equals_stable_sort_of_concatenation(self, runs):
        """Any number of runs (none, one, empty ones, equal keys across
        runs): values tag their source position, so equality with the
        stable sort of the concatenation proves ties keep the earlier
        run first."""
        keys = [np.sort(np.array(r, dtype=np.int64)) for r in runs]
        vals = [
            np.arange(len(k), dtype=np.float64) + 100.0 * i
            for i, k in enumerate(keys)
        ]
        k, v = merge_runs(list(zip(keys, vals)))
        assert k.dtype == np.int64 and v.dtype == np.float64
        all_k = np.concatenate(keys) if keys else np.empty(0, np.int64)
        all_v = np.concatenate(vals) if vals else np.empty(0)
        order = np.argsort(all_k, kind="stable")
        assert np.array_equal(k, all_k[order])
        assert np.array_equal(v, all_v[order])

    def test_single_run_is_returned_uncopied(self):
        keys, vals = np.array([1, 2], dtype=np.int64), np.array([1.0, 2.0])
        empty = (keys[:0], vals[:0])
        k, v = merge_runs([empty, (keys, vals), empty])
        assert k is keys and v is vals

    def test_a_run_out_of_order_raises(self):
        """A stable sort would quietly order a bad run: it is refused."""
        good = np.array([1, 4], dtype=np.int64)
        bad = np.array([5, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="run 1 is not sorted"):
            merge_runs([(good, good * 1.0), (bad, bad * 1.0)])
