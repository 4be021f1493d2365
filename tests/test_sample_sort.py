"""Tests for Procedure 2: Adaptive-Sample-Sort (single and batched)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.core.sample_sort import (
    adaptive_sample_sort,
    batched_sample_sort,
    relative_imbalance,
)
from repro.mpi.engine import run_spmd


class TestRelativeImbalance:
    def test_balanced_is_zero(self):
        assert relative_imbalance(np.array([10, 10, 10])) == 0.0

    def test_paper_formula(self):
        # avg 10; max deviation (14-10)/10
        assert relative_imbalance(np.array([14, 10, 6])) == pytest.approx(0.4)

    def test_min_side_dominates_when_larger(self):
        assert relative_imbalance(np.array([11, 11, 2])) == pytest.approx(
            (8 - 2) / 8
        )

    def test_degenerate(self):
        assert relative_imbalance(np.array([])) == 0.0
        assert relative_imbalance(np.array([5])) == 0.0
        assert relative_imbalance(np.array([0, 0, 0])) == 0.0


def distribute(keys, vals, p, rank, mode="block"):
    """Deal global arrays onto ranks."""
    if mode == "block":
        return np.array_split(keys, p)[rank], np.array_split(vals, p)[rank]
    return keys[rank::p], vals[rank::p]


def local_run(keys, vals):
    """What Procedure 1 step 1a hands over: the rank's rows, key-sorted."""
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def run_sort(keys, vals, p, gamma=0.03, mode="round", pivot_offset=None):
    keys = np.asarray(keys, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)

    def prog(comm):
        k, v = local_run(*distribute(keys, vals, p, comm.rank, mode))
        out = adaptive_sample_sort(
            comm, k, v, gamma, pivot_offset=pivot_offset
        )
        return out

    res = run_spmd(prog, MachineSpec(p=p))
    return res.rank_results


class TestAdaptiveSampleSort:
    """The call takes key-sorted runs (``run_sort`` sorts each rank's deal
    first, as step 1a does) and never sorts one itself."""

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_global_sortedness(self, p):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 10**6, 5000)
        outs = run_sort(keys, rng.random(5000), p)
        prev_max = -np.inf
        for out in outs:
            if out.keys.size:
                assert np.all(np.diff(out.keys) >= 0)
                assert out.keys[0] >= prev_max
                prev_max = out.keys[-1]

    def test_multiset_preserved(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 100, 2000)
        vals = rng.random(2000)
        outs = run_sort(keys, vals, 4)
        all_keys = np.concatenate([o.keys for o in outs])
        all_vals = np.concatenate([o.measure for o in outs])
        assert sorted(all_keys.tolist()) == sorted(keys.tolist())
        assert np.isclose(all_vals.sum(), vals.sum())

    def test_duplicates_never_straddle_without_shift(self):
        """side='right' bucketing: equal keys land on exactly one rank."""
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 20, 4000)  # heavy duplication
        outs = run_sort(keys, np.ones(4000), 4, gamma=1.0)  # no shift ever
        owners: dict[int, int] = {}
        for rank, out in enumerate(outs):
            assert not out.shifted
            for key in np.unique(out.keys):
                assert key not in owners, f"key {key} on two ranks"
                owners[int(key)] = rank

    def test_shift_balances(self):
        # all-equal keys: everything lands on one rank, shift must rebalance
        keys = np.zeros(1000, dtype=np.int64)
        outs = run_sort(keys, np.ones(1000), 4, gamma=0.03)
        sizes = np.array([o.keys.size for o in outs])
        assert outs[0].shifted
        assert relative_imbalance(sizes) <= 0.03

    def test_no_shift_when_within_gamma(self):
        # the rho = p/2 pivot offset makes the extreme buckets differ from
        # the average by ~half a bucket, so I lands just above 0.5
        keys = np.arange(4000, dtype=np.int64)
        outs = run_sort(keys, np.ones(4000), 4, gamma=0.55, mode="block")
        assert not any(o.shifted for o in outs)

    def test_empty_input_everywhere(self):
        outs = run_sort([], [], 3)
        assert all(o.keys.size == 0 for o in outs)

    def test_one_rank_has_all_data(self):
        def prog(comm):
            if comm.rank == 0:
                k = np.arange(1000, dtype=np.int64)
                v = np.ones(1000)
            else:
                k = np.empty(0, dtype=np.int64)
                v = np.empty(0)
            return adaptive_sample_sort(comm, k, v, 0.03)

        res = run_spmd(prog, MachineSpec(p=4))
        sizes = [o.keys.size for o in res.rank_results]
        assert sum(sizes) == 1000
        assert relative_imbalance(np.array(sizes)) <= 0.03

    def test_presorted_aligned_with_zero_offset_moves_nothing(self):
        keys = np.arange(8000, dtype=np.int64)

        def prog(comm):
            k, v = distribute(keys, keys.astype(float), 4, comm.rank, "block")
            return adaptive_sample_sort(comm, k, v, 0.03, pivot_offset=0)

        res = run_spmd(prog, MachineSpec(p=4))
        # off-rank traffic should be a tiny fraction of the 128 KB payload
        assert res.stats.bytes_by_kind["alltoall"] < 10_000

    def test_paper_offset_respected_by_default(self):
        keys = np.arange(8000, dtype=np.int64)

        def prog(comm):
            k, v = distribute(keys, keys.astype(float), 4, comm.rank, "block")
            return adaptive_sample_sort(comm, k, v, 0.5)

        res = run_spmd(prog, MachineSpec(p=4))
        # rho = p/2 shifts pivots half a bucket: substantial movement
        assert res.stats.bytes_by_kind["alltoall"] > 20_000

    def test_mismatched_arrays_rejected(self):
        def prog(comm):
            return adaptive_sample_sort(
                comm, np.zeros(3, dtype=np.int64), np.zeros(2), 0.03
            )

        with pytest.raises(ValueError):
            run_spmd(prog, MachineSpec(p=2))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_unsorted_input_raises_naming_the_rank(self, backend):
        """Rank 1's run is unsorted: that rank raises, nobody gets a
        silently sorted result, and nothing is charged as a sort.  Under
        the process backend the received run, a private copy, is made
        read-only first: input a caller may not write passes verification
        untouched."""
        good = np.arange(64, dtype=np.int64)
        bad = good[::-1].copy()

        def prog(comm):
            mine = bad if comm.rank == 1 else good
            # One h-relation so every rank's input arrives through the
            # transport: each rank keeps the lane it sent to itself.
            keys = comm.alltoall([mine] * comm.size)[comm.rank]
            if backend == "process":
                assert keys.flags.writeable  # a private copy
                keys.flags.writeable = False
            try:
                return adaptive_sample_sort(comm, keys, keys.astype(float), 0.03)
            finally:
                assert comm.disk.work.rows_sorted == 0

        with pytest.raises(ValueError, match=r"rank 1 .*key-sorted"):
            run_spmd(prog, MachineSpec(p=2, backend=backend))

    def test_sorted_run_is_charged_a_scan_not_a_sort(self):
        keys = np.arange(4000, dtype=np.int64)

        def prog(comm):
            k, v = distribute(keys, keys.astype(float), 4, comm.rank, "round")
            adaptive_sample_sort(comm, k, v, 0.03)
            return comm.disk.work.rows_sorted, comm.disk.work.rows_scanned

        for rows_sorted, rows_scanned in run_spmd(
            prog, MachineSpec(p=4)
        ).rank_results:
            assert rows_sorted == 0
            assert rows_scanned >= 1000  # the verification scan at least

    @settings(max_examples=10)
    @given(
        st.lists(st.integers(0, 1000), max_size=300),
        st.integers(2, 5),
    )
    def test_property_sorted_and_preserved(self, raw, p):
        keys = np.array(raw, dtype=np.int64)
        outs = run_sort(keys, np.ones(len(raw)), p)
        got = np.concatenate([o.keys for o in outs])
        assert sorted(got.tolist()) == sorted(raw)
        prev = -1
        for out in outs:
            if out.keys.size:
                assert out.keys[0] >= prev
                prev = out.keys[-1]


class TestBatchedSampleSort:
    """The batched call takes key-sorted runs (round-robin slices of a
    sorted array are sorted), and matches the sorting single call."""

    def test_matches_individual_sorts(self):
        rng = np.random.default_rng(3)
        arrays = [
            np.sort(rng.integers(0, 10**5, n).astype(np.int64))
            for n in (500, 1200, 3, 0, 77)
        ]

        def prog_batched(comm):
            items = [
                distribute(k, k.astype(float), comm.size, comm.rank, "round")
                for k in arrays
            ]
            return batched_sample_sort(comm, items, 0.03)

        res_b = run_spmd(prog_batched, MachineSpec(p=4))

        for item, keys in enumerate(arrays):
            outs = run_sort(keys, keys.astype(float), 4)
            batched_keys = np.concatenate(
                [res_b.rank_results[j][item].keys for j in range(4)]
            )
            single_keys = np.concatenate([o.keys for o in outs])
            assert np.array_equal(batched_keys, single_keys)

    def test_empty_item_list(self):
        def prog(comm):
            return batched_sample_sort(comm, [], 0.03)

        res = run_spmd(prog, MachineSpec(p=3))
        assert res.rank_results == [[], [], []]

    def test_collective_count_independent_of_item_count(self):
        def prog(comm, n_items):
            rng = np.random.default_rng(comm.rank)
            items = [
                (np.sort(rng.integers(0, 100, 50)).astype(np.int64), np.ones(50))
                for _ in range(n_items)
            ]
            batched_sample_sort(comm, items, 0.03)

        res1 = run_spmd(prog, MachineSpec(p=3), args=(1,))
        res8 = run_spmd(prog, MachineSpec(p=3), args=(8,))
        assert res1.stats.collectives == res8.stats.collectives

    def test_per_item_balance_contract(self):
        def prog(comm):
            # item 0 all-equal keys (needs shift), item 1 already spread
            k0 = np.full(500, 7, dtype=np.int64)
            k1 = np.arange(comm.rank * 500, comm.rank * 500 + 500, dtype=np.int64)
            items = [(k0, np.ones(500)), (k1, np.ones(500))]
            return batched_sample_sort(comm, items, 0.03, pivot_offset=0)

        res = run_spmd(prog, MachineSpec(p=4))
        sizes0 = np.array(
            [res.rank_results[j][0].keys.size for j in range(4)]
        )
        assert relative_imbalance(sizes0) <= 0.03
        assert res.rank_results[0][0].shifted
        assert not res.rank_results[0][1].shifted

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_unsorted_item_raises_naming_item_and_rank(self, backend):
        """Item 1 is unsorted on rank 1 only: that rank raises, nobody
        gets a silently sorted result.  Under the process backend the
        received items, private copies, are made read-only first: input a
        caller may not write passes verification untouched."""
        good = np.arange(64, dtype=np.int64)
        bad = good[::-1].copy()

        def prog(comm):
            mine = [good, bad if comm.rank == 1 else good]
            # One h-relation so every rank's inputs arrive through the
            # transport: each rank keeps the lane it sent to itself.
            items = [
                (keys, keys.astype(float))
                for keys in comm.alltoall([mine] * comm.size)[comm.rank]
            ]
            if backend == "process":
                assert items[1][0].flags.writeable  # a private copy
                for keys, _ in items:
                    keys.flags.writeable = False
            return batched_sample_sort(comm, items, 0.03, pivot_offset=0)

        with pytest.raises(ValueError, match=r"item 1 on rank 1 .*key-sorted"):
            run_spmd(prog, MachineSpec(p=2, backend=backend))
