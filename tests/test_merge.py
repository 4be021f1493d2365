"""Tests for Procedure 3: Merge-Partitions (cases 1, 2 and 3)."""

import gc
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.merge import (
    MergeReport,
    _resolve_boundary_chains,
    merge_partitions,
)
from repro.core.pipesort import ScheduleTree
from repro.core.viewdata import ViewData
from repro.mpi.engine import run_spmd

from .conftest import make_relation


class TestBoundaryChains:
    """P0-side straddle-chain resolution for prefix views.

    Summary tuples are (count, first_key, first_val, last_key, last_val).
    Instructions are (drop_first, drop_all, set_last).
    """

    def test_no_straddle(self):
        instr = _resolve_boundary_chains(
            [(2, 1, 1.0, 2, 2.0), (2, 3, 3.0, 4, 4.0)], "sum"
        )
        assert instr == [(False, False, None), (False, False, None)]

    def test_simple_two_rank_straddle(self):
        instr = _resolve_boundary_chains(
            [(2, 1, 1.0, 5, 2.0), (2, 5, 3.0, 9, 4.0)], "sum"
        )
        assert instr[0] == (False, False, 5.0)  # 2.0 + 3.0
        assert instr[1] == (True, False, None)

    def test_three_rank_chain_with_singleton_middle(self):
        instr = _resolve_boundary_chains(
            [
                (3, 0, 1.0, 7, 2.0),
                (1, 7, 3.0, 7, 3.0),  # whole rank is key 7
                (2, 7, 4.0, 9, 5.0),
            ],
            "sum",
        )
        assert instr[0] == (False, False, 9.0)  # 2 + 3 + 4
        assert instr[1] == (False, True, None)  # dropped entirely
        assert instr[2] == (True, False, None)

    def test_chain_across_empty_rank(self):
        instr = _resolve_boundary_chains(
            [
                (2, 0, 1.0, 7, 2.0),
                (0, 0, 0.0, 0, 0.0),  # empty rank
                (2, 7, 3.0, 9, 4.0),
            ],
            "sum",
        )
        assert instr[0] == (False, False, 5.0)
        assert instr[2] == (True, False, None)

    def test_back_to_back_chains(self):
        # rank1's first row joins rank0's chain; rank1's last row starts a
        # new chain with rank2.
        instr = _resolve_boundary_chains(
            [
                (2, 0, 1.0, 5, 2.0),
                (2, 5, 3.0, 8, 4.0),
                (2, 8, 5.0, 9, 6.0),
            ],
            "sum",
        )
        assert instr[0] == (False, False, 5.0)  # 2+3
        assert instr[1] == (True, False, 9.0)  # drops first, owns key 8: 4+5
        assert instr[2] == (True, False, None)

    def test_min_aggregate(self):
        instr = _resolve_boundary_chains(
            [(1, 5, 4.0, 5, 4.0), (1, 5, 2.0, 5, 2.0)], "min"
        )
        assert instr[0] == (False, False, 2.0)
        assert instr[1] == (False, True, None)

    def test_all_ranks_single_same_key(self):
        instr = _resolve_boundary_chains(
            [(1, 3, 1.0, 3, 1.0)] * 4, "sum"
        )
        assert instr[0] == (False, False, 4.0)
        for j in range(1, 4):
            assert instr[j] == (False, True, None)

    def test_single_rank_noop(self):
        assert _resolve_boundary_chains([(5, 0, 1.0, 9, 2.0)], "sum") == [
            (False, False, None)
        ]


def run_merge(pieces_per_rank, orders, root_order, gamma=0.03, agg="sum"):
    """Drive merge_partitions with hand-crafted per-rank ViewData."""
    p = len(pieces_per_rank)
    root_view = tuple(sorted(root_order))

    def prog(comm):
        tree = ScheduleTree(root_view, root_order)
        local = {}
        for view_idx, order in enumerate(orders):
            keys, vals = pieces_per_rank[comm.rank][view_idx]
            local[tuple(sorted(order))] = ViewData(
                order,
                np.asarray(keys, dtype=np.int64),
                np.asarray(vals, dtype=np.float64),
            )
        cfg = CubeConfig(gamma_merge=gamma, agg=agg)
        merged, report = merge_partitions(comm, local, tree, cfg, 1 << 16)
        return merged, report

    res = run_spmd(prog, MachineSpec(p=p))
    return res


class TestMergePartitions:
    #: Per rank, three views over root order (0, 1, 2) that take the three
    #: cases at gamma 0.3: (0,) is a prefix, (1,) overlaps mildly and (2,)
    #: has huge last keys, so owning by last keys would be lopsided.
    PIECES_ALL_CASES = [
        [
            ([1, 5], [1.0, 2.0]),
            (list(range(0, 50)), [1.0] * 50),
            (list(range(0, 100)) + [10**6], [1.0] * 101),
        ],
        [
            ([5, 9], [3.0, 4.0]),
            (list(range(45, 95)), [1.0] * 50),
            (list(range(100, 200)) + [10**6 + 1], [1.0] * 101),
        ],
    ]

    def test_prefix_view_boundary_agglomeration(self):
        # root order (0,1); view (0,) is a prefix view; key 5 straddles
        pieces = [
            [([1, 5], [1.0, 2.0])],
            [([5, 9], [3.0, 4.0])],
        ]
        res = run_merge(pieces, orders=[(0,)], root_order=(0, 1))
        merged0, report0 = res.rank_results[0]
        merged1, _ = res.rank_results[1]
        assert report0.cases[(0,)] == "case1"
        assert merged0[(0,)].keys.tolist() == [1, 5]
        assert merged0[(0,)].measure.tolist() == [1.0, 5.0]
        assert merged1[(0,)].keys.tolist() == [9]

    def test_nonprefix_balanced_goes_case2(self):
        # view order (1,) is NOT a prefix of root order (0,1).
        # Ranks hold interleaved key ranges with mild overlap.
        pieces = [
            [(list(range(0, 50)), [1.0] * 50)],
            [(list(range(45, 95)), [1.0] * 50)],
        ]
        res = run_merge(pieces, orders=[(1,)], root_order=(0, 1), gamma=0.3)
        merged0, report = res.rank_results[0]
        merged1, _ = res.rank_results[1]
        assert report.cases[(1,)] == "case2"
        keys0 = merged0[(1,)].keys
        keys1 = merged1[(1,)].keys
        # overlap keys 45..49 fully aggregated on rank 0 (the owner)
        all_keys = np.concatenate([keys0, keys1])
        assert sorted(all_keys.tolist()) == list(range(95))
        total = merged0[(1,)].measure.sum() + merged1[(1,)].measure.sum()
        assert total == pytest.approx(100.0)
        overlap_vals = merged0[(1,)].measure[np.isin(keys0, range(45, 50))]
        assert np.all(overlap_vals == 2.0)

    def test_nonprefix_imbalanced_goes_case3(self):
        # every rank's last key is huge -> rank 0 would own everything
        pieces = [
            [(list(range(0, 100)) + [10**6], [1.0] * 101)],
            [(list(range(100, 200)) + [10**6 + 1], [1.0] * 101)],
        ]
        res = run_merge(pieces, orders=[(1,)], root_order=(0, 1), gamma=0.03)
        merged0, report = res.rank_results[0]
        merged1, _ = res.rank_results[1]
        assert report.cases[(1,)] == "case3"
        sizes = np.array(
            [merged0[(1,)].keys.size, merged1[(1,)].keys.size]
        )
        # case 3 re-balances within gamma
        assert abs(sizes[0] - sizes[1]) / sizes.mean() <= 0.1
        assert sizes.sum() == 202

    def test_case3_preserves_aggregation(self):
        # same key appears on both ranks; case 3 must combine it once
        pieces = [
            [([7, 10**6], [1.0, 1.0])],
            [([7, 10**6 + 1], [2.0, 1.0])],
        ]
        res = run_merge(
            pieces, orders=[(1,)], root_order=(0, 1), gamma=0.0001
        )
        merged0, _ = res.rank_results[0]
        merged1, _ = res.rank_results[1]
        all_keys = np.concatenate(
            [merged0[(1,)].keys, merged1[(1,)].keys]
        ).tolist()
        all_vals = np.concatenate(
            [merged0[(1,)].measure, merged1[(1,)].measure]
        ).tolist()
        combined = dict(zip(all_keys, all_vals))
        assert combined[7] == pytest.approx(3.0)
        assert all_keys.count(7) == 1

    def test_root_is_case1(self):
        pieces = [
            [([0, 1], [1.0, 1.0])],
            [([2, 3], [1.0, 1.0])],
        ]
        res = run_merge(pieces, orders=[(0, 1)], root_order=(0, 1))
        _, report = res.rank_results[0]
        assert report.cases[(0, 1)] == "case1"

    def test_empty_views_survive(self):
        pieces = [
            [([], []), ([], [])],
            [([], []), ([], [])],
        ]
        res = run_merge(
            pieces, orders=[(0, 1), (1,)], root_order=(0, 1)
        )
        merged0, report = res.rank_results[0]
        assert merged0[(0, 1)].nrows == 0
        assert merged0[(1,)].nrows == 0
        assert len(report.cases) == 2

    def test_merge_phase_sorts_nothing(self, monkeypatch):
        """One call through all three cases: no rank is charged a sort,
        and the case-3 path is charged one scan of the rows it verifies
        plus one of the rows it receives."""
        import repro.core.merge as merge_mod

        real = merge_mod.batched_sample_sort
        case3_scans = {}

        def metered(comm, items, *args, **kwargs):
            work = comm.disk.work
            before = work.rows_scanned
            outcomes = real(comm, items, *args, **kwargs)
            # keys are distinct across ranks and nothing shifts, so the
            # rows a rank ends up with are the rows it received
            assert not any(o.shifted for o in outcomes)
            case3_scans[comm.rank] = (
                work.rows_scanned - before,
                sum(k.shape[0] for k, _ in items),
                sum(o.keys.shape[0] for o in outcomes),
            )
            return outcomes

        monkeypatch.setattr(merge_mod, "batched_sample_sort", metered)
        pieces = self.PIECES_ALL_CASES
        orders = [(0,), (1,), (2,)]

        def prog(comm):
            local = {
                order: ViewData(order, *map(np.asarray, piece))
                for order, piece in zip(orders, pieces[comm.rank])
            }
            before = comm.disk.work.rows_sorted
            _, report = merge_partitions(
                comm, local, ScheduleTree((0, 1, 2), (0, 1, 2)),
                CubeConfig(gamma_merge=0.3), 1 << 16,
            )
            return report, comm.disk.work.rows_sorted - before

        res = run_spmd(prog, MachineSpec(p=2))
        for report, rows_sorted in res.rank_results:
            assert report.cases == {
                (0,): "case1", (1,): "case2", (2,): "case3"
            }
            assert rows_sorted == 0
        assert sorted(case3_scans) == [0, 1]
        for scanned, verified, received in case3_scans.values():
            assert verified == 101
            assert scanned == verified + received
        assert sum(r for _, _, r in case3_scans.values()) == 202

    def test_report_counts(self):
        report = MergeReport(cases={(0,): "case1", (1,): "case3"})
        assert report.count("case1") == 1
        assert report.count("case2") == 0
        assert report.count("case3") == 1


def rows_taken(
    before: ViewData, after: ViewData, case: str, rewritten: int
) -> int:
    """Rows of ``before`` the merge took in: the whole piece (case 3), the
    rows shipped plus its own rows in the zone (case 2), the row that
    absorbed a straddling group plus a dropped first row or piece."""
    if case == "case3":
        return before.nrows
    if case == "case1":
        return rewritten + int(after.nrows < before.nrows)
    if after.nrows == 0:
        return before.nrows
    skip = int(np.searchsorted(before.keys, after.keys[0], side="left"))
    kept = before.nrows - skip
    zone = rows_from_first_change(before, after)
    # the zone's own rows are the kept rows from its first change on
    own = kept - (after.nrows - zone) if zone else 0
    return skip + own


def rows_from_first_change(before: ViewData, after: ViewData) -> int:
    """Rows of ``after`` from the first one that is not the matching row
    of ``before``.  Rows of ``before`` below the first key of ``after``
    were shipped to their owner or dropped as a duplicate: a moved bound,
    not a rewritten row."""
    if after.nrows == 0:
        return 0
    skip = np.searchsorted(before.keys, after.keys[0], side="left")
    keys, measure = before.keys[skip:], before.measure[skip:]
    n = min(keys.shape[0], after.nrows)
    same = (keys[:n] == after.keys[:n]) & (measure[:n] == after.measure[:n])
    return after.nrows - (n if same.all() else int(np.argmin(same)))


class TestMergeConsumesItsInput:
    """``merge_partitions`` owns the pieces it is given: none is left in
    the dict, and a case-2 or case-3 piece is freed once its merged piece
    exists, unless that merged piece is a zero-copy slice of it."""

    PIECES = TestMergePartitions.PIECES_ALL_CASES

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_merged_away_pieces_are_freed(self, backend):
        orders = [(0,), (1,), (2,)]

        def prog(comm):
            local = {
                order: ViewData(order, *map(np.array, piece))
                for order, piece in zip(orders, self.PIECES[comm.rank])
            }
            inputs = {
                v: (weakref.ref(d.keys), weakref.ref(d.measure))
                for v, d in local.items()
            }
            gc.disable()  # freed by reference counting, not by a sweep
            try:
                merged, report = merge_partitions(
                    comm, local, ScheduleTree((0, 1, 2), (0, 1, 2)),
                    CubeConfig(gamma_merge=0.3), 1 << 16,
                )
                comm.barrier()  # every peer is done reading what it got
                held = {}
                for view, refs in inputs.items():
                    arrays = [ref() for ref in refs]
                    out = merged[view]
                    held[view] = (
                        [a is not None for a in arrays],
                        [
                            a is not None and np.shares_memory(a, o)
                            for a, o in zip(arrays, (out.keys, out.measure))
                        ],
                    )
                    del arrays
            finally:
                gc.enable()
            return report.cases, held, len(local)

        res = run_spmd(prog, MachineSpec(p=2, backend=backend))
        gone, kept = ([False, False], [False, False]), ([True, True], [True, True])
        for cases, held, left in res.rank_results:
            assert cases == {(0,): "case1", (1,): "case2", (2,): "case3"}
            assert left == 0
            # case 3: re-sorted into new arrays, the input is gone
            assert held[(2,)] == gone
        (_, held0, _), (_, held1, _) = res.rank_results
        # case 1: slices of the input; rank 0's last row absorbed key 5,
        # so its measure alone is a copy
        assert held0[(0,)] == ([True, False], [True, False])
        assert held1[(0,)] == kept
        # case 2: rank 0 splices rows in, rank 1 receives nothing and
        # keeps a zero-copy slice of its input
        assert held0[(1,)] == gone
        assert held1[(1,)] == kept


class TestRewrittenRows:
    """``MergeReport.rewritten`` is what the merge changed on this rank,
    and the step-3 write is charged for exactly that."""

    def test_untouched_case2_piece_is_a_slice_of_its_input(self):
        # rank 1 ships keys 45..49 to their owner and receives nothing
        pieces = [
            (np.arange(0, 50), np.ones(50)),
            (np.arange(45, 95), np.ones(50)),
        ]

        def prog(comm):
            keys, vals = pieces[comm.rank]
            data = ViewData((1,), keys, vals)
            merged, report = merge_partitions(
                comm, {(1,): data}, ScheduleTree((0, 1), (0, 1)),
                CubeConfig(gamma_merge=0.3), 1 << 16,
            )
            out = merged[(1,)]
            return (
                report.cases[(1,)],
                report.rewritten[(1,)],
                out.keys.tolist(),
                np.shares_memory(out.keys, data.keys)
                and np.shares_memory(out.measure, data.measure),
            )

        res = run_spmd(prog, MachineSpec(p=2))
        # rank 0 re-merges only the zone from the smallest foreign key on
        assert res.rank_results[0] == ("case2", 5, list(range(50)), False)
        assert res.rank_results[1] == ("case2", 0, list(range(50, 95)), True)

    def test_step3_writes_each_resident_piece_once_whole(
        self, charged, merge_calls
    ):
        """At the default budget every piece stays resident until its
        merge: Pipesort writes none, the merge reads none back, and step 3
        writes each merged piece once, whole.  ``rewritten`` and ``read``
        still report what each case changed and took on this rank."""
        cards = (16, 12, 8, 6, 4)
        build_data_cube(
            make_relation(6000, cards, seed=1), cards, MachineSpec(p=3)
        )
        seen = Counter()
        written = Counter()
        for rank, before, after, report, rows_sorted in merge_calls:
            assert rows_sorted == 0
            for view, out in after.items():
                case = report.cases[view]
                changed = (
                    out.nrows
                    if case == "case3"
                    else rows_from_first_change(before[view], out)
                )
                assert report.rewritten[view] == changed, (rank, view, case)
                assert report.read[view] == rows_taken(
                    before[view], out, case, changed
                ), (rank, view, case)
                seen[case] += changed > 0
                written[rank] += out.nrows
        # every case rewrote something somewhere
        assert min(seen[c] for c in ("case1", "case2", "case3")) > 0
        for rank in range(3):
            assert charged[rank, "compute", "w"] == 0
            assert charged[rank, "merge", "r"] == 0
            assert charged[rank, "merge", "w"] == written[rank] > 0

    def test_a_piece_written_before_its_merge_is_read_back(
        self, charged, merge_calls, monkeypatch
    ):
        """Under a budget too tight to hold every piece, Pipesort writes
        some at once; step 3 reads each of those back for the rows its
        merge takes and writes what the merge rewrote, and writes every
        piece still resident once, whole."""
        from repro.core import cube as cube_mod

        left = {}
        real = cube_mod.execute_schedule

        def spy(tree, *args, **kw):
            results, unwritten = real(tree, *args, **kw)
            rank = int(threading.current_thread().name.split("-")[1])
            left[rank, tree.root] = set(unwritten) | {tree.root}
            return results, unwritten

        monkeypatch.setattr(cube_mod, "execute_schedule", spy)
        cards = (16, 12, 8, 6, 4)
        build_data_cube(
            make_relation(6000, cards, seed=1), cards,
            MachineSpec(p=3, memory_budget=1500, block_size=16),
        )
        read, written, stored = Counter(), Counter(), Counter()
        for rank, before, after, report, _ in merge_calls:
            resident = left[rank, max(after, key=len)]
            for view, out in after.items():
                if view in resident:
                    written[rank] += out.nrows
                    continue
                stored[rank] += 1
                read[rank] += report.read[view]
                written[rank] += report.rewritten[view]
        for rank in range(3):
            assert 0 < stored[rank] < sum(
                len(after) for r, _, after, _, _ in merge_calls if r == rank
            )
            assert charged[rank, "merge", "r"] == read[rank] > 0
            assert charged[rank, "merge", "w"] == written[rank] > 0
