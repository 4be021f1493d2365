"""Tests for Procedure 3: Merge-Partitions (cases 1, 2 and 3)."""

import gc
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
import repro.core.merge as merge_mod
from repro.core.merge import (
    MergeReport,
    _rebalance_seconds,
    _resolve_boundary_chains,
    _resort_plan,
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


#: Rows per rank of the re-sorted case-3 view below: enough that
#: routing them all to rank 0 and shifting half back costs more than the
#: re-sort's extra collectives.
RESORT_ROWS = 5000


class TestMergePartitions:
    #: Per rank, three views over root order (0, 1, 2) that take the three
    #: cases at gamma 0.3: (0,) is a prefix, (1,) overlaps mildly and (2,)
    #: has huge last keys, so owning by last keys would be lopsided; the
    #: pieces are already in global order, so (2,) re-sorts.
    PIECES_ALL_CASES = [
        [
            ([1, 5], [1.0, 2.0]),
            (list(range(0, 50)), [1.0] * 50),
            (list(range(RESORT_ROWS)) + [10**6], [1.0] * (RESORT_ROWS + 1)),
        ],
        [
            ([5, 9], [3.0, 4.0]),
            (list(range(45, 95)), [1.0] * 50),
            (
                list(range(RESORT_ROWS, 2 * RESORT_ROWS)) + [10**6 + 1],
                [1.0] * (RESORT_ROWS + 1),
            ),
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

    #: Per rank, one view (3,) that takes case 3 at gamma 0.3 by route +
    #: shift: rank 1 routes keys 65..69 to rank 0, which then holds 70 of
    #: the 100 rows and shifts keys 50..69 on to rank 1.
    PIECES_SHIFTED = [
        (list(range(0, 70)), [1.0] * 70),
        (list(range(65, 100)), [1.0] * 35),
    ]

    def test_merge_phase_sorts_nothing(self):
        """One call through all three cases, once per case-3 mechanism: no
        rank is charged a sort.  Case 2 scans its zone; case 3 scans its
        verified and received rows when it re-sorts, its zone plus the
        rows shifted in when it routes and shifts."""
        for mechanism in ("resort", "shift"):
            self._sorts_nothing(mechanism)

    def _sorts_nothing(self, mechanism: str) -> None:
        orders = [(0,), (1,), (2,) if mechanism == "resort" else (3,)]
        pieces = [
            ranks[:2] + [ranks[2] if mechanism == "resort" else shifted]
            for ranks, shifted in zip(
                self.PIECES_ALL_CASES, self.PIECES_SHIFTED
            )
        ]

        def prog(comm):
            local = {
                order: ViewData(order, *map(np.asarray, piece))
                for order, piece in zip(orders, pieces[comm.rank])
            }
            work = comm.disk.work
            sorted_before, scanned_before = work.rows_sorted, work.rows_scanned
            _, report = merge_partitions(
                comm, local, ScheduleTree((0, 1, 2, 3), (0, 1, 2, 3)),
                CubeConfig(gamma_merge=0.3), 1 << 16,
            )
            return (
                report, work.rows_sorted - sorted_before,
                work.rows_scanned - scanned_before,
            )

        res = run_spmd(prog, MachineSpec(p=2))
        for report, rows_sorted, _ in res.rank_results:
            assert report.cases == dict(
                zip(orders, ("case1", "case2", "case3"))
            )
            assert report.resorted == (
                {orders[2]} if mechanism == "resort" else set()
            )
            assert rows_sorted == 0
        # case 2: rank 0 merges its keys 45..49 with the 5 it receives
        if mechanism == "resort":
            # every row verified; keys RESORT_ROWS and 10**6 swap ranks
            case3 = [2 * (RESORT_ROWS + 1)] * 2
        else:
            # rank 0's zone is its keys 65..69 and the 5 it receives;
            # rank 1 takes in the 20 rows shifted to it
            case3 = [5 + 5, 20]
        assert [s for _, _, s in res.rank_results] == [10 + case3[0], case3[1]]

    def test_case3_route_and_shift_rows(self):
        """Route + shift: the output is the uniform cut of the merged
        view, ``read`` is what the route and the shift take from each
        piece and ``rewritten`` the whole piece once the shift moves its
        bounds."""

        def prog(comm):
            keys, vals = self.PIECES_SHIFTED[comm.rank]
            data = ViewData((1,), np.array(keys), np.array(vals))
            merged, report = merge_partitions(
                comm, {(1,): data}, ScheduleTree((0, 1), (0, 1)),
                CubeConfig(gamma_merge=0.3), 1 << 16,
            )
            out = merged[(1,)]
            return (
                report.cases[(1,)], report.resorted, out.keys.tolist(),
                out.measure.tolist(), report.read[(1,)],
                report.rewritten[(1,)],
            )

        (case0, re0, keys0, vals0, read0, wrote0), (
            case1, re1, keys1, vals1, read1, wrote1
        ) = run_spmd(prog, MachineSpec(p=2)).rank_results
        assert case0 == case1 == "case3" and re0 == re1 == set()
        assert keys0 == list(range(50)) and keys1 == list(range(50, 100))
        assert vals0 + vals1 == [1.0] * 65 + [2.0] * 5 + [1.0] * 30
        # rank 0: its zone 65..69, then 50..64 from before the zone
        # leave with the shift; rank 1: 65..69 routed away, nothing
        # shifted from its piece
        assert (read0, read1) == (5 + 15, 5)
        assert wrote0 == wrote1 == 50

    def test_report_counts(self):
        report = MergeReport(cases={(0,): "case1", (1,): "case3"})
        assert report.count("case1") == 1
        assert report.count("case2") == 0
        assert report.count("case3") == 1


class TestRebalanceChoice:
    """How a case-3 view is rebalanced is a pure function of the
    per-source estimates ``counts[source, owner]`` and the spec's prices."""

    SPEC = MachineSpec(p=16)

    @staticmethod
    def one_owner() -> np.ndarray:
        # rank 0's last key is the view's largest, so it owns every row
        counts = np.zeros((16, 16))
        counts[:, 0] = 1000
        return counts

    @staticmethod
    def near_range_partitioned() -> np.ndarray:
        # rank j owns most of its own rows, 20 spill to rank j - 1, and
        # the pieces grow with the rank, so the view is imbalanced
        counts = np.diag(1000.0 + 40 * np.arange(16))
        counts[np.arange(1, 16), np.arange(15)] = 20
        return counts

    def test_one_owner_re_sorts(self):
        shift, resort = _rebalance_seconds(self.one_owner(), None, self.SPEC)
        assert resort < shift
        assert _resort_plan([self.one_owner()], None, self.SPEC, True) == [
            True
        ]

    def test_near_range_partitioned_routes_and_shifts(self):
        counts = self.near_range_partitioned()
        shift, resort = _rebalance_seconds(counts, None, self.SPEC)
        assert shift < resort
        assert _resort_plan([counts], None, self.SPEC, True) == [False]
        speeds = np.linspace(0.5, 1.5, 16)
        assert _resort_plan(
            [counts], speeds / speeds.sum(), self.SPEC, True
        ) == [False]

    def test_a_mechanism_pays_for_its_collectives(self):
        # A view that saves less than the shift's two collectives cost
        # joins the re-sort batch the other view opens anyway.
        tiny = self.near_range_partitioned() / 100
        shift, resort = _rebalance_seconds(tiny, None, self.SPEC)
        assert 0 < resort - shift < 2 * self.SPEC.latency_sec
        assert _resort_plan(
            [self.one_owner(), tiny], None, self.SPEC, True
        ) == [True, True]
        assert _resort_plan([tiny], None, self.SPEC, True) == [False]


def rows_taken(
    before: ViewData, after: ViewData, case: str, rewritten: int
) -> int:
    """Rows of ``before`` the merge took in: the rows shipped plus its own
    rows in the zone (case 2), the row that absorbed a straddling group
    plus a dropped first row or piece (case 1)."""
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


def route_and_shift_rows(
    befores: list[ViewData], afters: list[ViewData], rank: int
) -> tuple[int, int]:
    """``(rewritten, read)`` of ``rank``'s piece of a case-3 view that was
    routed and shifted, from every rank's piece before and after.

    Ownership cuts each piece by the running maximum of the ranks' last
    keys; the owner's zone starts at the smallest key it receives.  The
    piece reads the rows it routes away, its own rows in the zone and
    the rows before the zone that the shift sends on, and rewrites its
    zone, or all of itself once the shift has moved its bounds."""
    p = len(befores)
    last = [int(b.keys[-1]) if b.nrows else -1 for b in befores]
    bounds = np.maximum.accumulate(last)[:-1]

    def owned(piece: ViewData) -> np.ndarray:
        lo = 0 if rank == 0 else np.searchsorted(
            piece.keys, bounds[rank - 1], side="right"
        )
        hi = piece.nrows if rank == p - 1 else np.searchsorted(
            piece.keys, bounds[rank], side="right"
        )
        return piece.keys[lo:hi]

    mine = owned(befores[rank])
    foreign = np.concatenate(
        [owned(b) for j, b in enumerate(befores) if j != rank]
    )
    start = foreign.min() if foreign.size else np.iinfo(np.int64).max
    zone = np.union1d(mine[mine >= start], foreign)
    untouched = mine[mine < start]
    routed_view = np.union1d(mine, foreign)
    out = afters[rank].keys
    moved = not np.array_equal(out, routed_view)
    read = (
        befores[rank].nrows - mine.size          # routed away
        + int((mine >= start).sum())             # own rows in the zone
        + int((~np.isin(untouched, out)).sum())  # shifted on from before it
    )
    return (out.size if moved else zone.size), read


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
        still report what each case changed and took on this rank; this
        input rebalances every case-3 view by route + shift."""
        self._writes_once_whole(charged, merge_calls, "case3")

    def test_step3_accounts_for_resorted_pieces(
        self, charged, merge_calls, monkeypatch
    ):
        """The same build with every case-3 view re-sorted: each reads
        and rewrites its whole piece."""
        monkeypatch.setattr(
            merge_mod, "_resort_plan",
            lambda counts, *args, **kw: [True] * len(counts),
        )
        self._writes_once_whole(charged, merge_calls, "resort")

    @staticmethod
    def _writes_once_whole(charged, merge_calls, mechanism: str) -> None:
        cards = (16, 12, 8, 6, 4)
        build_data_cube(
            make_relation(6000, cards, seed=1), cards, MachineSpec(p=3)
        )
        seen = Counter()
        written = Counter()
        calls = {
            (rank, max(after, key=len)): (before, after)
            for rank, before, after, _, _ in merge_calls
        }
        for rank, before, after, report, rows_sorted in merge_calls:
            assert rows_sorted == 0
            root = max(after, key=len)
            for view, out in after.items():
                case = report.cases[view]
                if view in report.resorted:
                    case = "resort"
                    changed, taken = out.nrows, before[view].nrows
                elif case == "case3":
                    changed, taken = route_and_shift_rows(
                        [calls[r, root][0][view] for r in range(3)],
                        [calls[r, root][1][view] for r in range(3)],
                        rank,
                    )
                else:
                    changed = rows_from_first_change(before[view], out)
                    taken = rows_taken(before[view], out, case, changed)
                assert report.rewritten[view] == changed, (rank, view, case)
                assert report.read[view] == taken, (rank, view, case)
                seen[case] += changed > 0
                written[rank] += out.nrows
        # every case rewrote something somewhere, by one case-3 mechanism
        assert min(seen[c] for c in ("case1", "case2", mechanism)) > 0
        assert seen.keys() <= {"case1", "case2", mechanism}
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
