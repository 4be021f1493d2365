"""Property-based fuzzing of Merge-Partitions with adversarial layouts.

The unit tests in test_merge.py use hand-crafted layouts; here hypothesis
generates arbitrary per-rank view pieces — arbitrary overlaps, empty
ranks, heavy duplication, single-key floods — and the merged outcome is
checked against a brute-force combine.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CubeConfig, MachineSpec
from repro.core.merge import merge_partitions
from repro.core.pipesort import ScheduleTree
from repro.core.viewdata import ViewData
from repro.mpi.engine import run_spmd
from repro.storage.scan import aggregate_sorted_keys


@st.composite
def rank_pieces(draw):
    """Per-rank sorted, locally aggregated pieces of one 2-dim view."""
    p = draw(st.integers(2, 5))
    pieces = []
    for _ in range(p):
        keys = draw(
            st.lists(st.integers(0, 40), min_size=0, max_size=30)
        )
        uniq = sorted(set(keys))
        vals = [
            float(draw(st.integers(1, 9))) for _ in uniq
        ]
        pieces.append((np.array(uniq, dtype=np.int64),
                       np.array(vals, dtype=np.float64)))
    return p, pieces


def brute_force(pieces, agg="sum"):
    all_keys = np.concatenate([k for k, _ in pieces])
    all_vals = np.concatenate([v for _, v in pieces])
    order = np.argsort(all_keys, kind="stable")
    return aggregate_sorted_keys(all_keys[order], all_vals[order], agg)


def run_merge(p, pieces, order, root_order, gamma=0.03, agg="sum"):
    root_view = tuple(sorted(root_order))

    def prog(comm):
        tree = ScheduleTree(root_view, root_order)
        keys, vals = pieces[comm.rank]
        local = {
            tuple(sorted(order)): ViewData(order, keys, vals)
        }
        cfg = CubeConfig(gamma_merge=gamma, agg=agg)
        merged, report = merge_partitions(comm, local, tree, cfg, 1 << 16)
        return merged[tuple(sorted(order))], report

    return run_spmd(prog, MachineSpec(p=p))


class TestMergeFuzz:
    @settings(max_examples=40)
    @given(rank_pieces(), st.sampled_from([0.0001, 0.03, 0.5]))
    def test_nonprefix_view_fully_merged(self, data, gamma):
        """Arbitrary overlapping pieces of a non-prefix view must merge to
        exactly the brute-force combination, for any γ."""
        p, pieces = data
        # order (1,) is not a prefix of root order (0, 1)
        res = run_merge(p, pieces, order=(1,), root_order=(0, 1),
                        gamma=gamma)
        got_keys = np.concatenate(
            [res.rank_results[j][0].keys for j in range(p)]
        )
        got_vals = np.concatenate(
            [res.rank_results[j][0].measure for j in range(p)]
        )
        want_keys, want_vals = brute_force(pieces)
        order = np.argsort(got_keys)
        assert np.array_equal(got_keys[order], want_keys)
        assert np.allclose(got_vals[order], want_vals)
        # full agglomeration: no key on two ranks
        assert np.unique(got_keys).size == got_keys.size

    @settings(max_examples=40)
    @given(rank_pieces())
    def test_prefix_view_boundary_chains(self, data):
        """Prefix views carry only boundary duplicates in real runs, but
        the case-1 resolver must survive arbitrary *globally sorted*
        inputs: sort the pieces' key ranges so rank slices ascend."""
        p, pieces = data
        # impose global sortedness: concatenate, sort, re-slice; keys can
        # straddle slice boundaries arbitrarily (incl. whole-rank spans)
        keys, vals = brute_force(pieces)  # unique keys + summed vals
        # expand back to duplicated boundary form: split each key's value
        # across a random-ish span of consecutive ranks
        per_rank_keys = [[] for _ in range(p)]
        per_rank_vals = [[] for _ in range(p)]
        for idx, (key, val) in enumerate(zip(keys, vals)):
            start = idx % p
            span = 1 + (idx % 3)
            ranks = [min(start + s, p - 1) for s in range(span)]
            share = val / len(ranks)
            for rank in ranks:
                per_rank_keys[rank].append(key)
                per_rank_vals[rank].append(share)
        new_pieces = []
        for rank in range(p):
            rank_keys = np.array(per_rank_keys[rank], dtype=np.int64)
            rank_vals = np.array(per_rank_vals[rank], dtype=np.float64)
            order = np.argsort(rank_keys, kind="stable")
            rank_keys, rank_vals = rank_keys[order], rank_vals[order]
            rank_keys, rank_vals = aggregate_sorted_keys(
                rank_keys, rank_vals, "sum"
            )
            new_pieces.append((rank_keys, rank_vals))
        # pieces are now globally sorted? keys assigned cyclically are NOT
        # globally sorted across ranks, so only run when they are.
        boundaries_ok = True
        prev_max = -1
        for rank_keys, _ in new_pieces:
            if rank_keys.size:
                if rank_keys[0] < prev_max:
                    boundaries_ok = False
                prev_max = max(prev_max, int(rank_keys[-1]))
        if not boundaries_ok:
            return  # only globally-sorted layouts are case-1 inputs
        res = run_merge(p, new_pieces, order=(0,), root_order=(0, 1))
        got_keys = np.concatenate(
            [res.rank_results[j][0].keys for j in range(p)]
        )
        got_vals = np.concatenate(
            [res.rank_results[j][0].measure for j in range(p)]
        )
        order = np.argsort(got_keys)
        assert np.array_equal(got_keys[order], keys)
        assert np.allclose(got_vals[order], vals)
        assert np.unique(got_keys).size == got_keys.size

    @settings(max_examples=15)
    @given(rank_pieces(), st.sampled_from(["min", "max"]))
    def test_other_aggregates(self, data, agg):
        p, pieces = data
        res = run_merge(p, pieces, order=(1,), root_order=(0, 1), agg=agg)
        got_keys = np.concatenate(
            [res.rank_results[j][0].keys for j in range(p)]
        )
        got_vals = np.concatenate(
            [res.rank_results[j][0].measure for j in range(p)]
        )
        want_keys, want_vals = brute_force(pieces, agg)
        order = np.argsort(got_keys)
        assert np.array_equal(got_keys[order], want_keys)
        assert np.allclose(got_vals[order], want_vals)

    @settings(max_examples=15)
    @given(st.integers(2, 5), st.integers(1, 6))
    def test_single_key_flood(self, p, copies):
        """Every rank holds only the same single key: the chain spans the
        whole machine and must collapse to one row."""
        pieces = [
            (np.array([7], dtype=np.int64), np.array([1.0]))
            for _ in range(p)
        ]
        res = run_merge(p, pieces, order=(1,), root_order=(0, 1))
        got = [res.rank_results[j][0] for j in range(p)]
        total_rows = sum(g.nrows for g in got)
        total_val = sum(g.measure.sum() for g in got)
        assert total_rows == 1
        assert total_val == pytest.approx(float(p))


@st.composite
def unique_key_layouts(draw):
    """p in {2, 3, 4} sorted key-unique pieces, any cross-rank layout:
    empty ranks, one-row pieces, foreign rows below a whole own piece.
    Sevenths make the order of every addition visible in the last bit."""
    p = draw(st.integers(2, 4))
    pieces = []
    for _ in range(p):
        keys = sorted(draw(st.sets(st.integers(0, 30), max_size=10)))
        vals = [draw(st.integers(1, 99)) / 7.0 for _ in keys]
        pieces.append((np.array(keys, dtype=np.int64),
                       np.array(vals, dtype=np.float64)))
    return pieces


def ownership_oracle(pieces, agg):
    """Case 2 by definition: every rank's rows in rank order, stably
    sorted and collapsed, then cut by ``owner(K) = min{j : K <= B_j}`` with
    ``B_j`` the running maximum of the last keys of ranks ``0..j`` and the
    last rank unbounded."""
    keys, vals = brute_force(pieces, agg)
    last = [int(k[-1]) if k.size else -1 for k, _ in pieces]
    bounds = np.maximum.accumulate(last)[:-1]
    cuts = [0, *np.searchsorted(keys, bounds, side="right"), keys.size]
    return [
        (keys[lo:hi], vals[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


class TestSpliceEqualsOracle:
    @settings(max_examples=60)
    @given(
        unique_key_layouts(),
        st.sampled_from(["sum", "min", "max"]),
    )
    @example(  # rank 1's key 5 sorts before the whole of its owner's piece
        [(np.array([10, 50]), np.array([1 / 7, 2 / 7])),
         (np.array([5, 60]), np.array([3 / 7, 4 / 7]))],
        "sum",
    )
    @example(  # an empty owner, a one-row piece, a key held by every rank
        [(np.array([], dtype=np.int64), np.array([])),
         (np.array([4]), np.array([1 / 7])),
         (np.array([4, 9]), np.array([2 / 7, 3 / 7])),
         (np.array([2, 4]), np.array([4 / 7, 5 / 7]))],
        "sum",
    )
    def test_case2_is_the_ownership_cut_bit_for_bit(self, pieces, agg):
        # Order (1,) is no prefix of the root order, so the view takes the
        # non-prefix (ownership) machinery.
        order = (1,)

        def prog(comm):
            keys, vals = pieces[comm.rank]
            merged, report = merge_partitions(
                comm, {order: ViewData(order, keys, vals)},
                ScheduleTree((0, 1), (0, 1)),
                CubeConfig(agg=agg, merge_policy="never_resort"),
                1 << 16,
            )
            return merged[order], report

        res = run_spmd(prog, MachineSpec(p=len(pieces)))
        want = ownership_oracle(pieces, agg)
        for (got, report), (keys, vals) in zip(res.rank_results, want):
            assert report.cases[order] == "case2"
            assert got.keys.tobytes() == keys.tobytes()
            assert got.measure.tobytes() == vals.tobytes()
            assert 0 <= report.rewritten[order] <= got.nrows


AGGS = ("sum", "count", "min", "max")
# Every p x alpha cell; agg and hetero cycle so each pair occurs.
CASE3_CELLS = [
    (p, alpha, AGGS[(i // 2) % 4], i % 2 == 1, "thread")
    for i, (p, alpha) in enumerate(
        (p, alpha) for p in (2, 3, 5, 8) for alpha in (0.0, 1.0, 2.0)
    )
] + [(3, 2.0, "sum", False, "process")]


class TestCase3Layout:
    """Whichever mechanism rebalances it, a case-3 view leaves the merge
    as one globally sorted, key-unique run cut within γ of its targets
    (uniform, or the speed model's counts under ``hetero``), equal to the
    reference aggregation."""

    @pytest.mark.parametrize("p,alpha,agg,hetero,backend", CASE3_CELLS)
    def test_case3_views_sorted_unique_balanced_exact(
        self, monkeypatch, p, alpha, agg, hetero, backend
    ):
        from repro import build_data_cube, generate_dataset, paper_preset
        from repro.baselines.reference import reference_view
        from repro.core import cube as cube_mod
        from repro.core.sample_sort import relative_imbalance

        speeds = {}
        real = cube_mod.merge_partitions

        def spy(comm, local_views, tree, *args, speed=None, **kw):
            speeds[tree.root] = speed
            return real(comm, local_views, tree, *args, speed=speed, **kw)

        monkeypatch.setattr(cube_mod, "merge_partitions", spy)
        dspec = paper_preset(3000, alpha=alpha, d=6, seed=5)
        relation = generate_dataset(dspec)
        config = CubeConfig(agg=agg, hetero=hetero)
        cube = build_data_cube(
            relation, dspec.cardinalities,
            MachineSpec(p=p, backend=backend), config,
        )
        case3 = {
            view: tree.root
            for report, tree in zip(cube.merge_reports, cube.schedule_trees)
            for view, case in report.cases.items() if case == "case3"
        }
        if alpha > 0:
            assert case3
        for view, root in case3.items():
            pieces = [rv[view] for rv in cube.rank_views]
            keys = np.concatenate([piece.keys for piece in pieces])
            assert np.all(np.diff(keys) > 0), view  # sorted, key-unique
            sizes = np.array([piece.nrows for piece in pieces])
            # The thread backend's spy saw every merge; the process
            # backend's ran in the ranks, so its targets are uniform.
            speed = speeds.get(root)
            targets = None if speed is None else speed.counts(sizes.sum())
            assert relative_imbalance(sizes, targets) <= config.gamma_merge
            got = cube.view_relation(view)
            want = reference_view(relation, dspec.cardinalities, view, agg)
            got_order = np.lexsort(got.dims.T[::-1])
            want_order = np.lexsort(want.dims.T[::-1])
            assert np.array_equal(got.dims[got_order], want.dims[want_order])
            assert np.allclose(
                got.measure[got_order], want.measure[want_order]
            )
