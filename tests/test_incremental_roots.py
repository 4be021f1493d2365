"""Tests for step 1a's source: each Di-root derives from the merged root
view of the partition before it, the raw chunk only where there is none."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_cube
from repro.config import CubeConfig, MachineSpec
from repro.core import cube as cube_mod
from repro.core.checkpoint import RankCheckpoint
from repro.core.cube import build_data_cube, split_even
from repro.core.partitions import partition_all
from repro.mpi.comm import Comm
from tests.conftest import make_relation


@pytest.fixture
def step1(monkeypatch):
    """What Procedure 1 step 1 charged and did, as a function
    ``(rank, i) -> (source rows read, rows charged as sorted, rows the
    host handed its sort)`` over the last build (a sort that spills reads
    its own runs back; those reads are not the source's).  Thread backend
    only."""
    marks = {}  # (rank, phase) -> the counters below on entering it
    rank_of = {}  # id(disk) -> rank
    host_sorted = Counter()  # rank -> rows handed to the sort, ever
    sort_reads = Counter()  # rank -> rows the sort read back, ever
    set_phase = Comm.set_phase
    external_sort = cube_mod.external_sort

    def tracking_set_phase(self, phase):
        rank_of[id(self.disk)] = self.rank
        marks[self.rank, phase] = (
            self.disk.stats.rows_read - sort_reads[self.rank],
            self.disk.work.rows_sorted,
            host_sorted[self.rank],
        )
        return set_phase(self, phase)

    def spy(keys, measure, disk, *args, **kw):
        rank = rank_of[id(disk)]
        host_sorted[rank] += len(keys)
        before = disk.stats.rows_read
        try:
            return external_sort(keys, measure, disk, *args, **kw)
        finally:
            sort_reads[rank] += disk.stats.rows_read - before

    monkeypatch.setattr(Comm, "set_phase", tracking_set_phase)
    monkeypatch.setattr(cube_mod, "external_sort", spy)

    def deltas(rank, i):
        before = marks[rank, f"partition-sort[{i}]"]
        after = marks[rank, f"compute[{i}]"]
        return tuple(a - b for a, b in zip(after, before))

    return deltas


class TestIncrementalRoots:
    @settings(max_examples=8)
    @given(st.integers(0, 400), st.integers(1, 4), st.integers(0, 3))
    def test_identical_results(self, n, p, seed):
        cards = (9, 6, 4)
        rel = make_relation(n, cards, seed=seed)
        ref = reference_cube(rel, cards)
        cube = build_data_cube(rel, cards, MachineSpec(p=p))
        for view, want in ref.items():
            assert cube.view_relation(view).same_content(want), view

    def test_partial_cube_with_incremental_roots(self, step1):
        """A partition whose predecessor's root is not selected reads the
        raw chunk; one whose predecessor's root is selected reads that."""
        cards = (10, 6, 4)
        rel = make_relation(2100, cards, seed=4)
        ref = reference_cube(rel, cards)
        for selected, raw_iterations in (
            ([(0,), (1, 2), ()], {0, 1}),  # D0-root (0, 1, 2) not selected
            ([(0, 1, 2), (1,), (2,)], {0, 2}),  # D1-root (1, 2) not selected
        ):
            cube = build_data_cube(
                rel, cards, MachineSpec(p=3), selected=selected
            )
            assert len(cube.views) == len(selected)
            for view in cube.views:
                assert cube.view_relation(view).same_content(ref[view])
            for i in range(3):
                assert (step1(0, i)[0] == 700) == (i in raw_iterations), i

    def test_reduces_partition_work_on_reducing_data(self, step1):
        """With skewed (reducing) data the previous root is much smaller
        than the raw chunk, and every root smaller than the one before:
        the rows step 1a sorts fall from iteration to iteration, and only
        the raw chunk is read — every later root piece stays resident."""
        cards = (32, 16, 12, 8, 6)
        rel = make_relation(20_000, cards, seed=6,
                            alphas=(1.5, 1.0, 0.5, 0.5, 0.5))
        build_data_cube(rel, cards, MachineSpec(p=4))
        for rank in range(4):
            read = [step1(rank, i)[0] for i in range(len(cards))]
            sorted_rows = [step1(rank, i)[2] for i in range(len(cards))]
            assert read == [5_000, 0, 0, 0, 0]  # the raw chunk alone
            assert sorted_rows[0] == 5_000
            assert sorted_rows == sorted(sorted_rows, reverse=True)
            assert 0 < sorted_rows[-1]
            # four raw re-sorts would be 20,000 rows
            assert sum(sorted_rows[1:]) < 1.5 * sorted_rows[0]

    def test_one_sort_per_iteration_of_the_rows_read(self, step1, merge_calls):
        """Model equals physical for step 1: every rank hands its piece of
        the previous merged root view (the raw chunk in iteration 0) to
        one host sort and is charged as sorting exactly those rows; it
        reads the raw chunk, and no root piece, for every piece fits the
        default budget twice over.  1b and 1c sort nothing."""
        cards = (16, 12, 8, 6)
        rel = make_relation(12_000, cards, seed=3)
        p = 4
        build_data_cube(rel, cards, MachineSpec(p=p))
        root_piece = {}  # (rank, i) -> rows of the merged Di-root piece
        for rank, _, merged, _, _ in merge_calls:
            root = max(merged, key=len)
            root_piece[rank, root[0]] = merged[root].nrows
        for rank in range(p):
            for i in range(len(cards)):
                source = 3_000 if i == 0 else root_piece[rank, i - 1]
                read = 3_000 if i == 0 else 0
                assert step1(rank, i) == (read, source, source), (rank, i)

    def test_aggregates_compose(self):
        """min/max/count must survive the root-of-root re-aggregation."""
        cards = (8, 5, 3)
        rel = make_relation(1500, cards, seed=9)
        for agg in ("count", "min", "max"):
            ref = reference_cube(rel, cards, agg=agg)
            cube = build_data_cube(
                rel, cards, MachineSpec(p=3), CubeConfig(agg=agg)
            )
            for view, want in ref.items():
                assert cube.view_relation(view).same_content(want), (agg, view)


# ---------------------------------------------------------------------------
# the merged root stays resident into the next step 1a
# ---------------------------------------------------------------------------

RR_CARDS = (16, 16, 12, 8, 6)
RR_BUDGETS = [1 << 21, 60_000, 8_192, 2_048]
#: D1-root (1, 2, 3, 4) and D3-root (3, 4) not selected: iterations 2 and
#: 4 start from the raw chunk, 1 and 3 from the root before them.
RR_PARTIAL = [(0, 1, 2, 3, 4), (0, 2), (1, 3), (2, 3, 4), (3,), ()]


def rr_spec(budget, p=2):
    return MachineSpec(p=p, memory_budget=budget, block_size=64)


def expected_source_reads(cube, chunk_rows, selected, budget):
    """``(rank, i) -> rows`` step 1a reads, restating the rule: the raw
    chunk where no previous root was selected, else the previous root
    piece unless it and one projection of it fit ``budget``."""
    want, prev = {}, None
    for i, root, _ in partition_all(len(RR_CARDS), selected):
        for rank, views in enumerate(cube.rank_views):
            piece = None if prev is None else views.get(prev)
            if piece is None:
                want[rank, i] = chunk_rows[rank]
            else:
                want[rank, i] = 0 if 2 * piece.nrows <= budget else piece.nrows
        prev = root
    return want


def same_cube(a, b):
    return all(
        set(va) == set(vb)
        and all(
            np.array_equal(va[v].keys, vb[v].keys)
            and np.array_equal(va[v].measure, vb[v].measure)
            for v in va
        )
        for va, vb in zip(a.rank_views, b.rank_views, strict=True)
    )


class TestResidentRoot:
    """Model == physical for step 1a's source across the iteration
    boundary: the merged ``D(i-1)``-root piece is read back only when it
    does not fit the budget twice over (Pipesort's admission rule)."""

    @pytest.mark.parametrize("selected", [None, RR_PARTIAL])
    def test_reads_are_the_roots_that_do_not_fit(self, step1, selected):
        rel = make_relation(40_000, RR_CARDS, seed=11)
        chunk_rows = [chunk.nrows for chunk in split_even(rel, 2)]
        reference, swept = None, []
        for budget in RR_BUDGETS:
            cube = build_data_cube(
                rel, RR_CARDS, rr_spec(budget), selected=selected
            )
            want = expected_source_reads(cube, chunk_rows, selected, budget)
            got = {key: step1(*key)[0] for key in want}
            assert got == want, budget
            swept.append(want)
            if reference is None:
                reference = cube
            assert same_cube(cube, reference), budget
        derived = [
            key for key in swept[0]
            if swept[0][key] != chunk_rows[key[0]]
        ]
        # Every derived root is resident at the roomiest budget and some
        # are read back at the tightest; the full cube also reads a piece
        # that fits the budget once but not twice, the partial one the
        # raw chunk again after iteration 0.
        assert derived and all(swept[0][key] == 0 for key in derived)
        assert any(swept[-1][key] for key in derived)
        if selected is None:
            assert any(4_096 < swept[2][key] <= 8_192 for key in derived)
        else:
            assert any(i > 0 for _, i in set(swept[0]) - set(derived))

    @pytest.mark.parametrize("budget", [60_000, 8_192])
    def test_a_resumed_build_reads_what_its_fault_free_twin_reads(
        self, step1, tmp_path, budget
    ):
        """After the replay, a resumed build's step 1a reads what the
        fault-free build reads: the root piece it replayed from the seal
        is resident (at 60,000) or read back (at 8,192) by the same rule."""
        rel = make_relation(40_000, RR_CARDS, seed=11)
        spec = rr_spec(budget)
        d = len(RR_CARDS)
        twin = build_data_cube(rel, RR_CARDS, spec)
        twin_reads = {
            (rank, i): step1(rank, i)[0] for rank in range(2) for i in range(1, d)
        }
        replayed_root = twin.rank_views[0][tuple(range(d))].nrows
        assert (twin_reads[0, 1] == 0) == (2 * replayed_root <= budget)
        build_data_cube(rel, RR_CARDS, spec, checkpoint_dir=str(tmp_path))
        for rank in range(2):  # forget every seal after iteration 0
            path = RankCheckpoint(str(tmp_path), rank)._manifest_path()
            with open(path, encoding="utf-8") as fh:
                head, ordinal0 = [line for line in fh if line.strip()][:2]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(head + ordinal0)
        resumed = build_data_cube(
            rel, RR_CARDS, spec, checkpoint_dir=str(tmp_path)
        )
        assert same_cube(resumed, twin)
        for key, rows in twin_reads.items():
            assert step1(*key)[0] == rows, key
