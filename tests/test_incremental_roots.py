"""Tests for step 1a's source: each Di-root derives from the merged root
view of the partition before it, the raw chunk only where there is none."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_cube
from repro.config import CubeConfig, MachineSpec
from repro.core import cube as cube_mod
from repro.core.cube import build_data_cube
from repro.mpi.comm import Comm
from tests.conftest import make_relation


@pytest.fixture
def step1(monkeypatch):
    """What Procedure 1 step 1 charged and did, as a function
    ``(rank, i) -> (rows read, rows charged as sorted, rows the host
    handed its sort)``.  Thread backend only."""
    marks = {}  # (rank, phase) -> (rows_read, rows_sorted) on entering it
    phase_of = {}  # id(disk) -> (rank, phase)
    host_sorted = Counter()
    set_phase = Comm.set_phase
    external_sort = cube_mod.external_sort

    def tracking_set_phase(self, phase):
        marks[self.rank, phase] = (
            self.disk.stats.rows_read, self.disk.work.rows_sorted
        )
        phase_of[id(self.disk)] = (self.rank, phase)
        return set_phase(self, phase)

    def spy(keys, measure, disk, *args, **kw):
        host_sorted[phase_of[id(disk)]] += len(keys)
        return external_sort(keys, measure, disk, *args, **kw)

    monkeypatch.setattr(Comm, "set_phase", tracking_set_phase)
    monkeypatch.setattr(cube_mod, "external_sort", spy)

    def deltas(rank, i):
        before = marks[rank, f"partition-sort[{i}]"]
        after = marks[rank, f"compute[{i}]"]
        return (
            after[0] - before[0],
            after[1] - before[1],
            host_sorted[rank, f"partition-sort[{i}]"],
        )

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
        the rows step 1a reads fall from iteration to iteration."""
        cards = (32, 16, 12, 8, 6)
        rel = make_relation(20_000, cards, seed=6,
                            alphas=(1.5, 1.0, 0.5, 0.5, 0.5))
        build_data_cube(rel, cards, MachineSpec(p=4))
        for rank in range(4):
            read = [step1(rank, i)[0] for i in range(len(cards))]
            assert read[0] == 5_000  # the raw chunk
            assert read == sorted(read, reverse=True) and 0 < read[-1]
            # four raw re-reads would be 20,000 rows
            assert sum(read[1:]) < 1.5 * read[0]

    def test_one_sort_per_iteration_of_the_rows_read(self, step1, merge_calls):
        """Model equals physical for step 1: every rank reads its piece of
        the previous merged root view (the raw chunk in iteration 0),
        hands exactly those rows to one host sort, and is charged one
        comparison sort of exactly those rows; 1b and 1c sort nothing."""
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
                assert step1(rank, i) == (source, source, source), (rank, i)

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
