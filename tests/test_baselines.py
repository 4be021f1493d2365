"""Tests for the baselines: reference, sequential, naive, local-tree,
one-dimensional partitioning — plus the performance relations between them
that the paper's arguments rely on."""

import numpy as np
import pytest

from repro.baselines import (
    local_tree_cube,
    naive_sequential_cube,
    onedim_partition_cube,
    reference_cube,
    reference_view,
    sequential_cube,
)
from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.views import all_views
from repro.storage.table import Relation
from tests.conftest import make_relation

CARDS = (10, 7, 5, 3)


@pytest.fixture(scope="module")
def dataset():
    return make_relation(4000, CARDS, seed=8)


@pytest.fixture(scope="module")
def oracle(dataset):
    return reference_cube(dataset, CARDS)


class TestReference:
    def test_all_view_single_row(self, dataset):
        rel = reference_view(dataset, CARDS, ())
        assert rel.nrows == 1
        assert rel.measure[0] == pytest.approx(dataset.measure.sum())

    def test_top_view_distinct_rows(self, dataset):
        top = tuple(range(len(CARDS)))
        rel = reference_view(dataset, CARDS, top)
        assert rel.nrows == len(set(map(tuple, dataset.dims.tolist())))

    def test_empty_relation(self):
        rel = reference_view(Relation.empty(2), (4, 3), (0,))
        assert rel.nrows == 0

    def test_rejects_unknown_agg(self, dataset):
        with pytest.raises(ValueError):
            reference_view(dataset, CARDS, (0,), agg="p99")

    def test_subset_of_views(self, dataset):
        out = reference_cube(dataset, CARDS, views=[(0,), (1, 2)])
        assert set(out) == {(0,), (1, 2)}


class TestSequential:
    def test_matches_reference(self, dataset, oracle):
        cube = sequential_cube(dataset, CARDS)
        assert cube.view_count == 16
        for view, want in oracle.items():
            assert cube.view_relation(view).same_content(want), view

    def test_partial_sequential(self, dataset, oracle):
        cube = sequential_cube(dataset, CARDS, selected=[(0, 2), ()])
        assert set(cube.views) == {(0, 2), ()}
        for view in cube.views:
            assert cube.view_relation(view).same_content(oracle[view])

    def test_no_communication(self, dataset):
        cube = sequential_cube(dataset, CARDS)
        assert cube.metrics.comm_bytes == 0

    def test_a_resident_build_reads_the_raw_input_alone(self, dataset):
        """Everything fits the default budget, so no Pipesort parent is
        read back: the reads are the raw relation's blocks."""
        spec = MachineSpec()
        m = sequential_cube(dataset, CARDS, spec).metrics
        assert m.disk_blocks_read == -(-dataset.nrows // spec.block_size)
        assert m.disk_blocks_read + m.disk_blocks_written == m.disk_blocks
        per_rank = -(-(dataset.nrows // 4) // spec.block_size)
        m = onedim_partition_cube(
            dataset, CARDS, spec.with_processors(4)
        ).metrics
        assert m.disk_blocks_read == pytest.approx(4 * per_rank, abs=4)
        assert m.disk_blocks_read + m.disk_blocks_written == m.disk_blocks

    def test_count_aggregate(self, dataset):
        cube = sequential_cube(
            dataset, CARDS, config=CubeConfig(agg="count")
        )
        want = reference_cube(dataset, CARDS, agg="count")
        for view, rel in want.items():
            assert cube.view_relation(view).same_content(rel)


class TestNaive:
    def test_matches_reference(self, dataset, oracle):
        cube = naive_sequential_cube(
            dataset, CARDS, selected=[(0,), (1, 2), ()]
        )
        for view in cube.views:
            assert cube.view_relation(view).same_content(oracle[view])

    def test_full_cube_by_default(self, dataset):
        cube = naive_sequential_cube(dataset, CARDS)
        assert cube.view_count == 16

    def test_slower_than_pipesort_for_full_cube(self, dataset):
        """The whole point of schedule trees: sharing beats re-sorting raw
        data 2^d times."""
        naive = naive_sequential_cube(dataset, CARDS)
        pipe = sequential_cube(dataset, CARDS)
        assert pipe.metrics.simulated_seconds < naive.metrics.simulated_seconds

    def test_competitive_for_tiny_selections(self, dataset):
        """Section 4.1: for a handful of views the naive method is in the
        same league (no partition machinery to amortise)."""
        selected = [(0,), (3,)]
        naive = naive_sequential_cube(dataset, CARDS, selected=selected)
        pipe = sequential_cube(dataset, CARDS, selected=selected)
        assert (
            naive.metrics.simulated_seconds
            < pipe.metrics.simulated_seconds * 3
        )


class TestLocalTree:
    def test_matches_reference(self, dataset, oracle):
        cube = local_tree_cube(dataset, CARDS, MachineSpec(p=4))
        for view, want in oracle.items():
            assert cube.view_relation(view).same_content(want), view

    def test_slower_than_global_tree(self):
        """Figure 7's conclusion: re-sorting views into a common order
        before the merge costs more than living with P0's tree.  Uses the
        paper's d=8 vector: deeper lattices produce many more
        non-canonical pipeline orders, so the re-sort penalty is far
        above measurement noise."""
        cards = (64, 32, 16, 12, 8, 6, 4, 3)
        rel = make_relation(15_000, cards, seed=8)
        spec = MachineSpec(p=8)
        local = local_tree_cube(rel, cards, spec)
        global_ = build_data_cube(rel, cards, spec)
        assert (
            global_.metrics.simulated_seconds
            < local.metrics.simulated_seconds
        )
        resort = sum(
            v for k, v in local.metrics.phase_seconds.items()
            if "resort" in k
        )
        assert resort > 0

    def test_resort_phase_present(self, dataset):
        cube = local_tree_cube(dataset, CARDS, MachineSpec(p=4))
        assert any("resort" in k for k in cube.metrics.phase_seconds)


class TestOneDim:
    def test_matches_reference(self, dataset, oracle):
        cube = onedim_partition_cube(dataset, CARDS, MachineSpec(p=4))
        for view, want in oracle.items():
            assert cube.view_relation(view).same_content(want), view

    def test_skewed_leading_dim_matches_reference(self):
        cards = (8, 6, 4)
        rel = make_relation(3000, cards, seed=4, alphas=(3.0, 0.0, 0.0))
        cube = onedim_partition_cube(rel, cards, MachineSpec(p=4))
        want = reference_cube(rel, cards)
        for view, w in want.items():
            assert cube.view_relation(view).same_content(w), view

    def test_skew_destroys_balance(self):
        """Section 2.2's argument: partitioning on D0 caps parallelism by
        |D0|'s value distribution."""
        cards = (8, 6, 4)
        rel = make_relation(4000, cards, seed=4, alphas=(3.0, 0.0, 0.0))
        cube = onedim_partition_cube(rel, cards, MachineSpec(p=4))
        top = (0, 1, 2)
        dist = cube.distribution(top).astype(float)
        # the heaviest rank holds the lion's share
        assert dist.max() / dist.sum() > 0.5

    def test_main_algorithm_balances_same_data(self):
        cards = (8, 6, 4)
        rel = make_relation(4000, cards, seed=4, alphas=(3.0, 0.0, 0.0))
        cube = build_data_cube(rel, cards, MachineSpec(p=4))
        top = (0, 1, 2)
        dist = cube.distribution(top).astype(float)
        assert dist.max() / dist.sum() < 0.5


class TestSpeedupRelations:
    def test_parallel_beats_sequential(self):
        # needs enough local computation to amortise latency (the paper
        # makes the same point about small problem sizes)
        cards = (16, 12, 8, 6, 4)
        rel = make_relation(60_000, cards, seed=2)
        seq = sequential_cube(rel, cards)
        par = build_data_cube(rel, cards, MachineSpec(p=8))
        speedup = seq.metrics.simulated_seconds / par.metrics.simulated_seconds
        assert speedup > 2.0

    def test_parallel_beats_sequential_on_the_modelled_clock(self):
        # the smallest input of the file still clears the bar (2.46) when
        # both sides are charged on one machine spec
        cards = (16, 12, 8, 6, 4)
        rel = make_relation(30_000, cards, seed=2)
        spec = MachineSpec(p=8)
        seq = sequential_cube(rel, cards, spec)
        par = build_data_cube(rel, cards, spec)
        speedup = seq.metrics.simulated_seconds / par.metrics.simulated_seconds
        assert speedup > 2.0

    @pytest.mark.parametrize("p", [1, 4])
    def test_partial_cube_charges_the_root_write_alike(
        self, dataset, charged, p
    ):
        """Pipesort writes only the children it makes, so the root costs a
        write of its own, on either side of a speedup, exactly when it
        is selected (Figure 6's partial cubes never select it)."""
        root = tuple(range(len(CARDS)))
        partial = [(0, 2), (1,), ()]

        def rows_written(build, selected):
            charged.clear()
            cube = build(selected)
            assert set(cube.views) == set(selected)
            return sum(n for (*_, way), n in charged.items() if way == "w")

        def seq(selected):
            return sequential_cube(dataset, CARDS, selected=selected)

        def par(selected):
            return build_data_cube(
                dataset, CARDS, MachineSpec(p=p), selected=selected
            )

        root_rows = reference_view(dataset, CARDS, root).nrows
        for build in (seq, par):
            extra = rows_written(build, partial + [root]) - rows_written(
                build, partial
            )
            assert extra == root_rows, build.__name__

    def test_speedup_grows_with_p(self):
        cards = (16, 12, 8, 6, 4)
        rel = make_relation(30_000, cards, seed=2)
        t2 = build_data_cube(rel, cards, MachineSpec(p=2)).metrics
        t8 = build_data_cube(rel, cards, MachineSpec(p=8)).metrics
        assert t8.simulated_seconds < t2.simulated_seconds
