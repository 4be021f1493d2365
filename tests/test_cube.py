"""Tests for the Procedure 1 driver (build_data_cube / build_partial_cube)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_cube
from repro.config import CubeConfig, MachineSpec
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube, build_partial_cube, split_even
from repro.core.views import all_views
from repro.storage.table import Relation
from tests.conftest import make_relation

CARDS = (12, 8, 5, 3)


@pytest.fixture(scope="module")
def dataset():
    return make_relation(4000, CARDS, seed=21)


@pytest.fixture(scope="module")
def oracle(dataset):
    return reference_cube(dataset, CARDS)


class TestSplitEven:
    def test_even_division(self):
        rel = make_relation(100, (4,))
        chunks = split_even(rel, 4)
        assert [c.nrows for c in chunks] == [25, 25, 25, 25]

    def test_remainder_spread_low_ranks(self):
        rel = make_relation(10, (4,))
        chunks = split_even(rel, 3)
        assert [c.nrows for c in chunks] == [4, 3, 3]

    def test_more_ranks_than_rows(self):
        rel = make_relation(2, (4,))
        chunks = split_even(rel, 5)
        assert [c.nrows for c in chunks] == [1, 1, 0, 0, 0]

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            split_even(make_relation(2, (4,)), 0)


class TestFullCube:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_reference(self, dataset, oracle, p):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=p))
        assert cube.view_count == 2 ** len(CARDS)
        for view, want in oracle.items():
            assert cube.view_relation(view).same_content(want), view

    def test_every_view_globally_sorted_within_ranks(self, dataset):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=4))
        for rank_views in cube.rank_views:
            for data in rank_views.values():
                assert data.is_sorted()

    def test_keys_unique_per_view(self, dataset):
        """Full aggregation: no group-by key may appear twice anywhere."""
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=4))
        for view in cube.views:
            keys = np.concatenate(
                [rv[view].keys for rv in cube.rank_views]
            )
            assert np.unique(keys).size == keys.size, view

    def test_total_rows_matches_reference(self, dataset, oracle):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=3))
        want = sum(rel.nrows for rel in oracle.values())
        assert cube.total_rows() == want
        assert cube.metrics.output_rows == want

    def test_distribution_reasonably_balanced(self, dataset):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=4))
        top = tuple(range(len(CARDS)))
        dist = cube.distribution(top)
        assert dist.sum() == cube.view_rows(top)
        assert dist.max() <= dist.mean() * 1.5

    def test_metrics_populated(self, dataset):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=4))
        m = cube.metrics
        assert m.simulated_seconds > 0
        assert m.comm_bytes > 0
        assert m.disk_blocks == m.disk_blocks_read + m.disk_blocks_written
        assert 0 < m.disk_blocks_read < m.disk_blocks_written
        assert m.view_count == 16
        assert any("merge" in k for k in m.phase_seconds)

    def test_describe(self, dataset):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=2))
        text = cube.describe()
        assert "16 views" in text and "p=2" in text

    def test_schedule_trees_returned(self, dataset):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=2))
        assert len(cube.schedule_trees) == len(CARDS)  # one per partition
        for tree in cube.schedule_trees:
            tree.validate()

    def test_merge_reports_cover_views(self, dataset):
        cube = build_data_cube(dataset, CARDS, MachineSpec(p=4))
        reported = set()
        for report in cube.merge_reports:
            reported.update(report.cases)
        assert reported == set(cube.views)

    @pytest.mark.parametrize("agg", ["sum", "count", "min", "max"])
    def test_aggregates(self, dataset, agg):
        cube = build_data_cube(
            dataset, CARDS, MachineSpec(p=3), CubeConfig(agg=agg)
        )
        want = reference_cube(dataset, CARDS, agg=agg)
        for view, rel in want.items():
            assert cube.view_relation(view).same_content(rel), (agg, view)

    def test_single_row_input(self):
        rel = make_relation(1, CARDS)
        cube = build_data_cube(rel, CARDS, MachineSpec(p=3))
        assert cube.total_rows() == 16  # one row per view

    def test_empty_input(self):
        rel = Relation.empty(len(CARDS))
        cube = build_data_cube(rel, CARDS, MachineSpec(p=3))
        assert cube.total_rows() == 0

    def test_one_dimension(self):
        rel = make_relation(200, (7,))
        cube = build_data_cube(rel, (7,), MachineSpec(p=2))
        want = reference_cube(rel, (7,))
        for view, w in want.items():
            assert cube.view_relation(view).same_content(w)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("p", [2, 4])
    def test_skewed_data(self, p, backend):
        cards = (16, 8, 4)
        rel = make_relation(3000, cards, seed=3, alphas=(3.0, 1.0, 0.0))
        cube = build_data_cube(rel, cards, MachineSpec(p=p, backend=backend))
        # skew must drive at least one view through the case-3 sample-merge
        assert sum(r.count("case3") for r in cube.merge_reports) >= 1
        want = reference_cube(rel, cards)
        for view, w in want.items():
            assert cube.view_relation(view).same_content(w), view
        assert audit_cube(cube, relation=rel).ok

    def test_gamma_affects_merge_cases(self, dataset):
        tight = build_data_cube(
            dataset, CARDS, MachineSpec(p=4),
            CubeConfig(gamma_merge=0.0005),
        )
        loose = build_data_cube(
            dataset, CARDS, MachineSpec(p=4),
            CubeConfig(gamma_merge=0.9),
        )
        tight3 = sum(r.count("case3") for r in tight.merge_reports)
        loose3 = sum(r.count("case3") for r in loose.merge_reports)
        assert tight3 > loose3

    def test_estimate_methods_all_work(self, dataset, oracle):
        for method in ("sample", "fm", "analytic", "exact"):
            cube = build_data_cube(
                dataset, CARDS, MachineSpec(p=2), estimate_method=method
            )
            top = tuple(range(len(CARDS)))
            assert cube.view_relation(top).same_content(oracle[top])


class TestValidation:
    def test_rejects_wrong_card_count(self, dataset):
        with pytest.raises(ValueError, match="cardinalities"):
            build_data_cube(dataset, (12, 8, 5), MachineSpec(p=2))

    def test_rejects_increasing_cards(self, dataset):
        with pytest.raises(ValueError, match="non-increasing"):
            build_data_cube(dataset, (3, 5, 8, 12), MachineSpec(p=2))

    def test_rejects_out_of_range_codes(self):
        rel = Relation(np.array([[5]], dtype=np.int64), np.ones(1))
        with pytest.raises(ValueError, match="dimension codes"):
            build_data_cube(rel, (4,), MachineSpec(p=1))

    def test_rejects_zero_cardinality(self, dataset):
        with pytest.raises(ValueError):
            build_data_cube(dataset, (12, 8, 5, 0), MachineSpec(p=2))

    def test_rejects_empty_selection(self, dataset):
        with pytest.raises(ValueError, match="selected"):
            build_data_cube(dataset, CARDS, MachineSpec(p=2), selected=[])

    def test_rejects_out_of_range_selected_view(self, dataset):
        with pytest.raises(ValueError, match="out of range"):
            build_data_cube(
                dataset, CARDS, MachineSpec(p=2), selected=[(9,)]
            )


class TestPartialCube:
    def test_only_selected_materialised(self, dataset, oracle):
        selected = [(0, 1), (2,), (1, 3), ()]
        cube = build_partial_cube(
            dataset, CARDS, selected, MachineSpec(p=4)
        )
        assert set(cube.views) == set(selected)
        for view in selected:
            assert cube.view_relation(view).same_content(oracle[view])

    def test_duplicate_selection_deduped(self, dataset):
        cube = build_partial_cube(
            dataset, CARDS, [(0,), (0,), (1, 0)], MachineSpec(p=2)
        )
        assert set(cube.views) == {(0,), (0, 1)}

    def test_selection_with_root(self, dataset, oracle):
        top = tuple(range(len(CARDS)))
        cube = build_partial_cube(
            dataset, CARDS, [top, (0,)], MachineSpec(p=2)
        )
        assert cube.view_relation(top).same_content(oracle[top])

    @settings(max_examples=8)
    @given(st.data())
    def test_random_selections(self, dataset, oracle, data):
        pool = all_views(len(CARDS))
        selected = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=8)
        )
        cube = build_partial_cube(
            dataset, CARDS, selected, MachineSpec(p=3)
        )
        for view in cube.views:
            assert cube.view_relation(view).same_content(oracle[view])


class TestHypothesisFullCube:
    @settings(max_examples=10)
    @given(
        n=st.integers(0, 600),
        p=st.integers(1, 6),
        seed=st.integers(0, 5),
    )
    def test_random_inputs_match_reference(self, n, p, seed):
        cards = (9, 6, 4)
        rel = make_relation(n, cards, seed=seed)
        cube = build_data_cube(rel, cards, MachineSpec(p=p))
        want = reference_cube(rel, cards)
        for view, w in want.items():
            assert cube.view_relation(view).same_content(w), (n, p, view)
