"""Tests for incremental cube maintenance (refresh_cube)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_cube
from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube, build_partial_cube
from repro.core.viewdata import global_run
from repro.mpi.faults import FaultPlan
from repro.olap.refresh import refresh_cube
from repro.storage.table import Relation
from tests.conftest import make_relation

CARDS = (10, 6, 4)


def split(rel, n_first):
    return rel.slice(0, n_first), rel.slice(n_first, rel.nrows)


class TestRefresh:
    def test_equals_full_rebuild(self):
        rel = make_relation(3000, CARDS, seed=40)
        first, extra = split(rel, 2000)
        spec = MachineSpec(p=3)
        cube = build_data_cube(first, CARDS, spec)
        refreshed = refresh_cube(cube, extra, spec)
        want = reference_cube(rel, CARDS)
        for view, rel_want in want.items():
            assert refreshed.view_relation(view).same_content(rel_want), view

    def test_refreshed_cube_is_valid(self):
        rel = make_relation(2500, CARDS, seed=41)
        first, extra = split(rel, 1500)
        cube = build_data_cube(first, CARDS, MachineSpec(p=4))
        refreshed = refresh_cube(cube, extra)
        report = audit_cube(refreshed, relation=rel)
        assert report.ok, report.summary()

    def test_original_cube_untouched(self):
        rel = make_relation(2000, CARDS, seed=42)
        first, extra = split(rel, 1000)
        cube = build_data_cube(first, CARDS, MachineSpec(p=2))
        before = cube.total_rows()
        refresh_cube(cube, extra)
        assert cube.total_rows() == before

    def test_chained_refreshes(self):
        rel = make_relation(3000, CARDS, seed=43)
        a, rest = split(rel, 1000)
        b, c = split(rest, 1000)
        cube = build_data_cube(a, CARDS, MachineSpec(p=3))
        cube = refresh_cube(cube, b)
        cube = refresh_cube(cube, c)
        want = reference_cube(rel, CARDS)
        for view, rel_want in want.items():
            assert cube.view_relation(view).same_content(rel_want), view

    def test_empty_delta(self):
        rel = make_relation(1200, CARDS, seed=44)
        cube = build_data_cube(rel, CARDS, MachineSpec(p=2))
        refreshed = refresh_cube(cube, Relation.empty(len(CARDS)))
        for view in cube.views:
            assert refreshed.view_relation(view).same_content(
                cube.view_relation(view)
            )

    @pytest.mark.parametrize("agg", ["count", "min", "max"])
    def test_other_aggregates(self, agg):
        rel = make_relation(2000, CARDS, seed=45)
        first, extra = split(rel, 1200)
        cube = build_data_cube(
            first, CARDS, MachineSpec(p=3), CubeConfig(agg=agg)
        )
        refreshed = refresh_cube(cube, extra, config=CubeConfig(agg=agg))
        want = reference_cube(rel, CARDS, agg=agg)
        for view, rel_want in want.items():
            assert refreshed.view_relation(view).same_content(rel_want), (
                agg, view,
            )

    def test_agg_mismatch_rejected(self):
        rel = make_relation(500, CARDS, seed=46)
        cube = build_data_cube(rel, CARDS, MachineSpec(p=2))
        with pytest.raises(ValueError, match="aggregates"):
            refresh_cube(cube, rel, config=CubeConfig(agg="min"))

    def test_partial_cube_rejected(self):
        rel = make_relation(500, CARDS, seed=47)
        cube = build_partial_cube(rel, CARDS, [(0,)], MachineSpec(p=2))
        with pytest.raises(ValueError, match="full cube"):
            refresh_cube(cube, rel)

    def test_cheaper_than_rebuild_for_small_delta(self):
        # 100k rows over ~14k cube rows: a rebuild pays for sorting the raw
        # chunk once, a refresh only for the delta's plus one read and one
        # write of the cube's rows.
        rel = make_relation(100_000, (16, 12, 8, 6), seed=48)
        first, extra = split(rel, 95_000)
        spec = MachineSpec(p=4)
        cube = build_data_cube(first, (16, 12, 8, 6), spec)
        refreshed = refresh_cube(cube, extra, spec)
        rebuild = build_data_cube(rel, (16, 12, 8, 6), spec)
        # the 5% delta must not cost a full rebuild's partition phase
        assert (
            refreshed.metrics.simulated_seconds
            < rebuild.metrics.simulated_seconds
        )

    @settings(max_examples=8)
    @given(st.integers(0, 300), st.integers(0, 300), st.integers(2, 4))
    def test_property_equivalence(self, n1, n2, p):
        cards = (7, 5, 3)
        rel = make_relation(n1 + n2, cards, seed=n1 * 7 + n2)
        first, extra = split(rel, n1)
        cube = build_data_cube(first, cards, MachineSpec(p=p))
        refreshed = refresh_cube(cube, extra)
        want = reference_cube(rel, cards)
        for view, rel_want in want.items():
            assert refreshed.view_relation(view).same_content(rel_want)


    def test_degraded_cube(self, tmp_path):
        # Losing rank 1 hands its pieces to rank 0 by position: every
        # view stays one run in rank order, as after a clean build.
        cards = (12, 8, 5, 3)
        rel = make_relation(4000, cards, seed=52)
        first, extra = split(rel, 3200)
        cube = build_data_cube(
            first,
            cards,
            MachineSpec(p=4),
            faults=FaultPlan.parse("kill@r1s40"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert len(cube.rank_views) == 3
        assert audit_cube(cube).ok
        for v in cube.views:
            global_run([rv[v] for rv in cube.rank_views])  # raises if not
        refreshed = refresh_cube(cube, extra)
        assert len(refreshed.rank_views) == 3
        assert audit_cube(refreshed).ok
        for view, rel_want in reference_cube(rel, cards).items():
            assert refreshed.view_relation(view).same_content(rel_want), view

    def test_local_schedule_tree_cube(self):
        rel = make_relation(2500, CARDS, seed=53)
        first, extra = split(rel, 2000)
        config = CubeConfig(global_schedule_tree=False)
        cube = build_data_cube(first, CARDS, MachineSpec(p=3), config)
        refreshed = refresh_cube(cube, extra, config=config)
        assert audit_cube(refreshed).ok
        for view, rel_want in reference_cube(rel, CARDS).items():
            assert refreshed.view_relation(view).same_content(rel_want), view


class TestRefreshContracts:
    def test_empty_delta_fast_path_skips_the_engine(self):
        # An empty delta must not build a delta cube or run a merge pass
        # (or any superstep at all): zero communication, zero simulated
        # time.
        rel = make_relation(1500, CARDS, seed=49)
        cube = build_data_cube(rel, CARDS, MachineSpec(p=3))
        refreshed = refresh_cube(cube, Relation.empty(len(CARDS)))
        assert refreshed.metrics.comm_bytes == 0
        assert refreshed.metrics.simulated_seconds == 0.0
        assert refreshed.metrics.output_rows == cube.total_rows()
        for view in cube.views:
            assert refreshed.view_relation(view).same_content(
                cube.view_relation(view)
            )

    def test_require_insert_maintainable(self):
        from repro.core.aggregate import (
            INSERT_MAINTAINABLE_AGGS,
            require_insert_maintainable,
        )

        for agg in INSERT_MAINTAINABLE_AGGS:
            assert require_insert_maintainable(agg) == agg
        with pytest.raises(ValueError, match="insert-maintainable"):
            require_insert_maintainable("avg")
        with pytest.raises(ValueError, match="median"):
            require_insert_maintainable("median")

    def test_refresh_cube_guards_the_aggregate(self):
        rel = make_relation(400, CARDS, seed=51)
        cube = build_data_cube(rel, CARDS, MachineSpec(p=2))
        object.__setattr__(cube, "agg", "avg")
        with pytest.raises(ValueError):
            refresh_cube(cube, rel.slice(0, 10))
