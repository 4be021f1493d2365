"""Validating a cube with :func:`repro.core.audit.audit_cube`: every
broken invariant gives a failed check, never an exception."""

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube
from repro.core.viewdata import ViewData
from tests.conftest import make_relation

CARDS = (10, 6, 4)


@pytest.fixture()
def cube():
    rel = make_relation(2500, CARDS, seed=15)
    return build_data_cube(rel, CARDS, MachineSpec(p=3))


def failed(report, check):
    """The detail of the named failed check (asserting that it failed)."""
    assert not report.ok
    details = [c.detail for c in report.checks if c.name == check and not c.ok]
    assert details, report.summary()
    return details[0]


class TestValidateCube:
    def test_fresh_cube_valid(self, cube):
        report = audit_cube(cube)
        assert report.ok, report.summary()
        assert "piece-shape" in {c.name for c in report.checks}

    def test_detects_unsorted_piece(self, cube):
        data = cube.rank_views[0][(0,)]
        assert data.nrows >= 2
        cube.rank_views[0][(0,)] = ViewData(
            data.order, data.keys[::-1].copy(), data.measure[::-1].copy()
        )
        assert "not strictly increasing" in failed(audit_cube(cube), "rank-run")

    def test_detects_duplicate_keys_across_ranks(self, cube):
        a = cube.rank_views[0][(0, 1)]
        b = cube.rank_views[1][(0, 1)]
        assert a.nrows and b.nrows
        cube.rank_views[1][(0, 1)] = ViewData(
            b.order,
            np.concatenate(([a.keys[0]], b.keys)),
            np.concatenate(([1.0], b.measure)),
        )
        assert "not strictly increasing" in failed(audit_cube(cube), "rank-run")

    def test_detects_total_mismatch(self, cube):
        data = cube.rank_views[0][(1,)]
        assert data.nrows
        cube.rank_views[0][(1,)] = ViewData(
            data.order, data.keys, data.measure + 100.0
        )
        assert "expected" in failed(audit_cube(cube), "view-totals")

    def test_detects_out_of_space_keys(self, cube):
        data = cube.rank_views[2][(2,)]
        cube.rank_views[2][(2,)] = ViewData(
            data.order,
            np.append(data.keys, np.int64(10**6)),
            np.append(data.measure, 0.0),
        )
        assert "key space" in failed(audit_cube(cube), "piece-shape")

    @pytest.mark.parametrize("rank", [0, 2])
    def test_detects_missing_piece(self, cube, rank):
        cube.rank_views[rank].pop((0,))
        detail = failed(audit_cube(cube), "piece-shape")
        assert f"missing on rank {rank}" in detail

    def test_detects_order_that_misses_the_view(self, cube):
        data = cube.rank_views[1][(0, 2)]
        cube.rank_views[1][(0, 2)] = ViewData((0, 1), data.keys, data.measure)
        assert "does not cover" in failed(audit_cube(cube), "piece-shape")

    def test_describe_formats(self, cube):
        assert audit_cube(cube).summary().startswith("audit: OK")
        cube.rank_views[1].pop((0,))
        assert "FAILED (piece-shape" in audit_cube(cube).summary()

    def test_non_sum_cubes_skip_total_check(self):
        rel = make_relation(1500, CARDS, seed=2)
        cube = build_data_cube(
            rel, CARDS, MachineSpec(p=2), CubeConfig(agg="min")
        )
        report = audit_cube(cube)
        assert report.ok
        totals = next(c for c in report.checks if c.name == "view-totals")
        assert totals.detail.startswith("skipped")
