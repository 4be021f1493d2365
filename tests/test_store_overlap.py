"""Tests for cube persistence (CubeStore) and the overlap analysis."""

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.overlap import analyze_overlap
from repro.data.generator import generate_dataset, paper_preset
from repro.olap import CubeStore, Query, QueryEngine
from tests.conftest import make_relation

CARDS = (10, 6, 4)


@pytest.fixture(scope="module")
def cube():
    rel = make_relation(3000, CARDS, seed=5)
    return build_data_cube(rel, CARDS, MachineSpec(p=3))


class TestCubeStore:
    def test_roundtrip_content(self, cube, tmp_path):
        path = CubeStore.save(cube, str(tmp_path / "cube"))
        back = CubeStore.load(path)
        assert back.views == cube.views
        assert back.cardinalities == cube.cardinalities
        for view in cube.views:
            assert back.view_relation(view).same_content(
                cube.view_relation(view)
            ), view

    def test_roundtrip_preserves_distribution(self, cube, tmp_path):
        path = CubeStore.save(cube, str(tmp_path / "cube"))
        back = CubeStore.load(path)
        for view in cube.views:
            assert np.array_equal(
                back.distribution(view), cube.distribution(view)
            )

    def test_roundtrip_preserves_orders(self, cube, tmp_path):
        path = CubeStore.save(cube, str(tmp_path / "cube"))
        back = CubeStore.load(path)
        for rank in range(3):
            for view in cube.views:
                assert (
                    back.rank_views[rank][view].order
                    == cube.rank_views[rank][view].order
                )

    def test_aggregate_preserved(self, tmp_path):
        rel = make_relation(1000, CARDS, seed=1)
        cube = build_data_cube(
            rel, CARDS, MachineSpec(p=2), CubeConfig(agg="min")
        )
        back = CubeStore.load(CubeStore.save(cube, str(tmp_path / "c")))
        assert back.agg == "min"

    def test_query_from_store(self, cube, tmp_path):
        back = CubeStore.load(CubeStore.save(cube, str(tmp_path / "c")))
        q = Query(group_by=(1,), filters={0: (0, 4)})
        assert QueryEngine(back).answer(q).same_content(
            QueryEngine(cube).answer(q)
        )
        par, secs = QueryEngine(back).answer_parallel(q)
        assert par.same_content(QueryEngine(cube).answer(q))

    def test_exists(self, cube, tmp_path):
        target = str(tmp_path / "c")
        assert not CubeStore.exists(target)
        CubeStore.save(cube, target)
        assert CubeStore.exists(target)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CubeStore.load(str(tmp_path))

    def test_bad_format_rejected(self, cube, tmp_path):
        import json
        import os

        path = CubeStore.save(cube, str(tmp_path / "c"))
        manifest = os.path.join(path, "manifest.json")
        with open(manifest) as fh:
            data = json.load(fh)
        data["format"] = 99
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(ValueError, match="format"):
            CubeStore.load(path)


class TestOverlapAnalysis:
    def test_report_consistency(self):
        rel = make_relation(8000, (16, 10, 6, 4), seed=2)
        cube = build_data_cube(rel, (16, 10, 6, 4), MachineSpec(p=8))
        report = analyze_overlap(cube)
        assert report.measured_seconds == pytest.approx(
            cube.metrics.simulated_seconds
        )
        assert 0 <= report.maskable_seconds <= report.merge_comm_seconds + 1e-9
        assert report.overlapped_seconds <= report.measured_seconds
        assert report.speedup_gain() >= 1.0
        assert 0.0 <= report.masked_fraction <= 1.0

    def test_last_partition_cannot_be_masked(self):
        rel = make_relation(4000, (8, 5, 3), seed=2)
        cube = build_data_cube(rel, (8, 5, 3), MachineSpec(p=4))
        report = analyze_overlap(cube)
        last = max(i for i, _, _, _ in report.per_partition)
        _, merge_comm, next_compute, masked = next(
            row for row in report.per_partition if row[0] == last
        )
        assert next_compute == 0.0  # nothing follows the last partition
        assert masked == 0.0

    def test_substantial_masking_in_paper_regime(self):
        """The paper estimates 40-60% of communication is maskable; on its
        own P8 uniform input at the benches' stand-in scale the analysis
        should find a substantial fraction too."""
        spec = paper_preset(25_000)
        data = generate_dataset(spec)
        cube = build_data_cube(data, spec.cardinalities, MachineSpec(p=16))
        report = analyze_overlap(cube)
        assert report.masked_fraction > 0.25

    def test_describe(self):
        rel = make_relation(2000, (8, 5, 3), seed=2)
        cube = build_data_cube(rel, (8, 5, 3), MachineSpec(p=2))
        text = analyze_overlap(cube).describe()
        assert "overlap analysis" in text and "maskable" in text
