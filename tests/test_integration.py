"""End-to-end integration tests: determinism, metering consistency,
distribution contracts, and cross-layer flows."""

import numpy as np
import pytest

from repro.baselines.reference import reference_cube
from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.overlap import analyze_overlap
from repro.core.sample_sort import relative_imbalance
from repro.data.generator import generate_dataset, paper_preset
from repro.olap import CubeStore, Query, QueryEngine
from tests.conftest import make_relation


@pytest.fixture(scope="module")
def p8_small():
    spec = paper_preset(6000, seed=4)
    return generate_dataset(spec), spec.cardinalities


class TestPaperPresetEndToEnd:
    def test_full_d8_cube_correct(self, p8_small):
        """The paper's own parameter vector, all 256 views, vs oracle."""
        data, cards = p8_small
        cube = build_data_cube(data, cards, MachineSpec(p=8))
        assert cube.view_count == 256
        ref = reference_cube(data, cards)
        # validate a representative sample of views of every size
        probes = [
            (), (7,), (0,), (0, 1), (3, 6), (0, 1, 2), (2, 5, 7),
            (0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), tuple(range(8)),
            (1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7)[:7],
        ]
        for view in probes:
            assert cube.view_relation(view).same_content(ref[view]), view

    def test_output_row_accounting(self, p8_small):
        data, cards = p8_small
        cube = build_data_cube(data, cards, MachineSpec(p=4))
        assert cube.metrics.output_rows == cube.total_rows()
        assert cube.metrics.view_count == 256


class TestDeterminism:
    """Every metered and clocked quantity is bit-identical across runs."""

    def test_modelled_meters_deterministic(self):
        rel = make_relation(4000, (12, 8, 5), seed=6)
        runs = [
            build_data_cube(rel, (12, 8, 5), MachineSpec(p=4))
            for _ in range(2)
        ]
        a, b = runs[0].metrics, runs[1].metrics
        assert a.comm_bytes == b.comm_bytes
        assert a.disk_blocks == b.disk_blocks
        assert a.output_rows == b.output_rows
        assert a.simulated_seconds == b.simulated_seconds
        assert a.phase_seconds == b.phase_seconds
        assert a.superstep_log == b.superstep_log
        for view in runs[0].views:
            assert np.array_equal(
                runs[0].distribution(view), runs[1].distribution(view)
            )

    def test_merge_cases_deterministic(self):
        rel = make_relation(4000, (12, 8, 5), seed=6)
        runs = [
            build_data_cube(rel, (12, 8, 5), MachineSpec(p=4))
            for _ in range(2)
        ]
        cases_a = [r.cases for r in runs[0].merge_reports]
        cases_b = [r.cases for r in runs[1].merge_reports]
        assert cases_a == cases_b


class TestBalanceContract:
    def test_case3_views_balanced_within_gamma(self):
        """Stored rows of every re-sorted view obey the γ bound (plus the
        integer granularity of one row per rank)."""
        rel = make_relation(8000, (16, 10, 6, 4), seed=7,
                            alphas=(1.5, 0.5, 0.0, 0.0))
        gamma = 0.03
        cube = build_data_cube(
            rel, (16, 10, 6, 4), MachineSpec(p=8),
            CubeConfig(gamma_merge=gamma),
        )
        for report in cube.merge_reports:
            for view, case in report.cases.items():
                if case != "case3":
                    continue
                dist = cube.distribution(view)
                if dist.sum() < 100:
                    continue  # integer granularity dominates tiny views
                assert relative_imbalance(dist) <= gamma + 8 / dist.mean(), (
                    view, dist.tolist()
                )

    def test_root_views_balanced(self):
        rel = make_relation(8000, (16, 10, 6), seed=3)
        cube = build_data_cube(rel, (16, 10, 6), MachineSpec(p=8))
        top = (0, 1, 2)
        dist = cube.distribution(top)
        assert relative_imbalance(dist) < 0.1


class TestCrossLayerFlow:
    def test_build_store_query_overlap(self, tmp_path, p8_small):
        """The full product loop in one test."""
        data, cards = p8_small
        cube = build_data_cube(data, cards, MachineSpec(p=4))
        path = CubeStore.save(cube, str(tmp_path / "cube"))
        warehouse = CubeStore.load(path)
        engine = QueryEngine(warehouse)
        q = Query(group_by=(1, 5), filters={0: (0, 100)})
        gathered = engine.answer(q)
        parallel, latency = engine.answer_parallel(q)
        assert gathered.same_content(parallel)
        assert latency > 0
        report = analyze_overlap(cube)
        assert report.measured_seconds > 0

    def test_partial_cube_query_flow(self, p8_small):
        data, cards = p8_small
        from repro.core.cube import build_partial_cube

        selected = [(0,), (0, 1), (5,), (5, 6), ()]
        cube = build_partial_cube(data, cards, selected, MachineSpec(p=4))
        engine = QueryEngine(cube)
        # answerable from the selection
        assert engine.answer(Query(group_by=(0,))).nrows > 0
        assert engine.answer(Query(group_by=(5,), filters={6: (0, 2)})).nrows > 0
        # not answerable
        with pytest.raises(LookupError):
            engine.answer(Query(group_by=(3,)))


class TestPhaseAccounting:
    def test_phases_cover_sim_time(self):
        rel = make_relation(4000, (12, 8, 5), seed=6)
        cube = build_data_cube(rel, (12, 8, 5), MachineSpec(p=4))
        total = sum(cube.metrics.phase_seconds.values())
        assert total == pytest.approx(cube.metrics.simulated_seconds, rel=0.02)

    def test_comm_breakdown_bounded_by_total(self):
        rel = make_relation(4000, (12, 8, 5), seed=6)
        cube = build_data_cube(rel, (12, 8, 5), MachineSpec(p=4))
        for phase, comm in cube.metrics.phase_comm_seconds.items():
            assert comm <= cube.metrics.phase_seconds.get(phase, 0) + 1e-9

    def test_expected_phases_present(self):
        rel = make_relation(3000, (10, 6, 4), seed=2)
        cube = build_data_cube(rel, (10, 6, 4), MachineSpec(p=3))
        kinds = {k.split("[")[0] for k in cube.metrics.phase_seconds}
        assert {"partition-sort", "compute", "merge"} <= kinds
