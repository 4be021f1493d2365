"""Tests for the benchmark harness plumbing (scale, series, tables)."""

import numpy as np
import pytest

from repro.bench.harness import (
    BenchScale,
    Series,
    SeriesPoint,
    dataset_for,
    scale_from_env,
    speedup_sweep,
)
from repro.bench.reporting import format_kv_block, format_series_table
from repro.data.generator import DatasetSpec
from tests.conftest import make_relation


class TestScale:
    def test_defaults(self):
        scale = BenchScale()
        assert scale.n_base == 25_000
        assert max(scale.processors) == 16
        assert scale.scale_factor == pytest.approx(0.025)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "4000")
        monkeypatch.setenv("REPRO_BENCH_MAXP", "4")
        scale = scale_from_env()
        assert scale.n_base == 4000
        assert scale.processors == (1, 2, 4)

    def test_maxp_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAXP", "0")
        assert scale_from_env().processors == (1,)


class TestDatasetCache:
    def test_same_spec_same_object(self):
        spec = DatasetSpec(100, (8, 4), (0.0, 0.0), seed=1)
        assert dataset_for(spec) is dataset_for(spec)

    def test_different_seed_different_data(self):
        a = dataset_for(DatasetSpec(100, (8, 4), (0.0, 0.0), seed=1))
        b = dataset_for(DatasetSpec(100, (8, 4), (0.0, 0.0), seed=2))
        assert not a.same_content(b)


class TestSpeedupSweep:
    def test_points_and_speedups(self):
        cards = (10, 6, 4)
        rel = make_relation(1200, cards, seed=60)
        series = speedup_sweep("t", rel, cards, processors=(1, 2))
        assert series.xs() == [1, 2]
        assert all(pt.speedup is not None for pt in series.points)
        assert all(pt.comm_mb is not None for pt in series.points)
        assert series.points[0].extra["views"] == 8

    def test_explicit_denominator(self):
        cards = (8, 4)
        rel = make_relation(400, cards, seed=61)
        series = speedup_sweep(
            "t", rel, cards, processors=(2,), sequential_seconds=100.0
        )
        pt = series.points[0]
        assert pt.speedup == pytest.approx(100.0 / pt.seconds)


class TestFormatting:
    def series(self):
        s = Series(label="a", x_name="p")
        s.points.append(SeriesPoint(x=1, seconds=2.5, speedup=1.0, comm_mb=0.1))
        s.points.append(SeriesPoint(x=2, seconds=1.25, speedup=2.0, comm_mb=0.2))
        return [s]

    def test_table_alignment_and_content(self):
        text = format_series_table("T", self.series(), show_comm=True)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a [s]" in lines[1] and "a [MB]" in lines[1]
        assert "2.50" in text and "1.25" in text

    def test_missing_points_dash(self):
        s1, = self.series()
        s2 = Series(label="b", x_name="p",
                    points=[SeriesPoint(x=1, seconds=9.0, speedup=0.5)])
        text = format_series_table("T", [s1, s2])
        assert "-" in text.splitlines()[-1]  # x=2 missing for b

    def test_empty(self):
        assert "(no data)" in format_series_table("T", [])

    def test_kv_block(self):
        text = format_kv_block("H", [("key", "val"), ("longer key", "x")])
        assert text.splitlines()[0] == "H"
        assert "key        : val" in text

    def test_series_accessors(self):
        s, = self.series()
        assert s.seconds() == [2.5, 1.25]
        assert s.speedups() == [1.0, 2.0]
