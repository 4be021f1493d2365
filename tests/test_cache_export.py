"""Tests for the series export."""

import csv
import json

import pytest

from repro.bench.export import series_to_csv, series_to_json
from repro.bench.harness import Series, SeriesPoint


def demo_series():
    s = Series(label="curve", x_name="p")
    s.points.append(SeriesPoint(x=1, seconds=2.0, speedup=1.0, comm_mb=0.0))
    s.points.append(
        SeriesPoint(x=4, seconds=0.5, speedup=4.0, comm_mb=1.5,
                    extra={"note": 1})
    )
    return [s]


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        path = series_to_csv(str(tmp_path / "s.csv"), demo_series())
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["series"] == "curve"
        assert float(rows[1]["speedup"]) == pytest.approx(4.0)

    def test_json_roundtrip(self, tmp_path):
        path = series_to_json(str(tmp_path / "s.json"), "title", demo_series())
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["title"] == "title"
        assert payload["series"][0]["points"][1]["comm_mb"] == 1.5
        assert payload["series"][0]["points"][1]["extra"] == {"note": 1}

    def test_none_fields_serialise(self, tmp_path):
        s = Series(label="n", x_name="x",
                   points=[SeriesPoint(x=0, seconds=1.0)])
        series_to_csv(str(tmp_path / "n.csv"), [s])
        series_to_json(str(tmp_path / "n.json"), "t", [s])
