"""Tests for the command-line interface (python -m repro)."""

import re

import pytest

from repro.__main__ import _parse_filter, _parse_view, main


class TestParsers:
    def test_parse_view(self):
        assert _parse_view("0,2,5") == (0, 2, 5)
        assert _parse_view("") == ()
        assert _parse_view("all") == ()
        assert _parse_view("ALL") == ()
        assert _parse_view("3") == (3,)

    def test_parse_filter_range(self):
        assert _parse_filter("2=0:5") == (2, (0, 5))

    def test_parse_filter_scalar(self):
        assert _parse_filter("1=7") == (1, (7, 7))

    def test_parse_filter_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_filter("garbage")


class TestCommands:
    @pytest.fixture(scope="class")
    def cube_dir(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "cube")
        rc = main(
            [
                "build", "--rows", "1500", "--p", "3", "--mix", "C",
                "--out", path, "--seed", "5",
            ]
        )
        assert rc == 0
        return path

    def test_build_without_store(self, capsys):
        assert main(["build", "--rows", "800", "--p", "2", "--mix", "C"]) == 0
        out = capsys.readouterr().out
        assert "256 views" in out

    def test_info(self, cube_dir, capsys):
        assert main(["info", cube_dir]) == 0
        out = capsys.readouterr().out
        assert "256 views" in out and "p=3" in out

    def test_info_views(self, cube_dir, capsys):
        assert main(["info", cube_dir, "--views"]) == 0
        out = capsys.readouterr().out
        assert "ALL" in out

    def test_query(self, cube_dir, capsys):
        assert main(["query", cube_dir, "--group-by", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "GROUP BY AB" in out

    def test_query_filtered_parallel(self, cube_dir, capsys):
        rc = main(
            [
                "query", cube_dir, "--group-by", "2",
                "--filter", "0=0:3", "--parallel", "--limit", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallel latency" in out

    def test_query_all(self, cube_dir, capsys):
        assert main(["query", cube_dir, "--group-by", "all"]) == 0
        out = capsys.readouterr().out
        assert "GROUP BY ALL" in out

    def test_demo(self, capsys):
        assert main(["demo", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out

    def test_build_from_csv(self, tmp_path, capsys):
        facts = tmp_path / "facts.csv"
        facts.write_text(
            "region,store,rev\neast,s1,10\nwest,s2,5\neast,s2,2\n"
        )
        out = str(tmp_path / "cube")
        rc = main(
            ["build", "--from-csv", str(facts), "--dimensions",
             "region,store", "--measure", "rev", "--p", "2", "--out", out]
        )
        assert rc == 0
        assert main(["query", out, "--group-by", "all"]) == 0
        text = capsys.readouterr().out
        assert "17" in text  # 10 + 5 + 2

    def test_build_from_csv_requires_columns(self, tmp_path):
        facts = tmp_path / "facts.csv"
        facts.write_text("a,m\n1,2\n")
        assert main(["build", "--from-csv", str(facts)]) == 2

    def test_count_aggregate_build(self, tmp_path, capsys):
        path = str(tmp_path / "cnt")
        assert main(
            ["build", "--rows", "500", "--p", "2", "--mix", "C",
             "--agg", "count", "--out", path]
        ) == 0
        assert main(["query", path, "--group-by", "all"]) == 0
        out = capsys.readouterr().out
        # the grand total of a COUNT cube is the row count
        assert "500" in out

    def test_refresh(self, tmp_path, capsys):
        from repro.olap import CubeStore

        path = str(tmp_path / "cube")
        assert main(
            ["build", "--rows", "800", "--p", "2", "--mix", "C",
             "--out", path]
        ) == 0
        assert main(["refresh", path, "--rows", "50"]) == 0
        assert "generation 0 -> 1" in capsys.readouterr().out
        # The delta is built on one node: there is no width to set.
        with pytest.raises(SystemExit) as exc:
            main(["refresh", path, "--rows", "50", "--p", "4"])
        assert exc.value.code == 2
        assert CubeStore.current_generation(path) == 1

    def test_serve_bench_live_refresh(self, tmp_path, capsys):
        # A store of its own: the refreshes advance its generation.
        path = str(tmp_path / "cube")
        assert main(
            ["build", "--rows", "800", "--p", "2", "--dims", "4",
             "--out", path]
        ) == 0
        assert main(
            ["serve-bench", "--store", path, "--workers", "1",
             "--qps", "20", "--duration", "1", "--refresh-every", "8",
             "--delta-rows", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "live refresh: 2 delta batches x 50 rows" in out
        assert "  availability " in out
        assert "probe fresh: True" in out

    def test_serve_bench_counts_batches_it_never_started(
        self, tmp_path, capsys
    ):
        # A batch waits while the previous refresh runs; the ones still
        # waiting when the submissions run out are reported, not dropped.
        path = str(tmp_path / "cube")
        assert main(["build", "--rows", "3000", "--p", "2", "--out", path]) == 0
        assert main(
            ["serve-bench", "--store", path, "--qps", "100", "--duration",
             "1", "--refresh-every", "10", "--delta-rows", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "live refresh: 10 delta batches x 2,000 rows" in out
        found = re.search(
            r"applied (\d+) of (\d+) delta batches "
            r"\((\d+) never started, (\d+) failed\)",
            out,
        )
        assert found is not None, out
        refreshes, batches, skipped, failed = map(int, found.groups())
        assert (batches, failed) == (10, 0)
        assert refreshes + skipped == batches

    @pytest.mark.parametrize("command", ["build", "serve-bench"])
    def test_heartbeat_flag_is_gone(self, command):
        # Liveness needs no polling interval: a worker's death is seen
        # through its process sentinel, so neither command takes one.
        with pytest.raises(SystemExit) as exc:
            main([command, "--heartbeat", "0.1"])
        assert exc.value.code == 2

    def test_serve_bench_faults(self, cube_dir, capsys):
        assert main(
            ["serve-bench", "--store", cube_dir, "--workers", "1",
             "--qps", "40", "--duration", "0.25", "--faults", "kill@w0q3g0"]
        ) == 0
        out = capsys.readouterr().out
        assert "injecting serve faults: kill@w0q3g0" in out
        assert "survived 1 worker deaths" in out
        # One flag name for both runtimes: the old serving-only one is gone.
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", "--serve-faults", "kill@w0q3"])
        assert exc.value.code == 2
