"""Figure 11: the balance-threshold (gamma) tradeoff."""

import json
import pathlib

from conftest import record

from repro.bench.experiments import _p8, fig11_balance
from repro.bench.harness import dataset_for
from repro.bench.reporting import format_series_table
from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube

HETERO_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hetero.json"


def _emit_rank_spread(scale) -> None:
    """Append the per-rank finish-time spread of a gamma=3% build at the
    sweep's largest width to ``BENCH_hetero.json`` (read-modify-write, so
    the hetero bench's own gates are untouched)."""
    spec = _p8(scale.n_base)
    data = dataset_for(spec)
    p = max(scale.processors)
    metrics = build_data_cube(
        data,
        spec.cardinalities,
        MachineSpec(p=p),
        CubeConfig(),
    ).metrics
    busy = metrics.rank_busy_seconds
    spread = {
        "p": p,
        "n": spec.n,
        "rank_busy_seconds": [round(b, 6) for b in busy],
        "spread_max_minus_min": round(max(busy) - min(busy), 6),
        "spread_relative": round(
            (max(busy) - min(busy)) / (sum(busy) / len(busy)), 6
        )
        if any(busy)
        else 0.0,
    }
    report = (
        json.loads(HETERO_JSON.read_text()) if HETERO_JSON.exists() else {}
    )
    report["fig11_rank_spread"] = spread
    HETERO_JSON.write_text(json.dumps(report, indent=2) + "\n")


def test_fig11_balance(benchmark, scale, results_dir):
    title, series, notes = benchmark.pedantic(
        fig11_balance, args=(scale,), rounds=1, iterations=1
    )
    text = format_series_table(title, series) + f"\n  note: {notes}"
    record(results_dir, "fig11_balance", text)
    _emit_rank_spread(scale)

    max_p = max(scale.processors)
    finals = {
        s.label: next(pt for pt in s.points if pt.x == max_p).seconds
        for s in series
    }

    # The paper's conclusion: the threshold matters little — all three
    # curves sit close together (tighter balance costs a bit more).
    lo, hi = min(finals.values()), max(finals.values())
    assert hi / lo < 1.35, finals

    # And parallelism survives every setting.
    for s in series:
        assert next(pt for pt in s.points if pt.x == max_p).speedup > 1.0
