"""Smoke test of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs at a tiny fixed scale, untraced and traced, and must
emit every metric ``BENCHMARK.json`` names, finite, with the declared
unit, and fail no operation.  A per-layer metric that applies to the
workload must have been measured; one the workload bypasses must be 0.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402 - needs the path set-up above
from workloads import APPLIES  # noqa: E402

CONTRACT = run.load_contract()

SCALE = 0.02
SECONDS = 2.0

#: Applicable metrics whose healthy value is, or at this scale may be, 0
#: (or below it: the tracing overhead of a two-second run is noise).
MAY_BE_ZERO = {
    "olap.retries", "olap.shed", "olap.timeouts", "olap.worker_restarts",
    "olap.cache_evictions", "olap.cache_hit_ratio", "olap.access_index_share",
    "olap.access_index_sort_share", "olap.access_scan_share",
    "core.merge_case1_views", "core.merge_case2_views",
    "core.merge_case3_views", "mpi.shm_reuse_ratio", "mpi.backend_overhead_s",
    "bench.trace_overhead", "bench.gen_late_p99_ms",
    "olap.refresh_files_linked",  # a uniform delta touches every view
}


def test_applies_covers_the_contract():
    assert set(APPLIES) == {m["name"] for m in CONTRACT["per_layer"]}
    assert set(run.ALSO_BOUNDED) <= set(APPLIES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_workload_emits_every_metric(workload, trace, tmp_path):
    outcome, tracer = run.run_workload(
        workload, seed=7, seconds=SECONDS, trace=trace,
        workdir=str(tmp_path), scale=SCALE,
    )
    assert outcome.tally.attempted >= 1
    assert outcome.tally.failed == 0, outcome.tally.reasons
    metrics = run.report_metrics(outcome, workload, trace, CONTRACT)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        name, got = m["name"], metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), name
        if not trace:
            assert got["value"] > 0, name
        elif workload not in APPLIES[name]:
            assert got["value"] == 0, name
        elif name not in MAY_BE_ZERO:
            assert got["value"] > 0, name
    if trace:
        assert tracer.spans, "a traced run records spans"
        value = {name: m["value"] for name, m in metrics.items()}
        if workload == "build_ckpt_crash":
            assert value["core.attempts"] == 2
        if workload == "serve_lookup":
            assert value["olap.executed_share"] == 1.0
