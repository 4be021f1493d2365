"""Host-side scaling of the process backend vs the thread backend.

The simulated clock is backend-independent (that is asserted here on
every point); what the process backend buys is *host* wall-clock — the
thread backend serialises rank compute on the GIL, the process backend
runs one worker process per rank.  This bench sweeps ``p`` over both
backends, writes a machine-readable ``BENCH_backend_scaling.json`` at
the repository root, and — only on hosts with at least 4 cores, where
the claim is physically possible — asserts the >=1.5x host-seconds
speedup at p >= 4.

The process backend relays collective payloads over the worker pool's
pipes and keeps one shared-memory segment per rank result; those
segments are counted by the yardstick's exact counters on
``build_skew_process`` (``mpi.shm_segments_created``, ``mpi.shm_leases``,
``mpi.shm_reuse_ratio``), not here.

Runnable standalone (``python benchmarks/bench_backend_scaling.py``) or
under pytest.  Scale knobs: ``REPRO_BENCH_N`` (rows, default 8,000) and
``REPRO_BENCH_MAXP`` (largest p, default 4 here — the sweep is
(1, 2, 4) clipped to the host).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import platform
import sys
import time

from repro.config import MachineSpec
from repro.core.cube import build_data_cube
from repro.data.generator import generate_dataset, paper_preset

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_backend_scaling.json"

#: Host-seconds ratio (thread / process) the process backend must reach
#: at p >= 4 when the host actually has >= 4 cores.
SPEEDUP_TARGET = 1.5

def _backends() -> tuple[str, ...]:
    if "fork" not in multiprocessing.get_all_start_methods():
        return ("thread",)
    return ("thread", "process")


def run_scaling(n: int | None = None, processors=None) -> dict:
    """Build one cube per (backend, p); return the report dict."""
    n = n or int(os.environ.get("REPRO_BENCH_N", 8_000))
    if processors is None:
        max_p = int(os.environ.get("REPRO_BENCH_MAXP", 4))
        processors = tuple(p for p in (1, 2, 4) if p <= max_p) or (1,)
    spec_ds = paper_preset(n, seed=3)
    data = generate_dataset(spec_ds)
    results = []
    for backend in _backends():
        for p in processors:
            machine = MachineSpec(p=p, backend=backend)
            t0 = time.perf_counter()
            cube = build_data_cube(data, spec_ds.cardinalities, machine)
            host = time.perf_counter() - t0
            m = cube.metrics
            results.append(
                {
                    "backend": backend,
                    "p": p,
                    "host_seconds": round(host, 4),
                    "simulated_seconds": m.simulated_seconds,
                    "comm_bytes": m.comm_bytes,
                    "disk_blocks": m.disk_blocks,
                    "output_rows": m.output_rows,
                }
            )
            print(
                f"  {backend:7s} p={p}  host {host:7.2f} s   "
                f"sim {m.simulated_seconds:8.4f} s"
            )
    speedups = {}
    by_key = {(r["backend"], r["p"]): r for r in results}
    for p in processors:
        t, pr = by_key.get(("thread", p)), by_key.get(("process", p))
        if t and pr:
            speedups[str(p)] = round(
                t["host_seconds"] / max(pr["host_seconds"], 1e-9), 3
            )
    report = {
        "bench": "backend_scaling",
        "n": n,
        "processors": list(processors),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "speedup_target": SPEEDUP_TARGET,
        "host_speedup_thread_over_process": speedups,
        "results": results,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def check_report(report: dict) -> None:
    """Assert the bench's claims (metering equality always; host
    speedup only where the hardware permits it)."""
    by_key = {(r["backend"], r["p"]): r for r in report["results"]}
    metered = ("simulated_seconds", "comm_bytes", "disk_blocks", "output_rows")
    for p in report["processors"]:
        t, pr = by_key.get(("thread", p)), by_key.get(("process", p))
        if t and pr:
            for key in metered:
                assert t[key] == pr[key], (
                    f"{key} diverges between backends at p={p}: "
                    f"thread {t[key]} vs process {pr[key]}"
                )
    cores = report["cpu_count"] or 1
    eligible = [
        p
        for p in report["processors"]
        if p >= 4 and str(p) in report["host_speedup_thread_over_process"]
    ]
    if cores >= 4 and eligible:
        best = max(
            report["host_speedup_thread_over_process"][str(p)]
            for p in eligible
        )
        assert best >= SPEEDUP_TARGET, (
            f"process backend reached only {best:.2f}x host speedup at "
            f"p>=4 on a {cores}-core host (target {SPEEDUP_TARGET}x)"
        )
    elif eligible:
        print(
            f"  host has {cores} core(s); >= 4 needed for the "
            f"{SPEEDUP_TARGET}x speedup assertion — recorded only"
        )


def test_backend_scaling():
    check_report(run_scaling())


if __name__ == "__main__":
    check_report(run_scaling())
    sys.exit(0)
