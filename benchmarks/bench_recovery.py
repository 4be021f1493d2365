"""Recovery overhead of the fault-injection + checkpoint machinery.

For each cluster size ``p`` in the sweep this bench builds the same cube
four ways:

* fault-free (the baseline),
* fault-free with per-iteration checkpoints (the insurance premium),
* a mid-build rank crash recovered by restarting from scratch,
* the same crash recovered by resuming from the last checkpoint.

The report asserts the recovery contract — every recovered cube matches
the fault-free row count, recovery always costs simulated time, a
from-scratch retry costs exactly one fault-free build, a fault-free
checkpointed build writes at most one extra copy of the cube and costs
at most 1.10x a plain one (a piece Pipesort leaves in memory is written
once, after its merge, and that write is the seal; only a piece written
before its merge is written again whole), a checkpointed retry costs
*less* than a full checkpointed build (it skips the iterations the
checkpoint already holds), and resuming costs at most the resume /
restart ratio measured at the default size plus :data:`MARGIN` (a
resume reads only the root piece its next step 1a derives from, so it
skips the replay's read as well).

Writes ``BENCH_recovery.json`` at the repository root.  Runnable
standalone (``python benchmarks/bench_recovery.py``) or under pytest.
Scale knobs: ``REPRO_BENCH_N`` (rows, default 8,000) and
``REPRO_BENCH_MAXP`` (largest p, default 8 -> sweep (2, 4, 8)).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import tempfile
import time

from repro.config import MachineSpec, RecoveryPolicy
from repro.core.cube import build_data_cube
from repro.data.generator import generate_dataset, paper_preset
from repro.mpi.faults import FaultPlan

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_recovery.json"

#: The injected failure: rank 1 dies entering its 25th collective —
#: far enough in that at least one dimension iteration has completed,
#: so a checkpointed retry has something to resume from.
CRASH = "crash@r1s25"

#: Resume / restart simulated seconds measured at the default n = 8,000
#: (BENCH_recovery.json), by p.  The gate allows ``MARGIN`` above them;
#: another n or p keeps the looser "never more than restarting".
RESUME_OVER_RESTART = {2: 0.567, 4: 0.584, 8: 0.717}
MARGIN = 0.05
DEFAULT_N = 8_000


def _one(data, cards, p, faults=None, ckpt=None) -> dict:
    machine = MachineSpec(p=p, backend="thread")
    recovery = RecoveryPolicy(max_retries=2) if faults else None
    t0 = time.perf_counter()
    cube = build_data_cube(
        data,
        cards,
        machine,
        faults=FaultPlan.parse(faults) if faults else None,
        checkpoint_dir=ckpt,
        recovery=recovery,
    )
    host = time.perf_counter() - t0
    m = cube.metrics
    return {
        "simulated_seconds": m.simulated_seconds,
        "recovered_seconds": m.recovered_seconds,
        "attempts": m.attempts,
        "comm_bytes": m.comm_bytes,
        "disk_blocks": m.disk_blocks,
        "output_rows": m.output_rows,
        "view_count": m.view_count,
        "host_seconds": round(host, 4),
    }


def run_recovery(n: int | None = None, processors=None) -> dict:
    n = n or int(os.environ.get("REPRO_BENCH_N", DEFAULT_N))
    if processors is None:
        max_p = int(os.environ.get("REPRO_BENCH_MAXP", 8))
        processors = tuple(p for p in (2, 4, 8) if p <= max_p) or (2,)
    spec_ds = paper_preset(n, seed=3)
    data = generate_dataset(spec_ds)
    cards = spec_ds.cardinalities
    results = []
    for p in processors:
        row: dict = {"p": p}
        row["fault_free"] = _one(data, cards, p)
        with tempfile.TemporaryDirectory() as ck:
            row["checkpointed"] = _one(data, cards, p, ckpt=ck)
        row["crash_restart"] = _one(data, cards, p, faults=CRASH)
        with tempfile.TemporaryDirectory() as ck:
            row["crash_resume"] = _one(data, cards, p, faults=CRASH, ckpt=ck)
        # One self-contained copy of the cube, in blocks: every piece
        # rounds up to a whole block on its own.
        row["full_write_blocks"] = (
            -(-row["fault_free"]["output_rows"] // MachineSpec().block_size)
            + row["fault_free"]["view_count"] * p
        )
        base = row["fault_free"]["simulated_seconds"]
        row["overhead"] = {
            variant: round(row[variant]["simulated_seconds"] / base, 4)
            for variant in ("checkpointed", "crash_restart", "crash_resume")
        }
        row["resume_over_restart"] = round(
            row["crash_resume"]["simulated_seconds"]
            / row["crash_restart"]["simulated_seconds"],
            4,
        )
        results.append(row)
        print(
            f"  p={p}  fault-free {base:8.3f} s   "
            + "   ".join(
                f"{k} x{v:.3f}" for k, v in row["overhead"].items()
            )
            + f"   resume/restart {row['resume_over_restart']:.3f}"
        )
    report = {
        "bench": "recovery",
        "n": n,
        "processors": list(processors),
        "crash": CRASH,
        "python": platform.python_version(),
        "results": results,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def check_report(report: dict) -> None:
    for row in report["results"]:
        base = row["fault_free"]
        for variant in ("checkpointed", "crash_restart", "crash_resume"):
            run = row[variant]
            assert run["output_rows"] == base["output_rows"], (
                f"p={row['p']} {variant}: cube size changed "
                f"({run['output_rows']} vs {base['output_rows']})"
            )
        # The insurance premium, physically: a seal is one self-contained
        # copy of its views, so a checkpointed build writes at most one
        # extra copy of the cube (the premium itself is row["overhead"]).
        extra = row["checkpointed"]["disk_blocks"] - base["disk_blocks"]
        assert 0 <= extra <= row["full_write_blocks"], (
            f"p={row['p']}: checkpointing cost {extra} extra blocks, one "
            f"full write of the cube is {row['full_write_blocks']}"
        )
        # The seal is the write a plain build makes after each merge, so
        # checkpointing costs little more than the plain build ...
        assert row["overhead"]["checkpointed"] <= 1.10, (
            f"p={row['p']}: a checkpointed build cost "
            f"{row['overhead']['checkpointed']}x a plain one (gate 1.10x)"
        )
        # ... and resuming the crashed build beats restarting it by what
        # it measured, within the margin.
        ceiling = 1.0
        if report["n"] == DEFAULT_N and row["p"] in RESUME_OVER_RESTART:
            ceiling = RESUME_OVER_RESTART[row["p"]] + MARGIN
        assert row["resume_over_restart"] <= ceiling, (
            f"p={row['p']}: resuming cost {row['resume_over_restart']}x "
            f"restarting (gate {ceiling:.3f}x)"
        )
        # A recovered crash costs time, honestly accounted.
        for variant in ("crash_restart", "crash_resume"):
            assert row[variant]["attempts"] == 2
            assert row[variant]["recovered_seconds"] > 0
            assert (
                row[variant]["simulated_seconds"]
                > base["simulated_seconds"]
            )
        # Restart-from-scratch redoes the whole build: its final attempt
        # costs exactly one fault-free build.
        restart_final = (
            row["crash_restart"]["simulated_seconds"]
            - row["crash_restart"]["recovered_seconds"]
        )
        assert abs(restart_final - base["simulated_seconds"]) < 1e-6, (
            f"p={row['p']}: restarted attempt cost {restart_final}, "
            f"expected the fault-free {base['simulated_seconds']}"
        )
        # Resuming skips the iterations the checkpoint already holds:
        # the final attempt is cheaper than a full checkpointed build.
        resume_final = (
            row["crash_resume"]["simulated_seconds"]
            - row["crash_resume"]["recovered_seconds"]
        )
        assert (
            resume_final < row["checkpointed"]["simulated_seconds"]
        ), f"p={row['p']}: resumed attempt did not skip any work"


def test_recovery_overhead():
    check_report(run_recovery())


if __name__ == "__main__":
    check_report(run_recovery())
    sys.exit(0)
