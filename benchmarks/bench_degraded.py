"""Cost of degraded-mode recovery versus restarting after rank loss.

For each cluster size ``p`` in the sweep this bench kills rank 1
permanently mid-build and finishes the cube four ways:

* clean at ``p`` (what the build would have cost without the loss),
* clean at ``p - 1``, without and with per-iteration checkpoints (the
  lower bounds a degraded build can hope for on the surviving width),
* degraded restart: blacklist the dead rank and redo everything at
  ``p - 1`` from scratch (no checkpoints),
* degraded resume: the survivor below the dead rank adopts its
  checkpointed seals by position (hard links, nothing read or
  re-saved) and the build continues at ``p - 1``.

The report asserts the degraded-mode contract — every degraded cube
matches the clean row count, finishes at width ``p - 1`` with rank 1 on
the blacklist and a clean audit, a restart's final attempt costs exactly
one clean ``p - 1`` build, the resumed final attempt (adoption + the
recomputed tail) undercuts the clean checkpointed ``p - 1`` build, and
the whole resumed build undercuts the whole restarted one
(``resume_over_restart < 1`` at every ``p``).  ``recovery_phase_s`` is
the resumed attempt's ``recovery`` phase: the adoption prologue and the
read of the one root piece the next step 1a derives from.

Writes ``BENCH_degraded.json`` at the repository root.  Runnable
standalone (``python benchmarks/bench_degraded.py``) or under pytest.
Scale knobs: ``REPRO_BENCH_N`` (rows, default 8,000) and
``REPRO_BENCH_MAXP`` (largest p, default 8 -> sweep (3, 4, 8)).
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
JSON_PATH = REPO_ROOT / "BENCH_degraded.json"

#: The injected permanent loss: rank 1 dies entering its 80th collective
#: — late in the build (the sweep's builds run ~100-110 supersteps), the
#: realistic worst case where most of the work is already done.  The
#: degraded resume reshards all of it from checkpoints instead of redoing
#: it at the reduced width; with an *early* loss there is little saved
#: state to take over and the two converge.
CRASH = "crash@r1s80"


def _one(data, cards, p, faults=None, ckpt=None, degrade=False) -> dict:
    machine = MachineSpec(p=p, backend="thread")
    recovery = None
    if faults:
        recovery = RecoveryPolicy(
            max_retries=0 if degrade else 2,
            mode="degrade" if degrade else "restart",
        )
    t0 = time.perf_counter()
    cube = build_data_cube(
        data,
        cards,
        machine,
        faults=FaultPlan.parse(faults) if faults else None,
        checkpoint_dir=ckpt,
        recovery=recovery,
        audit=True,
    )
    host = time.perf_counter() - t0
    m = cube.metrics
    return {
        "simulated_seconds": m.simulated_seconds,
        "recovered_seconds": m.recovered_seconds,
        "attempts": m.attempts,
        "final_width": m.final_width,
        "ranks_lost": m.ranks_lost,
        "audit_ok": bool(m.audit and m.audit["ok"]),
        "comm_bytes": m.comm_bytes,
        "disk_blocks": m.disk_blocks,
        "output_rows": m.output_rows,
        "recovery_phase_s": m.phase_seconds.get("recovery", 0.0),
        "host_seconds": round(host, 4),
    }


def run_degraded(n: int | None = None, processors=None) -> dict:
    n = n or int(os.environ.get("REPRO_BENCH_N", 8_000))
    if processors is None:
        max_p = int(os.environ.get("REPRO_BENCH_MAXP", 8))
        processors = tuple(p for p in (3, 4, 8) if p <= max_p) or (3,)
    spec_ds = paper_preset(n, seed=3)
    data = generate_dataset(spec_ds)
    cards = spec_ds.cardinalities
    results = []
    for p in processors:
        row: dict = {"p": p}
        row["clean"] = _one(data, cards, p)
        row["clean_p_minus_1"] = _one(data, cards, p - 1)
        with tempfile.TemporaryDirectory() as ck:
            row["clean_p_minus_1_ckpt"] = _one(data, cards, p - 1, ckpt=ck)
        row["degrade_restart"] = _one(
            data, cards, p, faults=CRASH, degrade=True
        )
        with tempfile.TemporaryDirectory() as ck:
            row["degrade_resume"] = _one(
                data, cards, p, faults=CRASH, ckpt=ck, degrade=True
            )
        base = row["clean"]["simulated_seconds"]
        row["overhead"] = {
            variant: round(row[variant]["simulated_seconds"] / base, 4)
            for variant in (
                "clean_p_minus_1",
                "clean_p_minus_1_ckpt",
                "degrade_restart",
                "degrade_resume",
            )
        }
        row["resume_over_restart"] = round(
            row["degrade_resume"]["simulated_seconds"]
            / row["degrade_restart"]["simulated_seconds"],
            4,
        )
        results.append(row)
        print(
            f"  p={p}  clean {base:8.3f} s   "
            + "   ".join(
                f"{k} x{v:.3f}" for k, v in row["overhead"].items()
            )
            + f"   resume/restart x{row['resume_over_restart']:.3f}"
        )
    report = {
        "bench": "degraded",
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
        clean = row["clean"]
        for variant in (
            "clean_p_minus_1",
            "clean_p_minus_1_ckpt",
            "degrade_restart",
            "degrade_resume",
        ):
            run = row[variant]
            assert run["output_rows"] == clean["output_rows"], (
                f"p={row['p']} {variant}: cube size changed "
                f"({run['output_rows']} vs {clean['output_rows']})"
            )
            assert run["audit_ok"], f"p={row['p']} {variant}: audit failed"
        # Both degraded variants lose exactly rank 1 and end at p - 1.
        for variant in ("degrade_restart", "degrade_resume"):
            run = row[variant]
            assert run["final_width"] == row["p"] - 1
            assert run["ranks_lost"] == [1]
            assert run["attempts"] == 2
            assert run["recovered_seconds"] > 0
        # A degraded restart redoes the whole build on the surviving
        # width: its final attempt costs exactly one clean p-1 build.
        restart_final = (
            row["degrade_restart"]["simulated_seconds"]
            - row["degrade_restart"]["recovered_seconds"]
        )
        assert (
            abs(restart_final - row["clean_p_minus_1"]["simulated_seconds"])
            < 1e-6
        ), (
            f"p={row['p']}: degraded restart cost {restart_final}, "
            f"expected the clean p-1 "
            f"{row['clean_p_minus_1']['simulated_seconds']}"
        )
        # The headline: resharding the dead rank's checkpoints and
        # continuing beats a checkpointed rebuild at p-1 — the resumed
        # attempt takes over saved iterations instead of re-running them.
        resume_final = (
            row["degrade_resume"]["simulated_seconds"]
            - row["degrade_resume"]["recovered_seconds"]
        )
        assert (
            resume_final
            < row["clean_p_minus_1_ckpt"]["simulated_seconds"]
        ), f"p={row['p']}: resumed attempt did not skip any work"
        # Adopting the saved iterations costs less than redoing them.
        assert row["resume_over_restart"] < 1.0, (
            f"p={row['p']}: resume/restart {row['resume_over_restart']}"
        )


def test_degraded_overhead():
    check_report(run_degraded())


if __name__ == "__main__":
    check_report(run_degraded())
    sys.exit(0)
