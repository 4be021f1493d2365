"""Availability benchmark of the serving tier under sustained worker loss.

The serving contract behind the ROADMAP's "heavy traffic" north star is
not just throughput — it is throughput *while the pool is being shot
at*.  This bench drives a seeded mixed workload through a
:class:`~repro.olap.service.QueryService` whose workers are SIGKILLed
on a sustained schedule (a ``kill@w`` :class:`~repro.mpi.faults.\
FaultPlan` fells every generation of every slot at its k-th
executed query — at the measured throughput that is roughly one worker
death per ~0.5 s across the pool), and scores:

* **availability** — the fraction of offered queries answered
  *correctly* (bit-identical to the inline
  :class:`~repro.olap.query.QueryEngine`) within their deadline; the
  run asserts ≥ {AVAILABILITY_TARGET:.0%};
* **p99 latency** — scheduled-arrival → completion, retries and
  respawn stalls included;
* **recovery** — worker deaths observed, replacements spawned, and the
  detection → replacement-ready time per restart;
* **hygiene** — zero result mismatches and zero leaked ``/dev/shm``
  segments after ``close()`` (both asserted).

A fault-free control rung runs first so the chaos overhead is visible.
Writes ``BENCH_serving_chaos.json`` at the repository root.  Runnable
standalone (``python benchmarks/bench_serving_chaos.py [--quick]``) or
under pytest.  Scale knobs: ``REPRO_BENCH_CHAOS_N`` (base-view rows,
default 300,000) and ``REPRO_BENCH_QUICK`` / ``--quick``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import tempfile
import time

from repro.mpi.faults import FaultPlan
from repro.olap.query import QueryEngine
from repro.olap.servebench import (
    run_chaos,
    serving_workload,
    synthetic_serving_cube,
)
from repro.olap.service import QueryService, ServicePolicy
from repro.olap.store import CubeStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_serving_chaos.json"

#: Required fraction of offered queries answered correctly in deadline.
AVAILABILITY_TARGET = 0.99
#: Pool size under fire.
WORKERS = 4
#: Each worker generation dies entering its KILL_EVERY-th query; at the
#: offered rate below that works out to roughly one death per ~0.5 s.
KILL_EVERY = 25
#: Per-query deadline — generous enough to absorb a detect + respawn +
#: retry cycle, tight enough that a stalled service scores zero.
DEADLINE_S = 10.0

CARDS = (128, 64, 32, 16)


def _quick() -> bool:
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def _leaked_segments(pids) -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return [
        name
        for name in os.listdir(shm_dir)
        for pid in pids
        if name.startswith(f"rp{pid}x")
    ]


def _policy(deadline_s: float) -> ServicePolicy:
    return ServicePolicy(
        suspect_after=5.0,
        deadline_s=deadline_s,
        max_retries=4,
        max_queue_depth=100_000,  # availability run: shed nothing
        poison_threshold=8,  # random kills must not quarantine hot spots
        max_restarts=512,
    )


def run_rung(
    store_path: str,
    queries,
    expected,
    offered_qps: float,
    n_queries: int,
    faults: FaultPlan | None,
) -> dict:
    """One chaos rung: fresh service, seeded workload, scored drain."""
    service = QueryService(
        store_path,
        workers=WORKERS,
        byte_budget=None,  # cache off: every answer exercises the pool
        policy=_policy(DEADLINE_S),
        faults=faults,
    )
    try:
        rung = run_chaos(
            service, queries, expected, offered_qps, n_queries
        )
        stats = service.stats()
        pids = list(service.pool.all_pids)
    finally:
        service.close()
    rung["stats"] = {
        key: stats[key]
        for key in (
            "worker_deaths",
            "worker_hangs",
            "restarts",
            "retries",
            "executed",
            "timeouts",
            "corrupt_results",
        )
    }
    restart_log = service.pool.restart_log
    recovery_ms = [
        (entry["ready_at"] - entry["detected_at"]) * 1e3
        for entry in restart_log
    ]
    rung["recovery"] = {
        "restarts": len(restart_log),
        "respawn_ms_mean": (
            round(sum(recovery_ms) / len(recovery_ms), 2)
            if recovery_ms
            else None
        ),
        "respawn_ms_max": (
            round(max(recovery_ms), 2) if recovery_ms else None
        ),
    }
    kills = rung["stats"]["worker_deaths"] + rung["stats"]["worker_hangs"]
    rung["kill_interval_s"] = (
        round(rung["wall_seconds"] / kills, 3) if kills else None
    )
    rung["leaked_segments"] = _leaked_segments(pids)
    return rung


def main() -> dict:
    quick = _quick()
    n_rows = int(
        os.environ.get(
            "REPRO_BENCH_CHAOS_N", "60000" if quick else "300000"
        )
    )
    n_queries = 200 if quick else 600
    offered_qps = 100.0 if quick else 150.0
    print(
        f"serving chaos bench: {n_rows:,}-row cube, {WORKERS} workers, "
        f"{n_queries} queries at {offered_qps:g} QPS"
        + (" [quick]" if quick else "")
    )

    with tempfile.TemporaryDirectory() as tmpdir:
        t0 = time.perf_counter()
        cube = synthetic_serving_cube(n_rows, CARDS, p=4, seed=0xFa11)
        store_path = os.path.join(tmpdir, "chaos_cube")
        CubeStore.save(cube, store_path)
        handle = CubeStore.open(store_path)
        engine = QueryEngine(
            handle.cube, sorted_views=handle.sorted_views, index=True
        )
        queries = [
            q for _, q in serving_workload(CARDS, n=128, seed=0xFa11)
        ]
        expected = {q: engine.answer(q) for q in queries}
        print(
            f"  cube + inline oracle ready in "
            f"{time.perf_counter() - t0:.1f} s"
        )

        control = run_rung(
            store_path, queries, expected, offered_qps, n_queries, None
        )
        print(
            f"  control  availability {control['availability']:.4f}  "
            f"p99 {control['p99_ms']:.1f} ms"
        )

        # Sustained kills: every generation of every slot dies entering
        # its KILL_EVERY-th executed query.
        plan = FaultPlan.parse(
            ";".join(f"kill@w{w}q{KILL_EVERY}" for w in range(WORKERS))
        )
        chaos = run_rung(
            store_path, queries, expected, offered_qps, n_queries, plan
        )
        print(
            f"  chaos    availability {chaos['availability']:.4f}  "
            f"p99 {chaos['p99_ms']:.1f} ms  "
            f"deaths {chaos['stats']['worker_deaths']} "
            f"(~1 per {chaos['kill_interval_s']} s)  "
            f"restarts {chaos['stats']['restarts']}  "
            f"retries {chaos['stats']['retries']}"
        )
        if chaos["recovery"]["respawn_ms_mean"] is not None:
            print(
                f"  recovery respawn mean "
                f"{chaos['recovery']['respawn_ms_mean']:.1f} ms  max "
                f"{chaos['recovery']['respawn_ms_max']:.1f} ms"
            )

    report = {
        "bench": "serving_chaos",
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "quick": quick,
        "n_rows": n_rows,
        "workers": WORKERS,
        "offered_qps": offered_qps,
        "n_queries": n_queries,
        "kill_every": KILL_EVERY,
        "deadline_s": DEADLINE_S,
        "availability_target": AVAILABILITY_TARGET,
        "fault_plan": plan.describe(),
        "control": control,
        "chaos": chaos,
        "availability": chaos["availability"],
        "p99_ms": chaos["p99_ms"],
        "worker_restarts": chaos["stats"]["restarts"],
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")

    # The contract, asserted in every mode: answered results are
    # bit-identical, nothing leaks, chaos actually happened, and the
    # service stayed available through it.
    assert chaos["mismatched"] == 0, (
        f"{chaos['mismatched']} answered results diverged from the "
        "inline engine"
    )
    assert control["mismatched"] == 0
    assert chaos["leaked_segments"] == [], chaos["leaked_segments"]
    assert control["leaked_segments"] == []
    assert chaos["stats"]["worker_deaths"] >= 3, (
        "chaos rung killed too few workers to mean anything: "
        f"{chaos['stats']['worker_deaths']}"
    )
    assert chaos["stats"]["restarts"] >= chaos["stats"]["worker_deaths"] - 1
    assert chaos["availability"] >= AVAILABILITY_TARGET, (
        f"availability {chaos['availability']:.4f} < "
        f"{AVAILABILITY_TARGET}"
    )
    return report


def test_serving_chaos_bench():
    """Pytest entry point (quick mode handled via env)."""
    main()


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["REPRO_BENCH_QUICK"] = "1"
    main()
