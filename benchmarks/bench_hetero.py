"""Heterogeneity-aware partitioning and speculative straggler races.

Two questions, one report:

* **Does speed-proportional partitioning pay on a skewed cluster?**
  With rank 0 running at half speed (``slow@r0x2``), a uniform
  sample-sort keys every superstep to the slow rank's critical path.
  The hetero build meters per-rank throughput during sampling, sizes
  each rank's h-relation share to its measured speed (clamped to
  ``[1/2p, 2/p]``), and must finish at least **1.3x** faster than the
  uniform build under the same fault.  On a *homogeneous* cluster the
  same machinery must cost at most **1.05x** (the profiler's extra
  allgather and near-uniform shares are noise).

* **Is a speculative straggler race safe?**  A hung rank triggers a
  race between a full-width retry and a width-(p-1) clone of the
  straggler's checkpoints; the winning cube must be bit-identical to a
  clean build, pass the audit, and bank both raced attempts' costs.

A segment is the modelled per-row sort/scan work plus block I/O, which
the slow fault inflates multiplicatively.  The machine uses a 64-row
block at the same per-row disk cost as the default 1024-row block: at
bench scale a uniform partition is only 1-2 default blocks, so any
share skew would be dominated by block ceil-quantisation instead of the
work it models.  Measures are floored to integers so regrouped rows
aggregate bit-identically regardless of partition boundaries (float
summation order would otherwise differ between layouts).  Writes
``BENCH_hetero.json`` at the repository root; ``bench_fig11_balance``
appends its per-rank finish-time spread to the same file.  Runnable
standalone (``python benchmarks/bench_hetero.py``) or under pytest.
Scale knobs: ``REPRO_BENCH_N`` (rows, default 8,000) and
``REPRO_BENCH_P`` (cluster width, default 4).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.cube import build_data_cube
from repro.data.generator import generate_dataset, paper_preset
from repro.mpi.faults import FaultPlan
from repro.storage.table import Relation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_hetero.json"

#: Rank 0 at half speed for the whole build -- the paper's shared-nothing
#: cost model with one degraded node.
SLOW = "slow@r0x2"
#: Rank 1 hangs at its 20th collective on the first attempt only (the
#: straggler recovers by the time the race's full-width retry runs).
HANG = "hang@r1s20a0"

SPEEDUP_GATE = 1.3
OVERHEAD_GATE = 1.05


def _fingerprint(cube) -> str:
    """Digest of the cube's global content, independent of sharding."""
    h = hashlib.sha256()
    for view in cube.views:
        rel = cube.view_relation(view)
        if rel.nrows and rel.width:
            order = np.lexsort(
                tuple(rel.dims[:, j] for j in range(rel.width - 1, -1, -1))
            )
        else:
            order = np.arange(rel.nrows)
        h.update(repr(view).encode())
        h.update(np.ascontiguousarray(rel.dims[order]).tobytes())
        h.update(np.ascontiguousarray(rel.measure[order]).tobytes())
    return h.hexdigest()


def _one(
    data,
    cards,
    p,
    hetero=False,
    faults=None,
    ckpt=None,
    speculate=False,
) -> dict:
    machine = MachineSpec(
        p=p,
        backend="thread",
        block_size=64,
        disk_sec_per_block=1.4e-3 * 64 / 1024,
    )
    recovery = None
    if speculate:
        recovery = RecoveryPolicy(speculate=True)
    t0 = time.perf_counter()
    cube = build_data_cube(
        data,
        cards,
        machine,
        CubeConfig(hetero=hetero),
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
        "speculations": m.speculations,
        "speculation_discards": m.speculation_discards,
        "speed_model": m.speed_model,
        "rank_busy_seconds": [round(b, 6) for b in m.rank_busy_seconds],
        "audit_ok": bool(m.audit and m.audit["ok"]),
        "comm_bytes": m.comm_bytes,
        "output_rows": m.output_rows,
        "fingerprint": _fingerprint(cube),
        "host_seconds": round(host, 4),
    }


def run_hetero(n: int | None = None, p: int | None = None) -> dict:
    n = n or int(os.environ.get("REPRO_BENCH_N", 8_000))
    p = p or int(os.environ.get("REPRO_BENCH_P", 4))
    spec_ds = paper_preset(n, seed=3)
    raw = generate_dataset(spec_ds)
    data = Relation(raw.dims, np.floor(raw.measure))
    cards = spec_ds.cardinalities

    row: dict = {"p": p}
    row["uniform_clean"] = _one(data, cards, p)
    row["hetero_clean"] = _one(data, cards, p, hetero=True)
    row["uniform_slow"] = _one(data, cards, p, faults=SLOW)
    row["hetero_slow"] = _one(data, cards, p, hetero=True, faults=SLOW)
    with tempfile.TemporaryDirectory() as ck:
        row["speculative_race"] = _one(
            data, cards, p, hetero=True, faults=HANG, ckpt=ck,
            speculate=True,
        )
    row["slow_speedup"] = round(
        row["uniform_slow"]["simulated_seconds"]
        / row["hetero_slow"]["simulated_seconds"],
        4,
    )
    row["clean_overhead"] = round(
        row["hetero_clean"]["simulated_seconds"]
        / row["uniform_clean"]["simulated_seconds"],
        4,
    )
    print(
        f"  p={p}  slow speedup x{row['slow_speedup']:.3f} "
        f"(gate >= {SPEEDUP_GATE})   clean overhead "
        f"x{row['clean_overhead']:.3f} (gate <= {OVERHEAD_GATE})"
    )
    race = row["speculative_race"]
    print(
        f"  race: attempts={race['attempts']} "
        f"speculations={race['speculations']} "
        f"discards={race['speculation_discards']}"
    )
    report = {
        "bench": "hetero",
        "n": n,
        "p": p,
        "slow": SLOW,
        "hang": HANG,
        "speedup_gate": SPEEDUP_GATE,
        "overhead_gate": OVERHEAD_GATE,
        "python": platform.python_version(),
        "results": [row],
    }
    # bench_fig11_balance.py read-modify-writes its section into this file.
    previous = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    if "fig11_rank_spread" in previous:
        report["fig11_rank_spread"] = previous["fig11_rank_spread"]
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def check_report(report: dict) -> None:
    for row in report["results"]:
        clean = row["uniform_clean"]
        for variant in (
            "hetero_clean", "uniform_slow", "hetero_slow",
            "speculative_race",
        ):
            run = row[variant]
            assert run["audit_ok"], f"{variant}: audit failed"
            assert run["output_rows"] == clean["output_rows"], (
                f"{variant}: cube size changed "
                f"({run['output_rows']} vs {clean['output_rows']})"
            )
            assert run["fingerprint"] == clean["fingerprint"], (
                f"{variant}: cube content diverged from the clean build"
            )
        # Gate 1: speed-proportional shares beat uniform shares on the
        # skewed cluster by the required margin.
        assert row["slow_speedup"] >= SPEEDUP_GATE, (
            f"hetero speedup under {report['slow']} is "
            f"x{row['slow_speedup']}, gate is x{SPEEDUP_GATE}"
        )
        # Gate 2: the profiler is free on a homogeneous cluster.
        assert row["clean_overhead"] <= OVERHEAD_GATE, (
            f"hetero overhead on a homogeneous cluster is "
            f"x{row['clean_overhead']}, gate is x{OVERHEAD_GATE}"
        )
        # Equal ranks measure equal: the probe's work/busy sample does not
        # depend on how many rows a rank's root piece happens to hold.
        shares = row["hetero_clean"]["speed_model"]["shares"]
        assert max(abs(s - 1.0 / row["p"]) for s in shares) <= 1e-4, (
            f"homogeneous cluster measured unequal shares {shares}"
        )
        # The hetero build actually measured the skew: the slow rank's
        # modelled speed must sit below every healthy rank's.
        model = row["hetero_slow"]["speed_model"]
        assert model is not None, "hetero_slow: no speed model published"
        speeds = model["speeds"]
        assert speeds[0] < min(speeds[1:]), (
            f"slow rank not detected: speeds {speeds}"
        )
        # Gate 3: the speculative race kept the recovered straggler,
        # discarded the duplicate exactly once, and banked both raced
        # attempts (recovered_seconds covers the hung attempt plus the
        # cancelled loser).
        race = row["speculative_race"]
        assert race["speculations"] == 1, race
        assert race["speculation_discards"] == 1, race
        assert race["attempts"] == 3, race
        assert race["final_width"] == row["p"], race
        assert race["recovered_seconds"] > 0, race


def test_hetero_speedup():
    check_report(run_hetero())


if __name__ == "__main__":
    check_report(run_hetero())
    sys.exit(0)
