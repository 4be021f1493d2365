"""Incremental store refresh vs. full rebuild (delta-merge generations).

Measures what :func:`repro.olap.refresh.refresh_store` buys over
rebuilding the cube from scratch when a small insert-only delta
arrives, and that the savings cost nothing in correctness or serving
availability.  Three lanes:

* **timing** — a format-2 store refreshed with delta fractions of
  {FRACTIONS}: wall-clock ``refresh_store`` (delta build + merge +
  publish) vs. ``build_data_cube`` + save of base+delta, each refresh
  against a fresh hard-linked copy of the base store.  Gate: at every
  fraction <= 5% the refresh is >= {SPEEDUP_TARGET_FULL}x faster than
  the rebuild ({SPEEDUP_TARGET_QUICK}x in quick mode, where fixed
  per-view overhead dominates the small stores).
* **identity** — a store refreshed at a 5% delta and compared
  against the from-scratch rebuild of the same rows: every query of a
  mixed workload must be **bit-identical** through both the scan path
  and the index path (integer-valued measures keep float SUMs exact),
  and ``audit_cube`` must pass against the full relation.
* **serving** — a :class:`~repro.olap.service.QueryService` kept under
  closed-loop load while delta batches are folded in live
  (:func:`~repro.olap.servebench.run_with_refresh`).  Gates:
  availability >= {AVAILABILITY_TARGET} (no query blocked on a
  refresh), the store generation advances once per batch, and the
  staleness probe — cached before the first refresh, re-asked after
  the last — returns the *new* answer (no stale cache hit across the
  generation bump).

Writes ``BENCH_refresh.json`` at the repository root.  Runnable
standalone (``python benchmarks/bench_refresh.py [--quick]``) or under
pytest.  ``REPRO_BENCH_QUICK`` / ``--quick`` shrinks the dataset and
relaxes the timing gate.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import sys
import time

import numpy as np

from repro.config import MachineSpec
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube
from repro.olap.query import Query
from repro.olap.refresh import refresh_store
from repro.olap.store import CubeStore
from repro.storage.table import Relation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_refresh.json"

SPEEDUP_TARGET_FULL = 5.0
SPEEDUP_TARGET_QUICK = 2.0
AVAILABILITY_TARGET = 0.99

CARDS = (20, 16, 12, 8)
FULL_N = 2_000_000
QUICK_N = 600_000
FRACTIONS_FULL = (0.001, 0.01, 0.05, 0.2)
FRACTIONS_QUICK = (0.01, 0.05)
P = 4

QUERIES = [
    Query(group_by=()),
    Query(group_by=(0,)),
    Query(group_by=(1, 3)),
    Query(group_by=(0, 1), filters={0: (2, 19)}),
    Query(group_by=(2,), filters={0: (5, 5)}),
]


def _quick() -> bool:
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def int_relation(n: int, cards=CARDS, seed: int = 0) -> Relation:
    """Integer-valued float64 measures keep every SUM exact (< 2^53),
    so refresh-vs-rebuild comparisons can demand bit-identity."""
    rng = np.random.default_rng(seed)
    dims = np.column_stack(
        [rng.integers(0, c, size=n, dtype=np.int64) for c in cards]
    )
    measure = rng.integers(1, 100, size=n).astype(np.float64)
    return Relation(dims, measure)


def concat(a: Relation, b: Relation) -> Relation:
    return Relation(
        np.vstack([a.dims, b.dims]),
        np.concatenate([a.measure, b.measure]),
    )


def _link_tree(src: str, dst: str) -> None:
    """Instant store copy: hard links, no data bytes moved."""
    shutil.copytree(src, dst, copy_function=os.link)


def _canon(rel):
    if rel.dims.shape[1] == 0:
        return rel.dims, rel.measure
    order = np.lexsort(rel.dims.T[::-1])
    return rel.dims[order], rel.measure[order]


def _answers_identical(
    path_a: str, path_b: str, queries=QUERIES
) -> bool:
    for index in (False, True):
        ea = CubeStore.open(path_a).query_engine(index=index)
        eb = CubeStore.open(path_b).query_engine(index=index)
        for query in queries:
            ra, rb = ea.answer(query), eb.answer(query)
            da, ma = _canon(ra)
            db, mb = _canon(rb)
            if not (np.array_equal(da, db) and np.array_equal(ma, mb)):
                return False
    return True


def timing_lane(tmpdir: str, quick: bool) -> dict:
    n = QUICK_N if quick else FULL_N
    fractions = FRACTIONS_QUICK if quick else FRACTIONS_FULL
    spec = MachineSpec(p=P)
    pool = int_relation(int(n * (1 + max(fractions))) + 1, seed=11)
    base = pool.slice(0, n)
    extra_pool = pool.slice(n, pool.nrows)
    base_store = os.path.join(tmpdir, "timing-base")
    CubeStore.save(build_data_cube(base, CARDS, spec), base_store)
    rows = []
    for fraction in fractions:
        dn = max(int(n * fraction), 1)
        delta = extra_pool.slice(0, dn)
        work = os.path.join(tmpdir, f"timing-refresh-{fraction}")
        _link_tree(base_store, work)
        t0 = time.perf_counter()
        report = refresh_store(work, delta, spec=spec)
        refresh_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        cube = build_data_cube(concat(base, delta), CARDS, spec)
        rebuild_path = os.path.join(
            tmpdir, f"timing-rebuild-{fraction}"
        )
        CubeStore.save(cube, rebuild_path)
        rebuild_s = time.perf_counter() - t0
        rows.append(
            {
                "fraction": fraction,
                "delta_rows": dn,
                "refresh_s": round(refresh_s, 4),
                "rebuild_s": round(rebuild_s, 4),
                "speedup": round(rebuild_s / max(refresh_s, 1e-9), 2),
                "delta_build_s": round(report.delta_build_seconds, 4),
                "merge_s": round(report.merge_seconds, 4),
                "views_merged": report.views_merged,
                "files_linked": report.files_linked,
            }
        )
        print(
            f"  fraction {fraction:6.3f} ({dn:7,} rows): refresh "
            f"{refresh_s:7.3f}s vs rebuild {rebuild_s:7.3f}s -> "
            f"{rows[-1]['speedup']:6.2f}x"
        )
        shutil.rmtree(work)
        shutil.rmtree(rebuild_path)
    return {"format": 2, "base_rows": n, "fractions": rows}


def identity_lane(tmpdir: str, quick: bool) -> dict:
    n = 20_000 if quick else 60_000
    dn = max(n // 20, 1)  # the 5% acceptance point
    spec = MachineSpec(p=P)
    rel = int_relation(n + dn, seed=21)
    base, delta = rel.slice(0, n), rel.slice(n, n + dn)
    live = os.path.join(tmpdir, "identity-live")
    CubeStore.save(build_data_cube(base, CARDS, spec), live)
    refresh_store(live, delta, spec=spec)
    rebuilt = os.path.join(tmpdir, "identity-rebuilt")
    CubeStore.save(build_data_cube(rel, CARDS, spec), rebuilt)
    audit = audit_cube(CubeStore.load(live), relation=rel)
    return {
        "bit_identical": _answers_identical(live, rebuilt),
        "audit_ok": bool(audit.ok),
    }


def serving_lane(tmpdir: str, quick: bool) -> dict:
    from repro.olap.servebench import run_with_refresh
    from repro.olap.service import QueryService
    from repro.olap.supervise import ServicePolicy

    spec = MachineSpec(p=P)
    n = 20_000 if quick else 60_000
    rel = int_relation(n, seed=41)
    store = os.path.join(tmpdir, "serving-live")
    CubeStore.save(build_data_cube(rel, CARDS, spec), store)
    n_batches = 2 if quick else 3
    batch_rows = 1_000 if quick else 3_000
    rng = np.random.default_rng(42)
    batches = [
        Relation(
            np.column_stack(
                [
                    rng.integers(0, c, size=batch_rows, dtype=np.int64)
                    for c in CARDS
                ]
            ),
            rng.integers(1, 100, size=batch_rows).astype(np.float64),
        )
        for _ in range(n_batches)
    ]
    n_queries = 80 if quick else 240
    refresh_every = n_queries // (n_batches + 1)
    policy = ServicePolicy(current_poll_interval=0.05)
    workload = [Query(group_by=(d,)) for d in range(len(CARDS))] + [
        Query(group_by=(0, 1), filters={0: (2, 19)})
    ]
    with QueryService(
        store, workers=2, policy=policy, byte_budget=16 << 20
    ) as service:
        rung = run_with_refresh(
            service,
            workload,
            batches,
            offered_qps=40.0 if quick else 80.0,
            n_queries=n_queries,
            refresh_every=refresh_every,
            probe=Query(group_by=(0,)),
            spec=spec,
        )
    return rung


def run() -> dict:
    import tempfile

    quick = _quick()
    with tempfile.TemporaryDirectory() as tmpdir:
        print("timing lane:")
        timing = timing_lane(tmpdir, quick)
        identity = identity_lane(tmpdir, quick)
        serving = serving_lane(tmpdir, quick)
    report = {
        "bench": "refresh",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "targets": {
            "speedup_at_5pct": (
                SPEEDUP_TARGET_QUICK if quick else SPEEDUP_TARGET_FULL
            ),
            "availability": AVAILABILITY_TARGET,
        },
        "timing": timing,
        "identity": identity,
        "serving": serving,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def check_report(report: dict) -> None:
    """Assert the bench's claims (all three lanes gate in every mode;
    only the timing multiplier relaxes under --quick)."""
    target = report["targets"]["speedup_at_5pct"]
    for row in report["timing"]["fractions"]:
        if row["fraction"] <= 0.05:
            assert row["speedup"] >= target, (
                f"refresh at {row['fraction']:.1%} delta is only "
                f"{row['speedup']}x faster than rebuild "
                f"(target {target}x)"
            )
    identity = report["identity"]
    assert identity["bit_identical"], (
        "refreshed store diverged from the rebuild"
    )
    assert identity["audit_ok"], "audit failed after refresh"
    serving = report["serving"]
    assert serving["availability"] >= AVAILABILITY_TARGET, (
        f"availability {serving['availability']:.4f} under live "
        f"refresh (target {AVAILABILITY_TARGET})"
    )
    assert serving["refresh_failures"] == [], serving["refresh_failures"]
    assert serving["generation_end"] == serving["refreshes"], (
        "store generation did not advance once per delta batch"
    )
    assert serving["probe_fresh"] is True, (
        "stale answer served across the generation bump"
    )


def test_bench_refresh():
    check_report(run())


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["REPRO_BENCH_QUICK"] = "1"
    check_report(run())
    sys.exit(0)
