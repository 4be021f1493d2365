"""Beyond the paper: what the γ balance contract buys at query time.

Two experiments: the original balance A/B (below), and an access-path
matrix covering both serving lanes — full scan and fence-index
``searchsorted`` — over the same store, asserting bit-identical answers
and recording p50 latency per lane.

The paper motivates balancing every view across processors with
"maximum I/O bandwidth for subsequent parallel disk accesses".  This
bench builds two cubes from skewed data — the paper's adaptive merge vs
``merge_policy="never_resort"`` (ownership routing only, no re-balancing)
— and compares (a) the stored per-rank distribution of the views the
adaptive rule chose to re-sort and (b) parallel group-by latency over
them.  Also records the Section 4.1 overlap estimate for a build of the
paper's uniform P8 input (the paper claims 40-60% of communication
overhead is maskable).
"""

import json
import time

import numpy as np
from conftest import record

from repro.bench.harness import dataset_for
from repro.bench.reporting import format_kv_block
from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.overlap import analyze_overlap
from repro.data.generator import DatasetSpec, generate_dataset, paper_preset
from repro.olap import CubeStore, Query, QueryEngine


def _imbalance(cube, view) -> float:
    dist = cube.distribution(view).astype(float)
    return float(dist.max() / max(dist.mean(), 1e-9))


def test_query_latency_vs_balance(benchmark, scale, results_dir):
    def run():
        spec = paper_preset(scale.n_base, alpha=1.5, seed=99)
        data = dataset_for(spec)
        p = max(scale.processors)
        machine = MachineSpec(p=p)
        balanced = build_data_cube(data, spec.cardinalities, machine)
        loose = build_data_cube(
            data, spec.cardinalities, machine,
            CubeConfig(merge_policy="never_resort"),
        )
        # the views the adaptive rule re-sorted, largest first
        resorted = [
            v
            for rep in balanced.merge_reports
            for v, case in rep.cases.items()
            if case == "case3"
        ]
        resorted.sort(key=balanced.view_rows, reverse=True)
        probe = resorted[:4]
        imb_balanced = [_imbalance(balanced, v) for v in probe]
        imb_loose = [_imbalance(loose, v) for v in probe]
        t_bal = t_loose = 0.0
        for view in probe:
            q = Query(group_by=view)
            r1, s1 = QueryEngine(balanced).answer_parallel(q)
            r2, s2 = QueryEngine(loose).answer_parallel(q)
            assert r1.same_content(r2)  # same answers, different layout
            t_bal += s1
            t_loose += s2
        uniform = paper_preset(scale.n_base)
        overlap = analyze_overlap(
            build_data_cube(
                dataset_for(uniform), uniform.cardinalities, machine
            )
        )
        return imb_balanced, imb_loose, t_bal, t_loose, overlap

    imb_balanced, imb_loose, t_bal, t_loose, overlap = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    pairs = [
        (
            "re-sorted views, balanced cube max/mean",
            " ".join(f"{x:.2f}" for x in imb_balanced),
        ),
        (
            "same views, never-resort cube max/mean",
            " ".join(f"{x:.2f}" for x in imb_loose),
        ),
        ("balanced cube query latency", f"{t_bal * 1e3:.1f} ms"),
        ("never-resort cube query latency", f"{t_loose * 1e3:.1f} ms"),
        ("overlap: merge comm maskable", f"{overlap.masked_fraction:.0%}"),
        ("overlap: build-time gain", f"{overlap.speedup_gain():.2f}x"),
    ]
    record(
        results_dir,
        "query_latency",
        format_kv_block(
            "Query latency vs view balance (+ Section 4.1 overlap estimate)",
            pairs,
        ),
    )
    # Machine-readable twin of the text report, for tooling.
    (results_dir / "query_latency.json").write_text(
        json.dumps(
            {
                "bench": "query_latency",
                "imbalance_balanced": [float(x) for x in imb_balanced],
                "imbalance_never_resort": [float(x) for x in imb_loose],
                "balanced_latency_s": float(t_bal),
                "never_resort_latency_s": float(t_loose),
                "overlap_masked_fraction": float(overlap.masked_fraction),
                "overlap_speedup_gain": float(overlap.speedup_gain()),
            },
            indent=2,
        )
        + "\n"
    )

    # The γ contract: every re-sorted view is near-even in the balanced
    # cube and (on skewed data) clearly lopsided without re-sorting.
    assert max(imb_balanced) < 1.2
    assert np.mean(imb_loose) > np.mean(imb_balanced) * 1.3
    # End-to-end latency must not regress (it improves once view scans
    # dominate the fixed collective latency, i.e. at larger REPRO_BENCH_N).
    assert t_bal <= t_loose * 1.1
    # The paper's 40-60% masking estimate should be within reach.
    assert overlap.masked_fraction > 0.2


CARDS_AP = (24, 16, 10, 8)


def test_access_path_matrix(benchmark, scale, results_dir, tmp_path):
    """Scan vs index on one stored cube."""

    def run():
        rel = generate_dataset(
            DatasetSpec(
                n=scale.n_base,
                cardinalities=CARDS_AP,
                alphas=(1.2, 0.9, 0.6, 0.3),
                seed=43,
            )
        )
        cube = build_data_cube(rel, CARDS_AP, MachineSpec(p=2))
        path = CubeStore.save(cube, str(tmp_path / "store"))
        handle = CubeStore.open(path)
        lanes = {
            "scan": handle.query_engine(index=False),
            "index": handle.query_engine(index=True),
        }
        # hot-corner point lookups: each dimension at one of its three
        # most frequent values
        rng = np.random.default_rng(5)
        hot = [
            np.argsort(-np.bincount(rel.dims[:, dim], minlength=card))[:3]
            for dim, card in enumerate(CARDS_AP)
        ]
        queries = [
            Query(
                group_by=(),
                filters={
                    dim: (int(values[rng.integers(0, 3)]),) * 2
                    for dim, values in enumerate(hot)
                },
            )
            for _ in range(60)
        ]
        p50 = {}
        identical = True
        reference = [lanes["scan"].answer(q) for q in queries]
        for name, engine in lanes.items():
            best = np.full(len(queries), np.inf)
            for _ in range(3):
                for i, q in enumerate(queries):
                    t0 = time.perf_counter()
                    got = engine.answer(q)
                    best[i] = min(best[i], time.perf_counter() - t0)
                    if not (
                        np.array_equal(got.dims, reference[i].dims)
                        and np.array_equal(
                            got.measure, reference[i].measure
                        )
                    ):
                        identical = False
            p50[name] = float(np.percentile(best, 50) * 1e6)
        return p50, len(queries), identical

    p50, n_queries, identical = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    pairs = [
        ("point queries", str(n_queries)),
        ("scan p50", f"{p50['scan']:.0f} us"),
        ("index p50", f"{p50['index']:.0f} us"),
        ("all paths bit-identical", str(identical)),
    ]
    record(
        results_dir,
        "access_paths",
        format_kv_block("Access-path latency matrix", pairs),
    )
    (results_dir / "access_paths.json").write_text(
        json.dumps(
            {
                "bench": "access_paths",
                "p50_us": {k: round(v, 1) for k, v in p50.items()},
                "queries": n_queries,
                "bit_identical": identical,
            },
            indent=2,
        )
        + "\n"
    )
    assert identical, "access paths disagreed on point lookups"
    # the index lane must beat the full scan outright
    assert p50["index"] < p50["scan"]
