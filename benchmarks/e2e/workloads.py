"""Seeded input generators for the end-to-end benchmark.

Everything the program under test receives is made here from ``--seed``:
datasets (through the public ``DatasetSpec`` / ``paper_preset``), query
streams, Zipf template draws and refresh deltas.  The same seed gives the
same inputs; the program never sees the seed itself.

Sizes are constants of this file (``SIZES``), never environment
variables.  ``scale`` (default 1.0) multiplies the row counts and exists
only so ``test_smoke.py`` can run every workload in a few seconds.
"""

from __future__ import annotations

import numpy as np

from repro import DatasetSpec, MachineSpec, generate_dataset, paper_preset
from repro.olap import Query

#: Cardinalities of the serving dataset (d = 6, 64 views).
SERVE_CARDS = (64, 32, 32, 16, 8, 4)

#: Workload sizes at scale 1.0.  Row counts were chosen on a 2-core host
#: so one timed build takes about a second and one serve set-up under two
#: (README.md, "Where this departs from ISSUE 12": sizes).
SIZES = {
    "build_uniform": {"rows": 50_000, "alpha": 0.0, "p": 4, "backend": "thread"},
    "build_skew_process": {"rows": 50_000, "alpha": 1.0, "p": 2, "backend": "process"},
    "build_ckpt_crash": {"rows": 50_000, "alpha": 0.0, "p": 4, "backend": "thread"},
    "serve_lookup": {"rows": 1_000_000, "p": 4},
    "serve_analytic": {"rows": 1_000_000, "p": 4},
    "serve_hot_refresh": {
        "rows": 1_000_000,
        "p": 4,
        "rate_qps": 300.0,
        "templates": 2_000,
        "zipf_s": 1.1,
        "delta_rows": 10_000,
        "refresh_every_s": 3.0,
        "first_refresh_s": 1.0,
    },
}

BUILD_WORKLOADS = ("build_uniform", "build_skew_process", "build_ckpt_crash")
SERVE_WORKLOADS = ("serve_lookup", "serve_analytic", "serve_hot_refresh")
WORKLOADS = BUILD_WORKLOADS + SERVE_WORKLOADS

#: Per-layer metric -> the workloads it applies to.  A traced run of one
#: of those workloads that does not measure the metric is an error (a span
#: name typo, a dropped key); every other workload bypasses the layer and
#: reports 0.  test_smoke.py holds this table against BENCHMARK.json.
APPLIES: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(
        (
            "core.partition_sort_s", "core.pipesort_plan_s",
            "core.pipesort_exec_s", "core.merge_s",
            "core.merge_case1_views", "core.merge_case2_views",
            "core.merge_case3_views", "core.attempts",
            "core.sim_partition_s", "core.sim_compute_s", "core.sim_merge_s",
            "mpi.comm_bytes", "mpi.supersteps", "mpi.sim_comm_share",
            "mpi.collective_wait_s", "mpi.spawn_s", "mpi.exchange_mb_per_s",
            "mpi.rank_busy_imbalance",
            "storage.sort_s", "storage.sort_calls", "storage.sort_rows",
            "storage.sort_mrows_per_s", "storage.codec_remap_s",
            "storage.aggregate_s", "storage.disk_blocks",
        ),
        BUILD_WORKLOADS,
    ),
    **dict.fromkeys(
        (
            "core.checkpoint_save_s", "core.checkpoint_bytes",
            "core.checkpoint_files", "core.resume_s", "core.recovered_sim_s",
        ),
        ("build_ckpt_crash",),
    ),
    **dict.fromkeys(
        (
            "mpi.backend_overhead_s", "mpi.shm_segments_created",
            "mpi.shm_leases", "mpi.shm_reuse_ratio",
        ),
        ("build_skew_process",),
    ),
    **dict.fromkeys(
        (
            "olap.store_save_s", "olap.store_open_s", "olap.store_bytes",
            "olap.store_bytes_per_row", "olap.service_start_s",
            "olap.query_p95_ms", "olap.query_p99_ms", "olap.executed_share",
            "olap.retries", "olap.shed", "olap.timeouts",
            "olap.worker_restarts",
            # serve_lookup still fills the cache; it just never hits.
            "olap.cache_hit_ratio", "olap.cache_evictions",
            "olap.cache_bytes_held",
        ),
        SERVE_WORKLOADS,
    ),
    **dict.fromkeys(
        (
            "olap.plan_ms", "olap.engine_slice_ms", "olap.engine_rollup_ms",
            "olap.engine_dice_ms", "olap.rows_touched_per_result_row",
            "olap.access_index_share", "olap.access_index_sort_share",
            "olap.access_scan_share", "olap.service_overhead_ms",
        ),
        ("serve_lookup", "serve_analytic"),
    ),
    "olap.engine_point_ms": ("serve_lookup",),
    **dict.fromkeys(
        (
            "olap.refresh_s",
            "olap.refresh_delta_build_s", "olap.refresh_merge_s",
            "olap.refresh_files_written", "olap.refresh_files_linked",
            "olap.refresh_bytes_written", "olap.refresh_window_p99_ms",
            "olap.rotate_s", "bench.gen_late_p99_ms",
        ),
        ("serve_hot_refresh",),
    ),
    **dict.fromkeys(
        (
            "op_p50_ms", "throughput_ops", "data.generate_s",
            "bench.trace_overhead", "bench.calib_sort_s",
        ),
        WORKLOADS,
    ),
}

#: The fault the checkpoint workload injects on its first attempt.
CRASH_FAULT = "crash@r1s40"


def scaled_rows(workload: str, scale: float) -> int:
    return max(int(SIZES[workload]["rows"] * scale), 2_000)


def machine_spec(workload: str) -> MachineSpec:
    size = SIZES[workload]
    return MachineSpec(p=size["p"], backend=size.get("backend", "thread"))


def dataset_spec(
    workload: str, seed: int, scale: float, draw: int
) -> DatasetSpec:
    """The public generator spec of the ``draw``-th input relation that
    one workload makes from ``seed`` (one per set-up)."""
    rows = scaled_rows(workload, scale)
    data_seed = seed * 1_000 + draw
    if workload in BUILD_WORKLOADS:
        return paper_preset(
            n=rows, alpha=SIZES[workload]["alpha"], seed=data_seed
        )
    return DatasetSpec(
        n=rows,
        cardinalities=SERVE_CARDS,
        alphas=(0.0,) * len(SERVE_CARDS),
        seed=data_seed,
    )


def delta_relation(seed: int, k: int, rows: int):
    """The ``k``-th insert-only refresh delta (uniform, serve dims)."""
    return generate_dataset(
        DatasetSpec(
            n=rows,
            cardinalities=SERVE_CARDS,
            alphas=(0.0,) * len(SERVE_CARDS),
            seed=seed * 1_000 + 17 + k,
        )
    )


# ---------------------------------------------------------------------------
# query streams
# ---------------------------------------------------------------------------


def _range(rng, card: int, lo_width: int, hi_width: int) -> tuple[int, int]:
    width = int(rng.integers(lo_width, hi_width + 1))
    lo = int(rng.integers(0, card - width + 1))
    return lo, lo + width - 1


def _dims(rng, d: int, k: int, exclude=()) -> tuple[int, ...]:
    pool = [i for i in range(d) if i not in exclude]
    return tuple(sorted(int(i) for i in rng.choice(pool, size=k, replace=False)))


def _point(rng, relation) -> Query:
    # Drawn from an input row so the cell exists: uniformly random cells
    # are empty 97% of the time at 1 M rows in 33.5 M cells, and empty
    # answers are zero bytes, which any cache admits.
    row = relation.dims[int(rng.integers(0, relation.nrows))]
    return Query((), {dim: (int(v), int(v)) for dim, v in enumerate(row)})


def _narrow_slice(rng, cards) -> Query:
    d = len(cards)
    other = int(rng.integers(1, d))
    (group,) = _dims(rng, d, 1, exclude=(0, other))
    value = int(rng.integers(0, cards[other]))
    return Query(
        (group,), {0: _range(rng, cards[0], 1, 8), other: (value, value)}
    )


def _filtered_rollup(rng, cards) -> Query:
    # The 6-dim lattice has only 41 unfiltered 1-3-dim roll-ups; a range
    # filter on a grouped dim keeps every query distinct without needing
    # a bigger covering view.
    d = len(cards)
    group = _dims(rng, d, int(rng.integers(1, 4)))
    dim = int(rng.choice(group))
    return Query(group, {dim: _range(rng, cards[dim], 1, max(cards[dim] // 2, 1))})


def _small_dice(rng, cards) -> Query:
    d = len(cards)
    a, b = _dims(rng, d, 2)
    (group,) = _dims(rng, d, 1, exclude=(a, b))
    value = int(rng.integers(0, cards[a]))
    return Query(
        (group,), {a: (value, value), b: _range(rng, cards[b], 1, 4)}
    )


#: (kind, share) of the short-query mix.
LOOKUP_MIX = (("point", 0.45), ("slice", 0.25), ("rollup", 0.20), ("dice", 0.10))


def _wide_slice(rng, cards) -> Query:
    c0 = cards[0]
    return Query((1, 2, 3), {0: _range(rng, c0, c0 // 4, c0 // 2)})


def _half_dice(rng, cards) -> Query:
    # Two of the four leading dims are filtered to half their domain and
    # the other two grouped, so the 4-dim view must be read but the answer
    # stays small: the engine, not the transport, does the work.
    a, b = _dims(rng, 4, 2, exclude=(0,))
    group = tuple(i for i in range(4) if i not in (a, b))
    return Query(
        group,
        {
            a: _range(rng, cards[a], cards[a] // 2, cards[a] // 2),
            b: _range(rng, cards[b], cards[b] // 2, cards[b] // 2),
        },
    )


def _having_rollup(rng, cards) -> Query:
    group = _dims(rng, len(cards), 5)
    # Measures are uniform in [0, 100) and most 5-dim groups hold one row,
    # so a threshold above 100 keeps only multi-row groups (a small
    # answer).  Drawn from a continuum so the queries stay distinct.
    return Query(group, having=(">=", float(rng.uniform(150.0, 250.0))))


#: (kind, share) of the heavy-query mix.  Costs cluster by kind and view
#: order: about 12 ms (slices, dices and roll-ups the order serves from a
#: prefix), 35-50 ms (dices that scan the 4-dim view, most roll-ups) and
#: 60-80 ms.  These shares put 40% of the queries in the first cluster
#: and the median well inside the second; at 50/50 it sat in the gap
#: between them and jumped from 24 to 44 ms with the seed.
ANALYTIC_MIX = (("slice", 0.10), ("dice", 0.60), ("rollup", 0.30))


def _distinct(rng, count: int, mix, makers) -> list[tuple[str, Query]]:
    """``count`` distinct ``(kind, query)`` pairs drawn from ``mix``."""
    kinds = [k for k, _ in mix]
    edges = np.cumsum([s for _, s in mix])
    seen: set[Query] = set()
    out: list[tuple[str, Query]] = []
    while len(out) < count:
        kind = kinds[int(np.searchsorted(edges, rng.random() * edges[-1], "right"))]
        query = makers[kind]()
        if query in seen:
            continue  # a repeat would be a cache or dedup hit
        seen.add(query)
        out.append((kind, query))
    return out


def lookup_queries(seed: int, relation, count: int) -> list[tuple[str, Query]]:
    """Distinct short queries of the ``serve_lookup`` mix."""
    rng = np.random.default_rng((seed, 1))
    cards = SERVE_CARDS
    return _distinct(
        rng,
        count,
        LOOKUP_MIX,
        {
            "point": lambda: _point(rng, relation),
            "slice": lambda: _narrow_slice(rng, cards),
            "rollup": lambda: _filtered_rollup(rng, cards),
            "dice": lambda: _small_dice(rng, cards),
        },
    )


def analytic_queries(seed: int, count: int) -> list[tuple[str, Query]]:
    """Distinct heavy queries of the ``serve_analytic`` mix."""
    rng = np.random.default_rng((seed, 2))
    cards = SERVE_CARDS
    return _distinct(
        rng,
        count,
        ANALYTIC_MIX,
        {
            "slice": lambda: _wide_slice(rng, cards),
            "dice": lambda: _half_dice(rng, cards),
            "rollup": lambda: _having_rollup(rng, cards),
        },
    )


def zipf_stream(
    seed: int, relation, templates: int, count: int, s: float
) -> list[tuple[str, Query]]:
    """``count`` draws, Zipf(``s``) over ``templates`` lookup queries."""
    pool = lookup_queries(seed, relation, templates)
    rng = np.random.default_rng((seed, 3))
    weights = 1.0 / np.arange(1, templates + 1, dtype=np.float64) ** s
    ranks = rng.choice(templates, size=count, p=weights / weights.sum())
    return [pool[int(r)] for r in ranks]
