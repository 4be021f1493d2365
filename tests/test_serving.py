"""Tests for the serving tier: fence index, access paths, store v2,
byte-budgeted cache, and the QueryService worker pool."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.baselines.reference import reference_view
from repro.config import MachineSpec, RunResult
from repro.core.cube import CubeResult, build_data_cube
from repro.core.viewdata import ViewData
from repro.olap import (
    CachedQueryEngine,
    CubeStore,
    FenceIndex,
    Query,
    QueryEngine,
    QueryPlanner,
    QueryService,
    ResultCache,
)
from repro.olap.index import classify_access, key_bounds
from repro.olap.servebench import (
    run_at_rate,
    serving_workload,
    synthetic_serving_cube,
)
from repro.storage.table import Relation
from tests.conftest import make_relation

CARDS = (12, 8, 5, 3)


@pytest.fixture(scope="module")
def dataset():
    return make_relation(5000, CARDS, seed=11)


@pytest.fixture(scope="module")
def cube(dataset):
    return build_data_cube(dataset, CARDS, MachineSpec(p=4))


def oracle(dataset, group_by, filters=None, agg="sum"):
    mask = np.ones(dataset.nrows, dtype=bool)
    for dim, (lo, hi) in (filters or {}).items():
        mask &= (dataset.dims[:, dim] >= lo) & (dataset.dims[:, dim] <= hi)
    filtered = Relation(dataset.dims[mask], dataset.measure[mask])
    return reference_view(filtered, CARDS, group_by, agg)


# ---------------------------------------------------------------------------
# fence index
# ---------------------------------------------------------------------------


class TestFenceIndex:
    def test_window_covers_every_range(self):
        rng = np.random.default_rng(1)
        keys = np.sort(rng.integers(0, 500, 913, dtype=np.int64))
        fence = FenceIndex.build(keys, stride=16)
        for lo, hi in [(0, 499), (5, 5), (250, 260), (499, 499), (600, 700)]:
            row_lo, row_hi = fence.window(lo, hi)
            want_lo = int(np.searchsorted(keys, lo, side="left"))
            want_hi = int(np.searchsorted(keys, hi, side="right"))
            assert row_lo <= want_lo and row_hi >= want_hi

    def test_window_keeps_boundary_duplicates(self):
        keys = np.array([5, 5, 5, 5, 5, 9], dtype=np.int64)
        fence = FenceIndex.build(keys, stride=2)
        row_lo, row_hi = fence.window(5, 5)
        assert row_lo == 0 and row_hi >= 5

    def test_empty_and_miss(self):
        fence = FenceIndex.build(np.empty(0, dtype=np.int64))
        assert fence.window(0, 10) == (0, 0)
        fence = FenceIndex.build(np.array([7], dtype=np.int64), stride=4)
        assert fence.window(9, 3) == (0, 0)  # inverted range

    def test_manifest_roundtrip(self):
        keys = np.arange(0, 1000, 3, dtype=np.int64)
        fence = FenceIndex.build(keys, stride=32)
        back = FenceIndex.from_manifest(fence.to_manifest())
        assert back.stride == fence.stride
        assert back.nrows == fence.nrows
        assert np.array_equal(back.keys, fence.keys)


# ---------------------------------------------------------------------------
# access-path classification
# ---------------------------------------------------------------------------


class TestClassifyAccess:
    def test_point_prefix_then_group(self):
        plan = classify_access((0, 1, 2), (1, 2), {0: (3, 3)})
        assert plan.kind == "index"
        assert plan.prefix_len == 1 and plan.monotone

    def test_range_closes_prefix(self):
        plan = classify_access((0, 1, 2), (2,), {0: (1, 4), 1: (2, 2)})
        # the range on dim 0 ends the prefix; dim 1's point filter is
        # residual, dim 2 group projection is not monotone
        assert plan.prefix_len == 1
        assert plan.kind == "index+sort"
        assert plan.residual == ((1, (2, 2)),)

    def test_unfiltered_leading_dim_means_scan(self):
        plan = classify_access((0, 1, 2), (2,), {1: (2, 2)})
        assert plan.kind == "scan" and plan.prefix_len == 0

    def test_trailing_range_on_group_dim_folds_into_prefix(self):
        plan = classify_access((0, 1), (1,), {0: (2, 2), 1: (0, 3)})
        assert plan.kind == "index"
        assert plan.prefix_len == 2  # the range rides the key bounds
        assert plan.group_filters == () and plan.residual == ()

    def test_group_filter_beyond_prefix_moves_to_groups(self):
        plan = classify_access((0, 1, 2), (1, 2), {0: (2, 2), 2: (0, 1)})
        assert plan.kind == "index"
        assert plan.prefix_len == 1
        assert plan.group_filters == ((2, (0, 1)),)
        assert plan.residual == ()

    def test_key_bounds_open_suffix(self):
        plan = classify_access((0, 1), (1,), {0: (2, 2)})
        lo, hi = key_bounds((0, 1), (4, 8), plan, {0: (2, 2)})
        assert lo == 2 * 8 and hi == 2 * 8 + 7


# ---------------------------------------------------------------------------
# index path vs scan path vs oracle
# ---------------------------------------------------------------------------


class TestIndexedExecution:
    QUERIES = [
        Query(group_by=(0,)),
        Query(group_by=(0, 1), filters={2: (1, 3)}),
        Query(group_by=(1,), filters={0: (2, 2), 3: (0, 1)}),
        Query(group_by=(2, 3), filters={0: (5, 5)}),
        Query(group_by=(), filters={1: (0, 4)}),
        Query(group_by=(0, 2), filters={0: (1, 6)}, having=(">=", 10.0)),
        Query(group_by=(1, 3), filters={1: (2, 6), 2: (0, 2)}),
        Query(group_by=(), filters={d: (1, 1) for d in range(4)}),
    ]

    def test_bit_identical_to_scan_and_oracle(self, cube, dataset):
        scan = QueryEngine(cube, index=False)
        idx = QueryEngine(cube, index=True)
        for query in self.QUERIES:
            a = scan.answer(query)
            b = idx.answer(query)
            assert np.array_equal(a.dims, b.dims), query.describe()
            assert np.array_equal(a.measure, b.measure), query.describe()
            if query.having is None:
                want = oracle(dataset, query.group_by, dict(query.filters))
                assert b.same_content(want), query.describe()

    def test_explain_reports_access_path(self, cube):
        idx = QueryEngine(cube, index=True)
        scan = QueryEngine(cube, index=False)
        point = Query(group_by=(), filters={d: (1, 1) for d in range(4)})
        assert idx.explain(point).access_path in ("index", "index+sort")
        assert scan.explain(point).access_path == "scan"


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


class TestPlannerOrders:
    def test_prefers_order_compatible_view_at_equal_rows(self):
        rows = {(0, 1): 100, (1, 2): 100}
        orders = {(0, 1): (1, 0), (1, 2): (1, 2)}
        planner = QueryPlanner(rows, orders)
        plan = planner.plan(Query(group_by=(2,), filters={1: (3, 3)}))
        assert plan.view == (1, 2)
        assert plan.access_path == "index"
        # without order info the tie falls to the lexicographically
        # first candidate
        bare = QueryPlanner(rows)
        q = Query(group_by=(1,))
        assert bare.plan(q).view == (0, 1)
        assert bare.plan(q).access_path == "scan"

    def test_smaller_view_still_wins_over_order(self):
        rows = {(0, 1): 50, (1, 2): 500}
        orders = {(1, 2): (1, 2)}
        planner = QueryPlanner(rows, orders)
        plan = planner.plan(Query(group_by=(1,)))
        assert plan.view == (0, 1) and plan.scan_rows == 50


# ---------------------------------------------------------------------------
# Query hashability (satellite)
# ---------------------------------------------------------------------------


class TestQueryHashable:
    def test_hash_and_equality(self):
        a = Query(group_by=(1, 0), filters={2: (1, 3), 0: 5})
        b = Query(group_by=(0, 1), filters={0: (5, 5), 2: (1, 3)})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "x"}[b] == "x"

    def test_filters_immutable(self):
        q = Query(group_by=(0,), filters={1: (2, 3)})
        with pytest.raises(TypeError):
            q.filters[1] = (0, 0)
        with pytest.raises(TypeError):
            q.filters.clear()

    def test_pickle_roundtrip(self):
        q = Query(group_by=(0,), filters={1: (2, 3)}, having=(">=", 1.0))
        back = pickle.loads(pickle.dumps(q))
        assert back == q and hash(back) == hash(q)
        assert back.filters[1] == (2, 3)


# ---------------------------------------------------------------------------
# store format 2 + rejected legacy manifests (satellite)
# ---------------------------------------------------------------------------


class TestStoreV2:
    def test_formats_answer_identically(self, cube, tmp_path):
        p2 = CubeStore.save(cube, str(tmp_path / "v2"))
        assert int(CubeStore._read_manifest(p2)["format"]) == 2
        live = QueryEngine(cube, index=False)
        engines = [
            CubeStore.open(p2).query_engine(index=index)
            for index in (True, False)
        ]
        for query in TestIndexedExecution.QUERIES:
            want = live.answer(query)
            for engine in engines:
                got = engine.answer(query)
                assert np.array_equal(want.dims, got.dims)
                assert np.array_equal(want.measure, got.measure)

    def test_view_index_by_format(self, cube, tmp_path):
        p2 = CubeStore.save(cube, str(tmp_path / "v2"), fence_stride=64)
        view = cube.views[0]
        fence = CubeStore.open(p2).view_index(view)
        assert fence.stride == 64
        assert fence.nrows == cube.view_rows(view)

    def test_v2_preserves_distribution_and_orders(self, cube, tmp_path):
        path = CubeStore.save(cube, str(tmp_path / "v2"))
        back = CubeStore.load(path)
        for view in cube.views:
            for rank in range(len(cube.rank_views)):
                a = cube.rank_views[rank][view]
                b = back.rank_views[rank][view]
                assert a.order == b.order
                assert np.array_equal(a.keys, b.keys)
                assert np.array_equal(a.measure, b.measure)

    @pytest.mark.parametrize(
        "second, complaint",
        [
            (ViewData((1, 0), [2, 6], [1.0, 1.0]), "sort order"),
            (ViewData((0, 1), [5, 7], [1.0, 1.0]), "key-disjoint"),
        ],
        ids=["mixed-orders", "key-on-two-ranks"],
    )
    def test_broken_view_is_rejected_by_name(
        self, tmp_path, second, complaint
    ):
        first = ViewData((0, 1), [1, 5, 9], [1.0, 1.0, 1.0])
        cube = CubeResult(
            rank_views=[{(0, 1): first}, {(0, 1): second}],
            cardinalities=(4, 4),
            metrics=RunResult(0.0, 0.0, 5, 1, 0, 0),
        )
        with pytest.raises(ValueError, match=f"view AB.*{complaint}"):
            CubeStore.save(cube, str(tmp_path / "f2"))
        with pytest.raises(ValueError, match=f"view AB.*{complaint}"):
            QueryEngine(cube).answer(Query((0,), {0: (1, 2)}))

    def test_unknown_format_rejected(self, cube, tmp_path):
        for fmt in (1, 3, 4):
            with pytest.raises(ValueError, match="format"):
                CubeStore.save(cube, str(tmp_path / "x"), format=fmt)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(format=1),
            lambda m: m.update(format=3),
            lambda m: m["views"][0].update(layout="ranked"),
            lambda m: m["views"][0].update(layout="hybrid"),
            lambda m: m.update(reorder={"perms": [[0, 1]]}),
            lambda m: m["views"][-1].update(layout="columnar"),
            lambda m: m["views"][0].pop("layout"),
        ],
        ids=[
            "format-1", "format-3", "ranked", "hybrid", "reorder",
            "unknown-layout", "no-layout",
        ],
    )
    def test_open_rejects_manifests_it_cannot_read(
        self, cube, tmp_path, edit
    ):
        path = CubeStore.save(cube, str(tmp_path / "old"))
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="python -m repro build"):
            CubeStore.open(path)

    def test_meter_counts_index_reads(self, cube, tmp_path):
        path = CubeStore.save(cube, str(tmp_path / "v2"))
        handle = CubeStore.open(path)
        engine = handle.query_engine()
        engine.answer(Query(group_by=(), filters={d: (1, 1) for d in range(4)}))
        snap = handle.meter.snapshot()
        assert snap["range_reads"] > 0
        assert snap["rows_touched"] < cube.view_rows(tuple(range(4)))


# ---------------------------------------------------------------------------
# byte-budgeted cache (satellite: hashable key + new eviction)
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_byte_budget_evicts_lru(self):
        cache = ResultCache(byte_budget=100, admit_fraction=0.5)
        assert cache.put("a", "A", 40)
        assert cache.put("b", "B", 40)
        assert cache.get("a") == "A"  # refresh a
        assert cache.put("c", "C", 40)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == "A" and cache.get("c") == "C"
        assert cache.stats.evictions == 1
        assert cache.bytes_held == 80

    def test_admission_threshold_rejects_huge(self):
        cache = ResultCache(byte_budget=100, admit_fraction=0.25)
        assert not cache.put("big", "X", 26)
        assert cache.stats.rejected == 1
        assert len(cache) == 0
        assert cache.put("small", "y", 25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResultCache(byte_budget=0)
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(admit_fraction=0.0)

    def test_cached_engine_uses_query_as_key(self, cube):
        engine = CachedQueryEngine(cube, capacity=8, byte_budget=1 << 20)
        q1 = Query(group_by=(0, 1), filters={2: (1, 3)})
        q2 = Query(group_by=(1, 0), filters={2: (1, 3)})  # same query
        r1 = engine.answer(q1)
        r2 = engine.answer(q2)
        assert r1 is r2
        assert engine.stats.hits == 1 and engine.stats.misses == 1
        assert engine.bytes_held > 0

    def test_capacity_still_enforced(self, cube):
        with pytest.raises(ValueError):
            CachedQueryEngine(cube, capacity=0)
        engine = CachedQueryEngine(cube, capacity=2)
        for dim in range(3):
            engine.answer(Query(group_by=(dim,)))
        assert len(engine) == 2
        assert engine.stats.evictions == 1


# ---------------------------------------------------------------------------
# synthetic serving cube + workload
# ---------------------------------------------------------------------------


class TestServeBench:
    def test_rollups_match_base(self):
        cube = synthetic_serving_cube(2000, (32, 16, 8), p=3, seed=4)
        engine = QueryEngine(cube, index=False)
        base = cube.view_relation((0, 1, 2))
        for view in [(0,), (1, 2)]:
            got = engine.answer(Query(group_by=view))
            want = reference_view(base, (32, 16, 8), view, "sum")
            assert got.same_content(want)

    def test_workload_is_seeded_and_typed(self):
        w1 = serving_workload((32, 16, 8), n=50, seed=9)
        w2 = serving_workload((32, 16, 8), n=50, seed=9)
        assert [q for _, q in w1] == [q for _, q in w2]
        kinds = {kind for kind, _ in w1}
        assert kinds <= {"point", "rollup", "slice"}


# ---------------------------------------------------------------------------
# query service
# ---------------------------------------------------------------------------


class TestQueryService:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        cube = synthetic_serving_cube(20_000, (32, 16, 16, 8), p=4, seed=2)
        path = str(tmp_path_factory.mktemp("svc") / "cube.d")
        CubeStore.save(cube, path)
        return path

    def test_pool_parity_with_engine(self, store_path):
        handle = CubeStore.open(store_path)
        engine = QueryEngine(handle.cube, index=False)
        workload = [
            q for _, q in serving_workload((32, 16, 16, 8), n=16, seed=5)
        ]
        with QueryService(store_path, workers=2) as service:
            results = service.answer_many(workload, timeout=90)
        for query, got in zip(workload, results):
            want = engine.answer(query)
            assert np.array_equal(want.dims, got.dims), query.describe()
            assert np.array_equal(want.measure, got.measure)

    def test_cache_and_inflight_dedup(self, store_path):
        query = Query(group_by=(0,))
        with QueryService(store_path, workers=1) as service:
            tickets = [service.submit(query) for _ in range(4)]
            results = [service.wait(t, timeout=60) for t in tickets]
            again = service.answer(query, timeout=60)
            stats = service.stats()
        assert stats["executed"] == 1  # 3 dedups + 1 cache hit
        assert stats["submitted"] == 5
        assert stats["cache"]["hits"] == 1
        for r in results + [again]:
            assert np.array_equal(r.measure, results[0].measure)

    def test_error_relayed_with_original_type(self, store_path):
        # the worker's exception type crosses the queue: the engine
        # raises LookupError for an uncovered view, and the caller sees
        # LookupError (not a generic RuntimeError wrapper)
        with QueryService(store_path, workers=1) as service:
            with pytest.raises(LookupError, match="worker 0"):
                service.answer(Query(group_by=(9,)), timeout=60)
            # the pool still serves after a failed query
            ok = service.answer(Query(group_by=(1,)), timeout=60)
        assert ok.nrows == 16

    def test_rate_runner_reports(self, store_path):
        workload = [
            q for _, q in serving_workload((32, 16, 16, 8), n=32, seed=6)
        ]
        with QueryService(
            store_path, workers=1, byte_budget=None
        ) as service:
            rung = run_at_rate(service, workload, 20.0, 0.5)
        assert rung["completed"] == rung["submitted"] > 0
        assert rung["errors"] == 0 and rung["timed_out"] == 0
        assert rung["p50_ms"] is not None and rung["p50_ms"] > 0

    def test_scan_pinned_service(self, store_path):
        query = Query(group_by=(), filters={0: (3, 3)})
        handle = CubeStore.open(store_path)
        want = QueryEngine(handle.cube, index=False).answer(query)
        with QueryService(store_path, workers=1, index=False) as service:
            got = service.answer(query, timeout=60)
        assert np.array_equal(want.dims, got.dims)
        assert np.array_equal(want.measure, got.measure)

    def test_steady_state_serving_recycles_segments(self, store_path):
        # A decoded result's segments ride the next task back to the
        # worker, which reuses them: 40 sequential answers that each go
        # through shared memory touch no more than a few segment names.
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this host")
        seen = set()
        with QueryService(
            store_path, workers=1, byte_budget=None
        ) as service:
            prefix = f"rp{service.pool.procs[0].pid}x"
            for i in range(40):
                query = Query(
                    group_by=(0, 1),
                    filters={2: (i % 16, i % 16), 3: (0, 7 - i // 16)},
                )
                got = service.answer(query, timeout=60)
                assert got.dims.nbytes > 1024  # past the shm threshold
                seen.update(
                    name for name in os.listdir("/dev/shm")
                    if name.startswith(prefix)
                )
        assert 1 <= len(seen) <= 4, sorted(seen)

    def test_no_leaked_segments_after_close(self, store_path):
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):
            pytest.skip("no /dev/shm on this host")
        service = QueryService(store_path, workers=2)
        pids = list(service.pool.all_pids)
        service.answer_many(
            [Query(group_by=(d,)) for d in range(4)], timeout=90
        )
        service.close()
        leaked = [
            name
            for name in os.listdir(shm_dir)
            for pid in pids
            if name.startswith(f"rp{pid}x")
        ]
        assert leaked == []
