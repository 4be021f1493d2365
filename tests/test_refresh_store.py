"""Tests for on-disk incremental refresh: delta-merge generations
(refresh_store), the atomic CURRENT swap, and refresh-aware serving."""

import json
import os
import time

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube
from repro.mpi.faults import FaultPlan
from repro.olap.cache import CachedQueryEngine
from repro.olap.query import Query
from repro.olap.refresh import refresh_store
from repro.olap.service import QueryService
from repro.olap.store import CubeStore
from repro.olap.supervise import ServicePolicy
from repro.storage.sortkernels import is_sorted_int64
from repro.storage.table import Relation

CARDS = (12, 8, 5, 3)
SPEC = MachineSpec(p=3)

QUERIES = [
    Query(group_by=()),
    Query(group_by=(0,)),
    Query(group_by=(1, 3)),
    Query(group_by=(0, 1), filters={0: (2, 9)}),
    Query(group_by=(), filters={0: (4, 4), 1: (2, 2)}),
]


def int_relation(n, cards=CARDS, seed=0):
    """Integer-valued float64 measures: SUMs stay exact, so refresh
    vs. rebuild comparisons can demand bit-identity."""
    rng = np.random.default_rng(seed)
    dims = np.column_stack(
        [rng.integers(0, c, size=n, dtype=np.int64) for c in cards]
    )
    measure = rng.integers(1, 50, size=n).astype(np.float64)
    return Relation(dims, measure)


def split(rel, k):
    return rel.slice(0, k), rel.slice(k, rel.nrows)


def save_store(rel, path, cards=CARDS, spec=SPEC, **save_kwargs):
    cube = build_data_cube(rel, cards, spec)
    return CubeStore.save(cube, str(path), **save_kwargs)


def canon(rel):
    if rel.dims.shape[1] == 0:  # the ALL query: one ungrouped row
        return rel.dims, rel.measure
    order = np.lexsort(rel.dims.T[::-1])
    return rel.dims[order], rel.measure[order]


def assert_same_answers(path_a, path_b, queries=QUERIES):
    """Bit-identical across the scan and index access paths."""
    for index in (False, True):
        ea = CubeStore.open(path_a).query_engine(index=index)
        eb = CubeStore.open(path_b).query_engine(index=index)
        for query in queries:
            ra, rb = ea.answer(query), eb.answer(query)
            da, ma = canon(ra)
            db, mb = canon(rb)
            assert np.array_equal(da, db), (index, query)
            assert np.array_equal(ma, mb), (index, query)


class TestRefreshStoreFormats:
    def test_matches_full_rebuild(self, tmp_path):
        rel = int_relation(4000, seed=52)
        first, extra = split(rel, 3200)
        store = save_store(first, tmp_path / "live")
        report = refresh_store(store, extra, spec=SPEC)
        assert report.generation == 1
        assert report.previous_generation == 0
        assert report.delta_rows == extra.nrows
        assert CubeStore.current_generation(store) == 1
        # Every delta row lands in every view: a non-empty delta rewrites
        # both columns of every view plus the manifest and links nothing.
        views = 2 ** len(CARDS)
        assert report.views_merged == views
        assert report.files_linked == 0
        assert report.files_written == 2 * views + 1
        rebuilt = save_store(rel, tmp_path / "rebuilt")
        assert_same_answers(store, rebuilt)
        cube = CubeStore.load(store)
        assert audit_cube(cube, relation=rel).ok

    def test_degraded_store_matches_full_rebuild(self, tmp_path):
        """A degraded build's resharded views interleave across ranks;
        its store is normalised at save time, so a refresh merges into
        it like into any other."""
        rel = int_relation(4000, seed=58)
        first, extra = split(rel, 3200)
        degraded = build_data_cube(
            first,
            CARDS,
            MachineSpec(p=4),
            faults=FaultPlan.parse("kill@r1s40"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert len(degraded.rank_views) == 3
        assert not all(
            is_sorted_int64(
                np.concatenate([rv[v].keys for rv in degraded.rank_views])
            )
            for v in degraded.views
        ), "the fault left no interleaved view to normalise"
        store = CubeStore.save(degraded, str(tmp_path / "live"))
        report = refresh_store(store, extra, spec=SPEC)
        assert report.views_merged == len(degraded.views)
        rebuilt = save_store(rel, tmp_path / "rebuilt")
        assert_same_answers(store, rebuilt)
        assert audit_cube(CubeStore.load(store), relation=rel).ok


class TestGenerationMechanics:
    def test_chained_refreshes_and_gc(self, tmp_path):
        rel = int_relation(3000, seed=60)
        a, rest = split(rel, 1800)
        b, c = split(rest, 600)
        store = save_store(a, tmp_path / "live")
        refresh_store(store, b, spec=SPEC)
        refresh_store(store, c, spec=SPEC)
        assert CubeStore.generations(store) == [0, 1, 2]
        assert CubeStore.current_generation(store) == 2
        # A pinned older generation stays readable by explicit request.
        mid = CubeStore.open(store, generation=1)
        assert mid.generation == 1
        rebuilt = save_store(rel, tmp_path / "rebuilt")
        assert_same_answers(store, rebuilt)
        removed = CubeStore.gc_generations(store)
        assert removed == [1]
        assert CubeStore.generations(store) == [0, 2]
        assert_same_answers(store, rebuilt)  # current survives GC
        with pytest.raises((FileNotFoundError, ValueError, OSError)):
            CubeStore.open(store, generation=1)

    def test_gc_keep_protects_generation(self, tmp_path):
        rel = int_relation(1500, seed=61)
        a, rest = split(rel, 900)
        b, c = split(rest, 300)
        store = save_store(a, tmp_path / "live")
        refresh_store(store, b, spec=SPEC)
        refresh_store(store, c, spec=SPEC)
        assert CubeStore.gc_generations(store, keep=[1]) == []
        assert CubeStore.generations(store) == [0, 1, 2]

    def test_delta_is_built_on_one_node(self, tmp_path):
        rel = int_relation(2000, seed=63)
        first, extra = split(rel, 1600)
        store = save_store(first, tmp_path / "live")
        report = refresh_store(store, extra, spec=SPEC)
        assert report.metrics.final_width == 1
        assert report.metrics.comm_bytes == 0

    def test_empty_delta_is_a_noop(self, tmp_path):
        rel = int_relation(1200, seed=62)
        store = save_store(rel, tmp_path / "live")
        report = refresh_store(store, Relation.empty(len(CARDS)))
        assert report.generation == 0
        assert report.previous_generation == 0
        assert report.views_merged == 0
        assert CubeStore.current_generation(store) == 0
        assert CubeStore.generations(store) == [0]

    def test_current_swap_is_atomic_pointer(self, tmp_path):
        rel = int_relation(1000, seed=64)
        first, extra = split(rel, 700)
        store = save_store(first, tmp_path / "live")
        refresh_store(store, extra, spec=SPEC)
        current = os.path.join(store, "CURRENT")
        with open(current) as fh:
            assert fh.read().strip() == "gen-000001"
        # Rolling back is editing one pointer.
        CubeStore.set_current(store, 1)
        assert CubeStore.current_generation(store) == 1

    def test_set_current_rejects_flat_root(self, tmp_path):
        rel = int_relation(500, seed=65)
        store = save_store(rel, tmp_path / "live")
        with pytest.raises(ValueError):
            CubeStore.set_current(store, 0)


class TestRefreshContracts:
    def test_non_maintainable_agg_rejected(self, tmp_path):
        rel = int_relation(800, seed=70)
        store = save_store(rel, tmp_path / "live")
        manifest = os.path.join(store, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["agg"] = "avg"
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="insert-maintainable"):
            refresh_store(store, int_relation(10, seed=71))

    def test_width_mismatch_rejected(self, tmp_path):
        rel = int_relation(800, seed=72)
        store = save_store(rel, tmp_path / "live")
        bad = int_relation(10, cards=(4, 4), seed=73)
        with pytest.raises(ValueError):
            refresh_store(store, bad)

    @pytest.mark.parametrize("agg", ["count", "min", "max"])
    def test_other_maintainable_aggregates(self, tmp_path, agg):
        rel = int_relation(2000, seed=74)
        first, extra = split(rel, 1500)
        cube = build_data_cube(
            first, CARDS, SPEC, CubeConfig(agg=agg)
        )
        store = CubeStore.save(cube, str(tmp_path / "live"))
        # COUNT persists as SUM-of-ones, so the delta's intent must be
        # stated explicitly or its measures would be *summed*.
        refresh_store(store, extra, spec=SPEC, config=CubeConfig(agg=agg))
        rebuilt = CubeStore.save(
            build_data_cube(rel, CARDS, SPEC, CubeConfig(agg=agg)),
            str(tmp_path / "rebuilt"),
        )
        assert_same_answers(store, rebuilt)


class TestRefreshAwareServing:
    def test_live_generation_pickup_no_stale_answers(self, tmp_path):
        rel = int_relation(3000, seed=80)
        first, extra = split(rel, 2400)
        store = save_store(first, tmp_path / "live")
        probe = Query(group_by=(0,))
        policy = ServicePolicy(current_poll_interval=0.05)
        with QueryService(
            store, workers=2, policy=policy, byte_budget=8 << 20
        ) as service:
            before = service.answer(probe)
            service.answer(probe)  # seeds the cache under generation 0
            report = refresh_store(store, extra, spec=SPEC)
            assert report.generation == 1
            assert service.check_generation() == 1
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                gens = [
                    g
                    for g in service.stats()[
                        "worker_store_generations"
                    ]
                    if g >= 0
                ]
                if gens and min(gens) >= 1:
                    break
                service.poll()
                time.sleep(0.01)
            else:
                pytest.fail("workers never rotated to generation 1")
            after = service.answer(probe)
            want = CubeStore.open(store).query_engine().answer(probe)
            da, ma = canon(after)
            dw, mw = canon(want)
            assert np.array_equal(da, dw)
            assert np.array_equal(ma, mw)
            db, mb = canon(before)
            assert not np.array_equal(ma, mb), (
                "delta did not change the probe answer; stale test is "
                "vacuous"
            )
            stats = service.stats()
            assert stats["store_generation"] == 1
            assert stats["generation_bumps"] >= 1

    def test_gc_after_all_workers_rotate(self, tmp_path):
        rel = int_relation(2400, seed=81)
        a, rest = split(rel, 1600)
        b, c = split(rest, 400)
        store = save_store(a, tmp_path / "live")
        policy = ServicePolicy(
            current_poll_interval=0.05,
            gc_generations=True,
        )
        with QueryService(
            store, workers=2, policy=policy
        ) as service:
            refresh_store(store, b, spec=SPEC)
            service.check_generation()
            refresh_store(store, c, spec=SPEC)
            service.check_generation()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                service.poll()
                service.check_generation()
                if service.stats()["generations_removed"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("superseded generation never collected")
            assert 1 not in CubeStore.generations(store)
            # The service still answers from the surviving current.
            result = service.answer(Query(group_by=(1,)))
            assert result.nrows > 0

    def test_run_with_refresh_availability(self, tmp_path):
        from repro.olap.servebench import run_with_refresh

        rel = int_relation(2000, seed=82)
        first, extra = split(rel, 1600)
        store = save_store(first, tmp_path / "live")
        batches = [extra.slice(0, 200), extra.slice(200, 400)]
        policy = ServicePolicy(current_poll_interval=0.05)
        with QueryService(
            store, workers=2, policy=policy, byte_budget=8 << 20
        ) as service:
            rung = run_with_refresh(
                service,
                [Query(group_by=(d,)) for d in range(len(CARDS))],
                batches,
                offered_qps=60.0,
                n_queries=60,
                refresh_every=15,
                probe=Query(group_by=(0,)),
                spec=SPEC,
            )
        assert rung["refreshes"] == 2
        assert rung["refresh_failures"] == []
        assert rung["generation_end"] == 2
        assert rung["availability"] >= 0.99
        assert rung["probe_fresh"] is True


class TestCacheGenerationKeying:
    def test_attach_bumps_generation_and_invalidates(self):
        rel = int_relation(1500, seed=90)
        first, extra = split(rel, 1000)
        cube = build_data_cube(first, CARDS, SPEC)
        engine = CachedQueryEngine(cube, capacity=16)
        assert engine.generation == 0
        probe = Query(group_by=(0,))
        engine.answer(probe)
        engine.answer(probe)
        assert engine.stats.hits == 1
        full = build_data_cube(rel, CARDS, SPEC)
        engine.attach(full, generation=5)
        assert engine.generation == 5
        result = engine.answer(probe)
        assert engine.stats.misses == 2  # old entry unreachable
        want = build_data_cube(rel, CARDS, SPEC)
        from repro.olap.query import QueryEngine

        expect = QueryEngine(want).answer(probe)
        da, ma = canon(result)
        dw, mw = canon(expect)
        assert np.array_equal(da, dw)
        assert np.array_equal(ma, mw)

    def test_attach_without_generation_still_invalidates(self):
        rel = int_relation(900, seed=91)
        cube = build_data_cube(rel, CARDS, SPEC)
        engine = CachedQueryEngine(cube)
        probe = Query(group_by=(1,))
        engine.answer(probe)
        engine.attach(cube)
        assert engine.generation == 1
        engine.answer(probe)
        assert engine.stats.hits == 0
