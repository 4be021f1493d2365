"""Chaos tests for the supervised serving runtime.

Every test injects a deterministic :class:`~repro.mpi.faults.FaultPlan`
of worker faults (keyed on a worker generation's executed-query
counter, so they fire identically on a loaded 1-CPU host) and checks
the service's failure contract: retried answers stay bit-identical to
the inline engine, dead and hung workers are detected and replaced,
poison queries trip the circuit breaker instead of killing the pool,
overload is shed explicitly, and nothing leaks in ``/dev/shm``.
"""

import importlib.util
import os
import pathlib
import time

import numpy as np
import pytest

from repro.mpi.errors import RankDead
from repro.mpi.faults import Fault, FaultPlan
from repro.mpi.pool import WorkerPool
from repro.olap import (
    CubeStore,
    PoisonQuery,
    Query,
    QueryEngine,
    QueryService,
    QueryTimeout,
    ServiceOverloaded,
    ServicePolicy,
)
from repro.olap.servebench import synthetic_serving_cube

CARDS = (16, 8, 8, 4)

#: Distinct point/rollup queries — distinct so in-flight dedup never
#: collapses them and per-worker executed-query counters stay exact.
WORKLOAD = [
    Query(group_by=(0,)),
    Query(group_by=(1,)),
    Query(group_by=(2,)),
    Query(group_by=(3,)),
    Query(group_by=(0, 1)),
    Query(group_by=(1, 2)),
    Query(group_by=(2, 3)),
    Query(group_by=(1,), filters={0: (2, 5)}),
]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    cube = synthetic_serving_cube(4000, CARDS, p=2, seed=7)
    path = str(tmp_path_factory.mktemp("chaos") / "cube.d")
    CubeStore.save(cube, path)
    return path


@pytest.fixture(scope="module")
def inline(store_path):
    handle = CubeStore.open(store_path)
    engine = QueryEngine(
        handle.cube, sorted_views=handle.sorted_views, index=True
    )
    return {q: engine.answer(q) for q in WORKLOAD}


def assert_identical(got, want, query):
    assert np.array_equal(want.dims, got.dims), query.describe()
    assert np.array_equal(want.measure, got.measure), query.describe()


def leaked_segments(pids):
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return [
        name
        for name in os.listdir(shm_dir)
        for pid in pids
        if name.startswith(f"rp{pid}x")
    ]


# ---------------------------------------------------------------------------
# fault grammar
# ---------------------------------------------------------------------------


class TestServeFaultGrammar:
    def test_parse_and_schedule(self):
        plan = FaultPlan.parse("kill@w0q2g0; hang@w1q3x2.5, corrupt@w0q1")
        kill, hang, corrupt = plan.faults
        assert kill == Fault("kill", "w", 0, 2, epoch=0)
        assert hang == Fault("hang", "w", 1, 3, 2.5)
        # corrupt without g fires every generation
        assert corrupt == Fault("corrupt", "w", 0, 1)
        assert plan.for_worker(0, 0) == [kill, corrupt]
        # the g0 kill does not follow slot 0 into generation 1, the
        # generation-less corrupt does
        assert plan.for_worker(0, 1) == [corrupt]
        assert plan.for_worker(1, 4) == [hang]
        assert plan.for_rank(0, 0) == []

    def test_describe_roundtrips(self):
        text = "kill@w0q2g0;hang@w1q3x2.5;corrupt@w2q4"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.describe()) == plan

    @pytest.mark.parametrize(
        "spec",
        ["", "kill@w0", "hang@r0s1", "explode@w0q1", "kill@w0q1z2"],
    )
    def test_bad_specs_rejected(self, spec, store_path):
        with pytest.raises(ValueError):
            QueryService(store_path, workers=1, faults=FaultPlan.parse(spec))

    def test_rank_fault_rejected_by_the_service(self, store_path):
        # hang@r0s1 is a valid rank fault that no serving worker fires:
        # the service refuses it before forking rather than drop it
        plan = FaultPlan.parse("kill@w0q1; hang@r0s1")
        with pytest.raises(ValueError, match="hang@r0s1"):
            QueryService(store_path, workers=1, faults=plan)


# ---------------------------------------------------------------------------
# the chaos contract
# ---------------------------------------------------------------------------


def _sleep_in_slot(_slot, _generation, _conn):
    time.sleep(60)


class TestKillRecovery:
    def test_sigkilled_worker_named(self):
        pool = WorkerPool(
            1, _sleep_in_slot,
            suspect_after=ServicePolicy().suspect_after,
            label="serving slot",
        )
        pool.kill(0)
        ((dead, exc),) = pool.wait(10.0)
        pool.drop(dead)
        pool.close()
        assert dead == 0
        assert isinstance(exc, RankDead)
        assert "(killed by SIGKILL)" in str(exc)

    def test_sigkill_mid_query_is_retried_bit_identical(
        self, store_path, inline
    ):
        # worker 0's first generation SIGKILLs itself on its 2nd query;
        # every query must still come back, byte-for-byte
        service = QueryService(
            store_path,
            workers=2,
            byte_budget=None,
            faults=FaultPlan.parse("kill@w0q1g0"),
        )
        try:
            results = service.answer_many(WORKLOAD, timeout=60)
            stats = service.stats()
        finally:
            service.close()
        for query, got in zip(WORKLOAD, results):
            assert_identical(got, inline[query], query)
        assert stats["worker_deaths"] == 1
        assert stats["restarts"] == 1
        assert stats["retries"] >= 1
        assert stats["live_workers"] == 2  # replacement filled the slot

    def test_no_leaked_segments_after_kill(self, store_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this host")
        service = QueryService(
            store_path,
            workers=2,
            byte_budget=None,
            faults=FaultPlan.parse("kill@w0q1g0"),
        )
        service.answer_many(WORKLOAD, timeout=60)
        pids = list(service.pool.all_pids)
        service.close()
        assert len(pids) == 3  # 2 initial + 1 replacement
        assert leaked_segments(pids) == []


class TestHangRecovery:
    def test_hung_worker_detected_and_replaced(self, store_path, inline):
        # generation 0 goes silent for 30s inside its 2nd query; the
        # supervisor must declare it hung, SIGKILL it, and respawn —
        # long before the sleep would have ended
        service = QueryService(
            store_path,
            workers=1,
            byte_budget=None,
            policy=ServicePolicy(suspect_after=0.5),
            faults=FaultPlan.parse("hang@w0q1x30g0"),
        )
        try:
            t0 = time.monotonic()
            results = service.answer_many(WORKLOAD[:4], timeout=60)
            elapsed = time.monotonic() - t0
            stats = service.stats()
        finally:
            service.close()
        for query, got in zip(WORKLOAD[:4], results):
            assert_identical(got, inline[query], query)
        assert stats["worker_hangs"] == 1
        assert stats["worker_deaths"] == 0
        assert stats["restarts"] == 1
        assert elapsed < 25.0  # did not sit out the 30s sleep

    def test_hung_worker_cannot_freeze_the_coordinator(self, store_path):
        # 400 distinct queries are more task messages than one pipe
        # buffers, and the only worker sleeps 30 s on its first.  Each
        # worker holds at most two tasks, so no submit blocks in a send
        # to it: the hang is declared on schedule and the replacement
        # answers everything.
        queries = [
            Query(group_by=(g,), filters={0: (lo, hi)})
            for g in (1, 2, 3)
            for lo in range(16)
            for hi in range(lo, 16)
        ][:400]
        handle = CubeStore.open(store_path)
        engine = QueryEngine(
            handle.cube, sorted_views=handle.sorted_views, index=True
        )
        service = QueryService(
            store_path,
            workers=1,
            byte_budget=None,
            policy=ServicePolicy(suspect_after=1.0),
            faults=FaultPlan.parse("hang@w0q0x30g0"),
        )
        try:
            t0 = time.monotonic()
            tickets = [service.submit(q) for q in queries]
            results = [service.wait(t, timeout=60) for t in tickets]
            stats = service.stats()
            (entry,) = service.pool.restart_log
        finally:
            service.close()
        assert entry["cause"] == "hung"
        assert entry["detected_at"] - t0 < 3.0
        assert stats["worker_hangs"] == 1 and stats["worker_deaths"] == 0
        for query, got in zip(queries, results):
            assert_identical(got, engine.answer(query), query)

    def test_deadline_fires_while_worker_hangs(self, store_path, inline):
        # coordinator-side hard deadline: the waiter gets QueryTimeout
        # long before hang detection (suspect_after) kicks in, and the
        # pool still recovers afterwards
        service = QueryService(
            store_path,
            workers=1,
            byte_budget=None,
            policy=ServicePolicy(suspect_after=1.0, deadline_s=0.3),
            faults=FaultPlan.parse("hang@w0q0x30g0"),
        )
        try:
            ticket = service.submit(WORKLOAD[0])
            with pytest.raises(QueryTimeout):
                service.wait(ticket, timeout=30)
            # a fresh query (generous explicit deadline: it must ride
            # out hang detection + respawn) proves the pool healed
            ticket2 = service.submit(WORKLOAD[1], deadline_s=30.0)
            got = service.wait(ticket2, timeout=60)
            stats = service.stats()
        finally:
            service.close()
        assert_identical(got, inline[WORKLOAD[1]], WORKLOAD[1])
        assert stats["timeouts"] >= 1
        assert stats["worker_hangs"] == 1
        assert stats["restarts"] == 1


class TestPoisonCircuitBreaker:
    def test_repeat_killer_is_quarantined(self, store_path, inline):
        # the same query kills two consecutive generations -> breaker
        # trips at threshold 2: waiters fail with PoisonQuery, later
        # submissions fail fast, and the pool survives to serve others
        service = QueryService(
            store_path,
            workers=1,
            byte_budget=None,
            policy=ServicePolicy(
                poison_threshold=2, max_retries=5, max_restarts=8
            ),
            faults=FaultPlan.parse(
                "kill@w0q0g0;kill@w0q0g1"
            ),
        )
        try:
            with pytest.raises(PoisonQuery):
                service.answer(WORKLOAD[0], timeout=60)
            # fast-fail: no worker executes the quarantined query again
            t0 = time.monotonic()
            with pytest.raises(PoisonQuery):
                service.answer(WORKLOAD[0], timeout=60)
            fast = time.monotonic() - t0
            got = service.answer(WORKLOAD[1], timeout=60)
            stats = service.stats()
        finally:
            service.close()
        assert_identical(got, inline[WORKLOAD[1]], WORKLOAD[1])
        assert fast < 1.0
        assert stats["poisoned"] == 1
        assert stats["worker_deaths"] == 2
        assert stats["live_workers"] == 1


class TestCorruptionRecovery:
    def test_corrupt_result_is_retried_transparently(
        self, store_path, inline
    ):
        # generation 0 flips a byte in its 2nd result blob; the CRC
        # check catches it and the retry returns pristine bytes
        service = QueryService(
            store_path,
            workers=1,
            byte_budget=None,
            faults=FaultPlan.parse("corrupt@w0q1g0"),
        )
        try:
            results = service.answer_many(WORKLOAD[:4], timeout=60)
            stats = service.stats()
        finally:
            service.close()
        for query, got in zip(WORKLOAD[:4], results):
            assert_identical(got, inline[query], query)
        assert stats["corrupt_results"] == 1
        assert stats["retries"] >= 1
        assert stats["worker_deaths"] == 0  # corruption is not a death


class TestLoadShedding:
    def test_submit_past_queue_depth_is_shed(self, store_path):
        # submit() never drains results, so back-to-back submissions
        # deterministically fill the in-flight window
        service = QueryService(
            store_path,
            workers=1,
            byte_budget=None,
            policy=ServicePolicy(max_queue_depth=4),
        )
        try:
            tickets = [service.submit(q) for q in WORKLOAD[:4]]
            with pytest.raises(ServiceOverloaded):
                service.submit(WORKLOAD[4])
            stats_mid = service.stats()
            for ticket in tickets:  # accepted work still completes
                service.wait(ticket, timeout=60)
            # with the window drained, submission opens up again
            service.answer(WORKLOAD[4], timeout=60)
            stats = service.stats()
        finally:
            service.close()
        assert stats_mid["shed"] == 1 and stats_mid["in_flight"] == 4
        assert stats["shed"] == 1
        assert stats["executed"] == 5


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------


class TestConstructionFailure:
    def test_invalid_workers_raises_cleanly(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            QueryService(str(tmp_path / "nope"), workers=0)

    def test_del_before_init_completes_is_silent(self):
        # __del__ on an instance whose __init__ never ran (the state
        # after a constructor exception) must not raise AttributeError
        ghost = object.__new__(QueryService)
        ghost.__del__()

    def test_bad_store_path_raises_not_attributeerror(self, tmp_path):
        with pytest.raises((FileNotFoundError, OSError, ValueError)):
            QueryService(str(tmp_path / "missing"), workers=1)


class TestWaitTimeoutIsTotal:
    def test_timeout_bounds_wall_time_despite_trickle(
        self, store_path
    ):
        # worker 0 hangs 2s on its first query (never detected:
        # suspect_after is huge); worker 1 keeps completing other
        # tickets the whole time.  wait(hung, timeout=0.5) must raise
        # at ~0.5s of *total* wall time, not have its deadline pushed
        # back by every arriving result.
        service = QueryService(
            store_path,
            workers=2,
            byte_budget=None,
            policy=ServicePolicy(suspect_after=30.0),
            faults=FaultPlan.parse("hang@w0q0x2.0g0"),
        )
        try:
            hung = service.submit(WORKLOAD[0])  # lands on idle slot 0
            others = [service.submit(q) for q in WORKLOAD[1:]]
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                service.wait(hung, timeout=0.5)
            elapsed = time.monotonic() - t0
            for ticket in others:
                service.wait(ticket, timeout=60)
        finally:
            service.close()
        assert 0.4 <= elapsed < 1.5, elapsed

    def test_unknown_ticket_is_keyerror(self, store_path):
        with QueryService(store_path, workers=1) as service:
            with pytest.raises(KeyError):
                service.wait(10_000, timeout=1.0)


# ---------------------------------------------------------------------------
# the availability bench (quick mode), asserted end to end
# ---------------------------------------------------------------------------


class TestChaosBench:
    def test_quick_bench_meets_availability_target(
        self, tmp_path, monkeypatch
    ):
        bench_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_serving_chaos.py"
        )
        spec = importlib.util.spec_from_file_location(
            "bench_serving_chaos", bench_path
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv("REPRO_BENCH_CHAOS_N", "20000")
        monkeypatch.setattr(
            mod, "JSON_PATH", tmp_path / "BENCH_serving_chaos.json"
        )
        report = mod.main()  # asserts availability/identity/leaks
        assert report["availability"] >= mod.AVAILABILITY_TARGET
        assert report["chaos"]["stats"]["worker_deaths"] >= 3
        assert report["worker_restarts"] >= 1
        assert report["p99_ms"] is not None and report["p99_ms"] > 0
        assert (tmp_path / "BENCH_serving_chaos.json").exists()
