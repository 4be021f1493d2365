"""The worker pool both forking runtimes run on (:mod:`repro.mpi.pool`).

A worker's death is seen through its process sentinel, not a polling
slice, so it is reported at once whatever ``suspect_after`` is: for an
SPMD rank and for a serving worker alike.  Messages a worker sent
before dying come before its death; a worker is hung only while it
holds work; respawns stay within their budget; and no worker keeps a
copy of another slot's pipe end.  A worker's failure crosses its pipe as
one :class:`~repro.mpi.errors.Shipped` record in both runtimes.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.config import MachineSpec
from repro.mpi.engine import run_spmd
from repro.mpi.errors import (
    InjectedFault,
    MPIError,
    RankDead,
    RankHung,
    classify_failure,
    rebuild,
    ship,
)
from repro.mpi.pool import WorkerPool
from repro.olap import CubeStore, Query, QueryService, ServicePolicy
from repro.olap.servebench import synthetic_serving_cube

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool forks",
)


def _silent(_slot, _generation, _conn):
    time.sleep(60)


def _say_and_exit(_slot, _generation, conn, n):
    for i in range(n):
        conn.send(i)
    os._exit(0)


def _exit_on_eof(_slot, _generation, conn):
    try:
        conn.recv()
    except EOFError:
        os._exit(7)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    cube = synthetic_serving_cube(2000, (16, 8, 8, 4), p=2, seed=7)
    path = str(tmp_path_factory.mktemp("pool") / "cube.d")
    CubeStore.save(cube, path)
    return path


class TestDeathIsImmediate:
    def test_sigkilled_rank_reported_dead_fast(self):
        killed_at = multiprocessing.get_context("fork").Value(
            "d", 0.0, lock=False
        )

        def program(comm):
            if comm.rank == 1:
                killed_at.value = time.monotonic()
                os.kill(os.getpid(), signal.SIGKILL)
            comm.barrier()

        spec = MachineSpec(
            p=2, backend="process", suspect_after=30.0, compute_scale=0.0
        )
        with pytest.raises(RankDead, match="rank 1 .*SIGKILL"):
            run_spmd(program, spec)
        assert 0 < time.monotonic() - killed_at.value < 0.5

    def test_sigkilled_serving_worker_reported_dead_fast(self, store_path):
        handle = CubeStore.open(store_path)
        want = handle.query_engine().answer(Query(group_by=(1,)))
        policy = ServicePolicy(suspect_after=30.0)
        with QueryService(
            store_path, workers=1, byte_budget=None, policy=policy
        ) as service:
            service.answer(Query(group_by=(0,)), timeout=60)
            killed_at = time.monotonic()
            os.kill(service.pool.procs[0].pid, signal.SIGKILL)
            got = service.answer(Query(group_by=(1,)), timeout=60)
            stats = service.stats()
            (entry,) = service.pool.restart_log
        assert entry["cause"] == "died"
        assert entry["detected_at"] - killed_at < 0.5
        assert stats["worker_deaths"] == 1 and stats["worker_hangs"] == 0
        assert np.array_equal(want.dims, got.dims)
        assert np.array_equal(want.measure, got.measure)


class TestPool:
    def test_last_messages_come_before_the_death(self):
        pool = WorkerPool(1, _say_and_exit, (3,), suspect_after=30.0)
        events = []
        deadline = time.monotonic() + 10.0
        while not any(isinstance(m, RankDead) for _, m in events):
            assert time.monotonic() < deadline
            events += pool.wait(1.0)
        pool.drop(0)
        pool.close()
        assert [m for _, m in events[:3]] == [0, 1, 2]
        assert len(events) == 4
        assert "exit code 0" in str(events[3][1])

    def test_hung_only_while_holding_work(self):
        pool = WorkerPool(1, _silent, suspect_after=0.2)
        try:
            pool.watch(0)
            start = pool.heard[0]
            assert pool.hung([], start + 1.0) == []  # idle: never hung
            assert pool.hung([0], start + 0.1) == []
            ((slot, exc),) = pool.hung([0], start + 0.3)
            assert slot == 0 and isinstance(exc, RankHung)
        finally:
            pool.kill(0)
            pool.close()

    def test_respawn_within_budget(self):
        pool = WorkerPool(2, _silent, suspect_after=30.0, max_restarts=1)
        first = pool.procs[1].pid
        assert pool.respawn(1, "died")
        assert pool.generation == [0, 1]
        assert pool.procs[1].pid != first and len(pool.all_pids) == 3
        with pytest.raises(ProcessLookupError):
            os.kill(first, 0)  # the old generation is gone and reaped
        (entry,) = pool.restart_log
        assert (entry["slot"], entry["generation"], entry["cause"]) == (
            1, 1, "died"
        )
        assert entry["detected_at"] <= entry["ready_at"]
        assert not pool.respawn(0, "hung")  # budget spent: slot emptied
        assert pool.live() == [1]
        pool.kill(1)
        pool.close()

    def test_no_worker_holds_another_slots_pipe(self):
        # Closing the coordinator's end of slot 0 must read as EOF in
        # worker 0: neither its sibling nor the sibling's replacement
        # kept a copy of that end across their forks.
        pool = WorkerPool(
            2, _exit_on_eof, suspect_after=30.0, max_restarts=1
        )
        pool.respawn(1, "died")
        pool.conns[0].close()
        proc = pool.procs[0]
        proc.join(10.0)
        assert proc.exitcode == 7
        pool.kill(1)
        pool.close()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("no pickling")


class TestShipped:
    def test_a_rank_failure_keeps_its_type_and_culprit(self):
        shipped = ship(InjectedFault("boom", rank=2), "rank 2", ({}, {}))
        exc = rebuild(shipped)
        assert exc is shipped.exc
        assert classify_failure(exc) == ("permanent", 2)
        assert shipped.counters == ({}, {})

    def test_an_unpicklable_failure_is_named(self):
        exc = rebuild(ship(_Unpicklable("odd"), "rank 1"))
        assert type(exc) is MPIError
        assert str(exc) == "rank 1 failed with unpicklable _Unpicklable: odd"

    @pytest.mark.parametrize("kind", [KeyError, ValueError, LookupError])
    def test_context_leads_a_query_error_of_its_own_type(self, kind):
        exc = rebuild(ship(kind("bad"), "worker 0"), "worker 0 failed on Q: ")
        assert type(exc) is kind
        assert exc.args == (f"worker 0 failed on Q: {kind('bad')}",)

    def test_a_worker_query_error_reaches_the_caller(self, store_path):
        # No materialised view covers dimension 7: the worker's engine
        # raises, and the waiter gets the engine's own error type.
        with QueryService(store_path, workers=1) as service:
            with pytest.raises(
                LookupError, match="^worker 0 failed on GROUP BY H: "
            ):
                service.answer(Query(group_by=(7,)), timeout=60)
