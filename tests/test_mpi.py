"""Tests for the simulated MPI substrate: comm, engine, clock, stats."""

import numpy as np
import pytest

from repro.config import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.engine import MAX_RANKS, Cluster, run_spmd
from repro.mpi.errors import CollectiveMisuse, MPIError, RankFailure
from repro.mpi.stats import CommStats, payload_nbytes


def spec(p, **kw):
    return MachineSpec(p=p, **kw)


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_allgather(self, p):
        res = run_spmd(lambda c: c.allgather(c.rank * 2), spec(p))
        for ranks in res.rank_results:
            assert ranks == [2 * j for j in range(p)]

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_bcast_from_each_root(self, p):
        for root in range(p):
            def prog(c, root=root):
                obj = {"v": c.rank} if c.rank == root else None
                return c.bcast(obj, root=root)

            res = run_spmd(prog, spec(p))
            assert all(r == {"v": root} for r in res.rank_results)

    def test_gather(self):
        def prog(c):
            return c.gather(c.rank ** 2, root=2)

        res = run_spmd(prog, spec(4))
        assert res.rank_results[2] == [0, 1, 4, 9]
        assert res.rank_results[0] is None

    def test_scatter(self):
        def prog(c):
            values = [f"item{k}" for k in range(c.size)] if c.rank == 1 else None
            return c.scatter(values, root=1)

        res = run_spmd(prog, spec(3))
        assert res.rank_results == ["item0", "item1", "item2"]

    def test_scatter_requires_list_at_root(self):
        def prog(c):
            return c.scatter([1] if c.rank == 0 else None, root=0)

        with pytest.raises(CollectiveMisuse):
            run_spmd(prog, spec(3))

    def test_alltoall_numpy(self):
        def prog(c):
            lanes = [
                np.full(2, c.rank * 10 + k, dtype=np.int64)
                for k in range(c.size)
            ]
            got = c.alltoall(lanes)
            return [int(g[0]) for g in got]

        res = run_spmd(prog, spec(4))
        for k, got in enumerate(res.rank_results):
            assert got == [j * 10 + k for j in range(4)]

    def test_alltoall_wrong_lane_count(self):
        with pytest.raises(CollectiveMisuse):
            run_spmd(lambda c: c.alltoall([None]), spec(3))

    def test_allreduce_ops(self):
        def prog(c):
            return (
                c.allreduce(c.rank, "sum"),
                c.allreduce(c.rank, "max"),
                c.allreduce(c.rank, "min"),
            )

        res = run_spmd(prog, spec(4))
        assert res.rank_results[0] == (6.0, 3.0, 0.0)

    def test_allreduce_bad_op(self):
        with pytest.raises(CollectiveMisuse):
            run_spmd(lambda c: c.allreduce(1.0, "median"), spec(2))

    def test_sendrecv_left(self):
        def prog(c):
            return c.sendrecv_left(("tok", c.rank))

        res = run_spmd(prog, spec(4))
        assert res.rank_results == [("tok", 1), ("tok", 2), ("tok", 3), None]

    def test_barrier_and_order(self):
        def prog(c):
            out = []
            for step in range(3):
                c.barrier()
                out.append(c.allreduce(step, "sum"))
            return out

        res = run_spmd(prog, spec(3))
        assert res.rank_results[0] == [0.0, 3.0, 6.0]

    def test_bad_root_rejected(self):
        with pytest.raises(CollectiveMisuse):
            run_spmd(lambda c: c.bcast(1, root=99), spec(2))

    def test_p1_degenerate(self):
        def prog(c):
            assert c.allgather("x") == ["x"]
            assert c.alltoall(["self"]) == ["self"]
            assert c.bcast("y") == "y"
            return c.allreduce(5, "sum")

        res = run_spmd(prog, spec(1))
        assert res.rank_results == [5.0]


class TestFailures:
    def test_error_propagates_original(self):
        def prog(c):
            if c.rank == 1:
                raise KeyError("the original failure")
            c.barrier()

        with pytest.raises(KeyError, match="the original failure"):
            run_spmd(prog, spec(4))

    def test_error_before_any_collective(self):
        def prog(c):
            if c.rank == 0:
                raise RuntimeError("early")
            c.allgather(1)

        with pytest.raises(RuntimeError, match="early"):
            run_spmd(prog, spec(3))

    def test_a_released_rank_runs_on_to_its_next_collective(self):
        """A rank failing right after a superstep stops no peer that
        superstep released: each runs its local work up to its next
        collective and fails there, as a forked rank does."""
        reached = []

        def prog(c):
            c.barrier()
            if c.rank == 0:
                raise RuntimeError("right after the superstep")
            reached.append(c.rank)
            c.barrier()

        for _ in range(20):
            reached.clear()
            with pytest.raises(RuntimeError, match="right after"):
                run_spmd(prog, spec(3))
            assert sorted(reached) == [1, 2]

    def test_too_many_ranks(self):
        with pytest.raises(MPIError):
            Cluster(spec(MAX_RANKS + 1))


class TestAccounting:
    def test_alltoall_bytes_exclude_self(self):
        def prog(c):
            lanes = [np.zeros(100, dtype=np.int64) for _ in range(c.size)]
            c.alltoall(lanes)

        res = run_spmd(prog, spec(4))
        # each rank sends 3 off-rank lanes of 800 bytes
        assert res.stats.total_bytes == 4 * 3 * 800

    def test_bcast_bytes(self):
        payload = np.zeros(10, dtype=np.float64)  # 80 bytes

        def prog(c):
            c.bcast(payload if c.rank == 0 else None, root=0)

        res = run_spmd(prog, spec(5))
        assert res.stats.total_bytes == 4 * 80

    def test_barrier_is_free(self):
        res = run_spmd(lambda c: c.barrier(), spec(3))
        assert res.stats.total_bytes == 0
        assert res.stats.collectives == 1

    def test_bytes_by_kind_and_phase(self):
        def prog(c):
            c.set_phase("alpha")
            c.allgather(np.zeros(10, dtype=np.int64))
            c.set_phase("beta")
            c.allgather(np.zeros(20, dtype=np.int64))

        res = run_spmd(prog, spec(2))
        assert set(res.stats.bytes_by_phase) == {"alpha", "beta"}
        assert res.stats.bytes_by_phase["beta"] == 2 * res.stats.bytes_by_phase["alpha"]
        assert set(res.stats.bytes_by_kind) == {"allgather"}

    def test_peak_rank_bytes(self):
        def prog(c):
            # rank 0 sends 1000 bytes to rank 1 only
            lanes = [None, np.zeros(125, dtype=np.float64)] if c.rank == 0 else [None, None]
            c.alltoall(lanes)

        res = run_spmd(prog, spec(2))
        assert res.stats.peak_rank_bytes == 1000


class TestClock:
    def test_superstep_count(self):
        def prog(c):
            for _ in range(5):
                c.barrier()

        res = run_spmd(prog, spec(3))
        assert res.clock.superstep_count() == 5

    def test_comm_cost_model(self):
        m = spec(2, latency_sec=0.5, beta_sec_per_mb=1.0)

        def prog(c):
            lanes = [None, np.zeros(125_000, dtype=np.float64)] if c.rank == 0 else [None, None]
            c.alltoall(lanes)

        res = run_spmd(prog, m)
        # one superstep: latency 0.5 + 1 MB at 1 s/MB (busiest rank: 1 MB out)
        assert res.clock.comm_time == pytest.approx(1.5, rel=0.01)

    def test_modelled_work_enters_clock(self):
        m = spec(2, latency_sec=0.0, beta_sec_per_mb=0.0)

        def prog(c):
            if c.rank == 0:
                c.disk.work.charge_scan(1_000_000)  # 0.2 s at default rate
            c.barrier()

        res = run_spmd(prog, m)
        assert res.clock.compute_time >= 0.19  # max over ranks picks rank 0

    def test_disk_blocks_enter_clock(self):
        m = spec(2, latency_sec=0.0, disk_sec_per_block=0.01)

        def prog(c):
            c.disk.charge_scan(c.disk.block_size * 10)  # 10 blocks
            c.barrier()

        res = run_spmd(prog, m)
        assert res.clock.compute_time >= 0.1

    def test_phase_breakdown(self):
        def prog(c):
            c.set_phase("one")
            c.barrier()
            c.set_phase("two")
            c.barrier()

        res = run_spmd(prog, spec(2))
        assert set(res.clock.phase_breakdown()) >= {"one", "two"}

    def test_tail_segment_counted(self):
        m = spec(2, latency_sec=0.0)

        def prog(c):
            c.barrier()
            c.disk.work.charge_scan(10_000_000)  # 2 s after last collective

        res = run_spmd(prog, m)
        assert res.clock.sim_time >= 1.9

    def test_comm_fraction_bounds(self):
        res = run_spmd(lambda c: c.barrier(), spec(2))
        assert 0.0 <= res.clock.comm_fraction() <= 1.0


class TestPayloadNbytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_nested_containers(self):
        payload = [np.zeros(2, dtype=np.int64), (np.zeros(1), None)]
        assert payload_nbytes(payload) == 16 + 8

    def test_scalars_and_strings(self):
        assert payload_nbytes(5) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes("abcd") == 4

    def test_dict(self):
        assert payload_nbytes({"a": 1}) == 1 + 8

    def test_arbitrary_object_uses_pickle(self):
        class Thing:
            x = 1

        assert payload_nbytes(Thing()) > 0

    def test_stats_record_matrix(self):
        stats = CommStats()
        matrix = np.array([[5, 10], [20, 5]])
        total, max_rank = stats.record("alltoall", "ph", matrix)
        assert total == 30  # diagonal excluded
        assert max_rank == 30  # each rank: 10 out + 20 in
        assert stats.peak_rank_bytes == 30
