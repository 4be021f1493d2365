"""Tests for the pluggable execution backends (thread vs process).

The process backend must be *observationally identical* to the thread
backend: same rank results, same simulated clock, same byte metering,
same disk accounting — only ``host_seconds`` may differ.  These tests
pin that equivalence down on end-to-end cube builds and on the raw
collectives, plus the shared-memory payload codec underneath.

All equivalence runs use ``compute_scale=0.0`` so the clock carries no
measured host CPU and the comparison can demand exact equality.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube
from repro.mpi import shm
from repro.mpi.backends import ProcessBackend, ThreadBackend, get_backend
from repro.mpi.engine import run_spmd
from repro.mpi.errors import CollectiveMisuse, MPIError
from repro.mpi.faults import FaultPlan
from repro.olap import CubeStore, Query, QueryEngine
from repro.storage.table import Relation

from .conftest import make_relation, mmap_of, open_fds

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)


def det_spec(p, backend, **kw):
    """Deterministic machine: no measured-CPU term in the clock."""
    return MachineSpec(p=p, backend=backend, compute_scale=0.0, **kw)


class TestBackendRegistry:
    def test_get_backend(self):
        assert isinstance(get_backend("thread"), ThreadBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_unknown_backend(self):
        with pytest.raises(MPIError, match="unknown execution backend"):
            get_backend("ray")


@requires_fork
class TestProcessCollectives:
    """The raw collectives under the process backend (cf. test_mpi.py)."""

    def test_allgather_large_arrays(self):
        # Arrays above SHM_MIN_BYTES travel through shared memory.
        n = shm.SHM_MIN_BYTES // 8 + 10

        def prog(c):
            got = c.allgather(np.full(n, c.rank, dtype=np.int64))
            return [int(g[0]) for g in got]

        res = run_spmd(prog, det_spec(3, "process"))
        assert res.rank_results == [[0, 1, 2]] * 3

    def test_bcast_gather_roundtrip(self):
        def prog(c):
            seed = c.bcast({"base": 7} if c.rank == 1 else None, root=1)
            return c.gather(seed["base"] * c.rank, root=0)

        res = run_spmd(prog, det_spec(4, "process"))
        assert res.rank_results[0] == [0, 7, 14, 21]
        assert res.rank_results[1:] == [None, None, None]

    def test_scatter(self):
        def prog(c):
            lanes = (
                [np.full(1000, k, dtype=np.float64) for k in range(c.size)]
                if c.rank == 2
                else None
            )
            return float(c.scatter(lanes, root=2)[0])

        res = run_spmd(prog, det_spec(4, "process"))
        assert res.rank_results == [0.0, 1.0, 2.0, 3.0]

    def test_alltoall(self):
        def prog(c):
            lanes = [
                np.full(600, c.rank * 10 + k, dtype=np.int64)
                for k in range(c.size)
            ]
            return [int(g[0]) for g in c.alltoall(lanes)]

        res = run_spmd(prog, det_spec(3, "process"))
        for k, got in enumerate(res.rank_results):
            assert got == [j * 10 + k for j in range(3)]

    def test_sendrecv_left_and_barrier(self):
        def prog(c):
            c.barrier()
            return c.sendrecv_left(("tok", c.rank))

        res = run_spmd(prog, det_spec(4, "process"))
        assert res.rank_results == [("tok", 1), ("tok", 2), ("tok", 3), None]

    def test_allreduce(self):
        def prog(c):
            return (c.allreduce(c.rank, "sum"), c.allreduce(c.rank, "max"))

        res = run_spmd(prog, det_spec(4, "process"))
        assert res.rank_results == [(6.0, 3.0)] * 4

    def test_rank_failure_propagates_original(self):
        def prog(c):
            if c.rank == 1:
                raise KeyError("worker blew up")
            c.barrier()
            c.allgather(c.rank)

        with pytest.raises(KeyError, match="worker blew up"):
            run_spmd(prog, det_spec(3, "process"))

    def test_mismatched_collectives_rejected(self):
        def prog(c):
            if c.rank == 0:
                c.bcast(1, root=0)
            else:
                c.gather(1, root=0)

        with pytest.raises(CollectiveMisuse, match="disagree"):
            run_spmd(prog, det_spec(2, "process"))

    def test_early_exit_vs_collective_rejected(self):
        def prog(c):
            if c.rank == 0:
                return "done"
            c.barrier()

        with pytest.raises(CollectiveMisuse):
            run_spmd(prog, det_spec(2, "process"))


class TestAllreduceMetering:
    """Satellite: allreduce must meter like a reduction, not an object
    allgather — one 8-byte float lane per off-diagonal pair."""

    @pytest.mark.parametrize(
        "backend",
        ["thread", pytest.param("process", marks=requires_fork)],
    )
    def test_comm_bytes(self, backend):
        p = 4
        res = run_spmd(
            lambda c: c.allreduce(c.rank * 1.5, "sum"),
            det_spec(p, backend),
        )
        assert res.stats.total_bytes == p * (p - 1) * 8
        assert set(res.stats.bytes_by_kind) == {"allreduce"}

    def test_value_independent(self):
        # Metering must not depend on the Python repr of the floats.
        a = run_spmd(lambda c: c.allreduce(0.0), det_spec(3, "thread"))
        b = run_spmd(
            lambda c: c.allreduce(1.23456789e300), det_spec(3, "thread")
        )
        assert a.stats.total_bytes == b.stats.total_bytes == 3 * 2 * 8


def _cube_fingerprint(cube):
    """Everything observable about a build except host wall-clock."""
    m = cube.metrics
    per_view = {}
    for j, rv in enumerate(cube.rank_views):
        for view, vd in sorted(rv.items()):
            per_view[(j, view)] = (
                vd.order,
                vd.keys.tobytes(),
                vd.measure.tobytes(),
            )
    return {
        "simulated_seconds": m.simulated_seconds,
        "comm_bytes": m.comm_bytes,
        "disk_blocks": m.disk_blocks,
        "output_rows": m.output_rows,
        "view_count": m.view_count,
        "phase_seconds": m.phase_seconds,
        "views": per_view,
    }


CONFIGS = [
    # (n, cards, p, machine kwargs, cube kwargs)
    pytest.param(
        600, (8, 6, 4), 2, {}, {}, id="small-p2"
    ),
    pytest.param(
        1500, (12, 8, 6, 4), 4, {}, {"agg": "max"}, id="d4-p4-max"
    ),
    pytest.param(
        1200,
        (16, 9, 5),
        3,
        {"memory_budget": 1 << 12, "block_size": 1 << 6},
        {},
        id="external-memory-p3",
    ),
]


@requires_fork
class TestBackendEquivalence:
    """Tentpole acceptance: identical RunResult metering across backends."""

    @pytest.mark.parametrize("n,cards,p,mkw,ckw", CONFIGS)
    def test_cube_builds_identical(self, n, cards, p, mkw, ckw):
        data = make_relation(n, cards, seed=n)
        config = CubeConfig(**ckw)
        fingerprints = {}
        for backend in ("thread", "process"):
            cube = build_data_cube(
                data, cards, det_spec(p, backend, **mkw), config
            )
            fingerprints[backend] = _cube_fingerprint(cube)
        assert fingerprints["thread"] == fingerprints["process"]

    def test_backend_override_argument(self):
        data = make_relation(400, (6, 4), seed=9)
        base = det_spec(2, "thread")
        a = build_data_cube(data, (6, 4), base)
        b = build_data_cube(data, (6, 4), base, backend="process")
        assert _cube_fingerprint(a) == _cube_fingerprint(b)

    def test_rank_failure_equivalence(self):
        def prog(c):
            c.set_phase("warmup")
            c.allgather(np.arange(700, dtype=np.int64) + c.rank)
            if c.rank == c.size - 1:
                raise ValueError("injected fault")
            c.barrier()

        errors = {}
        for backend in ("thread", "process"):
            with pytest.raises(ValueError, match="injected fault") as exc:
                run_spmd(prog, det_spec(3, backend))
            errors[backend] = str(exc.value)
        assert errors["thread"] == errors["process"]


class TestShmCodec:
    @pytest.fixture
    def arena(self):
        arena = shm.SegmentArena()
        yield arena
        arena.close()

    def test_roundtrip_nested(self, arena):
        big = np.arange(4096, dtype=np.int64)
        obj = {
            "big": big,
            "small": np.arange(3, dtype=np.float64),
            "shell": [("x", 1.5), None, {"y": big[:10].copy()}],
        }
        out = shm.decode(shm.encode(obj, arena))
        np.testing.assert_array_equal(out["big"], obj["big"])
        np.testing.assert_array_equal(out["small"], obj["small"])
        assert out["shell"][0] == ("x", 1.5)
        assert out["shell"][1] is None

    def test_large_arrays_spill_small_stay_inline(self, arena):
        big = np.zeros(shm.SHM_MIN_BYTES // 8, dtype=np.float64)
        small = np.zeros(4, dtype=np.float64)
        blob_big = shm.encode(big, arena)
        assert len(blob_big.segments) == 1
        assert blob_big.nbytes < big.nbytes  # descriptor, not the data
        blob_small = shm.encode(small, arena)
        assert blob_small.segments == ()
        np.testing.assert_array_equal(shm.decode(blob_small), small)

    def test_shared_array_encoded_once(self, arena):
        arr = np.arange(2048, dtype=np.int64)
        blob = shm.encode([arr, arr, {"again": arr}], arena)
        assert len(blob.segments) == 1
        out = shm.decode(blob)
        np.testing.assert_array_equal(out[0], arr)
        np.testing.assert_array_equal(out[2]["again"], arr)

    def test_non_contiguous_array(self, arena):
        base = np.arange(8192, dtype=np.int64).reshape(64, 128)
        view = base[::2, ::4]
        out = shm.decode(shm.encode(view, arena))
        np.testing.assert_array_equal(out, view)

    def test_object_dtype_stays_inline(self, arena):
        arr = np.array([{"a": 1}, None, "s"] * 800, dtype=object)
        blob = shm.encode(arr, arena)
        assert blob.segments == ()
        out = shm.decode(blob)
        assert out[0] == {"a": 1}

    def test_decoded_arrays_are_private_copies(self, arena):
        arr = np.arange(1024, dtype=np.int64)
        out = shm.decode(shm.encode(arr, arena))
        arena.close()  # segment unlinked; the copy must survive
        out[0] = -1
        assert out[0] == -1 and arr[0] == 0


# ---------------------------------------------------------------------------
# the coordinator adopts each rank's result segment
# ---------------------------------------------------------------------------

ADOPT_CARDS = (8, 6, 5, 4)
ADOPT_QUERIES = [
    Query(()),
    Query((0,)),
    Query((1, 3)),
    Query((), {0: (3, 3), 1: (2, 2), 2: (1, 1), 3: (0, 0)}),
    Query((0, 3), {1: (0, 2)}),
    Query((0, 1, 2), having=(">=", 2.0)),
]

needs_shm_fs = pytest.mark.skipif(
    not (os.path.isdir("/dev/shm") and os.path.isdir("/proc/self/fd")),
    reason="inspects /dev/shm and /proc/self",
)


@pytest.fixture(scope="module")
def adopt_relation():
    """Integer-valued measure, so every build here is bit-exact."""
    raw = make_relation(3000, ADOPT_CARDS, seed=5)
    return Relation(raw.dims, np.floor(raw.measure))


def _adopt_build(relation, backend, **kw):
    return build_data_cube(
        relation, ADOPT_CARDS, det_spec(3, backend), CubeConfig(), **kw
    )


def _columns(cube):
    for rank_views in cube.rank_views:
        for piece in rank_views.values():
            yield piece.keys
            yield piece.measure


def _rp_names() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if shm._SEGMENT_RE.match(n)}


def _rp_maps() -> int:
    with open("/proc/self/maps") as maps:
        return sum("/dev/shm/rp" in line for line in maps)


def _store_files(path) -> dict[str, bytes]:
    files = {}
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = fh.read()
    return files


@requires_fork
@needs_shm_fs
class TestResultAdoption:
    def test_cube_is_read_only_over_maps_and_bit_identical(
        self, adopt_relation
    ):
        cube = _adopt_build(adopt_relation, "process")
        shared = [
            col for col in _columns(cube)
            if col.nbytes >= shm.SHM_MIN_BYTES_POOLED
        ]
        assert shared
        for col in shared:
            assert not col.flags.writeable
            assert mmap_of(col) is not None
        ref = _adopt_build(adopt_relation, "thread")
        assert _cube_fingerprint(cube) == _cube_fingerprint(ref)

    def test_maps_and_descriptors_rise_by_at_most_p_and_return(
        self, adopt_relation
    ):
        _adopt_build(adopt_relation, "process")  # start the resource tracker
        gc.collect()
        names, maps, fds = _rp_names(), _rp_maps(), open_fds()
        cube = _adopt_build(adopt_relation, "process")
        assert _rp_names() <= names
        assert 0 < _rp_maps() - maps <= 3
        assert 0 < open_fds() - fds <= 3
        del cube
        gc.collect()
        assert (_rp_maps(), open_fds()) == (maps, fds)

    def test_a_rank_raising_after_its_program_returned_leaks_nothing(
        self, monkeypatch
    ):
        """The rank's result is already in its segment when it fails."""
        real = shm.SegmentArena.stats

        def stats_then_fail(self):
            if os.getpid() == victim.value:
                raise RuntimeError("failed after encoding the result")
            return real(self)

        victim = multiprocessing.Value("i", 0)

        def prog(c):
            if c.rank == 1:
                victim.value = os.getpid()
            c.allgather(np.arange(4096, dtype=np.int64) + c.rank)
            lanes = [np.arange(2048, dtype=np.int64) + j for j in range(c.size)]
            return c.alltoall(lanes)[0] * 2

        monkeypatch.setattr(shm.SegmentArena, "stats", stats_then_fail)
        before = _rp_names()
        with pytest.raises(RuntimeError, match="after encoding the result"):
            run_spmd(prog, det_spec(3, "process"))
        assert _rp_names() <= before


@requires_fork
class TestAdoptedCube:
    """A process-backend cube goes everywhere a thread-backend one does."""

    def test_stores_audit_and_queries_match_the_thread_cube(
        self, adopt_relation, tmp_path
    ):
        cube = _adopt_build(adopt_relation, "process")
        ref = _adopt_build(adopt_relation, "thread")
        assert audit_cube(cube, relation=adopt_relation).ok
        engine, ref_engine = QueryEngine(cube), QueryEngine(ref)
        for query in ADOPT_QUERIES:
            got, want = engine.answer(query), ref_engine.answer(query)
            assert np.array_equal(got.dims, want.dims), query
            assert got.measure.tobytes() == want.measure.tobytes(), query
        path = CubeStore.save(cube, str(tmp_path / "p"))
        ref_path = CubeStore.save(ref, str(tmp_path / "t"))
        assert _store_files(path) == _store_files(ref_path)
        loaded = CubeStore.load(path)
        assert _cube_fingerprint(loaded)["views"] == (
            _cube_fingerprint(ref)["views"]
        )

    def test_checkpointed_crash_and_resume(self, adopt_relation, tmp_path):
        kw = dict(
            faults=FaultPlan.parse("crash@r1s20"),
            recovery=RecoveryPolicy(max_retries=2),
        )
        cube = _adopt_build(
            adopt_relation, "process",
            checkpoint_dir=str(tmp_path / "p"), **kw,
        )
        ref = _adopt_build(
            adopt_relation, "thread", checkpoint_dir=str(tmp_path / "t"), **kw
        )
        assert cube.metrics.attempts == ref.metrics.attempts == 2
        assert _cube_fingerprint(cube) == _cube_fingerprint(ref)
