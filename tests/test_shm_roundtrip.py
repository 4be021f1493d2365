"""Round trips through the process backend's two paths.

A rank's result goes through :mod:`repro.mpi.shm`: its large numeric
arrays are written into one segment the coordinator adopts.  The layout
matrix below runs that path across array layouts and dtypes: empty
arrays, non-contiguous slices, Fortran order, float32/int64/bool, an
array referenced twice, sub-threshold payloads staying in the pickle.
Collective payloads ride the pool's pipes; the end-to-end tests pass
them through both execution backends.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.config import MachineSpec
from repro.core.cube import build_data_cube
from repro.mpi import shm
from repro.mpi.engine import run_spmd
from tests.conftest import make_relation, mmap_of, open_fds

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)
needs_shm_fs = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm"
)

#: The ids keep these rows' names from when the matrix ran over a pooled
#: shared-memory plane.
PLANE = pytest.mark.parametrize(
    "segments", ["pooled-zerocopy"], indirect=True
)
BACKENDS = [
    pytest.param("thread", id="pooled-zerocopy-thread"),
    pytest.param("process", id="pooled-zerocopy-process", marks=requires_fork),
]


@pytest.fixture
def segments():
    """Names of the segments a test wrote, unlinked after it."""
    names: list[str] = []
    yield names
    for name in names:
        shm.unlink(name)


def _roundtrip(segments: list, obj):
    written = shm.write_result(obj)
    if written.segment is not None:
        segments.append(written.segment)
    return written, shm.adopt(written)


ARRAY_CASES = [
    pytest.param(np.array([], dtype=np.float64), id="empty-float64"),
    pytest.param(np.zeros((0, 7), dtype=np.int32), id="empty-2d"),
    pytest.param(
        np.arange(6000, dtype=np.int64).reshape(60, 100)[::3, ::7],
        id="non-contiguous",
    ),
    pytest.param(
        np.asfortranarray(np.arange(6000, dtype=np.float64).reshape(60, 100)),
        id="fortran-order",
    ),
    pytest.param(np.linspace(0, 1, 3000, dtype=np.float32), id="float32"),
    pytest.param(np.arange(3000, dtype=np.int64) * -7, id="int64"),
    pytest.param((np.arange(3000) % 3 == 0), id="bool"),
]


@needs_shm_fs
class TestRoundtripMatrix:
    @PLANE
    @pytest.mark.parametrize("arr", ARRAY_CASES)
    def test_array_roundtrips(self, segments, arr):
        _, out = _roundtrip(segments, {"payload": arr, "tag": "x"})
        got = out["payload"]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        np.testing.assert_array_equal(got, arr)
        assert out["tag"] == "x"

    @PLANE
    def test_twice_referenced_array_one_entry(self, segments):
        arr = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        written, out = _roundtrip(segments, [arr, {"again": arr}, arr])
        # The pickler memoises by identity: one table entry, no matter
        # how often it appears.
        assert len(written.arrays) == 1
        np.testing.assert_array_equal(out[0], arr)
        np.testing.assert_array_equal(out[1]["again"], arr)
        # All three references adopt to the *same* array object.
        assert out[0] is out[2]

    @PLANE
    def test_sub_threshold_stays_inline(self, segments):
        tiny = np.arange(4, dtype=np.float64)  # 32 bytes
        written, out = _roundtrip(segments, ("ctl", tiny, 5))
        assert written.segment is None
        assert written.arrays == ()
        np.testing.assert_array_equal(out[1], tiny)
        # Inline arrays are ordinary private copies: there is no
        # segment to map.
        out[1][0] = 99.0


class TestCopyOnReceipt:
    @requires_fork
    def test_received_arrays_are_writable_private_copies(self):
        outcome = run_spmd(
            _mutate_allgathered_prog,
            MachineSpec(p=3, backend="process"),
            args=(None,),
        )
        # Every rank wrote into what its peers sent; no sender saw it.
        assert outcome.rank_results == [int(np.arange(4096).sum())] * 3

    @requires_fork
    def test_process_ranks_own_what_they_receive(self):
        outcome = run_spmd(
            _mutate_received_prog,
            MachineSpec(p=3, backend="process"),
            args=(None,),
        )
        want = int(np.arange(4096).sum())
        sent, got = zip(*outcome.rank_results)
        assert sent == (want, want, want)
        assert got == (want, -4096, want)


def _mutate_allgathered_prog(c, _):
    sent = np.arange(4096, dtype=np.int64)
    slots = c.allgather(sent)
    for j, got in enumerate(slots):
        if j != c.rank:
            assert got.flags.writeable
            got[:] = -1
    c.barrier()  # every rank has written before anyone looks again
    return int(sent.sum())


def _mutate_received_prog(c, _):
    sent = np.arange(4096, dtype=np.int64)
    got = c.bcast(sent if c.rank == 0 else None)
    assert got.flags.writeable
    if c.rank == 1:
        got[:] = -1
    c.barrier()  # rank 1 has written before anyone looks again
    return int(sent.sum()), int(got.sum())


def _mixed_payload_prog(c, _):
    rows = np.arange(2048, dtype=np.int64).reshape(-1, 2) + c.rank
    slots = c.allgather({"rows": rows, "rank": c.rank})
    total = int(
        sum(np.asarray(s["rows"], dtype=np.int64).sum() for s in slots)
    )
    empty = c.bcast(np.array([], dtype=np.float32) if c.rank == 0 else None)
    lanes = [rows[j :: c.size].copy() for j in range(c.size)]
    mine = c.alltoall(lanes)
    got = int(sum(np.asarray(m, dtype=np.int64).sum() for m in mine))
    return total, got, int(empty.size)


class TestEndToEnd:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_collectives_roundtrip(self, backend):
        spec = MachineSpec(p=3, backend=backend)
        outcome = run_spmd(_mixed_payload_prog, spec, args=(None,))
        totals = {t for t, _, _ in outcome.rank_results}
        assert len(totals) == 1  # every rank saw the same global sum
        for total, got, empty_size in outcome.rank_results:
            assert empty_size == 0
            assert got > 0


def _live(names):
    return {n for n in names if os.path.exists(os.path.join("/dev/shm", n))}


@needs_shm_fs
class TestAdopt:
    def test_arrays_are_read_only_views_of_one_map(self):
        arr = np.arange(4 * shm.SHM_MIN_BYTES, dtype=np.int64)
        written = shm.write_result({"a": arr, "b": arr[::2], "tag": 3})
        out = shm.adopt(written)
        shm.unlink(written.segment)  # the map keeps the pages
        assert _live([written.segment]) == set()
        for got, want in ((out["a"], arr), (out["b"], arr[::2])):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
            assert mmap_of(got) is not None
        assert mmap_of(out["a"]) is mmap_of(out["b"])
        assert out["tag"] == 3

    def test_inline_payloads_decode_as_before(self):
        tiny = np.arange(4, dtype=np.float64)
        written = shm.write_result(("ctl", tiny))
        assert written.segment is None
        out = shm.adopt(written)
        np.testing.assert_array_equal(out[1], tiny)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    def test_the_map_and_its_descriptor_live_as_long_as_the_views(self):
        arr = np.arange(4 * shm.SHM_MIN_BYTES, dtype=np.int64)
        gc.collect()
        baseline = open_fds()
        written = shm.write_result(arr)  # closes its own descriptor
        out = shm.adopt(written)
        shm.unlink(written.segment)
        assert open_fds() == baseline + 1
        part = out[10:20]
        del out
        gc.collect()
        assert open_fds() == baseline + 1
        np.testing.assert_array_equal(part, arr[10:20])
        del part
        gc.collect()
        assert open_fds() == baseline


def _build(backend):
    cards = (9, 7, 5, 4)
    data = make_relation(3000, cards, seed=5)
    cube = build_data_cube(data, cards, MachineSpec(p=3, backend=backend))
    views = {
        (j, view): (vd.order, vd.keys.tobytes(), vd.measure.tobytes())
        for j, rv in enumerate(cube.rank_views)
        for view, vd in rv.items()
    }
    m = cube.metrics
    return views, (m.simulated_seconds, m.comm_bytes, m.disk_blocks), m.shm_pool


@requires_fork
@needs_shm_fs
def test_each_rank_result_takes_one_segment():
    views, meters, pool = _build("process")
    ref_views, ref_meters, ref_pool = _build("thread")
    assert views == ref_views and meters == ref_meters
    # Collectives create no segment: the only ones are the p results.
    assert pool == {"segments_created": 3, "leases": 3, "segments_reused": 0}
    assert ref_pool == {}
