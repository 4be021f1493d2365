"""Encode/decode matrix for the shared-memory data plane (PR: zero-copy
pooled arenas).

Exercises :mod:`repro.mpi.shm` across array layouts and dtypes: empty
arrays, non-contiguous slices, Fortran order,
float32/int64/bool, an array referenced twice encoding to one segment,
sub-threshold payloads staying inline, the arena divert threshold, lane
batching into a single segment, the zero-copy lease/materialize
contract, pooled segments releasing their pages and result adoption —
plus an end-to-end pass on both execution backends.
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

#: The one plane there is; the ids keep these rows' names from when the
#: matrix also had copy-mode and unpooled planes.
PLANE = pytest.mark.parametrize("plane", ["pooled-zerocopy"], indirect=True)
BACKENDS = [
    pytest.param("thread", id="pooled-zerocopy-thread"),
    pytest.param("process", id="pooled-zerocopy-process", marks=requires_fork),
]


@pytest.fixture
def plane():
    plane = shm.DataPlane()
    yield plane
    plane.close()  # unlinks pooled and in-flight segments alike


def _roundtrip(plane: shm.DataPlane, obj):
    blob = plane.encode(obj)
    return blob, plane.decode(blob)


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


class TestRoundtripMatrix:
    @PLANE
    @pytest.mark.parametrize("arr", ARRAY_CASES)
    def test_array_roundtrips(self, plane, arr):
        _, out = _roundtrip(plane, {"payload": arr, "tag": "x"})
        got = out["payload"]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        np.testing.assert_array_equal(got, arr)
        assert out["tag"] == "x"

    @PLANE
    def test_twice_referenced_array_one_entry(self, plane):
        arr = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        blob, out = _roundtrip(plane, [arr, {"again": arr}, arr])
        # The pickler memoises by identity: one table entry and one
        # segment, no matter how often it appears.
        assert len(blob.arrays) == 1
        assert len(blob.segments) == 1
        np.testing.assert_array_equal(out[0], arr)
        np.testing.assert_array_equal(out[1]["again"], arr)
        # All three references decode to the *same* view object.
        assert out[0] is out[2]

    @PLANE
    def test_sub_threshold_stays_inline(self, plane):
        tiny = np.arange(4, dtype=np.float64)  # 32 bytes
        blob, out = _roundtrip(plane, ("ctl", tiny, 5))
        assert blob.segments == ()
        assert blob.arrays == ()
        np.testing.assert_array_equal(out[1], tiny)
        # Inline arrays are ordinary private copies — there is no
        # segment to alias.
        out[1][0] = 99.0

    def test_pooled_divert_threshold(self, plane):
        """Arrays under a page but over the divert threshold leave the
        pickle stream (a lease is a memcpy)."""
        mid = np.zeros(shm.SHM_MIN_BYTES // 4, dtype=np.uint8)
        assert shm.SHM_MIN_BYTES_POOLED <= mid.nbytes < shm.SHM_MIN_BYTES
        assert len(plane.encode(mid).segments) == 1


class TestPackedLayout:
    def test_lanes_share_one_segment(self, plane):
        lanes = [
            np.arange(shm.SHM_MIN_BYTES, dtype=np.int64) + j
            for j in range(4)
        ]
        lanes[2] = None
        blobs = plane.encode_lanes(lanes)
        assert blobs[2] is None
        names = {b.segments[0] for b in blobs if b is not None}
        assert len(names) == 1  # one segment for the whole collective
        for j, lane in enumerate(lanes):
            if lane is None:
                continue
            np.testing.assert_array_equal(plane.decode(blobs[j]), lane)

    def test_pool_reuses_after_recycle(self, plane):
        arr = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        first = plane.encode(arr)
        plane.recycle(first.segments)
        second = plane.encode(arr)
        assert second.segments == first.segments  # same pooled segment
        stats = plane.stats()
        assert stats["segments_reused"] == 1
        assert stats["segments_created"] == 1


class TestZeroCopyContract:
    def test_views_are_readonly_and_alias(self, plane):
        arr = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        blob, out = _roundtrip(plane, arr)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1
        # The view aliases the segment the creator wrote.
        assert blob.segments[0] in plane.held()

    def test_materialize_detaches(self, plane):
        arr = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        _, out = _roundtrip(plane, arr)
        owned = shm.materialize(out)
        assert owned.flags.writeable
        owned[0] = -1
        np.testing.assert_array_equal(out[1:], owned[1:])

    def test_release_tracks_garbage_collection(self, plane):
        arr = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        blob = plane.encode(arr)
        out = plane.decode(blob)
        name = blob.segments[0]
        assert name in plane.held()
        del out
        assert name not in plane.held()


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
        spec = MachineSpec(p=3, backend=backend, compute_scale=0.0)
        outcome = run_spmd(_mixed_payload_prog, spec, args=(None,))
        totals = {t for t, _, _ in outcome.rank_results}
        assert len(totals) == 1  # every rank saw the same global sum
        for total, got, empty_size in outcome.rank_results:
            assert empty_size == 0
            assert got > 0


def _live(names):
    return {n for n in names if os.path.exists(os.path.join("/dev/shm", n))}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestPageRelease:
    def test_a_pooled_segment_holds_no_pages(self, plane):
        arr = np.arange(64 * shm.SHM_MIN_BYTES, dtype=np.int64)
        name = plane.encode(arr).segments[0]
        path = os.path.join("/dev/shm", name)
        assert os.stat(path).st_blocks > 0
        plane.recycle([name])
        assert os.stat(path).st_blocks == 0
        # The name and the mapping stay pooled: the next lease of the
        # class is a pool hit, and its bytes round-trip.
        reused = plane.stats()["segments_reused"]
        blob, out = _roundtrip(plane, {"again": arr[::-1]})
        assert blob.segments == (name,)
        assert plane.stats()["segments_reused"] == reused + 1
        np.testing.assert_array_equal(out["again"], arr[::-1])

    def test_the_release_reaches_a_consumers_idle_map(self, plane):
        arr = np.arange(16 * shm.SHM_MIN_BYTES, dtype=np.int64)
        other = shm.DataPlane()
        try:
            blob = plane.encode(arr)
            view = other.decode(blob)
            np.testing.assert_array_equal(view, arr)
            del view
            assert other.held() == []
            plane.recycle(blob.segments)
            path = os.path.join("/dev/shm", blob.segments[0])
            assert os.stat(path).st_blocks == 0
            # The consumer's attachment is still open over the punched
            # hole: what it could read now is zeros, which is why only
            # a segment every consumer released is recycled.
            att = other.tracker.attachment(blob.segments[0])
            assert not any(att.shm.buf[: arr.nbytes])
        finally:
            other.close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestAdopt:
    def test_arrays_are_read_only_views_of_one_map(self, plane):
        arr = np.arange(4 * shm.SHM_MIN_BYTES, dtype=np.int64)
        blob = plane.encode({"a": arr, "b": arr[::2], "tag": 3})
        out = shm.adopt(blob)
        plane.close()  # unlinks the segment; the map keeps the pages
        assert _live(blob.segments) == set()
        for got, want in ((out["a"], arr), (out["b"], arr[::2])):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
            assert mmap_of(got) is not None
        assert mmap_of(out["a"]) is mmap_of(out["b"])
        assert out["tag"] == 3

    def test_inline_payloads_decode_as_before(self, plane):
        tiny = np.arange(4, dtype=np.float64)
        blob = plane.encode(("ctl", tiny))
        assert blob.segments == ()
        out = shm.adopt(blob)
        np.testing.assert_array_equal(out[1], tiny)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    def test_the_map_and_its_descriptor_live_as_long_as_the_views(self):
        arr = np.arange(4 * shm.SHM_MIN_BYTES, dtype=np.int64)
        arena = shm.SegmentArena()
        gc.collect()
        baseline = open_fds()
        blob = shm.encode(arr, arena)
        out = shm.adopt(blob)
        arena.close()  # unlinks the segment and closes the arena's fd
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
    cube = build_data_cube(
        data, cards, MachineSpec(p=3, backend=backend, compute_scale=0.0)
    )
    views = {
        (j, view): (vd.order, vd.keys.tobytes(), vd.measure.tobytes())
        for j, rv in enumerate(cube.rank_views)
        for view, vd in rv.items()
    }
    m = cube.metrics
    return views, (m.simulated_seconds, m.comm_bytes, m.disk_blocks), m.shm_pool


@requires_fork
def test_page_release_moves_no_segment_or_lease_count(monkeypatch):
    views, meters, pool = _build("process")
    ref_views, ref_meters, _ = _build("thread")
    assert views == ref_views and meters == ref_meters
    # A plane whose recycle keeps the pages reports the same counters,
    # segment for segment: releasing pages changes what is resident only.
    monkeypatch.setattr(shm, "_release_pages", lambda seg: None)
    kept_views, kept_meters, kept_pool = _build("process")
    assert kept_views == views and kept_meters == meters
    for key in ("segments_created", "leases", "segments_reused"):
        assert pool[key] == kept_pool[key], key
