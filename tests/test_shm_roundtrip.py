"""Encode/decode matrix for the shared-memory data plane (PR: zero-copy
pooled arenas).

Exercises :mod:`repro.mpi.shm` across array layouts and dtypes: empty
arrays, non-contiguous slices, Fortran order,
float32/int64/bool, an array referenced twice encoding to one segment,
sub-threshold payloads staying inline, the arena divert threshold, lane
batching into a single segment, and the zero-copy lease/materialize
contract — plus an end-to-end pass on both execution backends.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.config import MachineSpec
from repro.core.cube import build_data_cube
from repro.mpi import shm
from repro.mpi.engine import run_spmd
from tests.conftest import make_relation

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
        """Arrays between the two thresholds divert only into an arena
        (a lease is a memcpy; a dedicated segment is not worth it at
        that size)."""
        mid = np.zeros(shm.SHM_MIN_BYTES // 4, dtype=np.uint8)
        assert shm.SHM_MIN_BYTES_POOLED <= mid.nbytes < shm.SHM_MIN_BYTES
        assert len(plane.encode(mid).segments) == 1
        assert shm.encode(mid).segments == ()


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


def _rp_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if shm._SEGMENT_RE.match(n)}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestShedIdle:
    def test_keeps_pinned_in_flight_and_one_of_the_kept_class(self, plane):
        small = np.arange(shm.SHM_MIN_BYTES, dtype=np.int64)
        large = np.arange(8 * shm.SHM_MIN_BYTES, dtype=np.int64)
        pooled = [plane.encode(a).segments[0] for a in (small, small, large)]
        plane.recycle(pooled)
        in_flight = plane.encode(large[:-1]).segments[0]  # a pool hit
        idle = [n for n in pooled if n != in_flight]
        assert len(idle) == 2

        other = shm.DataPlane()
        try:
            pinned_blob = other.encode(small)
            idle_blob = other.encode(large)
            view = plane.decode(pinned_blob)
            dropped = plane.decode(idle_blob)
            del dropped
            plane.shed_idle(keep_nbytes=small.nbytes)

            # Only the pinned attachment stays, and its view still reads.
            assert plane.held() == [pinned_blob.segments[0]]
            assert set(plane.tracker._attachments) == {pinned_blob.segments[0]}
            np.testing.assert_array_equal(view, small)
            # One of the two pooled small segments stays; in flight stays.
            assert len(_live(idle)) == 1
            assert _live([in_flight]) == {in_flight}
            assert plane.arena.pooled_segments == 1

            # The kept segment serves the next lease of its class.
            reused = plane.stats()["segments_reused"]
            assert plane.encode(small).segments[0] in idle
            assert plane.stats()["segments_reused"] == reused + 1
        finally:
            other.close()

    def test_encode_shedding_keeps_the_result_lease_a_pool_hit(self, plane):
        arr = np.arange(2 * shm.SHM_MIN_BYTES, dtype=np.int64)
        spare = np.arange(64 * shm.SHM_MIN_BYTES, dtype=np.int64)
        names = [plane.encode(a).segments[0] for a in (arr, arr, spare)]
        plane.recycle(names)
        before = plane.stats()
        blob = plane.encode_shedding({"result": arr, "tag": 1})
        after = plane.stats()
        assert blob.segments[0] in names[:2]
        assert after["segments_created"] == before["segments_created"]
        assert after["leases"] == before["leases"] + 1
        assert plane.arena.pooled_segments == 0
        assert _live(names) == {blob.segments[0]}
        np.testing.assert_array_equal(plane.decode(blob)["result"], arr)


def _no_shed(self, keep_nbytes=None):
    pass


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
class TestShedBuild:
    def test_process_build_is_bit_identical_with_equal_pool_counts(
        self, monkeypatch
    ):
        views, meters, pool = _build("process")
        ref_views, ref_meters, _ = _build("thread")
        assert views == ref_views and meters == ref_meters
        # Every rank sheds before its result: the counters a plane that
        # never sheds reports must be the same, segment for segment.
        monkeypatch.setattr(shm.DataPlane, "shed_idle", _no_shed)
        kept_views, kept_meters, kept_pool = _build("process")
        assert kept_views == views and kept_meters == meters
        for key in ("segments_created", "leases", "segments_reused"):
            assert pool[key] == kept_pool[key], key

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_a_rank_raising_after_the_shed_leaks_nothing(self, monkeypatch):
        real = shm.DataPlane.shed_idle

        def shed_then_fail(self, keep_nbytes=None):
            real(self, keep_nbytes)
            if os.getpid() == victim.value:
                raise RuntimeError("failed after the shed")

        victim = multiprocessing.Value("i", 0)

        def prog(c):
            if c.rank == 1:
                victim.value = os.getpid()
            c.allgather(np.arange(4096, dtype=np.int64) + c.rank)
            lanes = [np.arange(2048, dtype=np.int64) + j for j in range(c.size)]
            return c.alltoall(lanes)[0].sum()

        monkeypatch.setattr(shm.DataPlane, "shed_idle", shed_then_fail)
        before = _rp_segments()
        with pytest.raises(RuntimeError, match="failed after the shed"):
            run_spmd(prog, MachineSpec(p=3, backend="process"))
        assert _rp_segments() <= before
