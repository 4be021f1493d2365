"""Pooled, zero-copy shared-memory data plane for the process backend.

Collective payloads in this code base are NumPy-heavy (packed key arrays,
measures, :class:`~repro.storage.table.Relation` /
:class:`~repro.core.viewdata.ViewData` values) with a thin shell of small
Python control objects (schedule trees, pivot lists, report dataclasses).
Shipping them between worker *processes* through a pipe would pickle the
arrays byte-for-byte into the stream — an avoidable copy through the
kernel.  Instead, :func:`encode` pickles the object graph while diverting
every large numeric array into a POSIX ``multiprocessing.shared_memory``
segment; what crosses the pipe is a small pickle blob holding segment
descriptors.

This module provides three coordinated pieces (the MPI analogy for each
in parentheses — cf. the registered buffer pools and zero-copy rendezvous
of mpi4py's buffer-protocol path):

:class:`SegmentArena` (registered buffer pool)
    A per-process pool of size-classed segments reused across supersteps.
    ``lease`` hands out a segment (creating one only on a pool miss),
    ``recycle`` returns it once every consumer has dropped its lease, and
    ``close`` unlinks everything at backend shutdown, so steady-state
    supersteps pay no ``shm_open``/``mmap``/``unlink`` syscalls.  A
    pooled segment holds no pages: ``recycle`` punches them out, so an
    idle pool costs a name and a mapping, not memory.

:class:`LeaseTracker` + zero-copy :meth:`DataPlane.decode` (rendezvous)
    Decoding through a tracker returns ndarrays that *alias* the segment
    — read-only views pinned by a lease that is dropped automatically
    when the last view is garbage collected.  The superstep protocol in
    :mod:`repro.mpi.backends` reports still-held segments to the
    coordinator, which recycles a creator's segment only after every
    consumer rank has released it.  Callers that need to mutate a
    received array use :func:`materialize`.

:func:`adopt` (result hand-off)
    The coordinator maps a rank's finished result segment read-only and
    builds the result's arrays over that map instead of copying them:
    each result byte is held once, by the map, for as long as any array
    over it lives.

Lane batching (:meth:`DataPlane.encode_lanes`)
    ``alltoall``/``scatter`` payloads encode all ``p`` lanes into **one**
    arena segment with an offset table — one segment per collective
    instead of one per lane — while each lane stays independently
    decodable, so receivers still only pay for lanes addressed to them.

Small arrays (under :data:`SHM_MIN_BYTES_POOLED`), object-dtype arrays and
non-array values ride the pickle stream unchanged — the mpi4py object
path, with the buffer-protocol fast path reserved for payloads where it
pays.  Traffic metering (:func:`repro.mpi.stats.payload_nbytes`) happens
on the raw payloads *before* encoding and is unaffected by any of this;
so is :class:`~repro.mpi.faults.FaultyTransport` sealing, which wraps the
payload before the transport sees it.

Zero-copy safety rests on POSIX unlink semantics: unlinking a segment
only removes its *name* — the backing memory survives until the last
mapping is closed, so a consumer's read-only views outlive the creator's
unlink.  The only operation that must wait for consumers is *reuse*
(writing new data into a pooled segment), which is exactly what the
coordinator's release accounting gates.
"""

from __future__ import annotations

import ctypes
import io
import math
import mmap
import os
import pickle
import re
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "SHM_MIN_BYTES",
    "SHM_MIN_BYTES_POOLED",
    "DataPlane",
    "LeaseTracker",
    "SegmentArena",
    "ShmBlob",
    "adopt",
    "decode",
    "encode",
    "encode_lanes",
    "materialize",
    "release_heap",
    "share_resource_tracker",
    "sweep_orphans",
]

#: The smallest segment an arena creates: one page.
SHM_MIN_BYTES = 1 << 12

#: Divert threshold: arrays this large leave the pickle stream.  Leasing
#: from the pool reduces the marginal cost of a divert to a memcpy into
#: an already-mapped segment, so arrays well under a page are worth
#: keeping out of the pickle stream (inline bytes cross the pipe twice
#: per hop; diverted bytes are written once and read zero-copy).
SHM_MIN_BYTES_POOLED = 1 << 9

#: NumPy dtype kinds eligible for the shared-memory fast path
#: (fixed-width numeric buffers; the hot lanes are int64/float64).
_SHM_DTYPE_KINDS = "biufc"

#: Cache-line alignment of array slots inside a shared segment.
_ALIGN = 64

#: Pool retention cap per size class: beyond this, recycled segments are
#: unlinked instead of pooled (bounds arena memory on bursty payloads).
_MAX_POOLED_PER_CLASS = 8

_PID_TAG = "repro-shm-ndarray"

#: Segment naming scheme: ``rp<creator-pid>x<random-hex>``.  Embedding the
#: creator's pid makes leaked segments attributable: a worker SIGKILL'd
#: mid-collective cannot unlink its own segments, but anyone can later tell
#: that their creator is dead and sweep them (:func:`sweep_orphans`).  The
#: name stays well under the 31-character POSIX minimum for shm names.
_SEGMENT_RE = re.compile(r"^rp(\d+)x[0-9a-f]{8}$")

#: Where Linux exposes POSIX shared memory as files.  On platforms without
#: an enumerable shm filesystem the sweep degrades to a targeted-pids no-op.
_SHM_DIR = "/dev/shm"


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a session-attributable segment (name carries our pid)."""
    for _ in range(32):
        name = f"rp{os.getpid()}x{os.urandom(4).hex()}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
            continue
    raise RuntimeError("could not allocate a unique shm segment name")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign live process
        return True
    return True


def sweep_orphans(pids: Iterable[int] | None = None) -> list[str]:
    """Unlink leaked segments whose creator process is dead.

    A SIGKILL'd worker leaves its arena segments behind — it never
    reaches its ``finally: close`` and the coordinator may never learn
    the segment names.  This sweep walks the shm filesystem for names
    matching our ``rp<pid>x...`` scheme and unlinks every segment whose
    creator pid no longer exists.  With ``pids`` given, only segments
    created by those (known-dead) processes are touched — the targeted
    form the coordinator uses after reaping workers.  Returns the swept
    segment names.  Idempotent and safe to race: concurrent live sessions
    are identified by their live creator pids and left alone.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux host
        return []
    targets = None if pids is None else {int(pid) for pid in pids}
    swept: list[str] = []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - defensive
        return []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if targets is not None and pid not in targets:
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            swept.append(name)
        except OSError:  # pragma: no cover - raced cleanup
            continue
        # A dead *child* of ours registered the segment with the
        # fork-shared resource tracker; deregister on its behalf so the
        # tracker does not warn about (and re-attempt) the cleanup at
        # exit.  Global sweeps (pids=None) reclaim other sessions'
        # leftovers, which our tracker never saw — skip those.
        if targets is not None:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister("/" + name, "shared_memory")
            except Exception:  # pragma: no cover - tracker gone
                pass
    return swept


def share_resource_tracker() -> None:
    """Start the resource tracker *now*, before any worker is forked.

    CPython starts the tracker lazily on first shared-resource creation.
    If the first segment is created inside a forked worker, that worker
    spawns its own private tracker: its registrations are invisible to
    the coordinator (whose later :func:`sweep_orphans` unregister hits a
    different tracker and KeyErrors there), and when the worker is
    SIGKILL'd its orphaned tracker races the coordinator's sweep and
    warns about "leaked" segments at shutdown.  Starting the tracker in
    the coordinator first means every forked worker inherits the shared
    pipe, so register (worker) and unregister (coordinator sweep) meet
    in the same tracker.  Best-effort: supervision works without it, it
    is only quieter with it.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - non-POSIX or patched tracker
        pass


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc (musl, macOS)
        return None


_MALLOC_TRIM = _malloc_trim()


def release_heap() -> None:
    """Hand the allocator's free pages back to the kernel, *now*, before
    a fork.

    ``fork`` copies the parent's page tables, so a child starts at the
    parent's resident set, freed-but-retained allocator pages included.
    After a build those are 100+ MB of glibc arena space the parent has
    already released; trimming them first means a serving worker or a
    rank process starts at roughly its interpreter's size and never
    holds memory it does not use.  glibc ``malloc_trim(0)``; a no-op on
    other C libraries.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its ownership.

    On Python 3.10–3.12 ``SharedMemory(name=...)`` registers the segment
    with the (process-tree-wide) resource tracker even for plain
    attaches, which then races the real owner's register/unlink pair
    (cpython bpo-39959).  3.13 grew ``track=False``; earlier versions
    need registration suppressed for the duration of the attach.  The
    engine only attaches from single-threaded worker/coordinator code, so
    the brief monkeypatch cannot race other shared-memory users.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    real_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


def materialize(arr: Any) -> Any:
    """Writable private copy of a possibly segment-aliasing array.

    The escape hatch for rank code that must mutate a received payload:
    zero-copy decode hands out read-only views pinned to the sender's
    segment; ``materialize`` detaches them (and drops the lease as soon
    as the view is garbage collected).  Writable arrays — including
    everything the thread backend delivers — pass through untouched.
    """
    if isinstance(arr, np.ndarray) and not arr.flags.writeable:
        return arr.copy()
    return arr


# ---------------------------------------------------------------------------
# blob format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShmBlob:
    """One encoded payload: pickle bytes + its shared-segment directory.

    ``segments`` names the shared-memory segments holding the diverted
    arrays of this payload: every array of a payload — and all lanes of
    one collective — is packed into a *single* segment, so the tuple has
    at most one entry.  ``arrays`` is the offset
    table: entry ``i`` is ``(segment_index, offset, dtype_str, shape)``
    for the array whose persistent id in ``data`` is ``(tag, i)``.  The
    blob itself is cheap to pickle and may be relayed to any number of
    processes before the creator recycles or unlinks its segments.
    """

    data: bytes
    segments: tuple[str, ...] = ()
    arrays: tuple[tuple[int, int, str, tuple[int, ...]], ...] = ()

    @property
    def nbytes(self) -> int:
        return len(self.data)


class _CollectingPickler(pickle.Pickler):
    """Pickler that diverts large numeric ndarrays into an array list.

    The stream carries ``(tag, index)`` persistent ids; the arrays
    themselves are collected (contiguous, pinned) for a single copy pass
    into one shared segment after the dump.
    """

    def __init__(self, file: io.BytesIO):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []
        # pickle consults persistent_id before its memo, so an array
        # referenced twice would otherwise be copied twice.  The map pins
        # the object itself: keying by id() alone would let a temporary
        # array be gc'd mid-dump, its id recycled, and a later array
        # silently aliased to the wrong slot.
        self._seen: dict[int, tuple[Any, int]] = {}

    def persistent_id(self, obj: Any):
        if not isinstance(obj, np.ndarray):
            return None
        if (
            obj.dtype.kind not in _SHM_DTYPE_KINDS
            or obj.nbytes < SHM_MIN_BYTES_POOLED
        ):
            return None
        entry = self._seen.get(id(obj))
        if entry is not None and entry[0] is obj:
            return (_PID_TAG, entry[1])
        index = len(self.arrays)
        self.arrays.append(np.ascontiguousarray(obj))
        self._seen[id(obj)] = (obj, index)
        return (_PID_TAG, index)


def _collect_dump(obj: Any) -> tuple[bytes, list[np.ndarray]]:
    buf = io.BytesIO()
    pickler = _CollectingPickler(buf)
    pickler.dump(obj)
    return buf.getvalue(), pickler.arrays


def _aligned_layout(
    arrays: Sequence[np.ndarray],
) -> tuple[list[int], int]:
    """Cache-line-aligned offsets for packing ``arrays`` into one segment."""
    offsets: list[int] = []
    total = 0
    for arr in arrays:
        total = (total + _ALIGN - 1) & ~(_ALIGN - 1)
        offsets.append(total)
        total += arr.nbytes
    return offsets, total


def _pack_arrays(
    seg: shared_memory.SharedMemory,
    arrays: Sequence[np.ndarray],
    offsets: Sequence[int],
) -> tuple[tuple[int, int, str, tuple[int, ...]], ...]:
    """Copy ``arrays`` into one segment; return their blob table."""
    table = []
    for arr, offset in zip(arrays, offsets):
        dst = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=offset
        )
        dst[...] = arr
        table.append((0, offset, arr.dtype.str, arr.shape))
    return tuple(table)


class _ShmUnpickler(pickle.Unpickler):
    """Unpickler resolving ``(tag, index)`` ids against a blob's table.

    ``view_of(seg_index, shape, dtype, offset)`` maps a table entry to
    an ndarray over the attached segment — a private copy or a pinned
    read-only view, the caller's choice.  Repeated references to the
    same index return the same object.
    """

    def __init__(self, blob: ShmBlob, view_of):
        super().__init__(io.BytesIO(blob.data))
        self._blob = blob
        self._view_of = view_of
        self._loaded: dict[int, np.ndarray] = {}

    def persistent_load(self, pid):
        tag, index = pid
        if tag != _PID_TAG:  # pragma: no cover - foreign persistent id
            raise pickle.UnpicklingError(f"unknown persistent id {tag!r}")
        arr = self._loaded.get(index)
        if arr is None:
            seg_idx, offset, dtype_str, shape = self._blob.arrays[index]
            arr = self._view_of(seg_idx, shape, np.dtype(dtype_str), offset)
            self._loaded[index] = arr
        return arr


# ---------------------------------------------------------------------------
# segment arena (creator side)
# ---------------------------------------------------------------------------


class SegmentArena:
    """Per-process pool of size-classed shared-memory segments.

    ``lease`` returns an open segment of at least the requested size,
    reusing a pooled one when available (sizes are rounded to powers of
    two, so steady-state supersteps hit the pool).  A leased segment is
    *in flight* until :meth:`recycle` is called with its name — which the
    backend does only once the coordinator has confirmed every consumer
    rank released it.  :meth:`close` unlinks every segment,
    pooled or in flight — the backend-shutdown path; segments a crashed
    worker never closed are reclaimed by :func:`sweep_orphans` instead.
    """

    def __init__(self):
        self._pool: dict[int, list[shared_memory.SharedMemory]] = {}
        self._in_flight: dict[str, shared_memory.SharedMemory] = {}
        self._class_of: dict[str, int] = {}
        self.segments_created = 0
        self.segments_reused = 0
        self.bytes_created = 0
        self.bytes_reused = 0
        self.leases = 0

    @staticmethod
    def _size_class(nbytes: int) -> int:
        return 1 << max(nbytes - 1, SHM_MIN_BYTES - 1).bit_length()

    def lease(self, nbytes: int) -> shared_memory.SharedMemory:
        """Check out a segment with room for ``nbytes`` bytes."""
        size = self._size_class(nbytes)
        self.leases += 1
        bucket = self._pool.get(size)
        if bucket:
            seg = bucket.pop()
            self.segments_reused += 1
            self.bytes_reused += nbytes
        else:
            seg = _create_segment(size)
            self.segments_created += 1
            self.bytes_created += size
        self._in_flight[seg.name] = seg
        self._class_of[seg.name] = size
        return seg

    def recycle(self, names: Iterable[str]) -> None:
        """Return released segments to the pool (unlinking any beyond
        the per-class retention cap).  A pooled segment's pages are
        released as it enters the pool: every consumer has released it,
        so no reader can see the zeroed bytes."""
        for name in names:
            seg = self._in_flight.pop(name, None)
            if seg is None:
                continue
            size = self._class_of[name]
            bucket = self._pool.setdefault(size, [])
            if len(bucket) < _MAX_POOLED_PER_CLASS:
                _release_pages(seg)
                bucket.append(seg)
            else:
                self._class_of.pop(name, None)
                _destroy(seg)

    def stats(self) -> dict[str, int | float]:
        """Pool counters (aggregated across ranks by the coordinator)."""
        hit_rate = self.segments_reused / self.leases if self.leases else 0.0
        return {
            "leases": self.leases,
            "segments_created": self.segments_created,
            "segments_reused": self.segments_reused,
            "bytes_created": self.bytes_created,
            "bytes_reused": self.bytes_reused,
            "hit_rate": round(hit_rate, 4),
        }

    def close(self) -> None:
        """Unlink every segment this arena ever handed out and still owns."""
        for bucket in self._pool.values():
            for seg in bucket:
                _destroy(seg)
        for seg in self._in_flight.values():
            _destroy(seg)
        self._pool.clear()
        self._in_flight.clear()
        self._class_of.clear()


_MADV_REMOVE = getattr(mmap, "MADV_REMOVE", None)


def _release_pages(seg: shared_memory.SharedMemory) -> None:
    """Give a segment's pages back to the kernel, keeping its name and
    mapping.  On tmpfs ``MADV_REMOVE`` punches a hole in the file, which
    also drops the pages from every other process's mapping of it; the
    next write faults in fresh zero pages.  A no-op where the platform
    lacks ``MADV_REMOVE``."""
    if _MADV_REMOVE is None:
        return
    try:
        seg._mmap.madvise(_MADV_REMOVE)
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        pass


def _destroy(seg: shared_memory.SharedMemory) -> None:
    """Unlink + close one owned segment, tolerating raced cleanup and
    still-exported local views (the mapping dies with the process)."""
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - raced cleanup
        pass
    try:
        seg.close()
    except BufferError:  # pragma: no cover - local views still alive
        pass


# ---------------------------------------------------------------------------
# lease tracker (consumer side)
# ---------------------------------------------------------------------------


class _Attachment:
    """One consumer-side mapping of a foreign segment, with pinned views.

    ``pins`` counts the live zero-copy views aliasing the mapping; each
    view carries a weakref finalizer that unpins it on garbage
    collection, so "no pins" means no rank code can still observe the
    segment's bytes.
    """

    def __init__(self, name: str):
        self.name = name
        self.shm = _attach(name)
        self.pins = 0
        self.closed = False

    def view(
        self, shape: tuple[int, ...], dtype: np.dtype, offset: int
    ) -> np.ndarray:
        arr = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offset)
        arr.flags.writeable = False
        self.pins += 1
        weakref.finalize(arr, _Attachment._unpin, self)
        return arr

    @staticmethod
    def _unpin(att: "_Attachment") -> None:
        att.pins -= 1

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - views still exported
            self.closed = False


class LeaseTracker:
    """Consumer-side registry of segment attachments and their leases.

    Attachments stay open across supersteps — segment names are stable
    under pooling, so the next superstep's decode reuses the mapping
    without another ``shm_open``.
    """

    def __init__(self):
        self._attachments: dict[str, _Attachment] = {}
        self.attaches = 0
        self.attach_reuses = 0

    def attachment(self, name: str) -> _Attachment:
        att = self._attachments.get(name)
        if att is not None and not att.closed:
            self.attach_reuses += 1
            return att
        att = _Attachment(name)
        self._attachments[name] = att
        self.attaches += 1
        return att

    def held(self) -> list[str]:
        """Names of segments still pinned by live zero-copy views."""
        return [
            name
            for name, att in self._attachments.items()
            if not att.closed and att.pins > 0
        ]

    def stats(self) -> dict[str, int]:
        return {"attaches": self.attaches, "attach_reuses": self.attach_reuses}

    def close(self) -> None:
        for att in self._attachments.values():
            att.close()
        self._attachments.clear()


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def _encode_packed(
    data: bytes, arrays: list[np.ndarray], arena: SegmentArena
) -> ShmBlob:
    """Pack every diverted array into one leased segment."""
    offsets, total = _aligned_layout(arrays)
    seg = arena.lease(total)
    return ShmBlob(data, (seg.name,), _pack_arrays(seg, arrays, offsets))


def encode(obj: Any, arena: SegmentArena) -> ShmBlob:
    """Encode one payload; large numeric arrays are packed into one
    segment leased from ``arena``, which owns it until recycled or
    closed."""
    data, arrays = _collect_dump(obj)
    if not arrays:
        return ShmBlob(data)
    return _encode_packed(data, arrays, arena)


def encode_lanes(
    lanes: Sequence[Any], arena: SegmentArena
) -> list[ShmBlob | None]:
    """Encode a per-destination lane list of one scatter/alltoall.

    Every lane is pickled independently (receivers decode only the lanes
    addressed to them).  All diverted arrays of all ``p`` lanes are
    packed into a *single* segment with a shared offset table — one
    segment per collective instead of one per lane; the returned blobs
    alias that segment.  ``None`` lanes stay ``None``.
    """
    dumped: list[tuple[bytes, list[np.ndarray]] | None] = [
        None if lane is None else _collect_dump(lane) for lane in lanes
    ]
    all_arrays: list[np.ndarray] = []
    for item in dumped:
        if item is not None:
            all_arrays.extend(item[1])
    if not all_arrays:
        return [
            None if item is None else ShmBlob(item[0]) for item in dumped
        ]
    packed = _encode_packed(b"", all_arrays, arena)
    blobs: list[ShmBlob | None] = []
    cursor = 0
    for item in dumped:
        if item is None:
            blobs.append(None)
            continue
        data, arrays = item
        lane_table = packed.arrays[cursor : cursor + len(arrays)]
        cursor += len(arrays)
        blobs.append(
            ShmBlob(data, packed.segments if arrays else (), lane_table)
        )
    return blobs


def decode(blob: ShmBlob, tracker: LeaseTracker | None = None) -> Any:
    """Decode a blob.

    Without a tracker every array is a private writable copy and the
    one-shot attachments are closed before returning.  With a
    ``tracker`` arrays are read-only views aliasing the segments, pinned
    on the tracker's attachments until garbage collected (see
    :func:`materialize`).
    """
    if not blob.segments:
        return _ShmUnpickler(blob, None).load()
    if tracker is not None:
        atts: dict[int, _Attachment] = {}

        def view_of(seg_idx, shape, dtype, offset):
            att = atts.get(seg_idx)
            if att is None:
                att = atts[seg_idx] = tracker.attachment(
                    blob.segments[seg_idx]
                )
            return att.view(shape, dtype, offset)

        return _ShmUnpickler(blob, view_of).load()
    segs: dict[int, shared_memory.SharedMemory] = {}
    try:

        def view_of(seg_idx, shape, dtype, offset):
            seg = segs.get(seg_idx)
            if seg is None:
                seg = segs[seg_idx] = _attach(blob.segments[seg_idx])
            return np.ndarray(
                shape, dtype=dtype, buffer=seg.buf, offset=offset
            ).copy()

        return _ShmUnpickler(blob, view_of).load()
    finally:
        for seg in segs.values():
            seg.close()


def adopt(blob: ShmBlob) -> Any:
    """Decode a blob by taking its segments over instead of copying them.

    Each segment is mapped read-only and every diverted array is a
    read-only view over that map; the map, and the one descriptor
    ``mmap`` keeps for it, lives exactly as long as its views.  The
    creator may unlink a segment as soon as this returns: unlinking
    removes the name, and the map keeps the pages.  Hosts without an
    enumerable shm filesystem fall back to the copying :func:`decode`.
    """
    if not blob.segments or not os.path.isdir(_SHM_DIR):
        return decode(blob)
    maps: dict[int, mmap.mmap] = {}

    def view_of(seg_idx, shape, dtype, offset):
        buf = maps.get(seg_idx)
        if buf is None:
            buf = maps[seg_idx] = _map_readonly(blob.segments[seg_idx])
        flat = np.frombuffer(
            buf, dtype=dtype, count=math.prod(shape), offset=offset
        )
        return flat.reshape(shape)

    return _ShmUnpickler(blob, view_of).load()


def _map_readonly(name: str) -> mmap.mmap:
    fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDONLY)
    try:
        return mmap.mmap(fd, 0, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the data plane (one per worker process)
# ---------------------------------------------------------------------------


class DataPlane:
    """One worker's view of the shared-memory data plane.

    Bundles the creator-side :class:`SegmentArena` and the consumer-side
    :class:`LeaseTracker`.  The process backend constructs one per
    worker; the superstep release protocol is described in
    :mod:`repro.mpi.backends`.
    """

    def __init__(self):
        self.arena = SegmentArena()
        self.tracker = LeaseTracker()

    def encode(self, obj: Any) -> ShmBlob:
        return encode(obj, self.arena)

    def encode_lanes(self, lanes: Sequence[Any]) -> list[ShmBlob | None]:
        return encode_lanes(lanes, self.arena)

    def decode(self, blob: ShmBlob) -> Any:
        return decode(blob, tracker=self.tracker)

    def held(self) -> list[str]:
        """Foreign segments still pinned by this worker's live views."""
        return self.tracker.held()

    def recycle(self, names: Iterable[str]) -> None:
        """Coordinator confirmed release: pool own segments."""
        self.arena.recycle(names)

    def stats(self) -> dict[str, int | float]:
        return {**self.arena.stats(), **self.tracker.stats()}

    def close(self) -> None:
        self.tracker.close()
        self.arena.close()
