"""Rank results in shared memory, and the sweep that keeps it clean.

The process backend's collective payloads ride the worker pool's pipes
(:mod:`repro.mpi.backends`).  One thing stays in shared memory: a rank's
finished result, which can be most of a cube.  Shipping it through a
pipe would leave the coordinator holding a second, private copy of every
view piece; instead:

:func:`write_result`
    The rank pickles its result with every large numeric array diverted
    into **one plain segment**: a file under ``/dev/shm`` named
    ``rp<creator-pid>x<random-hex>``, written once and unlinked by the
    rank after the coordinator has adopted it.

:func:`adopt`
    The coordinator maps that segment read-only and builds the result's
    arrays as views over the map instead of copying them: each result
    byte is kept once, by the map, for as long as any array over it
    lives.

:func:`sweep_orphans`
    A SIGKILLed rank never unlinks its segment.  The name carries the
    creator's pid, so anyone can later tell that the creator is dead and
    unlink it.

Small arrays (under :data:`SHM_MIN_BYTES`), object-dtype arrays and
non-array values stay in the pickle.  On a host without an enumerable
shm filesystem the whole result stays in the pickle.
"""

from __future__ import annotations

import ctypes
import io
import math
import mmap
import os
import pickle
import re
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

__all__ = [
    "SHM_MIN_BYTES",
    "SharedResult",
    "adopt",
    "release_heap",
    "sweep_orphans",
    "unlink",
    "write_result",
]

#: Arrays this large leave the pickle for the result segment.
SHM_MIN_BYTES = 1 << 9

#: NumPy dtype kinds eligible for the segment (fixed-width numeric
#: buffers; the hot columns are int64/float64).
_SHM_DTYPE_KINDS = "biufc"

#: Cache-line alignment of array slots inside a segment.
_ALIGN = 64

_PID_TAG = "repro-shm-ndarray"

#: Segment naming scheme: ``rp<creator-pid>x<random-hex>``, well under
#: the 31-character POSIX minimum for shm names.
_SEGMENT_RE = re.compile(r"^rp(\d+)x[0-9a-f]{8}$")

#: Where Linux exposes POSIX shared memory as files.
_SHM_DIR = "/dev/shm"


def _path(name: str) -> str:
    return os.path.join(_SHM_DIR, name)


def _create_segment() -> tuple[str, int]:
    """Create an empty segment named after this process: ``(name, fd)``."""
    for _ in range(32):
        name = f"rp{os.getpid()}x{os.urandom(4).hex()}"
        try:
            fd = os.open(
                _path(name), os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600
            )
        except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
            continue
        return name, fd
    raise RuntimeError("could not allocate a unique shm segment name")


def unlink(name: str) -> None:
    """Remove a segment's name; maps of it keep their pages."""
    try:
        os.unlink(_path(name))
    except FileNotFoundError:  # pragma: no cover - raced cleanup
        pass


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

    Walks the shm filesystem for names matching our ``rp<pid>x...``
    scheme and unlinks every segment whose creator pid no longer exists.
    With ``pids`` given, only segments created by those (known-dead)
    processes are touched: the targeted form the worker pool uses after
    reaping workers.  Returns the swept segment names.  Idempotent and
    safe to race: live sessions are identified by their live creator
    pids and left alone.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux host
        return []
    targets = None if pids is None else {int(pid) for pid in pids}
    swept: list[str] = []
    for name in os.listdir(_SHM_DIR):
        match = _SEGMENT_RE.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if targets is not None and pid not in targets:
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(_path(name))
        except OSError:  # pragma: no cover - raced cleanup
            continue
        swept.append(name)
    return swept


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


@dataclass(frozen=True)
class SharedResult:
    """A rank's pickled result and the segment holding its arrays.

    ``arrays[i]`` is ``(offset, dtype_str, shape)`` of the array whose
    persistent id in ``data`` is ``(tag, i)``; ``segment`` is None when
    nothing was diverted.
    """

    data: bytes
    segment: str | None = None
    arrays: tuple[tuple[int, str, tuple[int, ...]], ...] = ()


class _CollectingPickler(pickle.Pickler):
    """Pickler that diverts large numeric ndarrays into an array list.

    The stream carries ``(tag, index)`` persistent ids; the arrays
    themselves are collected (contiguous) for one write into the
    segment after the dump.
    """

    def __init__(self, file: io.BytesIO):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []
        # pickle consults persistent_id before its memo, so an array
        # referenced twice would otherwise be written twice.  The map pins
        # the object itself: keying by id() alone would let a temporary
        # array be gc'd mid-dump, its id recycled, and a later array
        # silently aliased to the wrong slot.
        self._seen: dict[int, tuple[Any, int]] = {}

    def persistent_id(self, obj: Any):
        if not isinstance(obj, np.ndarray):
            return None
        if obj.dtype.kind not in _SHM_DTYPE_KINDS or obj.nbytes < SHM_MIN_BYTES:
            return None
        entry = self._seen.get(id(obj))
        if entry is not None and entry[0] is obj:
            return (_PID_TAG, entry[1])
        index = len(self.arrays)
        self.arrays.append(np.ascontiguousarray(obj))
        self._seen[id(obj)] = (obj, index)
        return (_PID_TAG, index)


def write_result(obj: Any) -> SharedResult:
    """Pickle a rank's result, its large numeric arrays written into one
    new segment.  The caller :func:`unlink`\\ s the segment once the
    coordinator has adopted it."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux host
        return SharedResult(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    buf = io.BytesIO()
    pickler = _CollectingPickler(buf)
    pickler.dump(obj)
    if not pickler.arrays:
        return SharedResult(buf.getvalue())
    name, fd = _create_segment()
    table = []
    try:
        with os.fdopen(fd, "wb") as fh:
            end = 0
            for arr in pickler.arrays:
                offset = (end + _ALIGN - 1) & ~(_ALIGN - 1)
                fh.seek(offset)
                fh.write(arr.data)
                end = offset + arr.nbytes
                table.append((offset, arr.dtype.str, arr.shape))
    except BaseException:
        unlink(name)
        raise
    return SharedResult(buf.getvalue(), name, tuple(table))


class _Adopter(pickle.Unpickler):
    """Unpickler resolving ``(tag, index)`` ids to read-only views over
    a segment's map; repeated references return the same array."""

    def __init__(self, result: SharedResult, buf: mmap.mmap):
        super().__init__(io.BytesIO(result.data))
        self._table = result.arrays
        self._buf = buf
        self._loaded: dict[int, np.ndarray] = {}

    def persistent_load(self, pid):
        tag, index = pid
        if tag != _PID_TAG:  # pragma: no cover - foreign persistent id
            raise pickle.UnpicklingError(f"unknown persistent id {tag!r}")
        arr = self._loaded.get(index)
        if arr is None:
            offset, dtype_str, shape = self._table[index]
            arr = np.frombuffer(
                self._buf,
                dtype=np.dtype(dtype_str),
                count=math.prod(shape),
                offset=offset,
            ).reshape(shape)
            self._loaded[index] = arr
        return arr


def adopt(result: SharedResult) -> Any:
    """Decode a result by taking its segment over instead of copying it.

    The segment is mapped read-only and every diverted array is a
    read-only view over that map; the map, and the one descriptor
    ``mmap`` keeps for it, lives exactly as long as its views.  The
    creator may unlink the segment as soon as this returns: unlinking
    removes the name, and the map keeps the pages.
    """
    if result.segment is None:
        return pickle.loads(result.data)
    fd = os.open(_path(result.segment), os.O_RDONLY)
    try:
        buf = mmap.mmap(fd, 0, prot=mmap.PROT_READ)
    finally:
        os.close(fd)
    return _Adopter(result, buf).load()
