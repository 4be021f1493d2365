"""Memory-mapped ``.npy`` columns with metered reads.

The serving tier (see :mod:`repro.olap.store` format 2) lays every view
out as raw contiguous ``.npy`` arrays so a reader can ``np.load(...,
mmap_mode="r")`` them and touch only the pages a query actually needs.
The simulated-cluster disks (:mod:`repro.storage.disk`) meter every
access; this module gives
the *host* mmap path the same discipline: a :class:`MmapMeter` counts
maps opened, range reads vs full scans, and rows/bytes actually
materialised, so benchmarks can assert that the index path reads a tiny
fraction of what a scan reads (``benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "MappedColumn", "MmapMeter", "read_npy_mmap", "write_npy", "write_npy_parts",
]


@dataclass
class MmapMeter:
    """Cumulative read counters for one store handle (all its columns)."""

    maps_opened: int = 0
    range_reads: int = 0
    scan_reads: int = 0
    rows_touched: int = 0
    bytes_touched: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def charge_map(self) -> None:
        with self.lock:
            self.maps_opened += 1

    def charge_range(self, rows: int, itemsize: int) -> None:
        """Account for a fence-narrowed range read of ``rows`` rows."""
        with self.lock:
            self.range_reads += 1
            self.rows_touched += rows
            self.bytes_touched += rows * itemsize

    def charge_scan(self, rows: int, itemsize: int) -> None:
        """Account for a full-column scan."""
        with self.lock:
            self.scan_reads += 1
            self.rows_touched += rows
            self.bytes_touched += rows * itemsize

    def snapshot(self) -> dict[str, int]:
        with self.lock:
            return {
                "maps_opened": self.maps_opened,
                "range_reads": self.range_reads,
                "scan_reads": self.scan_reads,
                "rows_touched": self.rows_touched,
                "bytes_touched": self.bytes_touched,
            }


def write_npy(path: str, arr: np.ndarray) -> str:
    """Write one contiguous ``.npy`` column (parent dirs created)."""
    return write_npy_parts(path, [arr])


def write_npy_parts(path: str, parts: Sequence[np.ndarray]) -> str:
    """Write the concatenation of ``parts`` as one ``.npy`` column,
    byte for byte what ``np.save`` writes for it, without making it.

    The file is written under a temporary name in the same directory
    and renamed over ``path``, so an existing file is never rewritten in
    place: a reader that maps it (a served store, a saved cube) keeps
    its bytes instead of dying with ``SIGBUS`` on a truncated mapping.
    Every part must share the first one's dtype and trailing shape (the
    header is written from it): a mismatch raises ``ValueError``.
    """
    parts = [np.ascontiguousarray(part) for part in parts]
    for part in parts[1:]:
        if (part.dtype, part.shape[1:]) != (parts[0].dtype, parts[0].shape[1:]):
            raise ValueError(
                f"{path}: part {part.dtype}{part.shape} does not match "
                f"{parts[0].dtype}{parts[0].shape}"
            )
    header = {
        "descr": np.lib.format.dtype_to_descr(parts[0].dtype),
        "fortran_order": False,
        "shape": (sum(part.shape[0] for part in parts), *parts[0].shape[1:]),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for part in parts:
                part.tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return path


def read_npy_mmap(path: str, meter: MmapMeter | None = None) -> np.ndarray:
    """Open a ``.npy`` column read-only via mmap (zero-copy until sliced)."""
    arr = np.load(path, mmap_mode="r")
    if meter is not None:
        meter.charge_map()
    return arr


class MappedColumn:
    """One lazily-opened, read-only memory-mapped ``.npy`` column.

    Slicing through :meth:`read` (range) or :meth:`scan` (full column)
    materialises a private in-memory copy and charges the meter — the
    mmap page cache does the real I/O elision underneath; the meter
    records what the *caller* asked to touch.
    """

    def __init__(self, path: str, meter: MmapMeter | None = None):
        self.path = path
        self.meter = meter
        self._arr: np.ndarray | None = None

    @property
    def array(self) -> np.ndarray:
        """The raw memory-mapped array (no accounting; do not mutate)."""
        if self._arr is None:
            self._arr = read_npy_mmap(self.path, self.meter)
        return self._arr

    @property
    def nrows(self) -> int:
        return int(self.array.shape[0])

    def read(self, start: int, stop: int) -> np.ndarray:
        """Materialise rows ``[start, stop)`` (a metered range read)."""
        arr = self.array
        start = max(int(start), 0)
        stop = min(int(stop), arr.shape[0])
        if stop <= start:
            return np.empty(0, dtype=arr.dtype)
        out = np.array(arr[start:stop])  # copy out of the mapping
        if self.meter is not None:
            self.meter.charge_range(stop - start, arr.dtype.itemsize)
        return out

    def scan(self) -> np.ndarray:
        """Materialise the whole column (a metered full scan)."""
        arr = self.array
        out = np.array(arr)
        if self.meter is not None:
            self.meter.charge_scan(arr.shape[0], arr.dtype.itemsize)
        return out

    def close(self) -> None:
        """Drop the mapping (best-effort; Python mmaps close on GC)."""
        arr, self._arr = self._arr, None
        if arr is not None and hasattr(arr, "_mmap"):
            try:  # pragma: no cover - platform dependent
                arr._mmap.close()
            except (AttributeError, BufferError):
                pass
