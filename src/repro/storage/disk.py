"""Per-rank local disk with block-transfer accounting.

Each virtual processor owns one :class:`LocalDisk`: a private directory
sandbox to which it may spill and from which it may load relations.  All
traffic is metered in units of the block size ``B`` so that the
external-memory costs the paper reasons about — ``O(n/B)`` for a linear scan,
``O((n/B)·log_{m/B}(n/B))`` for an external sort — are observable quantities
in this reproduction, and so the BSP clock can charge disk time.

A disk can be *in-memory* (the default for tests and small runs): spill
files are then held in a dict instead of the filesystem, with identical
accounting.  This keeps the unit-test suite hermetic and fast while the
benchmark harness can opt into real files.
"""

from __future__ import annotations

import io
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.storage.table import Relation

__all__ = ["DiskStats", "LocalDisk", "WorkMeter"]

#: Default modelled CPU constants; kept in sync with
#: :class:`repro.config.MachineSpec` (duplicated to avoid an import cycle).
SORT_SEC_PER_ROW_LEVEL_DEFAULT = 2.0e-7
SCAN_SEC_PER_ROW_DEFAULT = 2.0e-7


class WorkMeter:
    """Deterministic modelled-CPU accumulator for one processor.

    The BSP clock charges each rank's local work from this meter instead
    of host CPU measurements, whose per-op Python constants are wildly
    unlike the modelled 2003-era machine.  Kernels charge the classic
    sort/scan work terms at their call sites:

    * ``charge_sort(n, runs)``  →  ``a · Σ n_s · log2 r_s`` seconds for
      segments of ``n_s`` rows that each hold ``r_s`` ascending runs (a
      merge of what is already in order; one run costs nothing, and rows
      in no known order are ``r = n`` runs: ``a · n · log2 n``),
    * ``charge_scan(n)``  →  ``b · n`` seconds.
    """

    def __init__(
        self,
        sort_sec_per_row_level: float = SORT_SEC_PER_ROW_LEVEL_DEFAULT,
        scan_sec_per_row: float = SCAN_SEC_PER_ROW_DEFAULT,
    ):
        self.sort_sec_per_row_level = sort_sec_per_row_level
        self.scan_sec_per_row = scan_sec_per_row
        self.seconds = 0.0
        self.rows_sorted = 0
        self.rows_scanned = 0

    def charge_sort(
        self, rows: int | np.ndarray, runs: int | np.ndarray
    ) -> None:
        """Account for sorting ``rows`` rows that hold ``runs`` ascending
        runs — or, given parallel arrays, independently sorted segments:
        segment ``s`` pays for merging its runs, ``n_s · log2 r_s``."""
        lengths = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        keep = lengths > 0
        lengths = lengths[keep]
        if lengths.size == 0:
            return
        levels = np.log2(np.atleast_1d(np.asarray(runs, np.float64))[keep])
        row_levels = lengths * levels
        # counters stay plain ints/floats whatever is passed
        self.seconds += self.sort_sec_per_row_level * float(row_levels.sum())
        self.rows_sorted += int(lengths.sum())

    def charge_scan(self, rows: int) -> None:
        """Account for streaming work over ``rows`` rows."""
        rows = int(rows)
        if rows <= 0:
            return
        self.seconds += self.scan_sec_per_row * rows
        self.rows_scanned += rows


@dataclass
class DiskStats:
    """Cumulative I/O counters for one local disk."""

    blocks_read: int = 0
    blocks_written: int = 0
    rows_read: int = 0
    rows_written: int = 0
    files_created: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def blocks_total(self) -> int:
        """Total block transfers in either direction."""
        return self.blocks_read + self.blocks_written

    def charge_read(self, rows: int, block_size: int) -> None:
        """Account for reading ``rows`` rows in blocks of ``block_size``."""
        rows = int(rows)  # snapshot() goes into JSON manifests: no NumPy ints
        blocks = _blocks(rows, block_size)
        with self.lock:
            self.rows_read += rows
            self.blocks_read += blocks

    def charge_write(self, rows: int, block_size: int) -> None:
        """Account for writing ``rows`` rows in blocks of ``block_size``."""
        rows = int(rows)
        blocks = _blocks(rows, block_size)
        with self.lock:
            self.rows_written += rows
            self.blocks_written += blocks

    def snapshot(self) -> dict[str, int]:
        """Plain-dict snapshot of the counters."""
        with self.lock:
            return {
                "blocks_read": self.blocks_read,
                "blocks_written": self.blocks_written,
                "rows_read": self.rows_read,
                "rows_written": self.rows_written,
                "files_created": self.files_created,
            }


def _blocks(rows: int, block_size: int) -> int:
    """Blocks needed for ``rows`` rows; zero rows still touch no block."""
    if rows <= 0:
        return 0
    return -(-rows // block_size)


class LocalDisk:
    """A single processor's private disk.

    Parameters
    ----------
    block_size:
        Block transfer size ``B`` in rows.
    root:
        Directory for spill files.  ``None`` (default) keeps spills in
        memory with identical accounting.
    """

    def __init__(
        self,
        block_size: int,
        root: str | None = None,
        work: WorkMeter | None = None,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self.root = root
        self.stats = DiskStats()
        #: Modelled-CPU meter of the owning processor (the disk object
        #: doubles as the per-rank local-resources handle).
        self.work = work if work is not None else WorkMeter()
        #: Optional write admission hook ``guard(pending_blocks)``; may
        #: raise to refuse the write (fault injection's disk-full quota —
        #: see :mod:`repro.mpi.faults`).  Consulted before any block-write
        #: accounting, so a refused write charges nothing.
        self.write_guard = None
        self._mem: dict[str, bytes] = {}
        self._counter = 0
        self._lock = threading.Lock()
        if root is not None:
            os.makedirs(root, exist_ok=True)

    # -- file naming -------------------------------------------------------

    def _fresh_name(self, hint: str) -> str:
        with self._lock:
            self._counter += 1
            self.stats.files_created += 1
            return f"{hint}-{self._counter:06d}.npz"

    # -- spill / load --------------------------------------------------------

    def _admit_write(self, rows: int) -> None:
        """Run the write guard (if armed) before charging a write."""
        if self.write_guard is not None:
            self.write_guard(_blocks(rows, self.block_size))

    def spill(self, rel: Relation, hint: str = "run") -> str:
        """Write a relation to this disk; returns an opaque file token."""
        self._admit_write(rel.nrows)
        name = self._fresh_name(hint)
        buf = io.BytesIO()
        np.savez(buf, dims=rel.dims, measure=rel.measure)
        payload = buf.getvalue()
        if self.root is None:
            self._mem[name] = payload
        else:
            with open(os.path.join(self.root, name), "wb") as fh:
                fh.write(payload)
        self.stats.charge_write(rel.nrows, self.block_size)
        return name

    def load(self, token: str) -> Relation:
        """Read a previously spilled relation back into memory."""
        payload = self._payload(token)
        with np.load(io.BytesIO(payload)) as npz:
            rel = Relation(npz["dims"], npz["measure"])
        self.stats.charge_read(rel.nrows, self.block_size)
        return rel

    def load_slice(self, token: str, start: int, stop: int) -> Relation:
        """Read a row range of a spilled relation.

        The simulation holds npz payloads whole, but only the rows actually
        delivered are charged — matching a seek+stream of ``stop-start``
        rows on a real disk.
        """
        payload = self._payload(token)
        with np.load(io.BytesIO(payload)) as npz:
            rel = Relation(npz["dims"][start:stop], npz["measure"][start:stop])
        self.stats.charge_read(rel.nrows, self.block_size)
        return rel

    def delete(self, token: str) -> None:
        """Remove a spill file (no I/O charge)."""
        if self.root is None:
            self._mem.pop(token, None)
        else:
            try:
                os.remove(os.path.join(self.root, token))
            except FileNotFoundError:
                pass

    def _payload(self, token: str) -> bytes:
        if self.root is None:
            try:
                return self._mem[token]
            except KeyError:
                raise FileNotFoundError(f"no spill file {token!r}") from None
        with open(os.path.join(self.root, token), "rb") as fh:
            return fh.read()

    # -- pure accounting hooks ------------------------------------------------

    def charge_scan(self, rows: int) -> None:
        """Charge a linear scan of ``rows`` rows without materialising it.

        Used where the simulation keeps data in memory but the modelled
        machine would have streamed it from disk: the source rows of
        step 1a (the raw chunk, or a previous root piece too large to stay
        resident), a Pipesort parent that is not resident when a sort
        child is made from it, a checkpoint replayed on resume.  (The merge
        phase's read-backs are not charged: DESIGN §7.10.)
        """
        self.stats.charge_read(rows, self.block_size)

    def charge_store(self, rows: int) -> None:
        """Charge writing ``rows`` rows (e.g. final view materialisation)."""
        self._admit_write(rows)
        self.stats.charge_write(rows, self.block_size)
