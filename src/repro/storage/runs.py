"""Block-streaming merge of sorted on-disk runs.

:func:`repro.storage.external_sort.external_sort` loads whole runs into
memory during its merge passes (simulation-friendly; the disk meter still
charges per block).  This module provides the *truly* streaming variant a
memory-constrained machine would run: each input run is buffered one block
at a time, and memory never holds more than ``fan-in + 1`` blocks.  No
build path has called it since ``external_sort(streaming=)`` went; the
module is queued for deletion (ROADMAP item 6e).

The merge itself stays vectorised: instead of a per-row heap, each round
computes the **safe boundary** — the smallest of the buffered runs'
maximum keys.  Every buffered row ≤ that boundary is guaranteed to precede
every unbuffered row, so those rows can be merged (pairwise
``searchsorted`` interleave) and emitted in one batch, after which
exhausted buffers are refilled.  This is the classic tournament-of-block-
maxima scheme, executed a block batch at a time.
"""

from __future__ import annotations

import numpy as np

from repro.storage.disk import LocalDisk
from repro.storage.scan import merge_sorted

__all__ = ["RunReader", "streaming_merge"]


class RunReader:
    """Cursor over one sorted on-disk run, one block in memory at a time."""

    def __init__(self, disk: LocalDisk, token: str, nrows: int):
        self.disk = disk
        self.token = token
        self.nrows = nrows
        self._next_row = 0
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        self.refill()

    @property
    def exhausted(self) -> bool:
        return self._keys.size == 0 and self._next_row >= self.nrows

    @property
    def buffer_max(self) -> int | None:
        """Largest buffered key, or None when the run is fully drained."""
        if self._keys.size:
            return int(self._keys[-1])
        return None

    @property
    def fully_buffered(self) -> bool:
        """True once the run's tail is in memory (its max is global)."""
        return self._next_row >= self.nrows

    def refill(self) -> None:
        """Load the next block if the buffer is empty and rows remain."""
        if self._keys.size or self._next_row >= self.nrows:
            return
        stop = min(self._next_row + self.disk.block_size, self.nrows)
        part = self.disk.load_slice(self.token, self._next_row, stop)
        self._keys = part.dims[:, 0]
        self._values = part.measure
        self._next_row = stop

    def take_upto(self, boundary: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return buffered rows with key <= boundary."""
        cut = int(np.searchsorted(self._keys, boundary, side="right"))
        keys, values = self._keys[:cut], self._values[:cut]
        self._keys, self._values = self._keys[cut:], self._values[cut:]
        return keys, values


def streaming_merge(
    disk: LocalDisk, tokens: list[str], run_rows: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted spill files into one sorted array pair, block-wise.

    ``run_rows`` gives each run's row count (known to the writer).  Memory
    holds at most one block per run plus the emitted chunk.
    """
    readers = [
        RunReader(disk, token, rows)
        for token, rows in zip(tokens, run_rows)
        if rows > 0
    ]
    out_keys: list[np.ndarray] = []
    out_values: list[np.ndarray] = []
    while readers:
        # Safe boundary: min over buffer maxima of runs that still have
        # unbuffered rows; fully buffered runs do not constrain it.
        constraining = [
            r.buffer_max for r in readers if not r.fully_buffered
        ]
        if constraining:
            boundary = min(constraining)
        else:
            boundary = max(
                r.buffer_max for r in readers if r.buffer_max is not None
            )
        chunk_keys = np.empty(0, dtype=np.int64)
        chunk_values = np.empty(0, dtype=np.float64)
        for reader in readers:
            keys, values = reader.take_upto(boundary)
            if keys.size:
                chunk_keys, chunk_values = merge_sorted(
                    chunk_keys, chunk_values, keys, values
                )
        if chunk_keys.size:
            out_keys.append(chunk_keys)
            out_values.append(chunk_values)
        for reader in readers:
            reader.refill()
        readers = [r for r in readers if not r.exhausted]
    if not out_keys:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return np.concatenate(out_keys), np.concatenate(out_values)
