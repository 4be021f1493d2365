"""The in-memory decimation sample of Section 2.4.

Merge-Partitions needs the post-overlap sizes ``|v'_j|`` only to ~1/p %
accuracy to evaluate the imbalance test, so instead of re-scanning a view
from disk, each rank keeps an ``a = 100·p``-slot sample array ``A`` that is
filled *while the view is written*:

    While the first ``a`` elements of ``v_j`` are written to disk, each of
    them is also copied into ``A``.  While the second ``a`` elements are
    written, every second is written into every second location of ``A``,
    overwriting the previous element.  While the third and fourth groups
    are written, every fourth is written into every second location, and
    so on.

The resulting ``A`` always holds an equally spaced (stride ``2^g``) sample
of the rows seen so far without knowing the final size in advance.
:class:`DecimationSampler` implements the streaming procedure verbatim;
:func:`decimation_sample` produces the identical result in one vectorised
shot when the data is already in memory (the two are cross-checked by
property tests).  :func:`estimate_range_count` turns a sample into the
range-count estimates the merge phase consumes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SAMPLES_PER_RANK", "DecimationSampler", "decimation_sample",
    "estimate_range_count",
]

#: Sample slots per processor: "a sample of only 100 p equal spaced
#: sample elements" (Section 2.4).
SAMPLES_PER_RANK = 100


class DecimationSampler:
    """Streaming equal-spaced sampler with a fixed slot budget.

    After feeding ``n`` keys the sample holds every ``2^g``-th key
    (``g = ceil(log2(max(n/a, 1)))``), i.e. between ``a/2`` and ``a``
    entries once ``n >= a``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots = np.empty(capacity, dtype=np.int64)
        self._filled = 0  # slots currently meaningful
        self._stride = 1  # keep every _stride-th input element
        self._seen = 0  # total elements fed

    def feed(self, keys: np.ndarray) -> None:
        """Absorb the next chunk of the view being written (in order).

        Invariant: after ``seen`` elements the sample holds exactly the
        elements at input indices ``0, stride, 2·stride, ...``.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        for key in keys:  # a is tiny (100·p); per-element cost is fine
            if self._seen % self._stride == 0:
                if self._filled == self.capacity:
                    # Capacity exhausted: keep every second slot, double
                    # the stride ("every fourth into every second ...").
                    kept = self._slots[: self._filled : 2].copy()
                    self._filled = kept.size
                    self._slots[: self._filled] = kept
                    self._stride *= 2
                if self._seen % self._stride == 0:
                    self._slots[self._filled] = key
                    self._filled += 1
            self._seen += 1

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def stride(self) -> int:
        return self._stride

    def sample(self) -> np.ndarray:
        """The current equally spaced sample (copy)."""
        return self._slots[: self._filled].copy()


def decimation_sample(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Vectorised equivalent of streaming ``keys`` through the sampler:
    every ``2^g``-th element with the smallest ``g`` fitting ``capacity``."""
    keys = np.asarray(keys, dtype=np.int64).ravel()
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n = keys.shape[0]
    stride = 1
    while -(-n // stride) > capacity:
        stride *= 2
    return keys[::stride].copy()


def estimate_range_count(
    sample: np.ndarray,
    total: int,
    boundaries: np.ndarray,
) -> np.ndarray:
    """Estimate how many of ``total`` sorted rows fall in each bucket.

    ``boundaries`` are the ``p-1`` ascending upper bounds; bucket ``k``
    holds keys in ``(boundaries[k-1], boundaries[k]]`` with the last bucket
    unbounded — the ownership rule of Merge-Partitions.  The sample must be
    sorted (it is, being an equally spaced sample of sorted data).

    Returns ``p`` float counts summing to ``total``.
    """
    sample = np.asarray(sample, dtype=np.int64)
    boundaries = np.asarray(boundaries, dtype=np.int64)
    p = boundaries.shape[0] + 1
    if total == 0 or sample.size == 0:
        return np.zeros(p)
    cuts = np.searchsorted(sample, boundaries, side="right")
    counts = np.diff(np.concatenate(([0], cuts, [sample.size])))
    return counts * (total / sample.size)
