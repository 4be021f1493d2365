"""The one host sort for packed int64 keys, and the order checks beside it.

Every stable sort of int64 keys is :func:`stable_order`: each key, less
the minimum, is tagged with its row index in the low bits and the tagged
values go through one ``ndarray.sort()``, NumPy's SIMD quicksort where
the CPU has one.  Tagged values are distinct, so the unstable sort is
stable and its permutation is exactly the one NumPy's stable argsort gives.
Input that is already sorted is not sorted again.  The simulated clock
charges the runs in the data, not the routine that sorts them
(:func:`repro.storage.external_sort.external_sort`), so the host kernel
changes host seconds only, never a cube, a charge or a block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_sorted_int64", "segment_runs", "sort_pairs", "stable_order"]

_U64 = (1 << 64) - 1
_TAG_CHUNK = 1 << 16


def is_sorted_int64(keys: np.ndarray, chunk: int = 1 << 15) -> bool:
    """True iff ``keys`` is non-decreasing.

    Single pass in ``chunk``-sized windows with early exit on the first
    inversion — unlike ``np.all(keys[1:] >= keys[:-1])`` it allocates
    only one ``chunk``-sized temporary and stops scanning at the first
    violation (typically within the first window on unsorted data).
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n < 2:
        return True
    for start in range(0, n - 1, chunk):
        stop = min(start + chunk + 1, n)
        window = keys[start:stop]
        if not (window[1:] >= window[:-1]).all():
            return False
    return True


def segment_runs(
    keys: np.ndarray, seg_divisor: int
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """``(prefix_value, segment_index, nseg)``, or ``None`` if there are
    no keys or their prefix values are not clustered.

    ``keys // seg_divisor`` is the shared-prefix value; the caller
    promises the source rows were sorted under an order sharing that
    prefix, which makes the prefix values non-decreasing.  That promise
    is verified (early-exit scan) because the sort charge trusts it.
    """
    high = keys // seg_divisor
    if not high.size or not is_sorted_int64(high):
        return None
    starts = np.empty(keys.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(high[1:], high[:-1], out=starts[1:])
    seg = np.cumsum(starts, dtype=np.int64) - 1
    return high, seg, int(seg[-1]) + 1


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation NumPy's stable argsort returns for 1-D int64
    ``keys``, from the tagged sort (module docstring).

    The offsets from the minimum (uint64 wrap-around, so any int64 span
    is safe) must fit the ``63 - bits`` left beside ``(n-1).bit_length()``
    index bits.  Wider spans, which no cube key reaches, take NumPy's
    stable argsort.  The indices are tagged a chunk at a time, so the only
    n-sized array is the one returned.
    """
    keys = np.asarray(keys).astype(np.int64, casting="safe", copy=False)
    n = keys.shape[0]
    if is_sorted_int64(keys):
        return np.arange(n, dtype=np.int64)
    bits = (n - 1).bit_length()
    low = int(keys.min())
    if (int(keys.max()) - low).bit_length() > 63 - bits:
        return np.argsort(keys, kind="stable")
    tagged = keys.view(np.uint64) - np.uint64(low & _U64)
    tagged <<= np.uint64(bits)
    for start in range(0, n, _TAG_CHUNK):
        stop = min(start + _TAG_CHUNK, n)
        tagged[start:stop] |= np.arange(start, stop, dtype=np.uint64)
    tagged.sort()
    tagged &= np.uint64((1 << bits) - 1)
    return tagged.view(np.int64)


def sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    *,
    key_bound: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort parallel ``(keys, values)`` rows by key, as new arrays.

    ``key_bound`` (an exclusive bound on the keys) is accepted for
    callers that still pass it and is not read: a stable sort needs none.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError(
            f"keys/values must be parallel 1-D arrays, got {keys.shape} "
            f"and {values.shape}"
        )
    order = stable_order(keys)
    return keys[order], values[order]
