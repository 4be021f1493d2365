"""The one host sort for packed int64 keys, and the order checks beside it.

Every sort of ``(key, measure)`` rows runs NumPy's stable sort, whose
Timsort merges the ascending runs it finds, so input that a shared-prefix
remap left clustered or already sorted costs what its runs cost.  The
simulated clock charges the runs in the data, not the routine that sorts
them (:func:`repro.storage.external_sort.external_sort`), so a faster host
kernel could change host seconds only, never a cube, a charge or a block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_sorted_int64", "segment_runs", "sort_pairs"]


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
        if not bool(np.all(window[1:] >= window[:-1])):
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
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]
