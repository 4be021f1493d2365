"""Vectorised sorted-run aggregation kernels.

These implement the "linear scan" primitive of the paper: given rows sorted
by their group-by key, collapse equal-key runs while aggregating the measure.
Everything is boundary-vector based (``keys[1:] != keys[:-1]`` +
``np.ufunc.reduceat``) — no per-row Python.
"""

from __future__ import annotations

import numpy as np

from repro.storage.sortkernels import is_sorted_int64, stable_order

__all__ = [
    "aggregate_sorted_keys", "merge_runs", "merge_sorted",
]

_REDUCERS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def aggregate_sorted_keys(
    keys: np.ndarray, measure: np.ndarray, agg: str = "sum"
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate a key-sorted run.

    Parameters
    ----------
    keys:
        ``(n,)`` int64 keys in non-decreasing order.
    measure:
        ``(n,)`` float64 measure values.
    agg:
        One of ``"sum"``, ``"count"``, ``"min"``, ``"max"``.

    Returns
    -------
    ``(unique_keys, aggregated_measure)`` with one row per distinct key,
    keys still sorted.
    """
    keys = np.asarray(keys)
    measure = np.asarray(measure)
    if keys.shape != measure.shape:
        raise ValueError(
            f"shape mismatch: keys {keys.shape} vs measure {measure.shape}"
        )
    n = keys.shape[0]
    if n == 0:
        return keys[:0], measure[:0].astype(np.float64)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    out_keys = keys[idx]
    if agg == "count":
        lengths = np.diff(np.append(idx, n))
        return out_keys, lengths.astype(np.float64)
    try:
        reducer = _REDUCERS[agg]
    except KeyError:
        raise ValueError(f"unsupported aggregate: {agg!r}") from None
    return out_keys, reducer.reduceat(measure, idx)


def merge_sorted(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable vectorised merge of two key-sorted runs.

    Equal keys keep run-``a`` rows first.  This is the classic
    ``searchsorted``-interleave trick: each element's output slot is its own
    rank plus the count of smaller elements in the other run.
    """
    na, nb = len(keys_a), len(keys_b)
    if na == 0:
        return keys_b, vals_b
    if nb == 0:
        return keys_a, vals_a
    out_keys = np.empty(na + nb, dtype=np.result_type(keys_a, keys_b))
    out_vals = np.empty(na + nb, dtype=np.result_type(vals_a, vals_b))
    pos_a = np.arange(na) + np.searchsorted(keys_b, keys_a, side="left")
    pos_b = np.arange(nb) + np.searchsorted(keys_a, keys_b, side="right")
    out_keys[pos_a] = keys_a
    out_keys[pos_b] = keys_b
    out_vals[pos_a] = vals_a
    out_vals[pos_b] = vals_b
    return out_keys, out_vals


def merge_runs(
    pieces: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Stable k-way merge of key-sorted ``(keys, values)`` runs.

    Equal keys keep the earlier run's rows first.  The runs are
    concatenated and stably sorted once by
    :func:`~repro.storage.sortkernels.stable_order`.  A stable sort would
    also quietly sort a run that is not in order, so every run is checked
    first and one that is not raises ``ValueError``.  No runs (or only empty ones) give empty
    int64/float64 arrays; a single run is returned as is.
    """
    for index, (keys, _) in enumerate(pieces):
        if not is_sorted_int64(keys):
            raise ValueError(f"merge_runs: run {index} is not sorted")
    runs = [piece for piece in pieces if len(piece[0])]
    if not runs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if len(runs) == 1:
        return runs[0]
    keys = np.concatenate([keys for keys, _ in runs])
    order = stable_order(keys)
    return keys[order], np.concatenate([values for _, values in runs])[order]
