"""Fence indexes and access-path planning over sorted packed-key views.

The paper builds views precisely so queries do not scan raw data; this
module makes the stored views earn that on the serving side.  Every
format-2 view (:mod:`repro.olap.store`) is one globally sorted array of
packed int64 keys (most-significant dimension first, per the view's sort
order), so

* a **fence index** — every ``stride``-th key, persisted in the store
  manifest — narrows any key range to a small block window before a
  single page of the column is touched, and two ``searchsorted`` calls
  inside that window finish the job (the classic sparse index of
  sorted-string-table storage);
* an **access plan** classifies a query against the view's sort order:
  when the filtered dimensions form an order prefix the filters become
  one contiguous key range, and when the group-by dimensions are the
  next varying positions the slice aggregates with *no decode and no
  argsort* — :func:`repro.storage.scan.aggregate_sorted_keys` straight
  over remapped keys.

Both pieces are deliberately arithmetic-only (divmods against the
codec's mixed-radix weights); nothing here unpacks an ``(n, d)`` code
matrix.  :class:`SortedView` bundles a view's columns (mmap-backed or
in-memory) with its fence so the query engine has one object to range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.viewdata import codec_for_order
from repro.storage.mmapio import MappedColumn, MmapMeter
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import sort_pairs, stable_order

__all__ = [
    "AccessPlan",
    "FenceIndex",
    "SortedView",
    "aggregate_slice",
    "classify_access",
    "key_bounds",
]

#: Default fence stride: 512 int64 keys = one 4 KiB page per fence block.
DEFAULT_STRIDE = 512


# ---------------------------------------------------------------------------
# fence index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FenceIndex:
    """Every ``stride``-th key of a sorted column (plus the last key).

    Small enough to live in the JSON manifest (a 1M-row view at the
    default stride is ~2k sampled keys), big enough that a lookup
    touches only the fence blocks that can contain the range.
    """

    stride: int
    nrows: int
    keys: np.ndarray  # sampled keys, ascending

    @staticmethod
    def build(keys: np.ndarray, stride: int | None = None) -> "FenceIndex":
        return FenceIndex.over_parts([keys], stride)

    @staticmethod
    def over_parts(
        parts: Sequence[np.ndarray], stride: int | None = None
    ) -> "FenceIndex":
        """The fence of the concatenation of ``parts``, read off each
        part at its offset without making the concatenation."""
        stride = int(stride or DEFAULT_STRIDE)
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        samples, n = [], 0
        for part in parts:
            samples.append(part[(-n) % stride :: stride])
            n += int(part.shape[0])
        if n == 0:
            return FenceIndex(stride, 0, np.empty(0, dtype=np.int64))
        keys = np.concatenate(samples).astype(np.int64, copy=False)
        return FenceIndex(stride, n, keys)

    def window(self, lo_key: int, hi_key: int) -> tuple[int, int]:
        """Conservative row window covering every key in ``[lo, hi]``.

        Block-granular: the caller refines with ``searchsorted`` inside
        the window, touching only those pages.
        """
        if self.nrows == 0 or hi_key < lo_key:
            return 0, 0
        # Last block whose sample is < lo can still contain keys >= lo;
        # side="left" keeps boundary duplicates of lo inside the window.
        b_lo = int(np.searchsorted(self.keys, lo_key, side="left")) - 1
        b_lo = max(b_lo, 0)
        # Last block that can contain a key <= hi.
        b_hi = int(np.searchsorted(self.keys, hi_key, side="right"))
        row_lo = b_lo * self.stride
        row_hi = min((b_hi + 1) * self.stride, self.nrows)
        return row_lo, max(row_hi, row_lo)

    def to_manifest(self) -> dict:
        return {
            "stride": self.stride,
            "nrows": self.nrows,
            "keys": [int(k) for k in self.keys],
        }

    @staticmethod
    def from_manifest(entry: Mapping) -> "FenceIndex":
        return FenceIndex(
            int(entry["stride"]),
            int(entry["nrows"]),
            np.asarray(entry["keys"], dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# access-path classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessPlan:
    """How a query maps onto one sorted view.

    ``kind`` is the access path:

    * ``"index"`` — contiguous key range (two binary searches) and the
      slice aggregates already sorted: no decode, no argsort.
    * ``"index+sort"`` — contiguous key range, but the group projection
      is not monotone inside it, so the (narrowed) slice pays one
      stable sort of its projected keys.
    * ``"scan"`` — no usable prefix structure; full-view filter+sort.
    """

    kind: str
    #: Leading order positions folded into the key range bounds.
    prefix_len: int
    #: True iff projected group keys are non-decreasing over the slice.
    monotone: bool
    #: Group-by dims in their order of occurrence in the view order.
    group_occ: tuple[int, ...]
    #: Row-level residual filters (dim -> (lo, hi)) applied by digit
    #: arithmetic on the packed keys inside the slice.
    residual: tuple[tuple[int, tuple[int, int]], ...] = ()
    #: Filters on group-by dims outside the prefix, applied to the
    #: (small) aggregated groups instead of per row.
    group_filters: tuple[tuple[int, tuple[int, int]], ...] = ()

    @property
    def uses_index(self) -> bool:
        return self.kind != "scan"


def classify_access(
    order: Sequence[int],
    group_by: Sequence[int],
    filters: Mapping[int, tuple[int, int]],
) -> AccessPlan:
    """Classify a (group_by, filters) query against a view sort order.

    The contiguous-range prefix extends while order positions carry
    point filters, plus at most one final range-filtered position (a
    range at a more significant digit than an unfiltered one would
    shatter the slice).  Beyond the prefix, filters on group-by dims
    move to the aggregated groups and everything else becomes a
    residual digit mask.  The slice's group projection is monotone iff
    the group-by dims occupy the leading *varying* positions.
    """
    order = tuple(int(i) for i in order)
    gset = {int(d) for d in group_by}
    fdict = {int(d): (int(lo), int(hi)) for d, (lo, hi) in filters.items()}

    prefix_len = 0
    for dim in order:
        bounds = fdict.get(dim)
        if bounds is None:
            break
        prefix_len += 1
        if bounds[0] != bounds[1]:
            break  # a true range closes the prefix

    # Positions whose digit varies inside the slice: a range-filtered
    # last prefix position plus everything beyond the prefix.
    varying: list[int] = []
    if prefix_len:
        last = order[prefix_len - 1]
        lo, hi = fdict[last]
        if lo != hi:
            varying.append(prefix_len - 1)
    varying.extend(range(prefix_len, len(order)))

    group_positions = sorted(
        pos for pos, dim in enumerate(order) if dim in gset
    )
    # Constant (point-fixed) digits never break monotonicity; only the
    # varying positions of the group-by matter.
    group_varying = [pos for pos in group_positions if pos in set(varying)]
    monotone = group_varying == varying[: len(group_varying)]

    residual = tuple(
        sorted(
            (dim, bounds)
            for dim, bounds in fdict.items()
            if order.index(dim) >= prefix_len and dim not in gset
        )
    )
    group_filters = tuple(
        sorted(
            (dim, bounds)
            for dim, bounds in fdict.items()
            if order.index(dim) >= prefix_len and dim in gset
        )
    )
    if monotone:
        kind = "index"
    elif prefix_len:
        kind = "index+sort"
    else:
        kind = "scan"
    return AccessPlan(
        kind=kind,
        prefix_len=prefix_len,
        monotone=monotone,
        group_occ=tuple(dim for dim in order if dim in gset),
        residual=residual,
        group_filters=group_filters,
    )


def key_bounds(
    order: Sequence[int],
    cardinalities: Sequence[int],
    plan: AccessPlan,
    filters: Mapping[int, tuple[int, int]],
) -> tuple[int, int]:
    """Inclusive packed-key bounds ``[lo_key, hi_key]`` for the plan's
    prefix; unconstrained positions open to ``[0, card-1]``."""
    codec = codec_for_order(order, cardinalities)
    order = tuple(int(i) for i in order)
    lo = 0
    hi = 0
    for pos, dim in enumerate(order):
        card = int(codec.cardinalities[pos])
        w = int(codec.weights[pos])
        if pos < plan.prefix_len:
            flo, fhi = filters[dim]
            lo += max(int(flo), 0) * w
            hi += min(int(fhi), card - 1) * w
        else:
            hi += (card - 1) * w
    return lo, hi


# ---------------------------------------------------------------------------
# sorted view handle
# ---------------------------------------------------------------------------


class SortedView:
    """One globally sorted view: packed keys + measure + fence + order.

    Columns may be :class:`~repro.storage.mmapio.MappedColumn` handles
    (store-backed, metered) or plain in-memory arrays (engine-local
    acceleration).  ``range`` touches only the fence window; ``read``
    materialises exactly the requested rows.
    """

    def __init__(
        self,
        order: Sequence[int],
        keys,
        measure,
        fence: FenceIndex | None = None,
    ):
        self.order = tuple(int(i) for i in order)
        self._keys = keys
        self._measure = measure
        if fence is None:
            raw = keys.array if isinstance(keys, MappedColumn) else keys
            fence = FenceIndex.build(raw)
        self.fence = fence

    @property
    def nrows(self) -> int:
        return self.fence.nrows

    def range(self, lo_key: int, hi_key: int) -> tuple[int, int]:
        """Exact row range holding keys in ``[lo_key, hi_key]``."""
        row_lo, row_hi = self.fence.window(lo_key, hi_key)
        if row_hi <= row_lo:
            return 0, 0
        if isinstance(self._keys, MappedColumn):
            window = self._keys.read(row_lo, row_hi)
        else:
            window = self._keys[row_lo:row_hi]
        start = row_lo + int(np.searchsorted(window, lo_key, side="left"))
        stop = row_lo + int(np.searchsorted(window, hi_key, side="right"))
        return start, stop

    def read(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Materialise rows ``[start, stop)`` of both columns."""
        if isinstance(self._keys, MappedColumn):
            return (
                self._keys.read(start, stop),
                self._measure.read(start, stop),
            )
        return (
            np.asarray(self._keys[start:stop]),
            np.asarray(self._measure[start:stop]),
        )


# ---------------------------------------------------------------------------
# indexed execution
# ---------------------------------------------------------------------------


def _digit_mask(
    keys: np.ndarray,
    codec,
    pos: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Row mask for ``lo <= digit(pos) <= hi`` via weight arithmetic."""
    w = int(codec.weights[pos])
    card = int(codec.cardinalities[pos])
    digit = keys // w
    digit %= card
    return (digit >= lo) & (digit <= hi)


def aggregate_slice(
    keys: np.ndarray,
    measure: np.ndarray,
    order: Sequence[int],
    cardinalities: Sequence[int],
    plan: AccessPlan,
    group_by: Sequence[int],
    agg: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate a key-sorted slice onto ``group_by`` (canonical order).

    Returns ``(group_keys, measures)`` where the keys are packed under
    the *canonical* group-by codec and ascending — bit-identical to the
    scan path's output for the same rows (stable sort of an already
    monotone projection is the identity, so within-group float
    summation order matches).
    """
    order = tuple(int(i) for i in order)
    group_by = tuple(int(d) for d in group_by)
    codec = codec_for_order(order, cardinalities)

    mask: np.ndarray | None = None
    for dim, (lo, hi) in plan.residual:
        m = _digit_mask(keys, codec, order.index(dim), lo, hi)
        mask = m if mask is None else mask & m
    if mask is not None:
        keys = keys[mask]
        measure = measure[mask]

    g_occ = plan.group_occ
    gkeys, _ = codec.remap(keys, order, g_occ)
    if not plan.monotone:
        gkeys, measure = sort_pairs(gkeys, measure)
    out_keys, out_measure = aggregate_sorted_keys(gkeys, measure, agg)

    if g_occ != group_by:
        # Re-pack the (small) group keys into the canonical dim order
        # and restore ascending key order.
        g_codec = codec_for_order(g_occ, cardinalities)
        out_keys, _ = g_codec.remap(out_keys, g_occ, group_by)
        reorder = stable_order(out_keys)
        out_keys = out_keys[reorder]
        out_measure = out_measure[reorder]

    if plan.group_filters:
        canon_codec = codec_for_order(group_by, cardinalities)
        gmask: np.ndarray | None = None
        for dim, (lo, hi) in plan.group_filters:
            m = _digit_mask(
                out_keys, canon_codec, group_by.index(dim), lo, hi
            )
            gmask = m if gmask is None else gmask & m
        if gmask is not None:
            out_keys = out_keys[gmask]
            out_measure = out_measure[gmask]
    return out_keys, out_measure
