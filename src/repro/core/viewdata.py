"""In-flight representation of a materialised view on one processor.

A view's rows live as **packed int64 keys** (see
:class:`repro.storage.codec.KeyCodec`) under the view's *sort order* — the
attribute permutation its schedule-tree pipeline produced — plus the
aggregated measure.  Keys keep every sort/merge/search in fast 1-D NumPy;
dimension columns are unpacked only at materialisation.

The order tuple lists raw-dataset dimension indices, most significant
first.  Two ranks holding the same view under the same (global) schedule
tree share the same order, which is precisely why the paper's global-tree
variant can merge without re-sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.views import View, canonical_view, view_name
from repro.storage.codec import KeyCodec
from repro.storage.sortkernels import is_sorted_int64
from repro.storage.table import Relation

__all__ = ["GlobalRun", "ViewData", "codec_for_order", "global_run"]


@lru_cache(maxsize=1024)
def _cached_codec(selected_cards: tuple[int, ...]) -> KeyCodec:
    return KeyCodec(selected_cards)


def codec_for_order(
    order: Sequence[int], cardinalities: Sequence[int]
) -> KeyCodec:
    """Key codec for an attribute permutation over the global dims.

    Cached on the *selected* cardinalities ``cards[i] for i in order`` —
    the only inputs the codec depends on — so codecs are shared across
    runs/datasets that differ in unused dimensions, and across distinct
    orders that select the same cardinality sequence.  The hot paths
    (``execute_schedule``, merge re-sorts, ``to_relation``) request the
    same handful of codecs thousands of times per run.  The returned
    codec is shared — treat it as immutable (its internal remap-plan
    cache keys on full src/dst orders, so sharing is safe).
    """
    return _cached_codec(
        tuple(int(cardinalities[int(i)]) for i in order)
    )


@dataclass
class ViewData:
    """One rank's piece of one view."""

    #: Attribute permutation (raw-dataset dimension indices).
    order: tuple[int, ...]
    #: Packed keys under ``codec_for_order(order, cards)``; sorted
    #: non-decreasing once the view is fully built.
    keys: np.ndarray
    #: Aggregated measure, parallel to ``keys``.
    measure: np.ndarray

    def __post_init__(self) -> None:
        self.order = tuple(int(i) for i in self.order)
        self.keys = np.asarray(self.keys, dtype=np.int64)
        self.measure = np.asarray(self.measure, dtype=np.float64)
        if self.keys.shape != self.measure.shape or self.keys.ndim != 1:
            raise ValueError(
                f"keys {self.keys.shape} / measure {self.measure.shape} "
                "must be parallel 1-D arrays"
            )

    @property
    def view(self) -> View:
        """The canonical view identifier this data belongs to."""
        return canonical_view(self.order)

    @property
    def nrows(self) -> int:
        return self.keys.shape[0]

    @property
    def nbytes(self) -> int:
        """Wire/storage size (used by the traffic meters)."""
        return self.keys.nbytes + self.measure.nbytes

    def is_sorted(self) -> bool:
        """Single-pass, early-exit sortedness check (no temporaries of
        ``nrows`` size — see :func:`repro.storage.sortkernels.is_sorted_int64`)."""
        return is_sorted_int64(self.keys)

    @staticmethod
    def empty(order: Sequence[int]) -> "ViewData":
        return ViewData(
            tuple(order),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    def to_relation(self, cardinalities: Sequence[int]) -> Relation:
        """Materialise as a relation with columns in canonical view order.

        The packed keys are unpacked under this view's order permutation,
        then columns are rearranged to the canonical identifier order
        (ascending dimension index = descending cardinality).
        """
        codec = codec_for_order(self.order, cardinalities)
        dims = codec.unpack(self.keys)
        canon = self.view
        col_of = {dim: pos for pos, dim in enumerate(self.order)}
        if len(canon) != len(self.order):
            raise ValueError(f"order {self.order} repeats a dimension")
        cols = [col_of[dim] for dim in canon]
        return Relation(dims[:, cols] if cols else dims, self.measure)


@dataclass(frozen=True)
class GlobalRun:
    """One view's rank pieces laid end to end: one globally sorted,
    key-disjoint run."""

    #: The sort order the pieces and the run share.
    order: tuple[int, ...]
    #: Cumulative piece sizes: slicing the run at them gives back each
    #: rank's piece.
    offsets: np.ndarray
    #: The rank pieces' ``(keys, measure)``, rank 0 first.
    parts: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def keys(self) -> np.ndarray:
        return _joined([keys for keys, _ in self.parts])

    @property
    def measure(self) -> np.ndarray:
        return _joined([measure for _, measure in self.parts])


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def global_run(pieces: Sequence[ViewData]) -> GlobalRun:
    """One view's rank pieces as one globally sorted, key-disjoint run.

    This is the only place that decides how a cube's pieces become the
    layout every stored or served view has.  Procedure 3 leaves a view
    range-partitioned in rank order, and a degraded build adopts the
    lost rank's pieces by position, so the run *is* the concatenation
    (rank 0 first) and nothing is copied.  Pieces under different sort
    orders, an unsorted piece or pieces that do not follow each other
    in key order are a broken cube (``audit_cube``'s ``rank-run`` check
    rejects it too) and raise ``ValueError``.
    """
    name = view_name(pieces[0].view)
    orders = {piece.order for piece in pieces}
    if len(orders) != 1:
        raise ValueError(
            f"view {name}: rank pieces disagree on the sort order "
            f"({sorted(orders)})"
        )
    # Sorted pieces are the run laid end to end when each one's last key
    # is below the next one's first.
    edges = [piece.keys[[0, -1]] for piece in pieces if piece.nrows]
    if not (
        all(piece.is_sorted() for piece in pieces)
        and all(a[1] < b[0] for a, b in zip(edges, edges[1:]))
    ):
        raise ValueError(
            f"view {name}: rank pieces are not sorted, key-disjoint runs "
            "in rank order"
        )
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([piece.nrows for piece in pieces], out=offsets[1:])
    return GlobalRun(
        pieces[0].order,
        offsets,
        tuple((piece.keys, piece.measure) for piece in pieces),
    )
