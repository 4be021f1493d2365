"""Mixed-radix packing of dimension tuples into single ``int64`` keys.

Sorting and merging dominate data cube construction.  Comparing ``k``-column
rows with ``np.lexsort`` costs ``k`` passes; packing each row into one
``int64`` whose integer order equals the row's lexicographic order turns
every sort, merge, search and group-by boundary detection into a fast 1-D
operation.  This is the dictionary-encoded-composite-key idiom used by real
ROLAP engines, and is the main vectorisation lever of this code base
(see the HPC guide: vectorise, avoid per-row Python).

Packing requires the product of the (per-view) cardinalities to fit in 63
bits.  :meth:`KeyCodec.fits` checks this; callers fall back to ``lexsort``
on raw columns when it does not hold (see :func:`repro.storage.table.
Relation.sort_lex`).  All experiment presets in this repository fit easily
(e.g. 256·128·64·32·16·8·6·6 ≈ 2^33).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["KeyCodec"]

_MAX_KEY = np.int64(2**62)


class KeyCodec:
    """Order-preserving bijection between dim tuples and ``int64`` keys.

    Parameters
    ----------
    cardinalities:
        Per-column alphabet sizes; column ``i`` must hold codes in
        ``[0, cardinalities[i])``.  Column 0 is the most significant.
    """

    def __init__(self, cardinalities: Sequence[int]):
        cards = np.asarray(list(cardinalities), dtype=np.int64)
        if cards.ndim != 1:
            raise ValueError("cardinalities must be a flat sequence")
        if (cards < 1).any():
            raise ValueError(f"cardinalities must be >= 1, got {cards.tolist()}")
        self.cardinalities = cards
        #: (src_order, dst_order) -> precomputed remap plan (see remap()).
        self._remap_plans: dict = {}
        self.width = len(cards)
        # weights[i] = product of cardinalities of the less significant
        # columns, so key = sum_i dims[:, i] * weights[i].
        weights = np.ones(self.width, dtype=np.float64)
        for i in range(self.width - 2, -1, -1):
            weights[i] = weights[i + 1] * float(cards[i + 1])
        self._capacity = float(weights[0]) * float(cards[0]) if self.width else 1.0
        if not self.fits():
            raise OverflowError(
                "key space exceeds 63 bits: "
                f"product of cardinalities {cards.tolist()} ≈ {self._capacity:.3g}"
            )
        self.weights = weights.astype(np.int64)

    def fits(self) -> bool:
        """True iff every tuple packs into a non-negative ``int64``."""
        return self._capacity <= float(_MAX_KEY)

    @property
    def capacity(self) -> int:
        """Number of distinct keys this codec can produce."""
        return int(self._capacity)

    def pack(self, dims: np.ndarray) -> np.ndarray:
        """Pack an ``(n, width)`` code array into ``(n,)`` int64 keys."""
        dims = np.asarray(dims)
        if dims.ndim != 2 or dims.shape[1] != self.width:
            raise ValueError(
                f"expected (n, {self.width}) array, got shape {dims.shape}"
            )
        if self.width == 0:
            return np.zeros(dims.shape[0], dtype=np.int64)
        return dims @ self.weights

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """Invert :meth:`pack`: ``(n,)`` keys back to ``(n, width)`` codes."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
        out = np.empty((keys.shape[0], self.width), dtype=np.int64)
        rem = keys
        for i in range(self.width):
            out[:, i], rem = np.divmod(rem, self.weights[i])
        return out

    def _remap_plan(
        self, src_order: tuple[int, ...], dst_order: tuple[int, ...]
    ):
        """Build (and cache) the digit-extraction plan for one remap."""
        plan = self._remap_plans.get((src_order, dst_order))
        if plan is not None:
            return plan
        if len(src_order) != self.width:
            raise ValueError(
                f"src_order {src_order} has {len(src_order)} dims but this "
                f"codec packs {self.width}"
            )
        pos = {dim: p for p, dim in enumerate(src_order)}
        if len(pos) != len(src_order):
            raise ValueError(f"src_order {src_order} repeats a dimension")
        if len(set(dst_order)) != len(dst_order):
            raise ValueError(f"dst_order {dst_order} repeats a dimension")
        missing = [dim for dim in dst_order if dim not in pos]
        if missing:
            raise ValueError(
                f"dst_order dims {missing} not present in src_order "
                f"{src_order}"
            )
        shared = 0
        limit = min(len(src_order), len(dst_order))
        while shared < limit and src_order[shared] == dst_order[shared]:
            shared += 1
        # Destination weights over the selected (permuted) cardinalities.
        dst_cards = [int(self.cardinalities[pos[dim]]) for dim in dst_order]
        dst_weights = [1] * len(dst_order)
        for j in range(len(dst_order) - 2, -1, -1):
            dst_weights[j] = dst_weights[j + 1] * dst_cards[j + 1]
        # Per non-shared destination digit: (src divisor, radix, dst weight).
        steps = [
            (
                int(self.weights[pos[dim]]),
                int(self.cardinalities[pos[dim]]),
                dst_weights[j],
            )
            for j, dim in enumerate(dst_order)
            if j >= shared
        ]
        prefix_div = int(self.weights[shared - 1]) if shared else 0
        prefix_mul = dst_weights[shared - 1] if shared else 0
        plan = (shared, prefix_div, prefix_mul, steps)
        self._remap_plans[(src_order, dst_order)] = plan
        return plan

    def remap(
        self,
        keys: np.ndarray,
        src_order: Sequence[int],
        dst_order: Sequence[int],
    ) -> tuple[np.ndarray, int]:
        """Re-encode keys packed under ``src_order`` into ``dst_order``.

        ``self`` must be the codec of ``src_order`` (its cardinalities
        aligned with that permutation); ``dst_order`` selects any subset
        of ``src_order``'s dimensions in any order.  The conversion is
        pure int64 arithmetic — two floor divisions per *non-shared*
        destination digit against the cached mixed-radix weights — and never
        materialises an ``(n, d)`` code array, unlike unpack → repack.

        Returns ``(new_keys, shared_prefix_len)``.  The shared-prefix
        length is the number of leading positions where the two orders
        agree; because the suffix capacities on both sides multiply the
        *same* remaining cardinality product per side, rows of a
        src-sorted array stay clustered by the shared prefix — callers
        pass that promise to the sort charge as ``seg_divisor``.
        """
        src_order = tuple(int(i) for i in src_order)
        dst_order = tuple(int(i) for i in dst_order)
        shared, prefix_div, prefix_mul, steps = self._remap_plan(
            src_order, dst_order
        )
        keys = np.asarray(keys, dtype=np.int64)
        if src_order == dst_order:
            return keys.copy(), shared
        if shared:
            out = keys // prefix_div
            if prefix_mul != 1:
                out *= prefix_mul
        else:
            out = np.zeros(keys.shape[0], dtype=np.int64)
        # A digit is q % radix for q = keys // divisor; it enters ``out``
        # as q * weight less (keys // (divisor * radix)) * radix * weight,
        # since NumPy's int64 floor division is faster than its modulo.
        # Each term goes through one scratch array.  A term may wrap past
        # int64, but the wrapped sum is exact because the new key fits.
        if steps:
            term = np.empty_like(keys)
        for divisor, radix, weight in steps:
            np.floor_divide(keys, divisor, out=term)
            if weight != 1:
                term *= weight
            out += term
            np.floor_divide(keys, divisor * radix, out=term)
            term *= radix * weight
            out -= term
        return out, shared

    def prefix_codec(self, k: int) -> "KeyCodec":
        """Codec over the first ``k`` columns only."""
        if not 0 <= k <= self.width:
            raise ValueError(f"prefix length {k} out of range 0..{self.width}")
        return KeyCodec(self.cardinalities[:k])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KeyCodec({self.cardinalities.tolist()})"
