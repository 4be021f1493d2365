"""Tests for repro.core.viewdata: ViewData, codec_for_order, global_run."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.viewdata import ViewData, codec_for_order, global_run
from repro.storage.codec import KeyCodec


CARDS = (8, 6, 4, 3)


class TestCodecForOrder:
    def test_permuted_order(self):
        codec = codec_for_order((2, 0), CARDS)
        assert codec.cardinalities.tolist() == [4, 8]

    def test_identity_order(self):
        codec = codec_for_order((0, 1, 2, 3), CARDS)
        assert codec.cardinalities.tolist() == list(CARDS)

    def test_empty_order(self):
        assert codec_for_order((), CARDS).width == 0


class TestViewData:
    def make(self, order, rows):
        codec = codec_for_order(order, CARDS)
        dims = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(order))
        keys = np.sort(codec.pack(dims)) if len(order) else np.zeros(
            len(rows), dtype=np.int64
        )
        return ViewData(order, keys, np.arange(len(rows), dtype=np.float64))

    def test_view_is_canonical(self):
        data = self.make((2, 0), [[1, 3], [2, 5]])
        assert data.view == (0, 2)

    def test_nrows_nbytes(self):
        data = self.make((0,), [[1], [2], [3]])
        assert data.nrows == 3
        assert data.nbytes == 3 * 16

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            ViewData((0,), np.zeros(2, dtype=np.int64), np.zeros(3))

    def test_empty(self):
        data = ViewData.empty((1, 3))
        assert data.nrows == 0
        assert data.view == (1, 3)

    def test_is_sorted(self):
        good = ViewData((0,), np.array([1, 2, 2], dtype=np.int64), np.ones(3))
        bad = ViewData((0,), np.array([2, 1], dtype=np.int64), np.ones(2))
        assert good.is_sorted()
        assert not bad.is_sorted()

    def test_to_relation_reorders_columns(self):
        """A view produced in permuted order must materialise with
        canonical column order."""
        order = (2, 0)  # C-major pipeline order
        codec = codec_for_order(order, CARDS)
        dims_in_order = np.array([[0, 5], [3, 1]], dtype=np.int64)
        keys = codec.pack(dims_in_order)
        data = ViewData(order, keys, np.array([10.0, 20.0]))
        rel = data.to_relation(CARDS)
        # canonical order is (0, 2): columns swapped back
        assert rel.dims.tolist() == [[5, 0], [1, 3]]
        assert rel.measure.tolist() == [10.0, 20.0]

    def test_to_relation_roundtrip_random(self):
        rng = np.random.default_rng(0)
        order = (3, 1, 0)
        codec = codec_for_order(order, CARDS)
        dims = np.column_stack(
            [rng.integers(0, CARDS[i], 50) for i in order]
        )
        keys = codec.pack(dims)
        srt = np.argsort(keys)
        data = ViewData(order, keys[srt], rng.random(50)[srt])
        rel = data.to_relation(CARDS)
        assert rel.width == 3
        # repacking the canonical columns under the canonical codec and
        # sorting must give a permutation of the original keys
        canon_codec = KeyCodec([CARDS[i] for i in (0, 1, 3)])
        back = canon_codec.pack(rel.dims)
        assert back.size == 50

    def test_all_view_to_relation(self):
        data = ViewData((), np.zeros(1, dtype=np.int64), np.array([42.0]))
        rel = data.to_relation(CARDS)
        assert rel.width == 0
        assert rel.measure.tolist() == [42.0]

    def test_duplicate_dimension_in_order_rejected(self):
        data = ViewData((0, 0), np.zeros(1, dtype=np.int64), np.ones(1))
        with pytest.raises(ValueError):
            data.to_relation(CARDS)


class TestGlobalRun:
    """The one layout rule: rank pieces -> one sorted, key-disjoint run."""

    @staticmethod
    def pieces_from(keys, owner, p):
        """Sorted pieces of distinct ``keys``, key ``i`` on ``owner[i]``;
        each key's measure is the key itself, so it can be followed."""
        keys = np.asarray(keys, dtype=np.int64)
        owner = np.asarray(owner)
        return [
            ViewData((0, 1), keys[owner == r], keys[owner == r] * 1.0)
            for r in range(p)
        ]

    @given(
        st.sets(st.integers(0, 47), max_size=40),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_property(self, keyset, p, rnd, interleave):
        keys = np.array(sorted(keyset), dtype=np.int64)
        if interleave:  # any rank may own any key
            owner = [rnd.randrange(p) for _ in keys]
        else:  # Procedure 3: contiguous key ranges in rank order
            owner = sorted(rnd.randrange(p) for _ in keys)
        pieces = self.pieces_from(keys, owner, p)  # empty pieces included
        if list(owner) != sorted(owner):
            with pytest.raises(ValueError, match="key-disjoint"):
                global_run(pieces)
            return
        run = global_run(pieces)
        assert run.order == (0, 1)
        assert np.array_equal(run.keys, keys)  # the sorted union
        assert np.array_equal(run.measure, keys * 1.0)
        assert run.offsets.tolist() == [0] + np.cumsum(
            [piece.nrows for piece in pieces]
        ).tolist()

    def test_range_partitioned_is_the_concatenation(self):
        pieces = self.pieces_from([1, 4, 6, 9, 12], [0, 0, 2, 2, 2], 3)
        run = global_run(pieces)
        assert run.keys.tolist() == [1, 4, 6, 9, 12]
        assert run.offsets.tolist() == [0, 2, 2, 5]
        # the parts are the pieces themselves: nothing was copied
        assert all(
            keys is piece.keys and measure is piece.measure
            for (keys, measure), piece in zip(run.parts, pieces)
        )

    def test_interleaved_pieces_raise(self):
        # Sorted and key-disjoint, but not in rank order: no layout
        # merges them any more.
        pieces = self.pieces_from([1, 4, 6, 9, 12], [1, 0, 1, 0, 1], 2)
        with pytest.raises(ValueError, match="view AB.*rank order"):
            global_run(pieces)

    def test_mixed_orders_raise_naming_the_view(self):
        k = np.array([1, 5, 9], dtype=np.int64)
        pieces = [
            ViewData((0, 1), k, np.ones(3)),
            ViewData((1, 0), k + 1, np.ones(3)),
        ]
        with pytest.raises(ValueError, match="view AB.*sort order"):
            global_run(pieces)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1, 5], [5, 9]),  # shared key where two sorted pieces meet
            ([1, 5, 9], [2, 5]),  # shared key inside interleaved pieces
            ([5, 1], [7, 9]),  # a piece that is not sorted
        ],
    )
    def test_not_disjoint_sorted_runs_raise_naming_the_view(self, a, b):
        pieces = [
            ViewData((0, 1), np.array(x, dtype=np.int64), np.ones(len(x)))
            for x in (a, b)
        ]
        with pytest.raises(ValueError, match="view AB.*key-disjoint"):
            global_run(pieces)
