"""Tests for the one host sort (repro.storage.sortkernels) and the key
remap whose clustering the sort charge relies on.

``stable_order`` tags each key with its row index and runs one unstable
``ndarray.sort()``; it must return exactly NumPy's stable argsort
permutation, ties included, over the whole int64 range, and keys too
wide for one tagged pass must still come out in that order.
``sort_pairs`` is ``stable_order`` plus gathers, and there is no kernel
left to choose.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.__main__ import main
from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.viewdata import codec_for_order
from repro.storage.codec import KeyCodec
from repro.storage.sortkernels import (
    is_sorted_int64,
    segment_runs,
    sort_pairs,
    stable_order,
)
from tests.conftest import make_relation

# Narrow keys for ties, the whole int64 range for negatives and extremes.
KEYS = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
    max_size=300,
)


@given(KEYS)
def test_sort_pairs_matches_reference(key_list):
    """Rows come out in the order of a stable sort of their indices."""
    keys = np.asarray(key_list, dtype=np.int64)
    values = np.arange(keys.shape[0], dtype=np.float64)
    order = sorted(range(len(key_list)), key=key_list.__getitem__)
    got_k, got_v = sort_pairs(keys, values)
    assert got_k.tolist() == [key_list[i] for i in order]
    assert got_v.tolist() == [float(i) for i in order]
    # Returned arrays are fresh — never aliases of the input.
    assert got_k is not keys and got_v is not values


@st.composite
def key_arrays(draw):
    """int64 keys: random over a drawn span, heavy ties, presorted or
    reversed, at lengths where the index width changes."""
    k = draw(st.integers(1, 11))
    n = draw(st.sampled_from([0, 1, 2, (1 << k) - 1, 1 << k, (1 << k) + 1]))
    seed = draw(st.integers(0, 2**32 - 1))
    span = draw(st.sampled_from([1, 3, 2**20, 2**60, 2**64]))
    low = draw(st.integers(-(2**63), 2**63 - span))
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, span, n, dtype=np.uint64)
    keys = (offsets + np.uint64(low % 2**64)).view(np.int64)
    shape = draw(st.sampled_from(["random", "sorted", "reversed"]))
    if shape != "random":
        keys = np.sort(keys)
    return keys[::-1].copy() if shape == "reversed" else keys


@given(key_arrays())
def test_stable_order_matches_argsort(keys):
    want = np.argsort(keys, kind="stable")
    got = stable_order(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    values = np.arange(keys.shape[0], dtype=np.float64)
    got_k, got_v = sort_pairs(keys, values)
    np.testing.assert_array_equal(got_k, keys[want])
    np.testing.assert_array_equal(got_v, values[want])


def test_stable_order_multi_chunk_path():
    """1,000 rows over a 2^60 span need 10 index bits and 60 key bits,
    more than one tagged pass holds: the permutation is still the stable
    argsort's, ties and extremes included."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**60, 1000, dtype=np.int64)
    keys[::7] = keys[0]
    keys[1], keys[2] = -(2**63), 2**63 - 1
    np.testing.assert_array_equal(
        stable_order(keys), np.argsort(keys, kind="stable")
    )
    got_k, got_v = sort_pairs(keys, np.arange(1000, dtype=np.float64))
    want = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(got_k, keys[want])
    np.testing.assert_array_equal(got_v, want.astype(np.float64))


def test_stable_order_tags_every_chunk():
    """Row indices are tagged a chunk at a time; inputs longer than a
    chunk, with ties, still give the stable permutation."""
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 1000, 3 * 2**16 + 5, dtype=np.int64)
    np.testing.assert_array_equal(
        stable_order(keys), np.argsort(keys, kind="stable")
    )


def test_stable_order_rejects_unsafe_dtypes():
    np.testing.assert_array_equal(
        stable_order(np.array([3, 1, 2], dtype=np.int32)), [1, 2, 0]
    )
    with pytest.raises(TypeError):
        stable_order(np.array([0.5, 0.25]))


def test_stability_of_pairing():
    """Equal keys keep their input order."""
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 7, 5000, dtype=np.int64)  # heavy duplication
    values = np.arange(5000, dtype=np.float64)  # input position as payload
    got_k, got_v = sort_pairs(keys, values)
    assert is_sorted_int64(got_k)
    # Within each equal-key block the payloads must ascend (stability).
    for key in np.unique(got_k):
        block = got_v[got_k == key]
        assert np.all(np.diff(block) > 0)


# ---------------------------------------------------------------------------
# order checks
# ---------------------------------------------------------------------------


def test_segment_runs_checks_its_promise():
    """Clustered prefixes give their segments; a broken promise gives
    ``None``, and so does an empty input."""
    w = 10
    keys = np.array([13, 11, 17, 25, 21, 42], dtype=np.int64)
    high, seg, nseg = segment_runs(keys, w)
    assert high.tolist() == [1, 1, 1, 2, 2, 4]
    assert seg.tolist() == [0, 0, 0, 1, 1, 2] and nseg == 3
    assert segment_runs(keys[::-1].copy(), w) is None
    assert segment_runs(np.empty(0, dtype=np.int64), w) is None


class TestIsSorted:
    def test_trivial(self):
        assert is_sorted_int64(np.empty(0, dtype=np.int64))
        assert is_sorted_int64(np.array([5], dtype=np.int64))

    def test_sorted_with_ties(self):
        assert is_sorted_int64(np.array([1, 1, 2, 2, 3], dtype=np.int64))

    def test_unsorted(self):
        assert not is_sorted_int64(np.array([1, 3, 2], dtype=np.int64))

    def test_inversion_across_chunk_boundary(self):
        n = 5000
        keys = np.arange(n, dtype=np.int64)
        keys[4097] = 0  # violation right past a 4096-window edge
        assert not is_sorted_int64(keys, chunk=1 << 12)
        assert is_sorted_int64(np.arange(n, dtype=np.int64), chunk=1 << 12)

    def test_matches_two_temporary_check(self, rng):
        for _ in range(20):
            keys = rng.integers(0, 4, 50)
            want = bool(np.all(keys[1:] >= keys[:-1]))
            assert is_sorted_int64(keys, chunk=16) == want


def test_sort_pairs_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        sort_pairs(np.zeros(3, dtype=np.int64), np.zeros(2))


class TestNoKernelChoice:
    """The kernel-choosing options are gone, not ignored."""

    def test_machine_spec_has_no_sort_kernel(self):
        with pytest.raises(TypeError):
            MachineSpec(sort_kernel="radix")

    def test_cli_rejects_sort_kernel(self):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--sort-kernel", "radix"])
        assert exc.value.code == 2

    def test_environment_does_not_pick_a_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_SORT_KERNEL", "bogus")
        got_k, got_v = sort_pairs(
            np.array([2, 0, 1], dtype=np.int64), np.array([0.0, 1.0, 2.0])
        )
        assert got_k.tolist() == [0, 1, 2] and got_v.tolist() == [1, 2, 0]

    def test_key_bound_is_ignored(self):
        keys = np.array([5, 3, 9, 3], dtype=np.int64)
        values = np.arange(4, dtype=np.float64)
        for got, want in zip(
            sort_pairs(keys, values, key_bound=4), sort_pairs(keys, values)
        ):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# KeyCodec.remap
# ---------------------------------------------------------------------------


class TestRemap:
    def reference(self, codec, keys, src_order, dst_order):
        """unpack → select/permute → repack under the destination codec."""
        dims = codec.unpack(keys)
        col_of = {dim: pos for pos, dim in enumerate(src_order)}
        cols = [col_of[d] for d in dst_order]
        dst_codec = KeyCodec([codec.cardinalities[c] for c in cols])
        return dst_codec.pack(dims[:, cols])

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["any", "prefix", "same", "empty"]),
    )
    def test_matches_reference_fixed_orders(self, seed, case):
        """Random source orders and destination subsets, drawn to hit a
        shared prefix, the identical order and the empty destination."""
        rng = np.random.default_rng(seed)
        cards = tuple(int(c) for c in rng.integers(1, 9, 5))
        src = tuple(rng.permutation(5).tolist())
        if case == "same":
            dst = src
        elif case == "empty":
            dst = ()
        elif case == "prefix":
            head = int(rng.integers(1, 6))
            tail = rng.permutation(src[head:])[: rng.integers(0, 6 - head)]
            dst = src[:head] + tuple(tail.tolist())
        else:
            take = int(rng.integers(0, 6))
            dst = tuple(rng.permutation(5)[:take].tolist())
        codec = KeyCodec([cards[d] for d in src])
        dims = np.stack(
            [
                rng.integers(0, cards[d], 200, dtype=np.int64)
                for d in src
            ],
            axis=1,
        )
        keys = codec.pack(dims)
        got, shared = codec.remap(keys, src, dst)
        want = self.reference(codec, keys, src, dst)
        np.testing.assert_array_equal(got, want)
        k = 0
        while k < min(len(src), len(dst)) and src[k] == dst[k]:
            k += 1
        assert shared == k

    def test_wrapping_terms_sum_exactly(self):
        """Swapping two 2^31-wide digits multiplies a 62-bit quotient by
        2^31: the term wraps past int64, the new key is still exact."""
        cards = (2**31, 2**31 - 1)
        codec = KeyCodec(cards)
        rng = np.random.default_rng(11)
        dims = np.stack(
            [rng.integers(0, c, 300, dtype=np.int64) for c in cards], axis=1
        )
        dims[0] = [c - 1 for c in cards]
        keys = codec.pack(dims)
        got, shared = codec.remap(keys, (0, 1), (1, 0))
        np.testing.assert_array_equal(
            got, self.reference(codec, keys, (0, 1), (1, 0))
        )
        assert shared == 0

    def test_shared_prefix_clustering(self):
        """Sorted source keys stay clustered by the shared prefix."""
        cards = (6, 5, 4, 3)
        src, dst = (0, 1, 2, 3), (0, 1, 3, 2)
        codec = codec_for_order(src, cards)
        rng = np.random.default_rng(9)
        dims = np.stack(
            [rng.integers(0, c, 500, dtype=np.int64) for c in cards],
            axis=1,
        )
        keys = np.sort(codec.pack(dims))
        new_keys, shared = codec.remap(keys, src, dst)
        assert shared == 2
        dst_codec = codec_for_order(dst, cards)
        w = int(dst_codec.weights[shared - 1])
        assert is_sorted_int64(new_keys // w)

    def test_identity_remap(self):
        codec = KeyCodec((4, 3))
        keys = np.array([0, 5, 11], dtype=np.int64)
        got, shared = codec.remap(keys, (0, 1), (0, 1))
        np.testing.assert_array_equal(got, keys)
        assert shared == 2
        assert got is not keys

    def test_projection_to_empty(self):
        codec = KeyCodec((4, 3))
        got, shared = codec.remap(
            np.array([3, 7], dtype=np.int64), (0, 1), ()
        )
        np.testing.assert_array_equal(got, [0, 0])
        assert shared == 0

    def test_rejects_bad_orders(self):
        codec = KeyCodec((4, 3))
        with pytest.raises(ValueError):
            codec.remap(np.zeros(1, dtype=np.int64), (0,), (0,))
        with pytest.raises(ValueError):
            codec.remap(np.zeros(1, dtype=np.int64), (0, 1), (2,))
        with pytest.raises(ValueError):
            codec.remap(np.zeros(1, dtype=np.int64), (0, 0), (0,))


def test_codec_cache_keys_on_selected_cards():
    """Orders selecting the same cardinality sequence share one codec."""
    assert codec_for_order((0,), (4, 5)) is codec_for_order((1,), (5, 4))
    assert codec_for_order((0, 1), (4, 5, 99)) is codec_for_order(
        (0, 1), (4, 5, 7)
    )
    assert codec_for_order((0,), (4, 5)) is not codec_for_order(
        (1,), (4, 5)
    )


# ---------------------------------------------------------------------------
# end-to-end: COUNT rides the SUM path
# ---------------------------------------------------------------------------


CARDS = (10, 6, 4, 3)


@pytest.fixture(scope="module")
def dataset():
    return make_relation(3000, CARDS, seed=33)


def assert_same_cube(a, b):
    assert a.views == b.views
    for rank_a, rank_b in zip(a.rank_views, b.rank_views):
        for view in rank_a:
            np.testing.assert_array_equal(
                rank_a[view].keys, rank_b[view].keys
            )
            np.testing.assert_array_equal(
                rank_a[view].measure, rank_b[view].measure
            )
    assert a.metrics.simulated_seconds == b.metrics.simulated_seconds
    assert a.metrics.disk_blocks == b.metrics.disk_blocks
    assert a.metrics.comm_bytes == b.metrics.comm_bytes


def test_count_equals_sum_of_ones_bitwise(dataset):
    """COUNT must ride the exact float64-ones path SUM would see."""
    ones = dataset.__class__(
        dataset.dims, np.ones(dataset.nrows, dtype=np.float64)
    )
    spec = MachineSpec(p=4)
    count_cube = build_data_cube(
        dataset, CARDS, spec, CubeConfig(agg="count")
    )
    sum_cube = build_data_cube(ones, CARDS, spec, CubeConfig(agg="sum"))
    assert_same_cube(count_cube, sum_cube)
