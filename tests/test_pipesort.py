"""Tests for repro.core.pipesort: schedule trees (phase 1) and pipelined
execution (phase 2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.reference import reference_view
from repro.core.estimate import estimate_view_sizes
from repro.core.pipesort import (
    ScheduleTree,
    build_schedule_tree,
    execute_schedule,
    scan_cost,
    sort_cost,
)
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import all_views, is_prefix
from repro.storage.codec import KeyCodec
from repro.storage.disk import LocalDisk
from repro.storage.scan import aggregate_sorted_keys
from tests.conftest import make_relation


def uniform_estimates(views, size=100.0):
    return {v: size * max(len(v), 1) for v in views}


def build_full(d, estimates=None):
    views = all_views(d)
    root = tuple(range(d))
    if estimates is None:
        estimates = uniform_estimates(views)
    return build_schedule_tree(views, root, estimates, root)


class TestCosts:
    def test_scan_cheaper_than_sort(self):
        for size in (1, 10, 1e6):
            assert scan_cost(size) < sort_cost(size)

    def test_costs_monotone(self):
        assert sort_cost(100) < sort_cost(1000)
        assert scan_cost(100) < scan_cost(1000)


class TestTreeStructure:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_spans_all_views(self, d):
        tree = build_full(d)
        assert set(tree.views()) == set(all_views(d))
        tree.validate()

    def test_every_nonroot_has_parent_one_level_up(self):
        tree = build_full(4)
        for node in tree.nodes.values():
            if node.parent is None:
                continue
            assert len(node.parent) == len(node.view) + 1
            assert set(node.view) < set(node.parent)

    def test_at_most_one_scan_child(self):
        tree = build_full(5)
        for node in tree.nodes.values():
            scans = [
                c for c in node.children if tree.nodes[c].mode == "scan"
            ]
            assert len(scans) <= 1

    def test_scan_children_are_order_prefixes(self):
        tree = build_full(5)
        for node in tree.nodes.values():
            if node.mode == "scan":
                parent = tree.nodes[node.parent]
                assert is_prefix(node.order, parent.order)

    def test_root_chain_respects_root_order(self):
        root_order = (0, 1, 2, 3)
        tree = build_full(4)
        node = tree.nodes[tree.root]
        while True:
            scans = [
                c for c in node.children if tree.nodes[c].mode == "scan"
            ]
            if not scans:
                break
            node = tree.nodes[scans[0]]
            assert is_prefix(node.order, root_order)

    def test_orders_cover_views(self):
        tree = build_full(4)
        for node in tree.nodes.values():
            assert set(node.order) == set(node.view)

    def test_pipelines_partition_views(self):
        tree = build_full(4)
        chains = tree.pipelines()
        flat = [v for chain in chains for v in chain]
        assert sorted(flat) == sorted(tree.views())

    def test_preorder_parents_first(self):
        tree = build_full(4)
        seen = set()
        for node in tree.preorder():
            if node.parent is not None:
                assert node.parent in seen
            seen.add(node.view)

    def test_estimated_cost_beats_all_sort(self):
        """The matcher's tree must not cost more than sorting every edge."""
        views = all_views(4)
        est = estimate_view_sizes(
            make_relation(2000, (8, 6, 4, 3)).dims, (8, 6, 4, 3), views,
            method="exact",
        )
        tree = build_schedule_tree(views, (0, 1, 2, 3), est)
        all_sort = sum(
            sort_cost(est[n.parent])
            for n in tree.nodes.values()
            if n.parent is not None
        )
        assert tree.estimated_cost(est) <= all_sort

    def test_describe_mentions_views(self):
        text = build_full(3).describe()
        assert "ABC" in text and "ALL" in text and "[scan]" in text

    def test_missing_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            build_schedule_tree([(0,)], (0, 1), {})

    def test_gappy_levels_rejected(self):
        with pytest.raises(ValueError):
            build_schedule_tree(
                [(0, 1, 2), (0,)], (0, 1, 2), {}, (0, 1, 2)
            )

    def test_bad_root_order_rejected(self):
        with pytest.raises(ValueError, match="root order"):
            build_schedule_tree(all_views(2), (0, 1), {}, (0, 2))


class TestScheduleTreeAPI:
    def test_add_validations(self):
        tree = ScheduleTree((0, 1, 2), (0, 1, 2))
        tree.add((0, 1), (0, 1, 2), "scan")
        with pytest.raises(ValueError, match="already scheduled"):
            tree.add((0, 1), (0, 1, 2), "sort")
        with pytest.raises(ValueError, match="not in tree"):
            tree.add((), (1,), "scan")
        with pytest.raises(ValueError, match="bad edge mode"):
            tree.add((1,), (0, 1, 2), "teleport")
        with pytest.raises(ValueError, match="proper subset"):
            tree.add((0, 2), (0, 1), "sort")

    def test_two_scan_children_rejected(self):
        tree = ScheduleTree((0, 1), (0, 1))
        tree.add((0,), (0, 1), "scan")
        tree.add((1,), (0, 1), "scan")
        with pytest.raises(ValueError, match="scan"):
            tree.assign_orders()

    def test_contains_and_len(self):
        tree = ScheduleTree((0, 1), (0, 1))
        assert (0, 1) in tree
        assert (0,) not in tree
        assert len(tree) == 1


def run_phase2(relation, cards, tree=None, agg="sum"):
    d = len(cards)
    root = tuple(range(d))
    codec = KeyCodec(cards)
    keys = codec.pack(relation.dims)
    order = np.argsort(keys, kind="stable")
    keys, measure = aggregate_sorted_keys(
        keys[order], relation.measure[order], agg
    )
    root_data = ViewData(root, keys, measure)
    if tree is None:
        tree = build_full(d, uniform_estimates(all_views(d)))
    disk = LocalDisk(block_size=64)
    return execute_schedule(tree, root_data, cards, disk, 1 << 20, agg), disk


class TestPhase2:
    @pytest.mark.parametrize("agg", ["sum", "min", "max"])
    def test_all_views_match_reference(self, agg):
        cards = (8, 5, 4, 3)
        relation = make_relation(3000, cards, seed=5)
        results, _ = run_phase2(relation, cards, agg=agg)
        for view, data in results.items():
            got = data.to_relation(cards)
            want = reference_view(relation, cards, view, agg)
            assert got.same_content(want), view

    def test_views_sorted_under_their_orders(self):
        cards = (8, 5, 4)
        relation = make_relation(1000, cards, seed=2)
        results, _ = run_phase2(relation, cards)
        for data in results.values():
            assert data.is_sorted()

    def test_empty_input(self):
        cards = (4, 3)
        relation = make_relation(0, cards)
        results, _ = run_phase2(relation, cards)
        assert all(d.nrows == 0 for d in results.values())

    def test_disk_charged_for_stores(self):
        cards = (8, 5, 4)
        relation = make_relation(1000, cards, seed=2)
        _, disk = run_phase2(relation, cards)
        assert disk.stats.blocks_written > 0
        assert disk.work.seconds > 0

    def test_sort_edges_are_charged_for_the_segments_they_sort(self):
        """Model equals physical on sort edges: a parent sorted under an
        order that shares a leading prefix with the child's is re-sorted
        cluster by cluster, and pays ``sum n_s * max(1, log2 n_s)``."""
        cards = (8, 5, 4, 3)
        relation = make_relation(3000, cards, seed=5)
        tree = build_full(4)
        results, disk = run_phase2(relation, cards, tree)
        a = disk.work.sort_sec_per_row_level
        want, rows, discounted = 0.0, 0, 0
        for node in tree.nodes.values():
            if node.mode != "sort":
                continue
            parent = results[node.parent]
            shared = 0
            while (
                shared < len(node.order)
                and parent.order[shared] == node.order[shared]
            ):
                shared += 1
            lengths = [parent.nrows]
            if 0 < shared < len(node.order):
                weights = codec_for_order(parent.order, cards).weights
                prefix = parent.keys // weights[shared - 1]
                cuts = np.flatnonzero(np.diff(prefix)) + 1
                lengths = np.diff(np.concatenate(([0], cuts, [parent.nrows])))
                discounted += 1
            want += a * sum(n * max(1.0, np.log2(n)) for n in lengths)
            rows += parent.nrows
        assert discounted > 0
        scans = disk.work.scan_sec_per_row * disk.work.rows_scanned
        assert disk.work.seconds - scans == pytest.approx(want)
        assert disk.work.rows_sorted == rows

    def test_wrong_root_order_raises(self):
        cards = (4, 3)
        tree = build_full(2)
        root_data = ViewData((1, 0), np.zeros(1, np.int64), np.zeros(1))
        with pytest.raises(ValueError, match="root data order"):
            execute_schedule(tree, root_data, cards, LocalDisk(8), 100)

    @given(st.integers(0, 400), st.integers(1, 4))
    def test_random_shapes_match_reference(self, n, d):
        cards = tuple([7, 5, 3, 2][:d])
        relation = make_relation(n, cards, seed=n + d)
        results, _ = run_phase2(relation, cards)
        assert len(results) == 2**d
        for view in [(), tuple(range(d))]:
            got = results[view].to_relation(cards)
            want = reference_view(relation, cards, view, "sum")
            assert got.same_content(want)


class TestDotExport:
    def test_dot_contains_all_views_and_styles(self):
        tree = build_full(3)
        dot = tree.to_dot()
        assert dot.startswith("digraph")
        for view in all_views(3):
            from repro.core.views import view_name

            assert f'"{view_name(view)}"' in dot
        assert "style=solid" in dot  # at least one scan edge
        assert "style=dashed" in dot  # at least one sort edge

    def test_dot_edge_count(self):
        tree = build_full(4)
        dot = tree.to_dot()
        assert dot.count("->") == len(tree) - 1
