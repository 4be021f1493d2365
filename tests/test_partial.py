"""Tests for partial-cube schedule trees (Section 3)."""

import numpy as np
import pytest

from repro.core.partial import build_partial_schedule_tree, prune_full_tree
from repro.core.pipesort import build_schedule_tree, sort_cost
from repro.core.views import all_views, is_prefix, parse_view_name


def est_uniform(d, size=1000.0):
    return {v: size for v in all_views(d)}


class TestBuildPartialTree:
    def test_covers_selected(self):
        root = (0, 1, 2, 3)
        selected = [(0, 1), (2,), (1, 3)]
        tree = build_partial_schedule_tree(selected, root, est_uniform(4))
        for v in selected:
            assert v in tree
        tree.validate()

    def test_root_always_present(self):
        tree = build_partial_schedule_tree([(0,)], (0, 1), est_uniform(2))
        assert tree.root == (0, 1)

    def test_empty_selection_gives_root_only(self):
        tree = build_partial_schedule_tree([], (0, 1, 2), est_uniform(3))
        assert len(tree) == 1

    def test_selected_equal_root_ok(self):
        # the root is already materialised by the partitioning phase; when
        # it is itself selected the tree needs no extra node for it
        tree = build_partial_schedule_tree(
            [(0, 1)], (0, 1), est_uniform(2)
        )
        assert len(tree) == 1
        assert (0, 1) in tree

    def test_rejects_non_subset(self):
        with pytest.raises(ValueError, match="not a subset"):
            build_partial_schedule_tree([(5,)], (0, 1), {})

    def test_chained_selected_views_reuse_each_other(self):
        # ABC and AB selected: AB should come from ABC, not the root ABCD
        # (sizes make the root much more expensive).
        est = {v: 10.0 ** len(v) for v in all_views(4)}
        tree = build_partial_schedule_tree(
            [parse_view_name("ABC"), parse_view_name("AB")],
            (0, 1, 2, 3),
            est,
        )
        assert tree.nodes[parse_view_name("AB")].parent == parse_view_name("ABC")

    def test_beneficial_intermediate_inserted(self):
        """Many small sibling views sharing a small common superset should
        trigger insertion of that superset as an intermediate."""
        d = 5
        est = {
            v: 1_000_000.0 if len(v) >= 4 else 5000.0 if len(v) == 3 else 10.0
            for v in all_views(d)
        }
        est[(0, 1, 2)] = 50.0  # the one cheap shared ancestor
        selected = [(0, 1), (0, 2), (1, 2), (0,), (1,), (2,)]
        tree = build_partial_schedule_tree(
            selected, (0, 1, 2, 3, 4), est
        )
        assert (0, 1, 2) in tree  # intermediate added
        for v in selected:
            parent = tree.nodes[v].parent
            assert est[parent] <= 100.0  # nobody pays a giant producer
        tree.validate()

    def test_no_intermediate_when_not_beneficial(self):
        est = est_uniform(3, 10.0)
        selected = [(0,)]
        tree = build_partial_schedule_tree(selected, (0, 1, 2), est)
        # only root + selected: nothing else pays off
        assert set(tree.views()) == {(0, 1, 2), (0,)}

    def test_scan_upgrade_respects_root_order(self):
        tree = build_partial_schedule_tree(
            [(0,), (1,), (0, 1)], (0, 1, 2), est_uniform(3),
            root_order=(0, 1, 2),
        )
        tree.validate()
        root_node = tree.nodes[(0, 1, 2)]
        for c in root_node.children:
            if tree.nodes[c].mode == "scan":
                assert is_prefix(tree.nodes[c].order, (0, 1, 2))

    def test_at_most_one_scan_child_each(self):
        selected = all_views(4)[1:]  # everything but ALL... plus root etc.
        tree = build_partial_schedule_tree(
            selected, (0, 1, 2, 3), est_uniform(4)
        )
        for node in tree.nodes.values():
            scans = [c for c in node.children if tree.nodes[c].mode == "scan"]
            assert len(scans) <= 1

    def test_level_skipping_edges_allowed(self):
        tree = build_partial_schedule_tree(
            [(0,)], (0, 1, 2, 3), est_uniform(4)
        )
        assert tree.nodes[(0,)].parent == (0, 1, 2, 3)
        tree.validate()


class TestPruneFullTree:
    def make_full(self, d=4):
        views = all_views(d)
        root = tuple(range(d))
        est = {v: 100.0 * max(len(v), 1) for v in views}
        return build_schedule_tree(views, root, est, root)

    def test_prune_keeps_paths(self):
        full = self.make_full()
        selected = [(0,), (1, 2)]
        pruned = prune_full_tree(full, selected)
        for v in selected:
            assert v in pruned
            # full path to root preserved
            cur = v
            while cur != pruned.root:
                cur = pruned.nodes[cur].parent
        pruned.validate()

    def test_prune_is_subtree(self):
        full = self.make_full()
        pruned = prune_full_tree(full, [(0, 1), (3,)])
        for view, node in pruned.nodes.items():
            if node.parent is not None:
                assert full.nodes[view].parent == node.parent
                assert full.nodes[view].mode == node.mode

    def test_prune_smaller_than_full(self):
        full = self.make_full()
        pruned = prune_full_tree(full, [(0,)])
        assert len(pruned) < len(full)

    def test_prune_unknown_view_rejected(self):
        full = self.make_full(3)
        with pytest.raises(ValueError):
            prune_full_tree(full, [(0, 1, 2, 3)])

    def test_prune_everything_is_identity(self):
        full = self.make_full(3)
        pruned = prune_full_tree(full, all_views(3))
        assert set(pruned.views()) == set(full.views())


class TestCostSanity:
    def test_partial_cheaper_than_full(self):
        """Scheduling 3 views must not cost more than the full cube tree."""
        d = 5
        est = {v: 500.0 * max(len(v), 1) for v in all_views(d)}
        root = tuple(range(d))
        full = build_schedule_tree(all_views(d), root, est, root)
        partial = build_partial_schedule_tree(
            [(0,), (1, 2), (0, 3)], root, est
        )
        assert partial.estimated_cost(est) < full.estimated_cost(est)


class TestPartialLocalTrees:
    """A partial cube on local schedule trees re-sorts into canonical
    order only the views it merges; the intermediate views its trees
    computed on the way are dropped first."""

    CARDS = (12, 10, 8, 6, 4)

    def _build(self, relation, selected):
        from repro.config import CubeConfig, MachineSpec
        from repro.core.cube import build_data_cube

        return build_data_cube(
            relation, self.CARDS, MachineSpec(p=4),
            CubeConfig(global_schedule_tree=False), selected=selected,
        )

    def test_resorts_only_selected_views(self, monkeypatch):
        from repro.bench.experiments import select_views
        from repro.core import cube as cube_mod
        from repro.core import pipesort
        from tests.conftest import make_relation

        relation = make_relation(6000, self.CARDS, seed=29)
        selected = set(select_views(5, 50))  # Figure 6's 50% selection
        canon = pipesort.to_canonical_order
        resorted = []

        def spy(data, *args):
            resorted.append(data.view)
            return canon(data, *args)

        monkeypatch.setattr(cube_mod, "to_canonical_order", spy)
        cube = self._build(relation, selected)
        assert resorted and set(resorted) <= selected

        # The same build re-sorting every piece Pipesort made, as it did
        # before the drop moved first: each unselected piece pays its
        # re-sort, then the store a dropped unwritten piece pays anyway.
        real_execute = cube_mod.execute_schedule
        dropped = []

        def resort_all(tree, root, cards, disk, budget, agg):
            local, unwritten = real_execute(
                tree, root, cards, disk, budget, agg
            )
            for v in local:
                if v not in selected:
                    dropped.append(v)
                    local[v] = canon(
                        local[v], cards, disk, budget, v in unwritten
                    )
            return local, unwritten

        monkeypatch.setattr(cube_mod, "execute_schedule", resort_all)
        before = self._build(relation, selected)
        assert dropped, "the trees computed no intermediate view"
        mine, theirs = cube.metrics, before.metrics
        assert mine.simulated_seconds < theirs.simulated_seconds
        assert mine.disk_blocks <= theirs.disk_blocks
        for mine, theirs in zip(cube.rank_views, before.rank_views):
            assert mine.keys() == theirs.keys()
            for v, piece in mine.items():
                assert piece.order == theirs[v].order
                assert np.array_equal(piece.keys, theirs[v].keys)
                assert np.array_equal(piece.measure, theirs[v].measure)
