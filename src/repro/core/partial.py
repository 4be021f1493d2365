"""Schedule trees for partial data cubes (Section 3 of the paper).

When only a user-selected subset of views is wanted, the level-complete
Pipesort matcher no longer applies (levels may be missing entirely).  The
paper swaps in the partial-cube scheduler of Dehne, Eavis and Rau-Chaplin
[4], which either prunes a full Pipesort tree or builds a schedule tree
directly from the lattice, inserting cheap *intermediate* views where that
lowers total cost.  This module reproduces the direct-from-lattice variant
as a documented heuristic:

1. **Attach.**  Selected views, largest first, attach to the cheapest
   producer already in the tree (initially just the ``Di``-root), with
   re-sort cost ``sort_cost(|producer|)``.
2. **Intermediates.**  Repeatedly consider every non-selected view ``w``
   of the partition: adding ``w`` costs one re-sort of its own cheapest
   producer but lets all current tree views below ``w`` re-parent to it.
   Any ``w`` with positive net saving is inserted (best first); repeat
   until no insertion helps.
3. **Scan upgrades.**  Each node may pass one child for free inside its
   pipeline; pick the child with the largest saving.  Along the root's
   scan chain the child must stay a canonical prefix of the root's fixed
   global sort order (same pinning rule as the full-cube matcher).

The pruned-Pipesort variant is available as
:func:`prune_full_tree` for comparison benches.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.estimate import estimate_view_sizes
from repro.core.lattice import Lattice
from repro.core.partitions import partition_views
from repro.core.pipesort import (
    ScheduleTree,
    build_schedule_tree,
    scan_cost,
    sort_cost,
)
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view, view_name

__all__ = [
    "build_partial_schedule_tree",
    "partition_schedule_tree",
    "prune_full_tree",
]

#: Safety bound on intermediate-insertion sweeps.
_MAX_IMPROVEMENT_PASSES = 8


def build_partial_schedule_tree(
    selected: Sequence[View],
    root: View,
    estimates: Mapping[View, float],
    root_order: tuple[int, ...] | None = None,
    candidates: Sequence[View] | None = None,
) -> ScheduleTree:
    """Build a schedule tree covering ``selected`` from ``root``.

    Parameters
    ----------
    selected:
        Views to materialise (the root itself may or may not be among
        them; it is always available as the source).
    root:
        The partition root (already materialised by the data-partitioning
        phase).
    estimates:
        Estimated sizes; views without an entry default to size 1.
    root_order:
        Root's fixed sort order (global sort order); default canonical.
    candidates:
        Pool of potential intermediate views; defaults to every proper
        subset of ``root``.
    """
    root = canonical_view(root)
    if root_order is None:
        root_order = root
    root_order = tuple(root_order)
    selected = [canonical_view(v) for v in selected]
    for v in selected:
        if not set(v) <= set(root):
            raise ValueError(
                f"selected view {view_name(v)} is not a subset of the root "
                f"{view_name(root)}"
            )
    if candidates is None:
        d = (max(root) + 1) if root else 0
        candidates = Lattice.below(root, d).views
    size = lambda v: max(estimates.get(v, 1.0), 1.0)  # noqa: E731

    # parent[v] = current producer of v; tree contents = parent.keys() | {root}
    parent: dict[View, View] = {}
    in_tree: set[View] = {root}

    def cheapest_producer(v: View) -> tuple[View, float]:
        best, best_cost = None, float("inf")
        for u in in_tree:
            if set(v) < set(u):
                cost = sort_cost(size(u))
                if cost < best_cost or (
                    cost == best_cost and (best is None or u < best)
                ):
                    best, best_cost = u, cost
        if best is None:
            raise ValueError(f"no producer available for {view_name(v)}")
        return best, best_cost

    # 1. attach selected views, largest first (so big views become producers
    #    for smaller ones where that is cheaper than the root).
    for v in sorted(set(selected) - {root}, key=lambda v: (-len(v), v)):
        u, _ = cheapest_producer(v)
        parent[v] = u
        in_tree.add(v)

    # 2. beneficial-intermediate insertion sweeps.
    pool = [
        canonical_view(w)
        for w in candidates
        if canonical_view(w) not in in_tree and canonical_view(w) != root
    ]
    for _ in range(_MAX_IMPROVEMENT_PASSES):
        best_gain, best_w, best_moves = 0.0, None, None
        for w in pool:
            if w in in_tree:
                continue
            wset = set(w)
            moves = [
                v
                for v, u in parent.items()
                if set(v) < wset and sort_cost(size(u)) > sort_cost(size(w))
            ]
            if not moves:
                continue
            saving = sum(
                sort_cost(size(parent[v])) - sort_cost(size(w)) for v in moves
            )
            _, build_cost = cheapest_producer(w)
            gain = saving - build_cost
            if gain > best_gain:
                best_gain, best_w, best_moves = gain, w, moves
        if best_w is None:
            break
        u, _ = cheapest_producer(best_w)
        parent[best_w] = u
        in_tree.add(best_w)
        for v in best_moves:
            parent[v] = best_w

    # 3. scan upgrades (one per node; root chain stays prefix-pinned).
    children: dict[View, list[View]] = {}
    for v, u in parent.items():
        children.setdefault(u, []).append(v)
    scan_child: dict[View, View] = {}
    pinned: dict[View, tuple[int, ...]] = {root: root_order}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        kids = children.get(u, [])
        frontier.extend(kids)
        pin = pinned.get(u)
        best_gain, best_c = 0.0, None
        for c in kids:
            if pin is not None and set(c) != set(pin[: len(c)]):
                continue
            gain = sort_cost(size(u)) - scan_cost(size(u))
            if gain > best_gain or (gain == best_gain and best_c is None):
                best_gain, best_c = gain, c
        if best_c is not None:
            scan_child[u] = best_c
            if pin is not None:
                pinned[best_c] = pin[: len(best_c)]

    # materialise the ScheduleTree in topological (parents first) order.
    tree = ScheduleTree(root, root_order)
    order = sorted(parent, key=lambda v: (-len(v), v))
    for v in order:
        u = parent[v]
        mode = "scan" if scan_child.get(u) == v else "sort"
        tree.add(v, u, mode)
    tree.assign_orders()
    return tree


def prune_full_tree(
    full_tree: ScheduleTree, selected: Sequence[View]
) -> ScheduleTree:
    """The paper's other option: a subtree of the full-cube Pipesort tree.

    Keeps every selected view plus all its tree ancestors (the paths it
    needs), preserving edge modes; unneeded branches are dropped.  The kept
    non-selected ancestors are the "intermediate" views of this variant.
    """
    selected = {canonical_view(v) for v in selected}
    keep: set[View] = {full_tree.root}
    for v in selected:
        if v not in full_tree.nodes:
            raise ValueError(f"{view_name(v)} not in the full schedule tree")
        cur: View | None = v
        while cur is not None and cur not in keep:
            keep.add(cur)
            cur = full_tree.nodes[cur].parent

    root_node = full_tree.nodes[full_tree.root]
    pruned = ScheduleTree(full_tree.root, root_node.order)
    for node in full_tree.preorder():
        if node.view == full_tree.root:
            continue
        if node.view in keep:
            pruned.add(node.view, node.parent, node.mode)
    pruned.assign_orders()
    return pruned


def partition_schedule_tree(
    root_data: ViewData, cards: Sequence[int], pviews: Sequence[View],
    selected: set[View] | None, p: int, method: str,
) -> ScheduleTree:
    """Step 2a of the parallel build: one ``Di``-partition's schedule tree
    from view-size estimates on one rank's root piece, extrapolated x
    ``p``.  A full cube gets the Pipesort tree.  For a partial cube the
    scheduler of [4] produces either a subtree of the full-cube Pipesort
    tree or a tree built directly from the lattice: build both, keep the
    cheaper under the same cost model."""
    root = root_data.order
    if selected is None:
        estimates = _piece_estimates(root_data, cards, pviews, p, method)
        return build_schedule_tree(pviews, root, estimates, root)
    full_views = partition_views(root[0], root[-1] + 1)
    estimates = _piece_estimates(root_data, cards, full_views, p, method)
    wanted = [v for v in pviews if v != root]
    direct = build_partial_schedule_tree(wanted, root, estimates, root)
    full_tree = build_schedule_tree(full_views, root, estimates, root)
    pruned = prune_full_tree(full_tree, wanted)
    return min((direct, pruned), key=lambda t: t.estimated_cost(estimates))


def _piece_estimates(
    root_data: ViewData, cards: Sequence[int], pviews: Sequence[View],
    p: int, method: str,
) -> dict[View, float]:
    """View-size estimates from one rank's root piece, extrapolated x p."""
    root_order = root_data.order
    dims = codec_for_order(root_order, cards).unpack(root_data.keys)
    offset = root_order[0] if root_order else 0
    local_cards = [cards[i] for i in root_order]
    translated = [tuple(i - offset for i in v) for v in pviews]
    local = estimate_view_sizes(
        dims, local_cards, translated, total_rows=root_data.nrows * p,
        method=method,
    )
    return {
        tuple(i + offset for i in tv): size for tv, size in local.items()
    }
