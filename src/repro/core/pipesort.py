"""Pipesort: the sequential top-down cube building block (both phases).

Phase 1 (:func:`build_schedule_tree`) turns a view lattice plus view-size
estimates into a *schedule tree* (Figure 1b): every non-root view gets one
parent and an edge mode — ``scan`` (the view is a prefix of its parent's
sort order and falls out of a single linear pass) or ``sort`` (the parent
must be re-sorted first).  Following the paper's description of Pipesort,
the tree is built by scanning the lattice level by level from the raw data
set and solving a minimum-cost bipartite matching between adjacent levels.

Matching formulation.  Every child view must be produced from some parent
one level up.  Sort production has no capacity limit (a parent can be
re-sorted arbitrarily often), while each parent can feed exactly one child
by scan.  Classic Pipesort replicates each parent node once per potential
child to express this; an equivalent but smaller formulation is used here:
give every child its cheapest *sort* parent by default, then compute a
maximum-weight bipartite matching of (parent, child) pairs where the weight
is the *saving* of turning that child into the parent's scan child
(``cheapest_sort_cost(child) - scan_cost(parent)``, clipped at 0).  Each
level pair is solved by :func:`_linear_sum_assignment`, a plain-Python port
of the shortest augmenting path solver (Crouse 2016) behind SciPy's
``linear_sum_assignment``; it makes SciPy's choices, ties included, since
another optimal matching would be another tree.  NumPy is the only
runtime dependency.

Sort orders are a consequence of the tree: a pipeline (maximal chain of
scan edges) fixes each member's order to a prefix of its parent's, and the
head of a pipeline is free to choose its order — except the *root*, whose
order is pinned to the global sort order established by the partitioning
phase.  The level-wise matcher therefore tracks the root's scan chain and
only offers prefix-compatible children as its scan candidates.

Phase 2 (:func:`execute_schedule`) materialises every view of the tree
from the root's data, pipeline by pipeline: scan edges cascade a prefix
aggregation down each pipeline in one pass (on packed keys this is an
integer division plus a ``reduceat``), sort edges re-sort the parent
through the external-memory sorter.  The owning rank's disk is charged a
read per sort edge whose parent is not in the memory-budgeted resident
set (Pipesort's *cache-results* beside the scan chains' *amortize-scans*)
and one write per view made: at once, when the view is evicted from the
set, or by the caller for a view the set still holds at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view, is_prefix, view_name
from repro.storage.disk import LocalDisk
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys

__all__ = [
    "ScheduleNode",
    "ScheduleTree",
    "build_schedule_tree",
    "execute_schedule",
    "scan_cost",
    "sort_cost",
    "stays_resident",
    "to_canonical_order",
]


# ---------------------------------------------------------------------------
# cost model of the matcher
# ---------------------------------------------------------------------------


def scan_cost(parent_size: float) -> float:
    """Cost of producing one child from ``parent`` within its pipeline pass."""
    return max(parent_size, 1.0)


def sort_cost(parent_size: float) -> float:
    """Cost of re-sorting ``parent`` to produce a child: ``s·(1+log2 s)``."""
    s = max(parent_size, 1.0)
    return s * (1.0 + math.log2(max(s, 2.0)))


# ---------------------------------------------------------------------------
# schedule tree structure
# ---------------------------------------------------------------------------


@dataclass
class ScheduleNode:
    """One view in a schedule tree."""

    view: View
    #: ``"root"``, ``"scan"`` or ``"sort"`` — how this view is produced.
    mode: str
    parent: View | None
    #: Sort order the view is produced in (attribute permutation).
    order: tuple[int, ...] = ()
    children: list[View] = field(default_factory=list)


class ScheduleTree:
    """A schedule tree over one partition (or a whole cube)."""

    def __init__(self, root: View, root_order: tuple[int, ...]):
        self.root = canonical_view(root)
        self.nodes: dict[View, ScheduleNode] = {
            self.root: ScheduleNode(self.root, "root", None, tuple(root_order))
        }

    # -- construction -----------------------------------------------------

    def add(self, view: View, parent: View, mode: str) -> None:
        view = canonical_view(view)
        parent = canonical_view(parent)
        if view in self.nodes:
            raise ValueError(f"view {view_name(view)} already scheduled")
        if parent not in self.nodes:
            raise ValueError(
                f"parent {view_name(parent)} of {view_name(view)} not in tree"
            )
        if mode not in ("scan", "sort"):
            raise ValueError(f"bad edge mode {mode!r}")
        if not set(view) < set(parent):
            raise ValueError(
                f"{view_name(view)} is not a proper subset of "
                f"{view_name(parent)}"
            )
        self.nodes[view] = ScheduleNode(view, mode, parent)
        self.nodes[parent].children.append(view)

    def assign_orders(self) -> None:
        """Fix every node's sort order, bottom-up along scan chains.

        A node with a scan child adopts ``order(child) + extras``; any other
        node uses its canonical identifier order.  The root's order is given
        and is asserted to be consistent with its scan chain.
        """
        for view in sorted(self.nodes, key=len):
            node = self.nodes[view]
            scan_children = [
                c for c in node.children if self.nodes[c].mode == "scan"
            ]
            if len(scan_children) > 1:
                raise ValueError(
                    f"{view_name(view)} has {len(scan_children)} scan "
                    "children; at most one is allowed"
                )
            if view == self.root:
                if scan_children and not is_prefix(
                    self.nodes[scan_children[0]].order, node.order
                ):
                    raise ValueError(
                        "root scan chain is not a prefix of the root order"
                    )
                continue
            if scan_children:
                child_order = self.nodes[scan_children[0]].order
                extras = tuple(sorted(set(view) - set(child_order)))
                node.order = child_order + extras
            else:
                node.order = view  # canonical: ascending dim index

    # -- queries -------------------------------------------------------------

    def views(self) -> list[View]:
        return list(self.nodes)

    def __contains__(self, view: View) -> bool:
        return canonical_view(view) in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def preorder(self) -> list[ScheduleNode]:
        """Nodes in DFS preorder from the root (parents before children)."""
        out: list[ScheduleNode] = []
        stack = [self.root]
        while stack:
            view = stack.pop()
            node = self.nodes[view]
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def pipelines(self) -> list[list[View]]:
        """Maximal scan chains (each evaluated in one pass by phase 2)."""
        chains = []
        for node in self.preorder():
            if node.mode == "scan":
                continue
            chain = [node.view]
            cur = node
            while True:
                nxt = [
                    c for c in cur.children if self.nodes[c].mode == "scan"
                ]
                if not nxt:
                    break
                chain.append(nxt[0])
                cur = self.nodes[nxt[0]]
            chains.append(chain)
        return chains

    def estimated_cost(self, estimates: Mapping[View, float]) -> float:
        """Total phase-2 cost of this tree under the matcher's cost model."""
        total = 0.0
        for node in self.nodes.values():
            if node.parent is None:
                continue
            size = estimates.get(node.parent, 1.0)
            total += scan_cost(size) if node.mode == "scan" else sort_cost(size)
        return total

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        seen = set()
        for node in self.preorder():
            seen.add(node.view)
        if seen != set(self.nodes):
            raise ValueError("tree is not connected")
        for node in self.nodes.values():
            if node.view == self.root:
                continue
            parent = self.nodes[node.parent]
            if node.mode == "scan" and not is_prefix(node.order, parent.order):
                raise ValueError(
                    f"scan child {view_name(node.view)} order {node.order} "
                    f"is not a prefix of parent order {parent.order}"
                )
            if set(node.order) != set(node.view):
                raise ValueError(
                    f"order {node.order} does not cover view "
                    f"{view_name(node.view)}"
                )

    def to_dot(self) -> str:
        """Graphviz DOT rendering (scan edges solid, sort edges dashed) —
        the Figure 1b/1c drawing for any tree this code builds."""
        lines = [
            "digraph schedule_tree {",
            '  rankdir=TB; node [shape=box, fontname="monospace"];',
        ]
        for node in self.preorder():
            label = view_name(node.view)
            order = ",".join(str(i) for i in node.order)
            lines.append(
                f'  "{label}" [label="{label}\norder=({order})"];'
            )
            if node.parent is not None:
                style = "solid" if node.mode == "scan" else "dashed"
                lines.append(
                    f'  "{view_name(node.parent)}" -> "{label}" '
                    f"[style={style}];"
                )
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Multi-line rendering (for docs/examples)."""
        lines = []

        def walk(view: View, depth: int) -> None:
            node = self.nodes[view]
            tag = "" if node.mode == "root" else f" [{node.mode}]"
            lines.append("  " * depth + view_name(view) + tag)
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# phase 1: level-wise minimum-cost matching
# ---------------------------------------------------------------------------


def build_schedule_tree(
    views: Sequence[View],
    root: View,
    estimates: Mapping[View, float],
    root_order: tuple[int, ...] | None = None,
) -> ScheduleTree:
    """Pipesort phase 1 over a *level-complete* view set.

    Parameters
    ----------
    views:
        All views to schedule, including ``root``.  Every non-root view must
        have at least one superset one level up in ``views`` (true for full
        cubes and full ``Di``-partitions; partial cubes use
        :mod:`repro.core.partial`).
    root:
        The source view (raw data set or ``Di``-root).
    estimates:
        Estimated row counts per view (drives edge costs only).
    root_order:
        The root's fixed sort order; defaults to its canonical order.
    """
    root = canonical_view(root)
    if root_order is None:
        root_order = root
    root_order = tuple(root_order)
    if set(root_order) != set(root):
        raise ValueError(f"root order {root_order} does not cover {root}")

    views = [canonical_view(v) for v in views]
    if root not in views:
        raise ValueError("root must be among the scheduled views")
    by_level: dict[int, list[View]] = {}
    for view in views:
        by_level.setdefault(len(view), []).append(view)
    top = len(root)

    tree = ScheduleTree(root, root_order)
    pinned: dict[View, tuple[int, ...]] = {root: root_order}

    for k in range(top - 1, -1, -1):
        children = by_level.get(k, [])
        parents = by_level.get(k + 1, [])
        if not children:
            continue
        if not parents:
            raise ValueError(
                f"level {k} views have no level-{k + 1} parents; "
                "use repro.core.partial for gappy view sets"
            )
        _match_level(tree, children, parents, estimates, pinned)

    tree.assign_orders()
    return tree


def _match_level(
    tree: ScheduleTree,
    children: Sequence[View],
    parents: Sequence[View],
    estimates: Mapping[View, float],
    pinned: dict[View, tuple[int, ...]],
) -> None:
    """Assign every child a parent + mode via the scan-saving matching."""
    n_c, n_p = len(children), len(parents)
    psize = [max(estimates.get(u, 1.0), 1.0) for u in parents]

    # Cheapest sort parent per child (always feasible).
    base_parent = [-1] * n_c
    base_cost = [math.inf] * n_c
    child_sets = [set(v) for v in children]
    parent_sets = [set(u) for u in parents]
    for ci, vset in enumerate(child_sets):
        for pi, uset in enumerate(parent_sets):
            if vset < uset:
                cost = sort_cost(psize[pi])
                if cost < base_cost[ci]:
                    base_cost[ci] = cost
                    base_parent[ci] = pi
    missing = [children[ci] for ci in range(n_c) if base_parent[ci] < 0]
    if missing:
        raise ValueError(
            f"views {[view_name(v) for v in missing]} have no parent "
            "one level up"
        )

    # Scan savings matrix.
    savings = np.zeros((n_c, n_p))
    for ci, v in enumerate(children):
        for pi, u in enumerate(parents):
            if not child_sets[ci] < parent_sets[pi]:
                continue
            pin = pinned.get(u)
            if pin is not None and child_sets[ci] != set(pin[: len(v)]):
                continue  # root-chain parent: only its prefix child scans
            gain = base_cost[ci] - scan_cost(psize[pi])
            if gain > 0:
                savings[ci, pi] = gain

    chosen_scan: dict[int, int] = {}
    if savings.any():
        rows, cols = _linear_sum_assignment(savings, maximize=True)
        for ci, pi in zip(rows, cols):
            if savings[ci, pi] > 0:
                chosen_scan[ci] = pi

    for ci, v in enumerate(children):
        if ci in chosen_scan:
            u = parents[chosen_scan[ci]]
            tree.add(v, u, "scan")
            pin = pinned.get(u)
            if pin is not None:
                pinned[v] = pin[: len(v)]
        else:
            tree.add(v, parents[base_parent[ci]], "sort")


def _linear_sum_assignment(cost, maximize: bool = False):
    """Optimal assignment of a rectangular cost matrix: ``(rows, cols)``.

    The shortest augmenting path method of Crouse (2016) as SciPy's
    ``rectangular_lsap`` implements it, step for step, so that among equal
    optima it returns the same one: one Dijkstra-style search per row over
    the free columns, kept in reverse order and shrunk by swap-remove; at
    the minimum reduced cost the last free column wins, else the first.
    It runs over lists: the widest level of a ``Di``-partition holds
    C(d-1, (d-1)//2) views (70 at d = 9, 126 at d = 10; a full lattice
    C(d, d//2)), and a NumPy search step only breaks even at about 124
    columns (EXPERIMENTS.md, "plan without SciPy").
    Raises ``ValueError`` on NaN or -inf (after negation for ``maximize``)
    and when no complete assignment has finite cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    if maximize:
        cost = -cost
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = cost.shape
    c = cost.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Dijkstra from row ``cur`` to the nearest free column.
        spc = [math.inf] * nc
        rows_seen, cols_seen = [], []
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i = cur
        sink = -1
        while sink < 0:
            rows_seen.append(i)
            row, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                s = spc[j]
                r = min_val + row[j] - ui - v[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the duals, then augment along the path.
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        pairs = sorted((r, k) for k, r in enumerate(col4row))
        rows, cols = [r for r, _ in pairs], [k for _, k in pairs]
    else:
        rows, cols = list(range(nr)), col4row
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


# ---------------------------------------------------------------------------
# phase 2: pipelined execution
# ---------------------------------------------------------------------------


def stays_resident(rows: int, memory_budget: int, held: int = 0) -> bool:
    """The resident set's admission rule (Pipesort's cache-results): a
    view stays in memory while it and one in-memory projection of it
    being sorted fit beside the ``held`` rows already resident."""
    return held + 2 * rows <= memory_budget


def execute_schedule(
    tree: ScheduleTree,
    root_data: ViewData,
    cardinalities: Sequence[int],
    disk: LocalDisk,
    memory_budget: int,
    agg: str = "sum",
) -> tuple[dict[View, ViewData], list[View]]:
    """Pipesort phase 2: materialise every view of ``tree`` from the root.

    ``root_data.order`` must equal the tree's root order (the global sort
    order from the partitioning phase).  Returns a dict holding the root
    itself plus every scheduled view, each sorted under its tree order,
    and the views whose pieces it left unwritten, oldest first: the
    caller writes each of those once, where its algorithm stores it.

    Pipelines run in DFS preorder of their heads, over one *resident set*
    counted against ``memory_budget`` (Pipesort's cache-results): a chain
    member with sort children stays in memory while it and one projection
    of it being sorted fit beside the other sort parents resident
    (``parents + 2·rows <= memory_budget``), until its last sort child
    is made.  A sort child of a resident parent reads nothing from disk;
    the root arrives from the caller's in-memory aggregation and is
    admitted by the same rule, so a resident root pays no pipeline-pass
    read.  Every sort gets the budget the sort parents leave, and one
    that would not fit in it evicts the newest of them first — a view
    that is not resident (never admitted, or evicted) is read back once
    per remaining sort edge, so no budget charges more than one read per
    sort edge, the root pass and the sorts at the whole budget.

    A piece made (the root excepted: the caller holds it) stays in the
    set *unwritten* if it fits beside the sort parents and the pieces
    already there; otherwise it is written at once.  A sort first makes
    room for its working space, and any eviction takes unwritten pieces
    before sort parents, newest first, writing each as it leaves: so the
    pieces held never change what is read.
    """
    root_node = tree.nodes[tree.root]
    if tuple(root_data.order) != tuple(root_node.order):
        raise ValueError(
            f"root data order {root_data.order} != schedule root order "
            f"{root_node.order}"
        )
    results: dict[View, ViewData] = {tree.root: root_data}
    sorts_left = {
        view: sum(tree.nodes[c].mode == "sort" for c in node.children)
        for view, node in tree.nodes.items()
    }
    resident: dict[View, int] = {}  # sort parents: view -> rows, oldest first
    held = 0  # rows of the sort parents
    unwritten: dict[View, int] = {}  # pieces not yet written, oldest first
    loose = 0  # rows of the unwritten pieces that are no sort parent

    def make_room(need: int) -> None:
        """Write unwritten pieces out, newest first, until ``need`` rows
        fit beside the resident set (or none is left to go)."""
        nonlocal loose
        for view in reversed(list(unwritten)):
            if held + loose + need <= memory_budget:
                return
            if view not in resident:
                rows = unwritten.pop(view)
                disk.charge_store(rows)
                loose -= rows

    def admit(view: View) -> None:
        """Keep a new piece unwritten if it fits, else write it now."""
        nonlocal loose
        rows = results[view].nrows
        if held + loose + rows <= memory_budget:
            unwritten[view] = rows
            loose += rows
        else:
            disk.charge_store(rows)

    for chain in tree.pipelines():
        head = tree.nodes[chain[0]]
        if head.parent is not None:
            parent = tree.nodes[head.parent]
            parent_data = results[head.parent]
            make_room(parent_data.nrows)  # the sort's working space
            while resident and parent_data.nrows > memory_budget - held:
                view, rows = resident.popitem()
                held -= rows
                if unwritten.pop(view, None) is not None:
                    disk.charge_store(rows)
            if head.parent not in resident:
                disk.charge_scan(parent_data.nrows)
            disk.work.charge_scan(parent_data.nrows)  # project + re-pack
            keys, measure = _produce_sort(
                parent_data,
                codec_for_order(parent.order, cardinalities),
                parent.order,
                head.order,
                cardinalities,
                disk,
                memory_budget - held,
                agg,
            )
            results[head.view] = ViewData(head.order, keys, measure)
            admit(head.view)
            sorts_left[head.parent] -= 1
            if not sorts_left[head.parent] and head.parent in resident:
                rows = resident.pop(head.parent)
                held -= rows
                if head.parent in unwritten:
                    loose += rows

        # One pass over the head feeds its pipeline (scan chain).
        for parent_view, child_view in zip(chain, chain[1:]):
            parent_data = results[parent_view]
            child = tree.nodes[child_view]
            disk.work.charge_scan(parent_data.nrows)
            keys, measure = _produce_scan(
                parent_data,
                codec_for_order(tree.nodes[parent_view].order, cardinalities),
                len(child.order),
                agg,
            )
            results[child_view] = ViewData(child.order, keys, measure)
            admit(child_view)

        for view in chain:
            rows = results[view].nrows
            fits = stays_resident(rows, memory_budget, held)
            if view == tree.root and not fits:
                disk.charge_scan(rows)  # the pass streams the root off disk
            if fits and sorts_left[view]:
                resident[view] = rows
                held += rows
                if view in unwritten:
                    loose -= rows
        make_room(0)
    return results, list(unwritten)


def _produce_scan(
    parent: ViewData, parent_codec, child_len: int, agg: str
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix aggregation: child key = parent key // suffix capacity."""
    if parent.nrows == 0:
        return parent.keys[:0], parent.measure[:0]
    if child_len == 0:
        keys = np.zeros(parent.nrows, dtype=np.int64)
    else:
        divisor = parent_codec.weights[child_len - 1]
        keys = parent.keys // divisor
    return aggregate_sorted_keys(keys, parent.measure, agg)


def _produce_sort(
    parent: ViewData,
    parent_codec,
    parent_order: tuple[int, ...],
    child_order: tuple[int, ...],
    cardinalities: Sequence[int],
    disk: LocalDisk,
    memory_budget: int,
    agg: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-sort production: remap keys to the child order, sort, collapse.

    ``KeyCodec.remap`` projects + re-packs in pure int64 arithmetic (no
    ``(n, d)`` code materialisation) and reports the shared-prefix length
    with the parent order; the parent being sorted means the remapped
    keys are clustered by that prefix, which the sort charge reads via
    ``seg_divisor``.
    """
    child_codec = codec_for_order(child_order, cardinalities)
    keys, shared = parent_codec.remap(parent.keys, parent_order, child_order)
    seg_divisor = None
    if 0 < shared < len(child_order):
        seg_divisor = int(child_codec.weights[shared - 1])
    keys, measure = external_sort(
        keys,
        parent.measure,
        disk,
        memory_budget,
        seg_divisor=seg_divisor,
    )
    return aggregate_sorted_keys(keys, measure, agg)


def to_canonical_order(
    data: ViewData, cardinalities: Sequence[int], disk: LocalDisk,
    memory_budget: int, resident: bool = False,
) -> ViewData:
    """Re-sort one view piece into its canonical attribute order (the
    local-schedule-tree strategy's merge precondition, Figure 7).

    Keys stay unique (the piece was already aggregated), so no collapse is
    needed — only a packed-key remap plus the external sort, whose CPU
    cost (and, for a piece already written, the read back and re-write)
    is precisely the local-tree penalty.  A ``resident`` piece, one
    Pipesort left unwritten, is re-sorted in memory: no read, no write.
    The remap reports the shared-prefix length, and the sort is charged
    per prefix segment on that clustering promise; a remap that comes out
    already sorted is one run per segment and pays no sort term.
    """
    canon = data.view
    if tuple(data.order) == canon:
        return data
    codec = codec_for_order(data.order, cardinalities)
    canon_codec = codec_for_order(canon, cardinalities)
    keys, shared = codec.remap(data.keys, tuple(data.order), canon)
    seg_divisor = None
    if 0 < shared < len(canon):
        seg_divisor = int(canon_codec.weights[shared - 1])
    if not resident:
        disk.charge_scan(data.nrows)  # read the stored view back
    disk.work.charge_scan(data.nrows)
    keys, measure = external_sort(
        keys, data.measure, disk, memory_budget, seg_divisor=seg_divisor
    )
    if not resident:
        disk.charge_store(data.nrows)  # re-write in the common order
    return ViewData(canon, keys, measure)
