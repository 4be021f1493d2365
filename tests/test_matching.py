"""Cross-validation of the production matcher against the classic
replicated-parent Pipesort matching.

:mod:`repro.core.pipesort` solves each level pair with a compact
max-savings matching.  :func:`match_level_replicated` below is the
*original* formulation from Sarawagi-Agrawal-Gupta (the paper's [20]):
every parent vertex is replicated once per potential child — the original
copy offers production by **scan** (cost ``A(u)``), the replicas offer
production by **sort** (cost ``A(u)·(1+log A(u))``) — and a minimum-cost
assignment of children to parent copies is computed by SciPy, an oracle
independent of the production solver.  The two formulations are exactly
equivalent (the savings matching is the replicated LP after subtracting
each child's cheapest sort cost), so equal optimal cost on randomized
instances pins the production matcher to the textbook definition.
"""

from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lattice import Lattice
from repro.core.pipesort import build_schedule_tree, scan_cost, sort_cost
from repro.core.views import View, all_views

scipy_optimize = pytest.importorskip("scipy.optimize")


def match_level_replicated(
    children: Sequence[View],
    parents: Sequence[View],
    estimates: Mapping[View, float],
    scan_allowed: Mapping[View, set[View]] | None = None,
) -> list[tuple[View, View, str]]:
    """Assign every child a ``(parent, mode)`` by the replicated matching.

    ``scan_allowed[u]``, when given, is the set of children ``u`` may feed
    by scan (the pinned root chain); ``None`` allows any subset child.
    Returns ``[(child, parent, mode)]`` with minimum total cost; raises if
    some child has no parent.
    """
    n_c = len(children)
    if n_c == 0:
        return []
    child_sets = [set(v) for v in children]
    psize = [max(estimates.get(u, 1.0), 1.0) for u in parents]

    # Columns: for each parent, one scan copy + n_c sort copies (a parent
    # can sort-produce every child in the worst case).
    col_parent: list[int] = []
    col_mode: list[str] = []
    for pi in range(len(parents)):
        col_parent.append(pi)
        col_mode.append("scan")
        for _ in range(n_c):
            col_parent.append(pi)
            col_mode.append("sort")

    big = 1e18
    cost = np.full((n_c, len(col_parent)), big)
    for ci, vset in enumerate(child_sets):
        for col, (pi, mode) in enumerate(zip(col_parent, col_mode)):
            u = parents[pi]
            if not vset < set(u):
                continue
            if mode == "scan":
                allowed = (
                    scan_allowed is None
                    or u not in scan_allowed
                    or children[ci] in scan_allowed[u]
                )
                if allowed:
                    cost[ci, col] = scan_cost(psize[pi])
            else:
                cost[ci, col] = sort_cost(psize[pi])

    rows, cols = scipy_optimize.linear_sum_assignment(cost)
    out: list[tuple[View, View, str]] = []
    for ci, col in zip(rows, cols):
        if cost[ci, col] >= big:
            raise ValueError(f"child {children[ci]} has no feasible parent")
        out.append((children[ci], parents[col_parent[col]], col_mode[col]))
    return out


def level_cost(
    assignment: Sequence[tuple[View, View, str]],
    estimates: Mapping[View, float],
) -> float:
    """Total production cost of one level's assignment."""
    total = 0.0
    for _, parent, mode in assignment:
        size = max(estimates.get(parent, 1.0), 1.0)
        total += scan_cost(size) if mode == "scan" else sort_cost(size)
    return total


def tree_level_cost(tree, children, estimates):
    """Cost the production tree assigns to one level's children."""
    total = 0.0
    for child in children:
        node = tree.nodes[child]
        size = max(estimates.get(node.parent, 1.0), 1.0)
        total += scan_cost(size) if node.mode == "scan" else sort_cost(size)
    return total


class TestReplicatedMatching:
    def test_prefers_scan_from_each_parent_once(self):
        parents = [(0, 1), (0, 2)]
        children = [(0,), (1,), (2,)]
        est = {(0, 1): 100.0, (0, 2): 100.0}
        assignment = match_level_replicated(children, parents, est)
        scans = [(c, p) for c, p, m in assignment if m == "scan"]
        by_parent = {}
        for c, p in scans:
            by_parent.setdefault(p, []).append(c)
        for p, cs in by_parent.items():
            assert len(cs) == 1  # one scan per parent

    def test_all_children_assigned(self):
        lat = Lattice.full(4)
        parents = lat.level(3)
        children = lat.level(2)
        est = {u: 50.0 for u in parents}
        assignment = match_level_replicated(children, parents, est)
        assert sorted(c for c, _, _ in assignment) == sorted(children)

    def test_infeasible_child_raises(self):
        with pytest.raises(ValueError):
            match_level_replicated([(3,)], [(0, 1)], {})

    def test_scan_restriction_respected(self):
        parents = [(0, 1)]
        children = [(0,), (1,)]
        est = {(0, 1): 100.0}
        assignment = match_level_replicated(
            children, parents, est, scan_allowed={(0, 1): {(0,)}}
        )
        modes = dict((c, m) for c, _, m in assignment)
        assert modes[(0,)] == "scan"
        assert modes[(1,)] == "sort"

    @settings(max_examples=20)
    @given(st.integers(2, 5), st.integers(0, 999))
    def test_production_matcher_is_optimal_per_level(self, d, seed):
        """The savings formulation must achieve the replicated matching's
        optimal cost for an (unconstrained) level pair."""
        from repro.core.pipesort import ScheduleTree, _match_level

        rng = np.random.default_rng(seed)
        views = all_views(d)
        est = {v: float(rng.integers(1, 10_000)) for v in views}
        lat = Lattice.full(d)
        for k in range(d - 1, -1, -1):
            children = lat.level(k)
            parents = lat.level(k + 1)
            # drive the production matcher with no pinned chain: stub tree
            # whose "root" set covers all parents so add() accepts them
            stub = ScheduleTree(tuple(range(d)), tuple(range(d)))
            for u in parents:
                if u != stub.root:
                    stub.nodes[u] = type(stub.nodes[stub.root])(
                        u, "sort", None, u
                    )
            _match_level(stub, children, parents, est, pinned={})
            got = tree_level_cost(stub, children, est)
            optimal = level_cost(
                match_level_replicated(children, parents, est), est
            )
            assert got == pytest.approx(optimal, rel=1e-9), (d, k)

    @settings(max_examples=10)
    @given(st.integers(2, 5), st.integers(0, 999))
    def test_full_tree_within_replicated_bound(self, d, seed):
        """The pinned root chain may cost extra at lower levels, but the
        whole tree can never beat the per-level unconstrained optima and
        must stay within the all-sort upper bound."""
        rng = np.random.default_rng(seed)
        views = all_views(d)
        est = {v: float(rng.integers(1, 10_000)) for v in views}
        tree = build_schedule_tree(views, tuple(range(d)), est)
        lat = Lattice.full(d)
        lower = sum(
            level_cost(
                match_level_replicated(
                    lat.level(k), lat.level(k + 1), est
                ),
                est,
            )
            for k in range(d)
        )
        upper = sum(
            sort_cost(max(est.get(n.parent, 1.0), 1.0))
            for n in tree.nodes.values()
            if n.parent is not None
        )
        total = tree.estimated_cost(est)
        assert lower - 1e-6 <= total <= upper + 1e-6
