"""Tests for repro.core.pipesort: schedule trees (phase 1) and pipelined
execution (phase 2)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.baselines.reference import reference_view
from repro.core.estimate import estimate_view_sizes
from repro.core.partial import build_partial_schedule_tree
from repro.core.partitions import partition_views
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
from repro.storage.external_sort import external_sort, sort_cost_blocks
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


def write_back(disk, results, unwritten):
    """Write the pieces phase 2 left unwritten at once, as the sequential
    baseline does: phase 2 plus this write every view once."""
    for view in unwritten:
        disk.charge_store(results[view].nrows)
    return results


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
    results = write_back(
        disk, *execute_schedule(tree, root_data, cards, disk, 1 << 20, agg)
    )
    return results, disk


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
        cluster by cluster, and each cluster of ``n_s`` rows pays for
        merging the ``r_s`` ascending runs the parent's order leaves in
        it, ``n_s * log2 r_s`` — less than ``n_s * max(1, log2 n_s)``
        wherever the child keeps part of the parent's order."""
        cards = (8, 5, 4, 3)
        relation = make_relation(3000, cards, seed=5)
        tree = build_full(4)
        results, disk = run_phase2(relation, cards, tree)
        a = disk.work.sort_sec_per_row_level
        want, before, rows, discounted = 0.0, 0.0, 0, 0
        for node in tree.nodes.values():
            if node.mode != "sort":
                continue
            parent = results[node.parent]
            # The parent's rows, in the parent's order, keyed by the child.
            dims = codec_for_order(parent.order, cards).unpack(parent.keys)
            cols = [parent.order.index(attr) for attr in node.order]
            keys = codec_for_order(node.order, cards).pack(dims[:, cols])
            shared = 0
            while (
                shared < len(node.order)
                and parent.order[shared] == node.order[shared]
            ):
                shared += 1
            cuts = np.empty(0, dtype=np.int64)
            if 0 < shared < len(node.order):
                weights = codec_for_order(parent.order, cards).weights
                prefix = parent.keys // weights[shared - 1]
                cuts = np.flatnonzero(np.diff(prefix)) + 1
                discounted += 1
            for segment in np.split(keys, cuts):
                n = segment.size
                runs = 1 + np.count_nonzero(np.diff(segment) < 0)
                want += a * n * np.log2(runs)
                before += a * n * max(1.0, np.log2(n))
            rows += parent.nrows
        assert discounted > 0
        scans = disk.work.scan_sec_per_row * disk.work.rows_scanned
        assert disk.work.seconds - scans == pytest.approx(want)
        assert want < before
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


# ---------------------------------------------------------------------------
# phase 2: the resident set (cache-results for sort edges)
# ---------------------------------------------------------------------------

RS_CARDS = (16, 12, 10, 8, 6)
BUDGETS = [1 << 21, 60_000, 30_000, 20_000, 8_192, 2_048]


def root_piece(relation, cards, order, piece=slice(None)):
    """The aggregated root under ``order`` (or a contiguous piece of it)."""
    keys = codec_for_order(order, cards).pack(relation.dims[:, list(order)])
    perm = np.argsort(keys, kind="stable")
    keys, measure = aggregate_sorted_keys(
        keys[perm], relation.measure[perm], "sum"
    )
    return ViewData(order, keys[piece], measure[piece])


def exact_estimates(root_data, cards, views):
    """Exact view sizes of a root held under the canonical order."""
    dims = codec_for_order(root_data.order, cards).unpack(root_data.keys)
    return estimate_view_sizes(dims, cards, views, method="exact")


def resident_case(kind):
    """``(tree, root_data)`` of one of the three shapes phase 2 runs on."""
    relation = make_relation(30_000, RS_CARDS, seed=3)
    d = len(RS_CARDS)
    order = tuple(range(d))
    root_data = root_piece(relation, RS_CARDS, order)
    if kind == "one-rank":
        # What a rank of the parallel build sees: the D0-partition's tree
        # over its contiguous quarter of the globally sorted root.
        q = root_data.nrows // 4
        root_data = root_piece(relation, RS_CARDS, order, slice(q, 2 * q))
        views = partition_views(0, d)
        est = exact_estimates(root_data, RS_CARDS, views)
        return build_schedule_tree(views, order, est, order), root_data
    views = all_views(d)
    est = exact_estimates(root_data, RS_CARDS, views)
    if kind == "full-cube":
        return build_schedule_tree(views, order, est, order), root_data
    wanted = [(0, 1, 3), (1, 2, 4), (0, 4), (2, 3), (1,), (3,), ()]
    return build_partial_schedule_tree(wanted, order, est, order), root_data


def walk_reads(tree, rows, budget):
    """Rows phase 2 reads from disk, by a recursive walk of the tree that
    restates the resident-set rule without ``ScheduleTree.pipelines``.
    Returns ``(rows_read, peak_resident_rows, evictions)``."""
    resident: list[tuple] = []  # (view, rows), oldest first
    tally = {"read": 0, "peak": 0, "evicted": 0}
    sort_children = {
        v: [c for c in n.children if tree.nodes[c].mode == "sort"]
        for v, n in tree.nodes.items()
    }
    made = {v: 0 for v in tree.nodes}

    def held():
        return sum(r for _, r in resident)

    def stream(head):
        chain, cur = [head], head
        while True:
            nxt = [c for c in tree.nodes[cur].children
                   if tree.nodes[c].mode == "scan"]
            if not nxt:
                break
            cur = nxt[0]
            chain.append(cur)
        for v in chain:
            fits = held() + 2 * rows[v] <= budget
            if v == tree.root and not fits:
                tally["read"] += rows[v]
            if fits and sort_children[v]:
                resident.append((v, rows[v]))
                tally["peak"] = max(tally["peak"], held())

    def visit(view):
        for child in tree.nodes[view].children:
            if tree.nodes[child].mode == "sort":
                while resident and rows[view] > budget - held():
                    resident.pop()
                    tally["evicted"] += 1
                if all(v != view for v, _ in resident):
                    tally["read"] += rows[view]
                made[view] += 1
                if made[view] == len(sort_children[view]):
                    resident[:] = [e for e in resident if e[0] != view]
                stream(child)
            visit(child)

    stream(tree.root)
    visit(tree.root)
    assert not resident
    return tally["read"], tally["peak"], tally["evicted"]


def closed_form_blocks(tree, rows, budget, block):
    """What phase 2 charged before sort edges had a resident set: the root
    pass, one read per sort edge, every sort at the whole budget, and a
    write per view made.  Exact when ``block`` divides ``budget``."""
    def blocks(n):
        return -(-n // block)

    total = blocks(rows[tree.root])
    for node in tree.nodes.values():
        if node.parent is None:
            continue
        total += blocks(rows[node.view])
        if node.mode == "sort":
            total += blocks(rows[node.parent])
            total += sort_cost_blocks(rows[node.parent], budget, block)
    return total


def random_tree(rnd, d):
    """A random valid schedule tree over a random subset of the views:
    any superset already in the tree as parent (levels may be skipped),
    scan edges wherever the orders allow one — the root's order is fixed,
    so along its scan chain only its own prefixes scan."""
    order = tuple(range(d))
    tree = ScheduleTree(order, order)
    views = [v for v in all_views(d) if v != order]
    views = rnd.sample(views, rnd.randint(1, len(views)))
    root_chain = {order}
    for v in sorted(views, key=len, reverse=True):
        u = rnd.choice([u for u in tree.nodes if set(v) < set(u)])
        scans = any(
            tree.nodes[c].mode == "scan" for c in tree.nodes[u].children
        )
        may_scan = not scans and (u not in root_chain or v == order[: len(v)])
        if may_scan and rnd.random() < 0.5:
            tree.add(v, u, "scan")
            if u in root_chain:
                root_chain.add(v)
        else:
            tree.add(v, u, "sort")
    tree.assign_orders()
    tree.validate()
    return tree


class TestResidentSet:
    @pytest.mark.parametrize("kind", ["full-cube", "partial-cube", "one-rank"])
    def test_reads_are_the_non_resident_parents(self, kind):
        """Model == physical for Pipesort reads: at every budget the rows
        read are those of the root pass and the sort edges whose parent
        was not resident, and every view is bit-identical."""
        tree, root_data = resident_case(kind)
        reference, seen = None, []
        for budget in BUDGETS:
            disk = LocalDisk(block_size=64)
            results = write_back(disk, *execute_schedule(
                tree, root_data, RS_CARDS, disk, budget
            ))
            rows = {v: data.nrows for v, data in results.items()}
            want, peak, evicted = walk_reads(tree, rows, budget)
            # Besides those, only a sort that spills reads (its runs, once
            # per merge pass) — at the whole budget, its residents evicted.
            sorter = LocalDisk(block_size=64)
            for node in tree.nodes.values():
                if node.mode == "sort" and rows[node.parent] > budget:
                    n = rows[node.parent]
                    external_sort(
                        np.arange(n)[::-1], np.zeros(n), sorter, budget
                    )
            assert (
                disk.stats.rows_read == want + sorter.stats.rows_read
            ), budget
            assert disk.stats.files_created == sorter.stats.files_created
            assert disk.stats.blocks_total <= closed_form_blocks(
                tree, rows, budget, 64
            ), budget
            seen.append((want, peak, evicted))
            if reference is None:
                reference = results
                continue
            assert set(results) == set(reference)
            for view, data in results.items():
                assert data.order == reference[view].order
                assert np.array_equal(data.keys, reference[view].keys)
                assert np.array_equal(data.measure, reference[view].measure)
        every_edge = root_data.nrows + sum(
            rows[n.parent] for n in tree.nodes.values() if n.mode == "sort"
        )
        # The sweep crosses every regime: everything resident (nothing
        # read), a partly resident tree, and the old price per edge.
        assert seen[0][0] == 0 and seen[0][1] > 0
        assert any(0 < read < every_edge for read, _, _ in seen)
        assert seen[-1][0] <= every_edge
        assert [read for read, _, _ in seen] == sorted(r for r, _, _ in seen)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(0, 600),
        st.floats(0.05, 3.0),
        st.sampled_from([1, 4, 16]),
        st.randoms(use_true_random=False),
    )
    def test_never_dearer_than_one_read_per_edge(
        self, d, n, share, block, rnd
    ):
        """Over random trees and budgets the blocks charged never exceed
        the closed form of a build without a resident set."""
        cards = tuple([7, 5, 3, 2][:d])
        relation = make_relation(n, cards, seed=n + d)
        root_data = root_piece(relation, cards, tuple(range(d)))
        tree = random_tree(rnd, d)
        budget = max(1, round(share * root_data.nrows / block)) * block
        disk = LocalDisk(block_size=block)
        results = write_back(
            disk, *execute_schedule(tree, root_data, cards, disk, budget)
        )
        rows = {v: data.nrows for v, data in results.items()}
        assert disk.stats.blocks_total <= closed_form_blocks(
            tree, rows, budget, block
        )
        target(float(walk_reads(tree, rows, budget)[2]), label="evictions")
        roomy, _ = run_phase2(relation, cards, tree)
        for view, data in results.items():
            assert np.array_equal(data.keys, roomy[view].keys)
            assert np.array_equal(data.measure, roomy[view].measure)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(0, 600),
        st.floats(0.05, 3.0),
        st.sampled_from([1, 4, 16]),
        st.randoms(use_true_random=False),
    )
    def test_held_pieces_never_change_the_reads(
        self, d, n, share, block, rnd
    ):
        """Over random trees and budgets phase 2 reads exactly what the
        sort parents' residency and the spilling sorts read, by a walk
        that knows nothing of the pieces it holds unwritten."""
        cards = tuple([7, 5, 3, 2][:d])
        relation = make_relation(n, cards, seed=n + d)
        root_data = root_piece(relation, cards, tuple(range(d)))
        tree = random_tree(rnd, d)
        budget = max(1, round(share * root_data.nrows / block)) * block
        disk = LocalDisk(block_size=block)
        results, unwritten = execute_schedule(
            tree, root_data, cards, disk, budget
        )
        rows = {v: data.nrows for v, data in results.items()}
        sorter = LocalDisk(block_size=block)
        for node in tree.nodes.values():
            if node.mode == "sort" and rows[node.parent] > budget:
                m = rows[node.parent]
                external_sort(np.arange(m)[::-1], np.zeros(m), sorter, budget)
        assert disk.stats.rows_read == (
            walk_reads(tree, rows, budget)[0] + sorter.stats.rows_read
        )
        assert disk.stats.files_created == sorter.stats.files_created
        target(float(len(unwritten)), label="unwritten")

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(0, 600),
        st.floats(0.05, 3.0),
        st.sampled_from([1, 4, 16]),
        st.randoms(use_true_random=False),
    )
    def test_no_piece_is_written_twice(self, d, n, share, block, rnd):
        """Phase 2 writes each piece it makes once, at once or when it is
        evicted, unless it hands the piece back unwritten, and the pieces
        it hands back fit the budget: with the caller's write every piece
        is written exactly once."""
        cards = tuple([7, 5, 3, 2][:d])
        relation = make_relation(n, cards, seed=n + d)
        root_data = root_piece(relation, cards, tuple(range(d)))
        tree = random_tree(rnd, d)
        budget = max(1, round(share * root_data.nrows / block)) * block
        disk = LocalDisk(block_size=block)
        writes = []
        store = disk.charge_store
        disk.charge_store = lambda rows: (writes.append(rows), store(rows))
        results, unwritten = execute_schedule(
            tree, root_data, cards, disk, budget
        )
        assert tree.root not in unwritten
        assert len(set(unwritten)) == len(unwritten)
        held = [results[v].nrows for v in unwritten]
        assert sum(held) <= budget
        assert sorted(writes + held) == sorted(
            data.nrows for v, data in results.items() if v != tree.root
        )
        target(float(len(unwritten)), label="unwritten")

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 400),
        st.sampled_from([64, 256, 1024, 1 << 16]),
        st.booleans(),
    )
    def test_one_rank_charges_what_writing_at_once_charges(
        self, n, budget, partial
    ):
        """At p = 1 no merge takes or rewrites a row, so holding pieces
        until step 3 moves no charge: ``build_data_cube`` and
        ``sequential_cube`` charge the blocks and seconds of a phase 2
        that writes every piece as it is made."""
        import repro.baselines.sequential as seq_mod
        import repro.core.cube as cube_mod
        from repro.baselines.sequential import sequential_cube
        from repro.config import MachineSpec
        from repro.core.cube import build_data_cube

        def at_once(real):
            def run(tree, root_data, cards, disk, *args, **kw):
                results, unwritten = real(
                    tree, root_data, cards, disk, *args, **kw
                )
                return write_back(disk, results, unwritten), []

            return run

        cards = (7, 5, 3, 2)
        relation = make_relation(n, cards, seed=n)
        spec = MachineSpec(p=1, memory_budget=budget, block_size=16)
        selected = [(0, 2), (1,), (1, 3), ()] if partial else None

        def charges():
            return [
                build_data_cube(relation, cards, spec, selected=selected),
                sequential_cube(relation, cards, spec, selected=selected),
            ]

        held = charges()
        with pytest.MonkeyPatch.context() as mp:
            for mod in (cube_mod, seq_mod):
                mp.setattr(
                    mod, "execute_schedule", at_once(mod.execute_schedule)
                )
            at_made = charges()
        for now, then in zip(held, at_made):
            now, then = now.metrics, then.metrics
            assert (now.disk_blocks, now.disk_blocks_read) == (
                then.disk_blocks, then.disk_blocks_read
            )
            # a write may land one superstep later: the sum regroups
            assert now.simulated_seconds == pytest.approx(
                then.simulated_seconds, rel=1e-12, abs=0
            )

    def eviction_case(self):
        """ABC -> {AC sort, AB scan -> {A scan, B sort}, BC sort}: AB is
        admitted when the root's chain streams, before AC is sorted."""
        cards = (50, 40, 4)
        tree = ScheduleTree((0, 1, 2), (0, 1, 2))
        tree.add((0, 2), (0, 1, 2), "sort")
        tree.add((0, 1), (0, 1, 2), "scan")
        tree.add((1, 2), (0, 1, 2), "sort")
        tree.add((0,), (0, 1), "scan")
        tree.add((1,), (0, 1), "sort")
        tree.assign_orders()
        tree.validate()
        root_data = root_piece(
            make_relation(12_000, cards, seed=9), cards, (0, 1, 2)
        )
        return tree, root_data, cards

    def test_a_sort_that_fits_the_budget_evicts_instead_of_spilling(self):
        tree, root_data, cards = self.eviction_case()
        disk = LocalDisk(block_size=64)
        big, _ = execute_schedule(
            tree, root_data, cards, LocalDisk(64), 1 << 20
        )
        abc, ab = root_data.nrows, big[(0, 1)].nrows
        budget = abc + ab // 2
        # The root fits the budget but not twice; AB does, and is resident
        # when AC is made — under it the sort of ABC would spill...
        assert abc <= budget < 2 * abc and 2 * ab <= budget < abc + ab
        scratch = LocalDisk(block_size=64)
        external_sort(
            root_data.keys[::-1], root_data.measure, scratch, budget - ab
        )
        assert scratch.stats.files_created > 0
        # ...so AB is evicted first: no spill file, and B, made later,
        # reads AB back from disk like any non-resident parent.
        results = write_back(
            disk, *execute_schedule(tree, root_data, cards, disk, budget)
        )
        assert disk.stats.files_created == 0
        assert disk.stats.rows_read == 3 * abc + ab
        rows = {v: data.nrows for v, data in results.items()}
        assert walk_reads(tree, rows, budget) == (3 * abc + ab, ab, 1)
        assert disk.stats.blocks_total == closed_form_blocks(
            tree, rows, budget, 64
        )
        for view, data in results.items():
            assert np.array_equal(data.keys, big[view].keys)
            assert np.array_equal(data.measure, big[view].measure)

    def test_a_sort_beside_residents_gets_what_they_leave(self, monkeypatch):
        """A sort runs with the budget minus the resident rows — and with
        room for both, nothing is evicted and B reads nothing."""
        import repro.core.pipesort as pipesort

        tree, root_data, cards = self.eviction_case()
        budgets = []

        def spy(keys, measure, disk, memory_budget, **kw):
            budgets.append((keys.shape[0], memory_budget))
            return external_sort(keys, measure, disk, memory_budget, **kw)

        monkeypatch.setattr(pipesort, "external_sort", spy)
        disk = LocalDisk(block_size=64)
        results, _ = execute_schedule(
            tree, root_data, cards, disk, 3 * root_data.nrows
        )
        abc, ab = root_data.nrows, results[(0, 1)].nrows
        # heads in DFS preorder: AC and B (AB's last sort child, so AB
        # leaves the set) and then BC (the root's last).
        assert budgets == [
            (abc, 3 * abc - abc - ab),
            (ab, 3 * abc - abc - ab),
            (abc, 3 * abc - abc),
        ]
        assert disk.stats.rows_read == 0 and disk.stats.files_created == 0

    def test_results_die_without_the_cyclic_collector(self):
        """No reference cycle holds a build's views: dropping the result
        dict frees them at once (a self-calling closure in phase 2 would
        keep every iteration's pre-merge views alive until a GC pass)."""
        cards = (8, 5, 4)
        relation = make_relation(1000, cards, seed=2)
        gc.collect()
        gc.disable()
        try:
            results, _ = run_phase2(relation, cards)
            ref = weakref.ref(results[(1, 2)])
            assert ref() is not None
            del results
            assert ref() is None
        finally:
            gc.enable()


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
