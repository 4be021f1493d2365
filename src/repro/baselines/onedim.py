"""Section 2.2's rejected alternative: partition on the leading dimension.

Methods like Goil-Choudhary [9] partition the raw data on one (or a few)
dimensions so that views containing those dimensions need no merge.  The
paper rejects this because the available parallelism is capped by the
partitioning dimension's cardinality and wrecked by its skew.  This
baseline makes that failure mode measurable:

* rows are range-partitioned on ``D0`` (contiguous code ranges chosen from
  a histogram, so the *row* counts are as balanced as the data allows);
* every rank builds the full local cube with sequential Pipesort;
* views containing ``D0`` are complete per rank (no merge, but they are as
  unbalanced as the value distribution of ``D0``);
* views without ``D0`` are merged by a global sort + aggregate.

With high leading-dimension skew (Figure 9's mix D) most rows share one
``D0`` code and land on one rank, so the local-compute critical path stops
shrinking with p — the scalability wall the paper describes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.config import CubeConfig, MachineSpec, RunResult
from repro.core.cube import CubeResult
from repro.core.aggregate import prepare_measure
from repro.core.estimate import estimate_view_sizes
from repro.core.merge import _merge_prefix_view
from repro.core.pipesort import build_schedule_tree, execute_schedule
from repro.core.sample_sort import adaptive_sample_sort
from repro.core.viewdata import ViewData
from repro.core.views import View, all_views
from repro.mpi.engine import run_spmd
from repro.storage.codec import KeyCodec
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.table import Relation

__all__ = ["onedim_partition_cube"]


def _range_partition_d0(
    relation: Relation, card0: int, p: int
) -> list[Relation]:
    """Split rows into p groups by contiguous ``D0`` code ranges, choosing
    the range ends from the code histogram to even out row counts."""
    codes = relation.dims[:, 0]
    hist = np.bincount(codes, minlength=card0)
    cum = np.cumsum(hist)
    total = cum[-1] if cum.size else 0
    targets = (np.arange(1, p) * total) / p
    ends = np.searchsorted(cum, targets, side="left")  # code range ends
    bucket_of_code = np.zeros(card0, dtype=np.int64)
    for k, e in enumerate(ends):
        bucket_of_code[e + 1 :] = k + 1
    owner = bucket_of_code[codes]
    return [relation.take(np.flatnonzero(owner == j)) for j in range(p)]


def _onedim_program(
    comm,
    chunks: list[Relation],
    cards: tuple[int, ...],
    config: CubeConfig,
    estimate_method: str,
    memory_budget: int,
):
    local = chunks[comm.rank]
    d = len(cards)
    agg = config.agg
    root = tuple(range(d))

    # Local full cube via sequential Pipesort on this rank's D0 slice.
    comm.set_phase("onedim-local")
    codec = KeyCodec(cards)
    keys = codec.pack(local.dims)
    comm.disk.charge_scan(local.nrows)
    comm.disk.work.charge_scan(local.nrows)  # pack
    keys, measure = external_sort(keys, local.measure, comm.disk, memory_budget)
    comm.disk.work.charge_scan(keys.shape[0])
    keys, measure = aggregate_sorted_keys(keys, measure, agg)
    root_data = ViewData(root, keys, measure)
    comm.disk.charge_store(root_data.nrows)  # Pipesort writes only children
    views = all_views(d)
    estimates = estimate_view_sizes(
        codec.unpack(keys), cards, views, method=estimate_method
    )
    tree = build_schedule_tree(views, root, estimates, root)
    out, unwritten = execute_schedule(
        tree, root_data, cards, comm.disk, memory_budget, agg
    )
    for view in unwritten:  # each local view is stored as it is made
        comm.disk.charge_store(out[view].nrows)

    # Views without D0 overlap across ranks: merge by global sort.
    comm.set_phase("onedim-merge")
    merged: dict[View, ViewData] = {}
    for view in sorted(out, key=lambda v: (-len(v), v)):
        data = out[view]
        if view and view[0] == 0:
            merged[view] = data  # D0 views are disjoint across ranks
        else:
            canon = data.view
            vkeys, vmeasure = data.keys, data.measure
            if tuple(data.order) != canon:
                # bring to a common order before the global sort; only a
                # re-packed piece is out of key order and pays a sort
                view_codec = KeyCodec([cards[i] for i in data.order])
                dims = view_codec.unpack(data.keys)
                col_of = {dim: pos for pos, dim in enumerate(data.order)}
                cols = [col_of[dim] for dim in canon]
                canon_codec = KeyCodec([cards[i] for i in canon])
                vkeys = canon_codec.pack(dims[:, cols]) if cols else data.keys * 0
                comm.disk.work.charge_scan(data.nrows)
                vkeys, vmeasure = external_sort(
                    vkeys, vmeasure, comm.disk, memory_budget
                )
            outcome = adaptive_sample_sort(
                comm, vkeys, vmeasure, config.gamma_merge
            )
            mk, mm = aggregate_sorted_keys(outcome.keys, outcome.measure, agg)
            result = ViewData(canon, mk, mm)
            if outcome.shifted:
                # the positional global shift can split a key across ranks
                result = _merge_prefix_view(comm, result, agg)
            merged[view] = result
            comm.disk.charge_store(result.nrows)  # the global sort rewrote it
    return merged


def onedim_partition_cube(
    relation: Relation,
    cardinalities,
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    estimate_method: str = "sample",
) -> CubeResult:
    """Build the full cube with leading-dimension data partitioning."""
    spec = spec or MachineSpec()
    config = config or CubeConfig()
    relation, internal_agg = prepare_measure(relation, config.agg)
    if internal_agg != config.agg:
        config = replace(config, agg=internal_agg)
    cards = tuple(int(c) for c in cardinalities)
    chunks = _range_partition_d0(relation, cards[0], spec.p)
    cluster = run_spmd(
        _onedim_program,
        spec,
        args=(chunks, cards, config, estimate_method, spec.memory_budget),
    )
    rank_views = cluster.rank_results
    metrics = RunResult(
        simulated_seconds=cluster.simulated_seconds,
        host_seconds=cluster.host_seconds,
        output_rows=sum(
            data.nrows for rv in rank_views for data in rv.values()
        ),
        view_count=len(rank_views[0]),
        comm_bytes=cluster.stats.total_bytes,
        disk_blocks=cluster.total_disk_blocks(),
        disk_blocks_read=cluster.total_disk_blocks_read(),
        phase_seconds=cluster.clock.phase_breakdown(),
        phase_comm_seconds=cluster.clock.phase_comm_breakdown(),
        superstep_log=list(cluster.clock.log),
    )
    return CubeResult(
        rank_views=rank_views, cardinalities=cards, metrics=metrics
    )
