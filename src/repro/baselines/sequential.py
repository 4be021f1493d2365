"""Sequential comparator: Pipesort / Partial-cube on one processor.

This is the denominator of every relative-speedup figure.  Matching the
paper, the sequential method is *not* the parallel algorithm at p = 1 but
the underlying sequential top-down method run over the whole lattice with
a single schedule tree: sort the raw data once into the top view, then
execute Pipesort phase 2 (or the partial-cube schedule of [4]) — all under
the same cost model (CPU + disk; no communication).
"""

from __future__ import annotations

from typing import Sequence

from dataclasses import replace

from repro.config import CubeConfig, MachineSpec, RunResult
from repro.core.aggregate import prepare_measure
from repro.core.cube import CubeResult
from repro.core.estimate import estimate_view_sizes
from repro.core.partial import build_partial_schedule_tree, prune_full_tree
from repro.core.pipesort import build_schedule_tree, execute_schedule
from repro.core.viewdata import ViewData
from repro.core.views import View, all_views, canonical_view
from repro.mpi.engine import run_spmd
from repro.storage.codec import KeyCodec
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.external_sort import external_sort
from repro.storage.table import Relation

__all__ = ["sequential_cube"]


def _seq_program(
    comm,
    relation: Relation,
    cards: tuple[int, ...],
    config: CubeConfig,
    selected: tuple[View, ...] | None,
    estimate_method: str,
    memory_budget: int,
):
    d = len(cards)
    root = tuple(range(d))
    comm.set_phase("seq-sort")
    codec = KeyCodec(cards)
    keys = codec.pack(relation.dims)
    comm.disk.charge_scan(relation.nrows)
    comm.disk.work.charge_scan(relation.nrows)  # pack
    keys, measure = external_sort(keys, relation.measure, comm.disk, memory_budget)
    comm.disk.work.charge_scan(keys.shape[0])
    keys, measure = aggregate_sorted_keys(keys, measure, config.agg)
    root_data = ViewData(root, keys, measure)
    if selected is None or root in selected:  # as build_data_cube's step 3
        comm.disk.charge_store(root_data.nrows)  # Pipesort writes only children

    comm.set_phase("seq-schedule")
    views = all_views(d)
    estimates = estimate_view_sizes(
        codec.unpack(keys), cards, views, method=estimate_method
    )
    if selected is None:
        tree = build_schedule_tree(views, root, estimates, root)
    else:
        wanted = [v for v in selected if v != root]
        direct = build_partial_schedule_tree(wanted, root, estimates, root)
        pruned = prune_full_tree(
            build_schedule_tree(views, root, estimates, root), wanted
        )
        tree = min(
            (direct, pruned), key=lambda t: t.estimated_cost(estimates)
        )

    comm.set_phase("seq-compute")
    out, unwritten = execute_schedule(
        tree, root_data, cards, comm.disk, memory_budget, config.agg
    )
    for view in unwritten:  # the one node stores each view as it is made
        comm.disk.charge_store(out[view].nrows)
    if selected is not None:
        out = {v: data for v, data in out.items() if v in set(selected)}
    return out, [], [tree]


def sequential_cube(
    relation: Relation,
    cardinalities: Sequence[int],
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    selected: Sequence[View] | None = None,
    estimate_method: str = "sample",
) -> CubeResult:
    """Build the cube sequentially; returns the same result shape as
    :func:`repro.core.cube.build_data_cube` (with one rank)."""
    spec = (spec or MachineSpec()).with_processors(1)
    config = config or CubeConfig()
    relation, internal_agg = prepare_measure(relation, config.agg)
    if internal_agg != config.agg:
        config = replace(config, agg=internal_agg)
    cards = tuple(int(c) for c in cardinalities)
    if selected is not None:
        selected = tuple(
            sorted({canonical_view(v) for v in selected},
                   key=lambda v: (len(v), v))
        )
    cluster = run_spmd(
        _seq_program,
        spec,
        args=(relation, cards, config, selected, estimate_method,
              spec.memory_budget),
    )
    views, reports, trees = cluster.rank_results[0]
    metrics = RunResult(
        simulated_seconds=cluster.simulated_seconds,
        host_seconds=cluster.host_seconds,
        output_rows=sum(v.nrows for v in views.values()),
        view_count=len(views),
        comm_bytes=cluster.stats.total_bytes,
        disk_blocks=cluster.total_disk_blocks(),
        disk_blocks_read=cluster.total_disk_blocks_read(),
        phase_seconds=cluster.clock.phase_breakdown(),
        phase_comm_seconds=cluster.clock.phase_comm_breakdown(),
        superstep_log=list(cluster.clock.log),
        final_width=1,
    )
    return CubeResult(
        rank_views=[views],
        cardinalities=cards,
        metrics=metrics,
        merge_reports=reports,
        schedule_trees=trees,
        agg=config.agg,
    )
