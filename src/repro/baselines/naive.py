"""Naive baseline: every view from an independent sort of the raw data.

Section 4.1's closing remark: "when there are only a handful of selected
views, creating each view from an independent sort of the original data
set may be preferable."  This baseline makes that regime measurable: no
schedule tree, no pipelining — each view costs one full scan + sort of the
raw relation.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import CubeConfig, MachineSpec, RunResult
from repro.core.aggregate import prepare_measure
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, all_views, canonical_view
from repro.mpi.engine import run_spmd
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.table import Relation

__all__ = ["naive_sequential_cube"]


def _naive_program(
    comm,
    relation: Relation,
    cards: tuple[int, ...],
    agg: str,
    views: tuple[View, ...],
    memory_budget: int,
):
    out: dict[View, ViewData] = {}
    comm.set_phase("naive")
    for view in views:
        codec = codec_for_order(view, cards)
        if view:
            keys = codec.pack(relation.dims[:, view])
        else:
            keys = relation.dims[:, :0].sum(axis=1)  # zeros, int64
        comm.disk.charge_scan(relation.nrows)
        comm.disk.work.charge_scan(relation.nrows)  # pack
        keys, measure = external_sort(
            keys, relation.measure, comm.disk, memory_budget
        )
        comm.disk.work.charge_scan(keys.shape[0])
        keys, measure = aggregate_sorted_keys(keys, measure, agg)
        out[view] = ViewData(view, keys, measure)
        comm.disk.charge_store(keys.shape[0])
    return out


def naive_sequential_cube(
    relation: Relation,
    cardinalities: Sequence[int],
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    selected: Sequence[View] | None = None,
) -> CubeResult:
    """Build each requested view by an independent sort of the raw data."""
    spec = (spec or MachineSpec()).with_processors(1)
    config = config or CubeConfig()
    relation, internal_agg = prepare_measure(relation, config.agg)
    agg = internal_agg
    cards = tuple(int(c) for c in cardinalities)
    if selected is None:
        views = tuple(all_views(relation.width))
    else:
        views = tuple(
            sorted({canonical_view(v) for v in selected},
                   key=lambda v: (len(v), v))
        )
    cluster = run_spmd(
        _naive_program,
        spec,
        args=(relation, cards, agg, views, spec.memory_budget),
    )
    rank_views = cluster.rank_results[0]
    metrics = RunResult(
        simulated_seconds=cluster.simulated_seconds,
        host_seconds=cluster.host_seconds,
        output_rows=sum(v.nrows for v in rank_views.values()),
        view_count=len(rank_views),
        comm_bytes=cluster.stats.total_bytes,
        disk_blocks=cluster.total_disk_blocks(),
        disk_blocks_read=cluster.total_disk_blocks_read(),
        phase_seconds=cluster.clock.phase_breakdown(),
        phase_comm_seconds=cluster.clock.phase_comm_breakdown(),
        superstep_log=list(cluster.clock.log),
    )
    return CubeResult(
        rank_views=[rank_views], cardinalities=cards, metrics=metrics
    )
