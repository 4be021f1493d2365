"""Incremental cube maintenance: fold new fact rows into a built cube.

Warehouses append facts continuously; rebuilding 2^d views from scratch
for every batch wastes exactly the work the paper's algorithm went to
such lengths to organise.  Distributive aggregates make increments cheap:

1. build the *delta cube* of the new rows with the ordinary parallel
   algorithm (small input → fast),
2. for every view, combine the old and delta pieces rank-by-rank and
   re-agglomerate across ranks — which is precisely Merge-Partitions'
   job, so the combine step *is* Procedure 3 run over the union pieces.

``refresh_cube`` returns a new :class:`~repro.core.cube.CubeResult`
equivalent to rebuilding from the concatenated input (tests assert
equality), at the cost of a delta build plus one merge sweep.

**The insert-only contract.**  Refresh maintains the distributive
aggregates (SUM, COUNT, MIN, MAX) under *insertions only*: a delta row
combines into an existing partial with one ``combine`` step.  Deletions
and updates would need re-computation of the affected groups, and
AVG-style / holistic aggregates have no combine at all — every refresh
entry point rejects those up front
(:func:`repro.core.aggregate.require_insert_maintainable`) instead of
silently writing wrong totals.  COUNT cubes carry SUM-of-ones measures,
so they compose like SUM.

``refresh_store`` lifts the same merge to *persisted* stores: the delta
cube's sorted runs are folded directly into the mmap'd view columns of
a :class:`~repro.olap.store.CubeStore`, written as a new immutable
generation next to the old one — a delta build plus one merge pass over
the stored cube, not a rebuild from the fact table — and published with
an atomic ``CURRENT`` pointer swap so live readers never block and never
see a half-written store.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.config import CubeConfig, MachineSpec, RunResult
from repro.core.aggregate import require_insert_maintainable
from repro.core.cube import CubeResult, build_data_cube
from repro.core.merge import merge_partitions
from repro.core.pipesort import ScheduleTree
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view
from repro.mpi.engine import run_spmd
from repro.olap.index import DEFAULT_STRIDE, FenceIndex
from repro.olap.store import CubeStore, _MANIFEST, _gen_name, _view_stem
from repro.storage.mmapio import write_npy
from repro.storage.scan import aggregate_sorted_keys, merge_sorted
from repro.storage.sortkernels import sort_pairs, stable_order
from repro.storage.table import Relation

__all__ = ["refresh_cube", "refresh_store", "RefreshReport"]


def _combine_program(
    comm,
    old_views: list[dict[View, ViewData]],
    delta_views: list[dict[View, ViewData]],
    cards: tuple[int, ...],
    config: CubeConfig,
    memory_budget: int,
):
    rank = comm.rank
    comm.set_phase("refresh-combine")
    merged_in: dict[View, ViewData] = {}
    for view in sorted(old_views[rank], key=lambda v: (-len(v), v)):
        old = old_views[rank][view]
        delta = delta_views[rank].get(view)
        # bring both pieces to the canonical order so every rank agrees
        old_c = _to_canonical(old, cards)
        if delta is None or delta.nrows == 0:
            piece = old_c
        else:
            delta_c = _to_canonical(delta, cards)
            keys, measure = merge_sorted(
                old_c.keys, old_c.measure, delta_c.keys, delta_c.measure
            )
            comm.disk.work.charge_scan(keys.shape[0])
            keys, measure = aggregate_sorted_keys(keys, measure, config.agg)
            piece = ViewData(old_c.order, keys, measure)
        comm.disk.charge_scan(piece.nrows)
        merged_in[view] = piece

    # Cross-rank agglomeration.  The combined pieces are locally sorted
    # but NOT globally sorted across ranks (old and delta cubes each had
    # their own boundaries), so the case-1 fast path is off the table:
    # everything goes through ownership routing / re-sort.
    d = len(cards)
    tree = ScheduleTree(tuple(range(d)), tuple(range(d)))
    merged, report = merge_partitions(
        comm, merged_in, tree, config, memory_budget,
        force_nonprefix=True,
    )
    for data in merged.values():
        comm.disk.charge_store(data.nrows)
    return merged, report


def _to_canonical(data: ViewData, cards: tuple[int, ...]) -> ViewData:
    canon = data.view
    if tuple(data.order) == canon:
        return data
    from repro.core.viewdata import codec_for_order

    codec = codec_for_order(data.order, cards)
    dims = codec.unpack(data.keys)
    col_of = {dim: pos for pos, dim in enumerate(data.order)}
    cols = [col_of[dim] for dim in canon]
    canon_codec = codec_for_order(canon, cards)
    keys = canon_codec.pack(dims[:, cols]) if cols else data.keys * 0
    order = stable_order(keys)
    return ViewData(canon, keys[order], data.measure[order])


def refresh_cube(
    cube: CubeResult,
    new_rows: Relation,
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
) -> CubeResult:
    """Fold ``new_rows`` into ``cube`` without rebuilding from scratch.

    The cube must be a *full* cube (partial cubes lack the ancestors the
    delta build produces; refresh them by re-running their partial
    build).  Returns a new cube; the input cube is left untouched.
    """
    p = len(cube.rank_views)
    spec = (spec or MachineSpec()).with_processors(p)
    config = config or CubeConfig(agg=cube.agg)
    require_insert_maintainable(config.agg, "refresh_cube")
    # COUNT cubes carry SUM-of-ones internally (cube.agg == "sum"); a
    # refresh declared as COUNT is therefore compatible with them.
    internal = "sum" if config.agg == "count" else config.agg
    if internal != cube.agg:
        raise ValueError(
            f"cube carries {cube.agg!r} aggregates; refresh config says "
            f"{config.agg!r}"
        )
    expected = 2 ** len(cube.cardinalities)
    if cube.view_count != expected:
        raise ValueError(
            "refresh_cube needs a full cube "
            f"({cube.view_count} views != {expected}); rebuild partial "
            "cubes instead"
        )

    if new_rows.nrows == 0:
        # Fast path: nothing to fold in.  The combine sweep routes every
        # row through ownership re-sort (force_nonprefix), which costs a
        # full cube's worth of sort + comm to produce the input cube
        # unchanged — skip it entirely.
        output_rows = sum(
            data.nrows for rv in cube.rank_views for data in rv.values()
        )
        return CubeResult(
            rank_views=[dict(rv) for rv in cube.rank_views],
            cardinalities=cube.cardinalities,
            metrics=RunResult(
                simulated_seconds=0.0,
                host_seconds=0.0,
                output_rows=output_rows,
                view_count=cube.view_count,
                comm_bytes=0,
                disk_blocks=0,
            ),
            agg=cube.agg,
        )

    delta = build_data_cube(
        new_rows, cube.cardinalities, spec, config
    )
    # The combine re-aggregates *partial aggregates*, so COUNT must add
    # (its internal SUM-of-ones form), never re-count rows.
    combine_config = replace(config, agg=internal)
    cluster = run_spmd(
        _combine_program,
        spec,
        args=(
            cube.rank_views,
            delta.rank_views,
            cube.cardinalities,
            combine_config,
            spec.memory_budget,
        ),
    )
    rank_views = [result[0] for result in cluster.rank_results]
    reports = [cluster.rank_results[0][1]]
    output_rows = sum(
        data.nrows for rv in rank_views for data in rv.values()
    )
    metrics = RunResult(
        simulated_seconds=delta.metrics.simulated_seconds
        + cluster.simulated_seconds,
        host_seconds=delta.metrics.host_seconds + cluster.host_seconds,
        output_rows=output_rows,
        view_count=len(rank_views[0]),
        comm_bytes=delta.metrics.comm_bytes + cluster.stats.total_bytes,
        disk_blocks=delta.metrics.disk_blocks
        + cluster.total_disk_blocks(),
        disk_blocks_read=delta.metrics.disk_blocks_read
        + cluster.total_disk_blocks_read(),
        phase_seconds={
            **delta.metrics.phase_seconds,
            **cluster.clock.phase_breakdown(),
        },
        phase_comm_seconds={
            **delta.metrics.phase_comm_seconds,
            **cluster.clock.phase_comm_breakdown(),
        },
        superstep_log=list(cluster.clock.log),
    )
    return CubeResult(
        rank_views=rank_views,
        cardinalities=cube.cardinalities,
        metrics=metrics,
        merge_reports=reports,
        agg=cube.agg,
    )


# ---------------------------------------------------------------------------
# Store-level refresh: delta-merge generations
# ---------------------------------------------------------------------------


@dataclass
class RefreshReport:
    """What one :func:`refresh_store` call did."""

    root: str                   #: store root directory
    generation: int             #: the generation this refresh published
    previous_generation: int    #: the generation it merged into
    path: str                   #: directory of the new generation
    delta_rows: int             #: fact rows folded in
    rows_added: int             #: net new view rows across all views
    views_merged: int           #: views whose columns were rewritten
    views_linked: int           #: views hard-linked untouched
    files_linked: int
    files_written: int
    delta_build_seconds: float  #: wall time of the parallel delta build
    merge_seconds: float        #: wall time of the column merges + write
    metrics: RunResult | None = None  #: delta build metering


def _link_file(src: str, dst: str, counts: dict) -> None:
    """Hard-link ``src`` into the new generation (copy as fallback)."""
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)
    counts["linked"] += 1


def _delta_run(
    delta_cube: CubeResult,
    view: View,
    order: tuple[int, ...],
    cards: tuple[int, ...],
    agg: str,
) -> tuple[np.ndarray, np.ndarray]:
    """One view's delta rows as a sorted-unique run in ``order``.

    The delta cube's rank pieces are key-disjoint (cross-rank
    uniqueness), and re-encoding to the stored order is bijective, so
    concatenate + sort yields a unique run; the aggregate pass is a
    defensive no-op on unique keys.
    """
    parts_k: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    for rv in delta_cube.rank_views:
        piece = rv.get(view)
        if piece is None or piece.nrows == 0:
            continue
        if tuple(piece.order) == order:
            keys = piece.keys
        else:
            codec = codec_for_order(piece.order, cards)
            keys, _ = codec.remap(piece.keys, piece.order, order)
        parts_k.append(keys)
        parts_v.append(piece.measure)
    if not parts_k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys, vals = sort_pairs(np.concatenate(parts_k), np.concatenate(parts_v))
    return aggregate_sorted_keys(keys, vals, agg)


def _merged_offsets(
    old_keys: np.ndarray,
    old_offsets: Sequence,
    merged_keys: np.ndarray,
    p: int,
) -> list[int]:
    """Rank offsets for the merged column, preserving the old rank
    boundary *keys* so the reconstructed distributed cube keeps its
    key-range partitioning (delta rows land in the rank that owns their
    range)."""
    n_old = int(old_keys.shape[0])
    n_new = int(merged_keys.shape[0])
    offsets = [0]
    for rank in range(1, p):
        o = int(old_offsets[rank])
        if o >= n_old:
            offsets.append(n_new)
        else:
            offsets.append(
                int(np.searchsorted(merged_keys, int(old_keys[o]), "left"))
            )
    offsets.append(n_new)
    return offsets


def refresh_store(
    store_dir: str,
    delta: Relation,
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    gc: bool = False,
) -> RefreshReport:
    """Fold ``delta`` into a persisted cube store as a new generation.

    Builds the delta cube with the ordinary parallel algorithm, merges
    each delta view's sorted run directly into the store's mmap'd
    columns (one ``merge_sorted`` + aggregate per touched view), and
    writes the result as generation N+1 next to the live generation N.
    A view the delta leaves untouched is hard-linked, not rewritten,
    but every delta row lands in every view, so a non-empty delta
    rewrites them all.  The new generation becomes live via an
    atomic ``CURRENT`` pointer swap — readers of generation N are never
    blocked and never see partial state.

    Insert-only: see :func:`require_insert_maintainable`.  An empty
    delta is a no-op (no new generation).
    A COUNT cube persists as SUM-of-ones, indistinguishable on disk
    from a genuine SUM cube — pass ``config=CubeConfig(agg="count")``
    when refreshing one, or the delta's measures would be summed
    instead of counted.

    ``gc=True`` deletes superseded generations after the swap (only
    safe when no reader may still be pinned to them — the serving tier
    does its own pinned-aware GC instead).
    """
    src = CubeStore.open(store_dir)
    manifest = src.manifest
    cards = src.cardinalities
    p = src.p
    # Check the *store's* aggregate before CubeConfig gets a chance to
    # reject it with a generic message — a store whose manifest carries
    # a non-maintainable aggregate must fail with the refresh contract.
    require_insert_maintainable(src.agg, "refresh_store")
    config = config or CubeConfig(agg=src.agg)
    require_insert_maintainable(config.agg, "refresh_store")
    internal = "sum" if config.agg == "count" else config.agg
    if internal != src.agg:
        raise ValueError(
            f"store carries {src.agg!r} aggregates; refresh config says "
            f"{config.agg!r}"
        )
    if delta.dims.shape[1] != len(cards):
        raise ValueError(
            f"delta has {delta.dims.shape[1]} dimensions, store has "
            f"{len(cards)}"
        )
    cur_gen = src.generation
    n_views = len(manifest["views"])
    if delta.nrows == 0:
        return RefreshReport(
            root=store_dir,
            generation=cur_gen,
            previous_generation=cur_gen,
            path=src.path,
            delta_rows=0,
            rows_added=0,
            views_merged=0,
            views_linked=n_views,
            files_linked=0,
            files_written=0,
            delta_build_seconds=0.0,
            merge_seconds=0.0,
        )

    next_gen = cur_gen + 1
    final_dir = os.path.join(store_dir, _gen_name(next_gen))
    tmp_dir = os.path.join(
        store_dir, f".{_gen_name(next_gen)}.tmp-{os.getpid()}"
    )
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)

    spec = (spec or MachineSpec()).with_processors(p)
    counts = {"linked": 0, "written": 0}

    t0 = time.perf_counter()
    delta_cube = build_data_cube(delta, cards, spec, config)
    t1 = time.perf_counter()

    stride = int(manifest.get("fence_stride") or DEFAULT_STRIDE)
    os.makedirs(os.path.join(tmp_dir, "views"), exist_ok=True)
    src_views = os.path.join(src.path, "views")
    dst_views = os.path.join(tmp_dir, "views")
    entries = []
    views_merged = views_linked = rows_added = 0

    for entry in manifest["views"]:
        view = canonical_view(entry["dims"])
        new_entry = dict(entry)
        stem = _view_stem(view)
        dk, dv = _delta_run(
            delta_cube, view, tuple(entry["order"]), cards, internal
        )

        if dk.shape[0] == 0:
            for suffix in (".keys.npy", ".measure.npy"):
                _link_file(
                    os.path.join(src_views, stem + suffix),
                    os.path.join(dst_views, stem + suffix),
                    counts,
                )
            views_linked += 1
        else:
            sv = src.sorted_views[view]
            old_keys = sv._keys.array
            mk, mv = merge_sorted(old_keys, sv._measure.array, dk, dv)
            mk, mv = aggregate_sorted_keys(mk, mv, internal)
            write_npy(os.path.join(dst_views, stem + ".keys.npy"), mk)
            write_npy(os.path.join(dst_views, stem + ".measure.npy"), mv)
            counts["written"] += 2
            new_entry.update(
                rows=int(mk.shape[0]),
                rank_offsets=_merged_offsets(
                    old_keys, entry["rank_offsets"], mk, p
                ),
                fence=FenceIndex.build(mk, stride).to_manifest(),
            )
            rows_added += int(mk.shape[0]) - int(old_keys.shape[0])
            views_merged += 1
        entries.append(new_entry)

    new_manifest = {k: v for k, v in manifest.items() if k != "views"}
    new_manifest["views"] = entries
    new_manifest["generation"] = next_gen
    new_manifest["parent"] = cur_gen
    new_manifest["refresh"] = {"delta_rows": int(delta.nrows)}
    with open(os.path.join(tmp_dir, _MANIFEST), "w") as fh:
        json.dump(new_manifest, fh, indent=1)
    counts["written"] += 1

    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)  # orphan of a crashed refresh
    os.rename(tmp_dir, final_dir)
    CubeStore.set_current(store_dir, next_gen)
    if gc:
        CubeStore.gc_generations(store_dir)

    return RefreshReport(
        root=store_dir,
        generation=next_gen,
        previous_generation=cur_gen,
        path=final_dir,
        delta_rows=int(delta.nrows),
        rows_added=int(rows_added),
        views_merged=views_merged,
        views_linked=views_linked,
        files_linked=counts["linked"],
        files_written=counts["written"],
        delta_build_seconds=t1 - t0,
        merge_seconds=time.perf_counter() - t1,
        metrics=delta_cube.metrics,
    )
