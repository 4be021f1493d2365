"""Incremental cube maintenance: fold new fact rows into a built cube.

Warehouses append facts continuously; rebuilding 2^d views from scratch
for every batch wastes exactly the work the paper's algorithm went to
such lengths to organise.  Distributive aggregates make increments cheap:

1. build the *delta cube* of the new rows on one node with the paper's
   sequential Pipesort (:func:`~repro.baselines.sequential.sequential_cube`)
   — a delta is a few percent of the base, too small to pay for
   Procedure 1's sample sort and merge supersteps;
2. for every view, merge the delta view's sorted run into the base
   view's one globally sorted run with one ``merge_sorted`` + aggregate
   pass.

``refresh_cube`` does this in memory over each view's
:func:`~repro.core.viewdata.global_run` and cuts the merged run back into
the cube's p rank pieces at the old rank-boundary keys; it returns a new
:class:`~repro.core.cube.CubeResult` equivalent to rebuilding from the
concatenated input (tests assert equality).

**The insert-only contract.**  Refresh maintains the distributive
aggregates (SUM, COUNT, MIN, MAX) under *insertions only*: a delta row
combines into an existing partial with one ``combine`` step.  Deletions
and updates would need re-computation of the affected groups, and
AVG-style / holistic aggregates have no combine at all — every refresh
entry point rejects those up front
(:func:`repro.core.aggregate.require_insert_maintainable`) instead of
silently writing wrong totals.  COUNT cubes carry SUM-of-ones measures,
so they compose like SUM.

``refresh_store`` runs the same merge against *persisted* stores: each
delta view's run is folded directly into the mmap'd view columns of a
:class:`~repro.olap.store.CubeStore`, written as a new immutable
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

from repro.baselines.sequential import sequential_cube
from repro.config import CubeConfig, MachineSpec, RunResult
from repro.core.aggregate import require_insert_maintainable
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, codec_for_order, global_run
from repro.core.views import View, canonical_view
from repro.olap.index import DEFAULT_STRIDE, FenceIndex
from repro.olap.store import CubeStore, _MANIFEST, _gen_name, _view_stem
from repro.storage.disk import DiskStats
from repro.storage.mmapio import write_npy
from repro.storage.scan import aggregate_sorted_keys, merge_sorted
from repro.storage.sortkernels import sort_pairs
from repro.storage.table import Relation

__all__ = ["refresh_cube", "refresh_store", "RefreshReport"]


def _merged_run(
    old_keys: np.ndarray,
    old_measure: np.ndarray,
    delta_cube: CubeResult,
    view: View,
    order: tuple[int, ...],
    agg: str,
) -> tuple[np.ndarray, np.ndarray]:
    """One view's old run with the delta folded in, sorted in ``order``.

    The one-node delta cube holds the view as one sorted-unique piece,
    used as is when it is already in ``order``.  Otherwise one remap
    (bijective, so the keys stay unique) and one sort bring it there.
    """
    piece = delta_cube.rank_views[0][view]
    dk, dv = piece.keys, piece.measure
    if piece.order != order:
        codec = codec_for_order(piece.order, delta_cube.cardinalities)
        dk, _ = codec.remap(dk, piece.order, order)
        dk, dv = sort_pairs(dk, dv)
    keys, measure = merge_sorted(old_keys, old_measure, dk, dv)
    return aggregate_sorted_keys(keys, measure, agg)


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


def _internal_agg(held: str, config: CubeConfig, what: str) -> str:
    """The aggregate the merge combines with: COUNT cubes carry
    SUM-of-ones (``held == "sum"``), so a COUNT refresh adds partials."""
    internal = "sum" if config.agg == "count" else config.agg
    if internal != held:
        raise ValueError(
            f"{what} carries {held!r} aggregates; refresh config says "
            f"{config.agg!r}"
        )
    return internal


def refresh_cube(
    cube: CubeResult,
    new_rows: Relation,
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
) -> CubeResult:
    """Fold ``new_rows`` into ``cube`` without rebuilding from scratch.

    The cube must be a *full* cube (partial cubes lack the ancestors the
    delta build produces; refresh them by re-running their partial
    build).  Returns a new cube; the input cube is left untouched.  Its
    ``metrics`` are the one-node delta build plus, charged on that clock,
    each view's read of its old and delta rows and write of its merged
    rows.
    """
    config = config or CubeConfig(agg=cube.agg)
    require_insert_maintainable(config.agg, "refresh_cube")
    internal = _internal_agg(cube.agg, config, "cube")
    expected = 2 ** len(cube.cardinalities)
    if cube.view_count != expected:
        raise ValueError(
            "refresh_cube needs a full cube "
            f"({cube.view_count} views != {expected}); rebuild partial "
            "cubes instead"
        )

    if new_rows.nrows == 0:
        # Fast path: nothing to fold in, so no delta build and no merge.
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

    spec = spec or MachineSpec()
    delta = sequential_cube(new_rows, cube.cardinalities, spec, config)
    t0 = time.perf_counter()
    p = len(cube.rank_views)
    rank_views: list[dict[View, ViewData]] = [{} for _ in range(p)]
    io = DiskStats()
    for view in cube.views:
        run = global_run([rv[view] for rv in cube.rank_views])
        old_keys = run.keys
        keys, measure = _merged_run(
            old_keys, run.measure, delta, view, run.order, internal
        )
        io.charge_read(
            old_keys.shape[0] + delta.rank_views[0][view].nrows,
            spec.block_size,
        )
        io.charge_write(keys.shape[0], spec.block_size)
        cuts = _merged_offsets(old_keys, run.offsets, keys, p)
        for rank, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            rank_views[rank][view] = ViewData(
                run.order, keys[lo:hi], measure[lo:hi]
            )
    merge_seconds = io.blocks_total * spec.disk_sec_per_block
    built = delta.metrics
    metrics = replace(
        built,
        simulated_seconds=built.simulated_seconds + merge_seconds,
        host_seconds=built.host_seconds + time.perf_counter() - t0,
        output_rows=sum(d.nrows for rv in rank_views for d in rv.values()),
        view_count=cube.view_count,
        disk_blocks=built.disk_blocks + io.blocks_total,
        disk_blocks_read=built.disk_blocks_read + io.blocks_read,
        phase_seconds={**built.phase_seconds, "refresh-merge": merge_seconds},
    )
    return CubeResult(
        rank_views=rank_views,
        cardinalities=cube.cardinalities,
        metrics=metrics,
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
    views_linked: int           #: views left untouched
    files_linked: int
    files_written: int
    delta_build_seconds: float  #: wall time of the one-node delta build
    merge_seconds: float        #: wall time of the column merges + write
    metrics: RunResult | None = None  #: delta build metering


def refresh_store(
    store_dir: str,
    delta: Relation,
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    gc: bool = False,
) -> RefreshReport:
    """Fold ``delta`` into a persisted cube store as a new generation.

    Builds the delta cube on one node with sequential Pipesort, merges
    each delta view's sorted run directly into the store's mmap'd
    columns (one ``merge_sorted`` + aggregate per view), and writes the
    result as generation N+1 next to the live generation N.  Every delta
    row lands in every view, so a non-empty delta rewrites every view's
    two columns.  The new generation becomes live via an atomic
    ``CURRENT`` pointer swap — readers of generation N are never
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
    # Check the *store's* aggregate before CubeConfig gets a chance to
    # reject it with a generic message — a store whose manifest carries
    # a non-maintainable aggregate must fail with the refresh contract.
    require_insert_maintainable(src.agg, "refresh_store")
    config = config or CubeConfig(agg=src.agg)
    require_insert_maintainable(config.agg, "refresh_store")
    internal = _internal_agg(src.agg, config, "store")
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

    t0 = time.perf_counter()
    delta_cube = sequential_cube(delta, cards, spec, config)
    t1 = time.perf_counter()

    stride = int(manifest.get("fence_stride") or DEFAULT_STRIDE)
    dst_views = os.path.join(tmp_dir, "views")
    os.makedirs(dst_views, exist_ok=True)
    entries = []
    rows_added = 0
    for entry in manifest["views"]:
        view = canonical_view(entry["dims"])
        sv = src.sorted_views[view]
        old_keys = sv._keys.array
        mk, mv = _merged_run(
            old_keys, sv._measure.array, delta_cube, view,
            tuple(entry["order"]), internal,
        )
        stem = os.path.join(dst_views, _view_stem(view))
        write_npy(stem + ".keys.npy", mk)
        write_npy(stem + ".measure.npy", mv)
        entries.append({
            **entry,
            "rows": int(mk.shape[0]),
            "rank_offsets": _merged_offsets(
                old_keys, entry["rank_offsets"], mk, src.p
            ),
            "fence": FenceIndex.build(mk, stride).to_manifest(),
        })
        rows_added += int(mk.shape[0]) - int(old_keys.shape[0])

    new_manifest = {k: v for k, v in manifest.items() if k != "views"}
    new_manifest["views"] = entries
    new_manifest["generation"] = next_gen
    new_manifest["parent"] = cur_gen
    new_manifest["refresh"] = {"delta_rows": int(delta.nrows)}
    with open(os.path.join(tmp_dir, _MANIFEST), "w") as fh:
        json.dump(new_manifest, fh, indent=1)

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
        rows_added=rows_added,
        views_merged=n_views,
        views_linked=0,
        files_linked=0,
        files_written=2 * n_views + 1,
        delta_build_seconds=t1 - t0,
        merge_seconds=time.perf_counter() - t1,
        metrics=delta_cube.metrics,
    )
