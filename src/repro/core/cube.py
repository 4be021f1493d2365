"""Procedure 1: the parallel shared-nothing data cube driver (public API).

:func:`build_data_cube` runs the paper's three-phase algorithm over the
simulated cluster, one ``Di``-partition at a time:

1. **Data partitioning** — each rank sorts and aggregates its local piece
   of the ``Di``-root (from its raw chunk in iteration 0, from its piece of
   the previous partition's merged root view after that), all ranks
   globally sort those runs with Adaptive-Sample-Sort (γ = 1%), then
   re-aggregate locally.
2. **Local partition computation** — rank 0 builds the partition's schedule
   tree from view-size estimates on *its* chunk and broadcasts it (the
   paper's winning *global schedule tree* strategy; pass
   ``CubeConfig(global_schedule_tree=False)`` for the Figure 7 ablation —
   see :mod:`repro.baselines.local_tree` for the matching merge handling);
   every rank then runs Pipesort phase 2 locally.
3. **Merge** — Procedure 3 agglomerates the per-rank pieces of every view
   (see :mod:`repro.core.merge`).

The result leaves every view evenly distributed across the virtual disks,
ready for parallel OLAP scans — and carries the full metering record
(simulated wall-clock, communication volume, disk traffic) that the
benchmark harness turns into the paper's figures.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy, RunResult
from repro.core.aggregate import prepare_measure
from repro.core.checkpoint import RankCheckpoint, ReshardPlan, share_bounds
from repro.core.estimate import estimate_view_sizes
from repro.core.merge import MergeReport, merge_partitions
from repro.core.partial import build_partial_schedule_tree, prune_full_tree
from repro.core.partitions import partition_all, partition_views
from repro.core.pipesort import (
    ScheduleTree,
    build_schedule_tree,
    execute_schedule,
    stays_resident,
)
from repro.core.sample_sort import adaptive_sample_sort
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view, view_name
from repro.mpi.comm import Comm
from repro.mpi.engine import Cluster, ClusterResult
from repro.mpi.errors import MPIError, RankHung, classify_failure
from repro.mpi.shm import release_heap
from repro.mpi.speed import HeteroState, RankSpeedModel
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys, merge_runs
from repro.storage.table import Relation

__all__ = ["CubeResult", "build_data_cube", "build_partial_cube", "split_even"]


# ---------------------------------------------------------------------------
# result type
# ---------------------------------------------------------------------------


@dataclass
class CubeResult:
    """A constructed (full or partial) data cube plus run metering."""

    #: Per-rank view pieces: ``rank_views[j][view]`` is rank ``j``'s slice.
    rank_views: list[dict[View, ViewData]]
    #: Global dimension cardinalities (schedule-tree index space).
    cardinalities: tuple[int, ...]
    #: Run metrics (simulated seconds, traffic, disk blocks, phases).
    metrics: RunResult
    #: Per-partition merge reports from every rank (rank 0's copy).
    merge_reports: list[MergeReport] = field(default_factory=list)
    #: Schedule trees used, one per partition (rank 0's copy).
    schedule_trees: list[ScheduleTree] = field(default_factory=list)
    #: The internal aggregate the stored measures carry ("sum" for COUNT
    #: cubes — see repro.core.aggregate.prepare_measure).
    agg: str = "sum"

    @property
    def views(self) -> list[View]:
        """All materialised view identifiers."""
        return sorted(self.rank_views[0], key=lambda v: (len(v), v))

    @property
    def view_count(self) -> int:
        return len(self.rank_views[0])

    def view_rows(self, view: View) -> int:
        """Total rows of one view across all ranks."""
        view = canonical_view(view)
        return sum(rv[view].nrows for rv in self.rank_views)

    def total_rows(self) -> int:
        """Total cube size in rows (the paper's headline output metric)."""
        return sum(self.view_rows(v) for v in self.rank_views[0])

    def view_relation(self, view: View) -> Relation:
        """Gather one view into a single relation (canonical column order)."""
        view = canonical_view(view)
        parts = [
            rv[view].to_relation(self.cardinalities) for rv in self.rank_views
        ]
        return Relation.concat(parts)

    def distribution(self, view: View) -> np.ndarray:
        """Per-rank row counts of a view (balance inspection)."""
        view = canonical_view(view)
        return np.array([rv[view].nrows for rv in self.rank_views])

    def describe(self) -> str:
        lines = [
            f"data cube: {self.view_count} views, {self.total_rows()} rows, "
            f"p={len(self.rank_views)}",
            f"  simulated time : {self.metrics.simulated_seconds:.2f} s",
            f"  communication  : {self.metrics.comm_bytes / 1e6:.2f} MB",
            f"  disk transfers : {self.metrics.disk_blocks} blocks "
            f"({self.metrics.disk_blocks_read} read + "
            f"{self.metrics.disk_blocks_written} written)",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# data distribution helper
# ---------------------------------------------------------------------------


def split_even(relation: Relation, p: int) -> list[Relation]:
    """Split a relation into ``p`` contiguous chunks of near-equal size
    (the paper's input precondition: n/p records per processor)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = relation.nrows
    base, rem = divmod(n, p)
    chunks = []
    start = 0
    for j in range(p):
        stop = start + base + (1 if j < rem else 0)
        chunks.append(relation.slice(start, stop))
        start = stop
    return chunks


# ---------------------------------------------------------------------------
# the SPMD rank program
# ---------------------------------------------------------------------------


def _rank_program(
    comm: Comm,
    chunks: Sequence[Relation],
    cards: tuple[int, ...],
    config: CubeConfig,
    selected: tuple[View, ...] | None,
    estimate_method: str,
    memory_budget: int,
    checkpoint_root: str | None = None,
    reshard: ReshardPlan | None = None,
    speed_prior: Sequence[float] | None = None,
):
    raw = chunks[comm.rank]
    d = len(cards)
    agg = config.agg
    out_views: dict[View, ViewData] = {}
    reports: list[MergeReport] = []
    trees: list[ScheduleTree] = []
    selected_set = None if selected is None else set(selected)
    prev_root: View | None = None

    # Heterogeneity-aware partitioning: every iteration's sample sort
    # doubles as a throughput probe and refreshes the shared speed model;
    # a prior (from a previous attempt's metering) seeds the first
    # iteration's targets before any fresh measurement exists.
    hetero: HeteroState | None = None
    if config.hetero and comm.size > 1:
        prior = None
        if speed_prior is not None:
            prior = RankSpeedModel.from_rates(
                speed_prior, config.hetero_floor, config.hetero_ceil
            )
        hetero = HeteroState(
            comm.size,
            floor=config.hetero_floor,
            ceil=config.hetero_ceil,
            blend=config.hetero_blend,
            prior=prior,
        )

    # ---- Checkpoint/recovery prologue --------------------------------
    # With checkpointing on, every rank inspects its own chain, then all
    # ranks agree on the last iteration *everyone* completed (min across
    # ranks): iterations up to the resume point replay from local disk
    # with zero collectives, so the superstep schedule stays aligned.
    ckpt: RankCheckpoint | None = None
    resume = -1
    resharded: dict[int, dict] = {}
    if checkpoint_root is not None:
        ckpt = RankCheckpoint(checkpoint_root, comm.rank)
        comm.set_phase("recovery")
        if reshard is None:
            resume = int(comm.allreduce(ckpt.last_complete(), "min"))
        else:
            # Degraded continuation: fold the dead ranks' checkpointed
            # state into this (new-numbering) rank's chain first, then
            # agree on the resume point as usual.
            resume, resharded = _reshard_resume(comm, ckpt, reshard)

    for ordinal, (i, root, pviews) in enumerate(partition_all(d, selected)):
        if ckpt is not None and ordinal <= resume:
            # What the reshard just wrote is still in memory; anything
            # else replays with a real local-disk read, charged so that
            # recovery cost shows up in simulated time.
            payload = resharded.pop(ordinal, None)
            if payload is None:
                payload, rows = ckpt.load(ordinal)
                comm.disk.charge_scan(rows)
                comm.disk.work.charge_scan(rows)
            out_views.update(payload["views"])
            reports.append(payload["report"])
            trees.append(payload["tree"])
            prev_root = root
            continue
        root_order = tuple(range(i, d))

        # ---- Step 1: data partitioning -------------------------------
        comm.set_phase(f"partition-sort[{i}]")
        # Step 1a starts from the previous partition's merged root view
        # (a deviation from the paper, whose step 1a always re-reads the
        # raw subset): this rank's piece of it, leading dims dropped and
        # re-aggregated, is a valid local piece of the Di-root because
        # aggregation is associative, and it is far fewer rows — a few
        # ascending runs, one per value of the dropped dim.  out_views
        # holds exactly the selected views of the iterations done, whether
        # computed or replayed from their seals, so the source depends on
        # the inputs alone: iteration 0, and a partial cube that did not
        # select that root, read the raw chunk on every attempt.
        source = out_views.get(prev_root)
        if hetero is not None:
            hetero.open_probe(comm)  # times step 1a: read, sort, aggregate
        codec = codec_for_order(root_order, cards)
        if source is None:
            keys, measure = codec.pack(raw.dims[:, i:d]), raw.measure
        else:
            # remap() projects the packed keys in pure int64 arithmetic —
            # no (n, d) code materialisation.
            keys, _ = codec_for_order(source.order, cards).remap(
                source.keys, source.order, root_order
            )
            measure = source.measure
        # The merged root piece stays resident into this step by the rule
        # of Pipesort's resident set: the merge has just made it in memory
        # and step 3 has paid its write.  Anything else is read back.
        if source is None or not stays_resident(source.nrows, memory_budget):
            comm.disk.charge_scan(keys.shape[0])  # read the source rows
        comm.disk.work.charge_scan(keys.shape[0])  # pack / project
        keys, measure = external_sort(keys, measure, comm.disk, memory_budget)
        comm.disk.work.charge_scan(keys.shape[0])
        keys, measure = aggregate_sorted_keys(keys, measure, agg)  # 1a
        outcome = adaptive_sample_sort(  # 1b
            comm, keys, measure, config.gamma_partition, hetero=hetero
        )
        comm.disk.work.charge_scan(outcome.keys.shape[0])
        keys, measure = aggregate_sorted_keys(  # 1c
            outcome.keys, outcome.measure, agg
        )
        del outcome
        root_data = ViewData(root_order, keys, measure)
        prev_root = root

        # ---- Step 2: local Di-partition computation -------------------
        comm.set_phase(f"compute[{i}]")
        tree = _build_tree(
            comm, root, root_order, pviews, root_data, cards,
            config, selected_set, estimate_method,
        )
        local = execute_schedule(
            tree, root_data, cards, comm.disk, memory_budget, agg
        )
        if not config.global_schedule_tree and comm.size > 1:
            # Local schedule trees differ per rank, so view pieces land in
            # rank-specific sort orders; the merge needs one common order,
            # which forces a re-sort of every non-conforming view — the
            # exact overhead Figure 7 charges against this strategy.  (A
            # single rank has nothing to merge, hence nothing to re-sort.)
            comm.set_phase(f"resort[{i}]")
            local = {
                v: _to_canonical_order(
                    data, cards, comm.disk, memory_budget
                )
                for v, data in local.items()
            }
            tree = _canonical_tree_stub(root, root_order)

        # ---- Step 3: merge of local Di-partitions ---------------------
        comm.set_phase(f"merge[{i}]")
        wanted = {
            v: data
            for v, data in local.items()
            if selected_set is None or v in selected_set
        }
        # Only the merged views outlive the iteration: the merge consumes
        # `wanted`, so no other name may hold a piece (or the root) here.
        del local, root_data, keys, measure
        merged, report = merge_partitions(
            comm, wanted, tree, config, memory_budget,
            speed=None if hetero is None else hetero.model,
        )
        for v, data in merged.items():
            # Write back what the merge rewrote.  Two pieces are written
            # whole: the root (Pipesort writes only the children it makes)
            # and, sealed in a checkpoint, a self-contained copy of any.
            whole = v == root or ckpt is not None
            comm.disk.charge_store(data.nrows if whole else report.rewritten[v])
            out_views[v] = data
        reports.append(report)
        trees.append(tree)

        if ckpt is not None:
            # The Di iteration is a consistency point: partition sorted,
            # Ti pipes run, Procedure-3 merge done.  Sealing it performs
            # the materialisation charged just above.
            comm.set_phase(f"checkpoint[{i}]")
            ckpt.save(
                ordinal,
                i,
                {"views": merged, "report": report, "tree": tree},
                meters={
                    "disk": comm.disk.stats.snapshot(),
                    "work_seconds": comm.disk.work.seconds,
                    "phase": f"checkpoint[{i}]",
                },
            )

    speed_dict = (
        hetero.model.to_dict()
        if hetero is not None and hetero.model is not None
        else None
    )
    return out_views, reports, trees, speed_dict


# ---------------------------------------------------------------------------
# elastic resume (degraded-mode recovery)
# ---------------------------------------------------------------------------


def _reshard_resume(
    comm: Comm, ckpt: RankCheckpoint, plan: ReshardPlan
) -> tuple[int, dict[int, dict]]:
    """Materialise this rank's resharded checkpoint prefix; return the
    global resume ordinal and the payloads resharded here, by ordinal.

    Every new rank adopts one survivor chain from the failed epoch and a
    contiguous share of each dead rank's chain (the dead node's *disk*
    survived — disk-attached recovery).  The combined payloads are
    re-saved into this epoch's chain, so the next failure (of either
    kind) reshards from *this* epoch without touching the old one, and
    handed to the replay loop, which then need not read them back.
    Idempotent: ordinals already present in the target chain are kept,
    and re-running the prologue reproduces identical payloads (pure
    slicing + deterministic merge).
    """
    own_src = RankCheckpoint(plan.source_root, plan.survivors[comm.rank])
    dead_chains = [RankCheckpoint(plan.source_root, r) for r in plan.dead]
    source_last = min(c.last_complete() for c in (own_src, *dead_chains))
    own_last = ckpt.last_complete()
    resume = int(comm.allreduce(max(own_last, source_last), "min"))
    resharded = {}
    for ordinal in range(own_last + 1, resume + 1):
        resharded[ordinal] = _reshard_iteration(
            comm, ckpt, own_src, dead_chains, plan, ordinal
        )
    return resume, resharded


def _reshard_iteration(
    comm: Comm,
    ckpt: RankCheckpoint,
    own_src: RankCheckpoint,
    dead_chains: list[RankCheckpoint],
    plan: ReshardPlan,
    ordinal: int,
) -> dict:
    """Re-save one iteration: survivor payload + dead-rank shares.

    All reads and the re-save are charged to this rank's disk meter —
    recovering a dead node's state is real I/O, and the simulation pays
    for it.  Reading a dead chain is charged in full (its disk was
    re-attached to this rank for the read), matching the shared-nothing
    model's recovery story.
    """
    payload, rows = own_src.load(ordinal)
    comm.disk.charge_scan(rows)
    comm.disk.work.charge_scan(rows)
    views = dict(payload["views"])
    extra: dict[View, list[ViewData]] = {}
    for chain in dead_chains:
        dead_payload, dead_rows = chain.load(ordinal)
        comm.disk.charge_scan(dead_rows)
        comm.disk.work.charge_scan(dead_rows)
        for v, data in dead_payload["views"].items():
            piece = _share_slice(
                data, comm.rank, plan.new_width, plan.weights
            )
            if piece.nrows:
                extra.setdefault(v, []).append(piece)
    merged = {
        v: _merge_sorted_pieces([data, *extra.get(v, [])])
        for v, data in views.items()
    }
    entry = own_src.entry(ordinal)
    dim = int(entry.get("dim", 0)) if entry else 0
    payload = {**payload, "views": merged}
    comm.disk.charge_store(
        ckpt.save(ordinal, dim, payload, meters={"phase": f"reshard[{dim}]"})
    )
    return payload


def _share_slice(
    data: ViewData,
    index: int,
    parts: int,
    weights: Sequence[float] | None = None,
) -> ViewData:
    """Contiguous share ``index`` of ``parts`` of one sorted piece
    (speed-weighted when the reshard plan carries survivor weights)."""
    lo, hi = share_bounds(data.nrows, parts, index, weights)
    return ViewData(data.order, data.keys[lo:hi], data.measure[lo:hi])


def _merge_sorted_pieces(pieces: list[ViewData]) -> ViewData:
    """Merge sorted, key-disjoint pieces of one view into one sorted piece.

    Pieces of a view held by different ranks after the Procedure-3 merge
    never share a group key (each group lives on exactly one rank), so
    the merge is a pure reorder — no aggregation — and is exact for every
    aggregate function.
    """
    keys, measure = merge_runs([(p.keys, p.measure) for p in pieces])
    return ViewData(pieces[0].order, keys, measure)


def _to_canonical_order(
    data: ViewData,
    cards: tuple[int, ...],
    disk,
    memory_budget: int,
) -> ViewData:
    """Re-sort one view piece into its canonical attribute order.

    Keys stay unique (the piece was already aggregated), so no collapse is
    needed — only a packed-key remap plus the external sort, whose disk
    and CPU cost is precisely the local-tree penalty.  The remap reports
    the shared-prefix length, and the sort is charged per prefix segment
    on that clustering promise; a remap that comes out already sorted is
    one run per segment and pays no sort term.
    """
    canon = data.view
    if tuple(data.order) == canon:
        return data
    codec = codec_for_order(data.order, cards)
    canon_codec = codec_for_order(canon, cards)
    keys, shared = codec.remap(data.keys, tuple(data.order), canon)
    seg_divisor = None
    if 0 < shared < len(canon):
        seg_divisor = int(canon_codec.weights[shared - 1])
    disk.charge_scan(data.nrows)  # read the stored view back
    disk.work.charge_scan(data.nrows)
    keys, measure = external_sort(
        keys, data.measure, disk, memory_budget, seg_divisor=seg_divisor
    )
    disk.charge_store(data.nrows)  # re-write in the common order
    return ViewData(canon, keys, measure)


def _canonical_tree_stub(root: View, root_order: tuple[int, ...]) -> ScheduleTree:
    """Minimal tree carrying only the root order (what the merge reads)."""
    return ScheduleTree(root, root_order)


def _build_tree(
    comm: Comm,
    root: View,
    root_order: tuple[int, ...],
    pviews: Sequence[View],
    root_data: ViewData,
    cards: tuple[int, ...],
    config: CubeConfig,
    selected_set: set[View] | None,
    estimate_method: str,
) -> ScheduleTree:
    """Steps 2a/2b: schedule tree construction and (optional) broadcast."""
    build_locally = (not config.global_schedule_tree) or comm.rank == 0
    tree = None
    if build_locally:
        if selected_set is None:
            estimates = _estimate_sizes(
                root_data, root_order, cards, pviews, comm.size,
                estimate_method,
            )
            tree = build_schedule_tree(pviews, root, estimates, root_order)
        else:
            # Partial cube (Section 3): the scheduler of [4] produces
            # either a subtree of the full-cube Pipesort tree or a tree
            # built directly from the lattice — build both, keep the
            # cheaper under the same cost model.
            d = root[-1] + 1 if root else 0
            full_views = partition_views(root[0], d) if root else [()]
            estimates = _estimate_sizes(
                root_data, root_order, cards, full_views, comm.size,
                estimate_method,
            )
            wanted = [v for v in pviews if v != root]
            direct = build_partial_schedule_tree(
                wanted, root, estimates, root_order
            )
            full_tree = build_schedule_tree(
                full_views, root, estimates, root_order
            )
            pruned = prune_full_tree(full_tree, wanted)
            tree = min(
                (direct, pruned), key=lambda t: t.estimated_cost(estimates)
            )
    if config.global_schedule_tree:
        tree = comm.bcast(tree, root=0)
    return tree


def _estimate_sizes(
    root_data: ViewData,
    root_order: tuple[int, ...],
    cards: tuple[int, ...],
    pviews: Sequence[View],
    p: int,
    method: str,
) -> dict[View, float]:
    """View-size estimates from this rank's root chunk, extrapolated x p."""
    codec = codec_for_order(root_order, cards)
    dims = codec.unpack(root_data.keys)
    offset = root_order[0] if root_order else 0
    local_cards = [cards[i] for i in root_order]
    translated = [tuple(i - offset for i in v) for v in pviews]
    local = estimate_view_sizes(
        dims,
        local_cards,
        translated,
        total_rows=root_data.nrows * p,
        method=method,
    )
    return {
        tuple(i + offset for i in tv): size for tv, size in local.items()
    }


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

# Attempt-index offset for the backup lane of a speculative race: fault
# specs address attempts with ``a<attempt>``, so running the backup this
# far away keeps deterministic plans aimed at the primary retry from
# striking the speculated copy as well.
_SPECULATION_LANE = 1000


def _busy_rates(cluster) -> tuple[float, ...] | None:
    """Per-rank speeds inferred from a failed attempt's busy seconds.

    Uses the equal-work approximation speed ∝ 1/busy — coarse, but the
    value is only ever a *prior* that the clamp bounds and the next
    superstep's fresh measurement blends away.
    """
    busy = np.asarray(cluster.clock.rank_busy, dtype=np.float64)
    pos = busy > 1e-9
    if not pos.any():
        return None
    rates = np.empty_like(busy)
    rates[pos] = 1.0 / busy[pos]
    rates[~pos] = rates[pos].mean()
    return tuple(float(x) for x in rates)


def build_data_cube(
    relation: Relation,
    cardinalities: Sequence[int],
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    selected: Sequence[View] | None = None,
    estimate_method: str = "sample",
    disk_root: str | None = None,
    backend: str | None = None,
    faults=None,
    checkpoint_dir: str | None = None,
    recovery: RecoveryPolicy | None = None,
    audit: bool = False,
) -> CubeResult:
    """Construct the (full or partial) data cube of ``relation`` in parallel.

    Parameters
    ----------
    relation:
        The raw data set ``R`` (dimension codes + one measure column).
        Dimensions must be ordered by non-increasing cardinality, matching
        the paper's convention (the data generator emits this order).
    cardinalities:
        ``|Di|`` per dimension column.
    spec:
        Simulated machine; default :class:`MachineSpec` (p=4).
    config:
        Algorithm knobs (γ thresholds, schedule-tree strategy, aggregate).
    selected:
        Optional subset of views for a partial cube; ``None`` = all ``2^d``.
    estimate_method:
        View-size estimator fed to schedule-tree construction
        (``"sample"``, ``"fm"``, ``"analytic"``, ``"exact"``).
    disk_root:
        Directory for real spill files; ``None`` keeps virtual disks in
        memory (identical accounting).
    backend:
        Execution backend override (``"thread"`` or ``"process"``); ``None``
        keeps ``spec.backend``.  Metering is backend-independent — only
        ``host_seconds`` changes.
    faults:
        Optional :class:`~repro.mpi.faults.FaultPlan` injected into every
        attempt (deterministic crash/corruption/straggler/disk-full).
    checkpoint_dir:
        Directory for per-rank iteration checkpoints.  Each rank persists
        its merged view pieces + meter snapshot after every dimension
        iteration; a recovery attempt resumes from the last iteration all
        ranks completed instead of rebuilding from the raw data.
    recovery:
        :class:`~repro.config.RecoveryPolicy` enabling restart-on-failure.
        ``None`` (default) propagates the first failure unchanged.  The
        failed attempts' committed simulated time / traffic / disk blocks
        are folded into the returned metrics, so recovery cost is honest.
        With ``mode="degrade"`` a *permanent* rank loss (dead worker,
        injected crash) blacklists the rank: its checkpointed state is
        resharded across the survivors and the build continues at width
        p - k (see :class:`~repro.core.checkpoint.ReshardPlan`).
    audit:
        Run the post-build integrity audit (:func:`repro.core.audit.
        audit_cube`) and attach its summary to ``metrics.audit``.

    Returns
    -------
    :class:`CubeResult` — per-rank view pieces plus run metrics.
    """
    spec = spec or MachineSpec()
    if backend is not None:
        spec = spec.with_backend(backend)
    config = config or CubeConfig()
    cards = tuple(int(c) for c in cardinalities)
    if relation.width != len(cards):
        raise ValueError(
            f"relation has {relation.width} dimension columns but "
            f"{len(cards)} cardinalities were given"
        )
    if any(c < 1 for c in cards):
        raise ValueError(f"cardinalities must be >= 1: {cards}")
    if list(cards) != sorted(cards, reverse=True):
        raise ValueError(
            "dimensions must be ordered by non-increasing cardinality "
            f"(got {cards}); reorder the columns first"
        )
    if relation.nrows and relation.dims.size:
        if relation.dims.min() < 0 or (
            relation.dims >= np.asarray(cards)[None, :]
        ).any():
            raise ValueError("dimension codes outside [0, cardinality)")
    if selected is not None:
        selected = tuple(
            sorted({canonical_view(v) for v in selected}, key=lambda v: (len(v), v))
        )
        for v in selected:
            if v and max(v) >= len(cards):
                raise ValueError(f"selected view {view_name(v)} out of range")
        if not selected:
            raise ValueError("selected view set must not be empty")

    relation, internal_agg = prepare_measure(relation, config.agg)
    if internal_agg != config.agg:
        config = replace(config, agg=internal_agg)

    # Recovery loop.  Each attempt is a fresh cluster (fresh clock and
    # meters); a failed attempt's committed simulated time / traffic /
    # blocks are banked as "recovered_*" and folded into the final
    # metrics — the simulation honestly pays for re-execution, exactly as
    # the paper's cluster would.
    #
    # Failure handling splits by taxonomy (see classify_failure):
    # *transient* failures retry at the current width with exponential
    # backoff, *permanent* losses under RecoveryPolicy(mode="degrade")
    # blacklist the culprit rank and continue at reduced width (resharding
    # its checkpointed state across the survivors), and *fatal* ones —
    # operator interrupts first among them — propagate untouched.
    attempt = 0
    transient_streak = 0  # same-width failures since the last width change
    transient_total = 0
    recovered_seconds = 0.0
    recovered_bytes = 0
    recovered_blocks = 0
    recovered_blocks_read = 0
    width = spec.p
    epoch = 0
    ranks_lost: list[int] = []
    run_root = checkpoint_dir
    reshard: ReshardPlan | None = None
    speed_prior: tuple[float, ...] | None = None
    speculations = 0
    speculation_discards = 0

    def _attempt(att_width, att_index, att_root, att_reshard, att_prior):
        """One SPMD execution; returns (cluster, result-or-None, exc)."""
        run_spec = (
            spec if att_width == spec.p else spec.with_processors(att_width)
        )
        chunks = split_even(relation, att_width)
        args = (chunks, cards, config, selected, estimate_method,
                spec.memory_budget, att_root, att_reshard, att_prior)
        cluster = Cluster(
            run_spec, disk_root=disk_root, faults=faults, attempt=att_index
        )
        try:
            return cluster, cluster.run(_rank_program, args), None
        except (KeyboardInterrupt, SystemExit):
            # Operator interrupts are not rank failures: re-raise
            # immediately — never banked, never retried, and never
            # consulted against the recovery policy.
            raise
        except BaseException as e:
            return cluster, None, e

    def _bank(cluster, seconds=None):
        """Fold a failed/cancelled attempt's metering into the totals."""
        nonlocal recovered_seconds, recovered_bytes
        nonlocal recovered_blocks, recovered_blocks_read
        recovered_seconds += (
            cluster.clock.sim_time if seconds is None else seconds
        )
        recovered_bytes += cluster.stats.total_bytes
        recovered_blocks += sum(d.stats.blocks_total for d in cluster.disks)
        recovered_blocks_read += sum(
            d.stats.blocks_read for d in cluster.disks
        )

    while True:
        cluster, result, exc = _attempt(
            width, attempt, run_root, reshard, speed_prior
        )
        if exc is None:
            break
        _bank(cluster)
        attempt += 1
        if recovery is None or not recovery.is_retryable(exc):
            raise exc
        if spec.backend == "process":
            # A crashed attempt can leak shm segments (a SIGKILLed
            # worker never reaches its plane teardown); reclaim them
            # before the retry allocates its arena.
            from repro.mpi import shm

            shm.sweep_orphans()
        kind, culprit = classify_failure(exc)
        # The failed attempt's per-rank busy seconds are a free speed
        # observation (speed ∝ 1/busy under near-equal work): feed them
        # back as the retry's prior, turning the failure signal into a
        # load-balancing input.
        observed = _busy_rates(cluster) if config.hetero else None
        if observed is not None:
            speed_prior = observed
        degrade = (
            recovery.mode == "degrade"
            and culprit is not None
            and 0 <= culprit < width
            and (
                kind == "permanent"
                or transient_streak >= recovery.max_retries
            )
        )
        speculate = (
            recovery.speculate
            and not degrade
            and isinstance(exc, RankHung)
            and culprit is not None
            and 0 <= culprit < width
            and run_root is not None
            and width - 1 >= max(recovery.min_ranks, 1)
        )
        if speculate:
            # Speculative straggler re-execution: race a full-width retry
            # (the straggler may have recovered) against a width-(p-1)
            # continuation that clones the straggler's checkpoint chain
            # onto the survivors.  Both candidates run to completion in
            # the simulation; the smaller simulated finish time wins, and
            # the loser is billed only up to the winner's finish — the
            # moment it would have been cancelled.  Its traffic and disk
            # transfers are banked in full (conservative: they were
            # committed before the cancel).
            speculations += 1
            survivors = [r for r in range(width) if r != culprit]
            spec_target = os.path.join(
                checkpoint_dir, f"epoch{epoch + 1:02d}-spec{attempt:02d}"
            )
            spec_weights = None
            backup_prior = None
            if observed is not None:
                backup = RankSpeedModel.from_rates(
                    observed, config.hetero_floor, config.hetero_ceil
                ).restrict(survivors)
                spec_weights = backup.shares
                backup_prior = backup.speeds
            spec_plan = ReshardPlan.after_loss(
                width, [culprit], run_root, spec_target,
                weights=spec_weights,
            )
            p_cluster, p_result, _p_exc = _attempt(
                width, attempt, run_root, reshard, speed_prior
            )
            # The backup runs in its own attempt lane so deterministic
            # fault plans aimed at the primary retry never strike it.
            b_cluster, b_result, _b_exc = _attempt(
                width - 1, attempt + _SPECULATION_LANE, spec_target,
                spec_plan, backup_prior,
            )
            attempt += 1  # the raced loser (the winner is _assemble's +1)
            if p_result is None and b_result is None:
                _bank(p_cluster)
                _bank(b_cluster)
                attempt += 1
                raise _p_exc
            p_sim = p_cluster.clock.sim_time
            b_sim = b_cluster.clock.sim_time
            # When both complete, keep the full-width result even if the
            # narrower clone's modelled finish is earlier: a recovered
            # rank stays in service for the rest of the run, so
            # decommissioning it to save one superstep's slack would be
            # a net loss.  The clone is the discarded duplicate.
            primary_wins = p_result is not None
            if p_result is not None and b_result is not None:
                # The straggler recovered mid-race: exactly one of the
                # two (bit-identical) results is kept, the duplicate
                # discarded.
                speculation_discards += 1
            loser = b_cluster if primary_wins else p_cluster
            winner_sim = p_sim if primary_wins else b_sim
            _bank(loser, seconds=min(loser.clock.sim_time, winner_sim))
            if primary_wins:
                result = p_result
            else:
                result = b_result
                ranks_lost.append(culprit)
                width -= 1
                epoch += 1
                run_root = spec_target
            recovered_seconds += recovery.backoff_for(
                attempt, seed=spec.seed
            )
            break
        if degrade:
            if width - 1 < max(recovery.min_ranks, 1):
                raise MPIError(
                    f"cannot degrade below min_ranks="
                    f"{recovery.min_ranks}: rank {culprit} lost at "
                    f"width {width}"
                ) from exc
            survivors = [r for r in range(width) if r != culprit]
            if run_root is not None:
                epoch += 1
                target = os.path.join(
                    checkpoint_dir, f"epoch{epoch:02d}"
                )
                weights = None
                if observed is not None:
                    weights = RankSpeedModel.from_rates(
                        observed, config.hetero_floor, config.hetero_ceil
                    ).restrict(survivors).shares
                reshard = ReshardPlan.after_loss(
                    width, [culprit], run_root, target, weights=weights
                )
                run_root = target
            else:
                reshard = None
            if observed is not None:
                speed_prior = tuple(
                    RankSpeedModel.from_rates(
                        observed, config.hetero_floor, config.hetero_ceil
                    ).restrict(survivors).speeds
                )
            ranks_lost.append(culprit)
            width -= 1
            transient_streak = 0  # fresh retry budget at the new width
        else:
            transient_streak += 1
            transient_total += 1
            if transient_streak > recovery.max_retries:
                raise exc
        recovered_seconds += recovery.backoff_for(attempt, seed=spec.seed)
        # Let go of the failed attempt before the retry runs: its
        # traceback pins every rank frame's view pieces, and its cluster
        # the disks and meters, for as long as these names stay bound.
        traceback.clear_frames(exc.__traceback__)
        del cluster, exc
        # Its pages are free now but still the allocator's; hand them
        # back so the retry does not allocate beside them.
        release_heap()
    cube = _assemble(
        result,
        cards,
        config.agg,
        attempts=attempt + 1,
        recovered_seconds=recovered_seconds,
        recovered_bytes=recovered_bytes,
        recovered_blocks=recovered_blocks,
        recovered_blocks_read=recovered_blocks_read,
        final_width=width,
        ranks_lost=ranks_lost,
        transient_retries=transient_total,
        speculations=speculations,
        speculation_discards=speculation_discards,
    )
    if audit:
        from repro.core.audit import audit_cube

        cube.metrics.audit = audit_cube(cube, relation=relation).to_dict()
    return cube


def build_partial_cube(
    relation: Relation,
    cardinalities: Sequence[int],
    selected: Sequence[View],
    spec: MachineSpec | None = None,
    config: CubeConfig | None = None,
    **kwargs,
) -> CubeResult:
    """Convenience wrapper: :func:`build_data_cube` with a selected subset."""
    return build_data_cube(
        relation, cardinalities, spec=spec, config=config,
        selected=selected, **kwargs,
    )


def _assemble(
    cluster: ClusterResult,
    cards: tuple[int, ...],
    agg: str = "sum",
    attempts: int = 1,
    recovered_seconds: float = 0.0,
    recovered_bytes: int = 0,
    recovered_blocks: int = 0,
    recovered_blocks_read: int = 0,
    final_width: int = 0,
    ranks_lost: list[int] | None = None,
    transient_retries: int = 0,
    speculations: int = 0,
    speculation_discards: int = 0,
) -> CubeResult:
    rank_views = [result[0] for result in cluster.rank_results]
    first = cluster.rank_results[0]
    reports = first[1]
    trees = first[2]
    speed_model = first[3] if len(first) > 3 else None
    output_rows = sum(
        data.nrows for rv in rank_views for data in rv.values()
    )
    metrics = RunResult(
        simulated_seconds=cluster.simulated_seconds + recovered_seconds,
        host_seconds=cluster.host_seconds,
        output_rows=output_rows,
        view_count=len(rank_views[0]),
        comm_bytes=cluster.stats.total_bytes + recovered_bytes,
        disk_blocks=cluster.total_disk_blocks() + recovered_blocks,
        disk_blocks_read=cluster.total_disk_blocks_read()
        + recovered_blocks_read,
        phase_seconds=cluster.clock.phase_breakdown(),
        phase_comm_seconds=cluster.clock.phase_comm_breakdown(),
        superstep_log=list(cluster.clock.log),
        attempts=attempts,
        recovered_seconds=recovered_seconds,
        recovered_bytes=recovered_bytes,
        recovered_blocks=recovered_blocks,
        shm_pool=dict(cluster.shm_pool),
        ranks_lost=list(ranks_lost or []),
        final_width=final_width or len(rank_views),
        transient_retries=transient_retries,
        speed_model=speed_model,
        speculations=speculations,
        speculation_discards=speculation_discards,
        rank_busy_seconds=list(cluster.clock.rank_busy),
    )
    return CubeResult(
        rank_views=rank_views,
        cardinalities=cards,
        metrics=metrics,
        merge_reports=reports,
        schedule_trees=trees,
        agg=agg,
    )
