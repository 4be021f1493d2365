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

Around the SPMD program sits the recovery driver: its states pass one
frozen :class:`Attempt` record between them, and :data:`TRANSITIONS`
says which failure moves to which state (DESIGN.md §9.3).
"""

from __future__ import annotations

import os
import traceback
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy, RunResult
from repro.core.aggregate import prepare_measure
from repro.core.checkpoint import (
    RankCheckpoint,
    ReshardPlan,
    hand_over,
    resume_point,
    share_bounds,
)
from repro.core.merge import MergeReport, merge_partitions
from repro.core.partial import partition_schedule_tree
from repro.core.partitions import partition_all
from repro.core.pipesort import (
    ScheduleTree,
    execute_schedule,
    stays_resident,
    to_canonical_order,
)
from repro.core.result import CubeResult
from repro.core.sample_sort import adaptive_sample_sort
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view, view_name
from repro.mpi.comm import Comm
from repro.mpi.engine import Cluster, ClusterResult
from repro.mpi.errors import PERMANENT, MPIError, classify_failure
from repro.mpi.shm import release_heap, sweep_orphans
from repro.mpi.speed import HeteroState, RankSpeedModel
from repro.mpi.stats import throughput_rates
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.table import Relation

__all__ = ["CubeResult", "build_data_cube", "build_partial_cube", "split_even"]


def split_even(relation: Relation, p: int) -> list[Relation]:
    """Split a relation into ``p`` contiguous chunks of near-equal size
    (the paper's input precondition: n/p records per processor)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = relation.nrows
    return [relation.slice(*share_bounds(n, p, j)) for j in range(p)]


# ---------------------------------------------------------------------------
# the SPMD rank program
# ---------------------------------------------------------------------------


def _rank_program(
    comm: Comm, chunks: Sequence[Relation], cards: tuple[int, ...],
    config: CubeConfig, selected: tuple[View, ...] | None,
    estimate_method: str, memory_budget: int,
    checkpoint_root: str | None = None, reshard: ReshardPlan | None = None,
    speed_prior: Sequence[float] | None = None,
):
    """One rank of Procedure 1: every ``Di``-partition in turn, replayed
    from this rank's checkpoint chain up to the agreed resume point and
    computed by steps 1-3 after it."""
    # Heterogeneity-aware partitioning: every iteration's sample sort
    # doubles as a throughput probe and refreshes the shared speed model;
    # a prior (from a previous attempt's metering) seeds the first
    # iteration's targets before any fresh measurement exists.
    hetero = None
    if config.hetero and comm.size > 1:
        hetero = HeteroState(
            comm.size, prior=None if speed_prior is None
            else RankSpeedModel.from_rates(speed_prior),
        )
    ckpt, resume = resume_point(comm, checkpoint_root, reshard)
    selected_set = None if selected is None else set(selected)
    out_views: dict[View, ViewData] = {}
    reports: list[MergeReport] = []
    trees: list[ScheduleTree] = []
    prev_root: View | None = None
    partitions = partition_all(len(cards), selected)
    for ordinal, (i, root, pviews) in enumerate(partitions):
        if ordinal <= resume:
            # Only the root a later step 1a derives from leaves its seal.
            feeds = ordinal == resume and ordinal + 1 < len(partitions)
            payload = _replay(comm, ckpt, ordinal, (root,) if feeds else ())
        else:
            # out_views holds exactly the selected views of the iterations
            # done, computed or replayed, so step 1a's source depends on
            # the inputs alone.
            root_data = _step1(
                comm, chunks[comm.rank], out_views.get(prev_root), i, cards,
                config, memory_budget, hetero,
            )
            tree, wanted, unwritten = _step2(
                comm, pviews, root_data, cards, config, selected_set,
                estimate_method, memory_budget,
            )
            # Only the merged views outlive the iteration: the merge
            # consumes `wanted`, so no other name may hold the root here.
            del root_data
            payload = _step3(
                comm, wanted, unwritten, tree, ordinal, config,
                memory_budget, hetero, ckpt,
            )
        out_views.update(payload["views"])
        reports.append(payload["report"])
        trees.append(payload["tree"])
        prev_root = root
    model = None if hetero is None else hetero.model
    speed = None if model is None else model.to_dict()
    return out_views, reports, trees, speed


def _replay(comm: Comm, ckpt, ordinal: int, read: Sequence[View]) -> dict:
    """One iteration up to the resume point, from this rank's seals: the
    pieces of ``read`` are read and charged to simulated time and every
    other piece stays, for the driver to map
    (:func:`~repro.core.checkpoint.hand_over`)."""
    payload, rows = ckpt.load(ordinal, read)
    comm.disk.charge_scan(rows)
    comm.disk.work.charge_scan(rows)
    return payload


def _step1(
    comm: Comm, raw: Relation, source: ViewData | None, i: int,
    cards: tuple[int, ...], config: CubeConfig, memory_budget: int,
    hetero: HeteroState | None,
) -> ViewData:
    """Step 1, data partitioning: this rank's globally sorted piece of the
    ``Di``-root.  Step 1a starts from ``source``, the previous partition's
    merged root view (a deviation from the paper, whose step 1a always
    re-reads the raw subset): this rank's piece of it, leading dims
    dropped and re-aggregated, is a valid local piece of the ``Di``-root
    because aggregation is associative, and it is far fewer rows.
    Iteration 0, and a partial cube that did not select that root, read
    the raw chunk."""
    d = len(cards)
    root_order = tuple(range(i, d))
    comm.set_phase(f"partition-sort[{i}]")
    if hetero is not None:
        hetero.open_probe(comm)  # times step 1a: read, sort, aggregate
    if source is None:
        keys = codec_for_order(root_order, cards).pack(raw.dims[:, i:d])
        measure = raw.measure
    else:
        # remap() projects the packed keys in pure int64 arithmetic —
        # no (n, d) code materialisation.
        keys, _ = codec_for_order(source.order, cards).remap(
            source.keys, source.order, root_order
        )
        measure = source.measure
    # The merged root piece stays resident into this step by the rule of
    # Pipesort's resident set: the merge has just made it in memory and
    # step 3 has paid its write.  Anything else is read back.
    if source is None or not stays_resident(source.nrows, memory_budget):
        comm.disk.charge_scan(keys.shape[0])  # read the source rows
    comm.disk.work.charge_scan(keys.shape[0])  # pack / project
    keys, measure = external_sort(keys, measure, comm.disk, memory_budget)
    comm.disk.work.charge_scan(keys.shape[0])
    keys, measure = aggregate_sorted_keys(keys, measure, config.agg)  # 1a
    outcome = adaptive_sample_sort(  # 1b
        comm, keys, measure, config.gamma_partition, hetero=hetero
    )
    del keys, measure
    comm.disk.work.charge_scan(outcome.keys.shape[0])
    keys, measure = aggregate_sorted_keys(  # 1c
        outcome.keys, outcome.measure, config.agg
    )
    return ViewData(root_order, keys, measure)


def _step2(
    comm: Comm, pviews: Sequence[View], root_data: ViewData,
    cards: tuple[int, ...], config: CubeConfig,
    selected_set: set[View] | None, estimate_method: str, memory_budget: int,
) -> tuple[ScheduleTree, dict[View, ViewData], set[View]]:
    """Step 2, local ``Di``-partition computation: the schedule tree
    (rank 0's, broadcast, under the global-tree strategy), then Pipesort
    phase 2 on this rank's root piece.  Returns the tree, the pieces of
    the selected views and those of them Pipesort left unwritten; an
    unselected piece it left unwritten is written as it is dropped."""
    root = root_data.order
    comm.set_phase(f"compute[{root[0]}]")
    tree = None
    if not config.global_schedule_tree or comm.rank == 0:
        tree = partition_schedule_tree(
            root_data, cards, pviews, selected_set, comm.size, estimate_method
        )
    if config.global_schedule_tree:
        tree = comm.bcast(tree, root=0)
    local, unwritten = execute_schedule(
        tree, root_data, cards, comm.disk, memory_budget, config.agg
    )
    unwritten = set(unwritten)
    if selected_set is not None:
        for v, data in local.items():
            if v in unwritten and v not in selected_set:
                comm.disk.charge_store(data.nrows)
        unwritten &= selected_set
        local = {v: d for v, d in local.items() if v in selected_set}
    if not config.global_schedule_tree and comm.size > 1:
        # Local schedule trees differ per rank, so view pieces land in
        # rank-specific sort orders; the merge needs one common order,
        # which forces a re-sort of every non-conforming view it merges —
        # the exact overhead Figure 7 charges against this strategy.  (A
        # single rank has nothing to merge, hence nothing to re-sort.)
        comm.set_phase(f"resort[{root[0]}]")
        local = {
            v: to_canonical_order(
                data, cards, comm.disk, memory_budget, v in unwritten
            )
            for v, data in local.items()
        }
        tree = ScheduleTree(root, root)  # the merge reads only the root order
    return tree, local, unwritten


def _step3(
    comm: Comm, wanted: dict[View, ViewData], unwritten: set[View],
    tree: ScheduleTree, ordinal: int, config: CubeConfig,
    memory_budget: int, hetero: HeteroState | None,
    ckpt: RankCheckpoint | None,
) -> dict:
    """Step 3, the merge of the local ``Di``-partitions (Procedure 3), its
    write-back and, with checkpoints, the seal of the iteration."""
    i = tree.root[0]
    comm.set_phase(f"merge[{i}]")
    merged, report = merge_partitions(
        comm, wanted, tree, config, memory_budget,
        speed=None if hetero is None else hetero.model,
    )
    for v, data in merged.items():
        # A piece still in memory is written once, whole: the root
        # (Pipesort writes only the children it makes) and the pieces
        # Pipesort left unwritten.  A piece Pipesort wrote is read back
        # for what the merge takes from it, and gets what it rewrote;
        # a checkpoint's seal is a self-contained copy of every piece.
        stored = v != tree.root and v not in unwritten
        if stored:
            comm.disk.charge_scan(report.read[v])
        whole = not stored or ckpt is not None
        comm.disk.charge_store(data.nrows if whole else report.rewritten[v])
    payload = {"views": merged, "report": report, "tree": tree}
    if ckpt is not None:
        # The Di iteration is a consistency point: partition sorted, Ti
        # pipes run, Procedure-3 merge done.  Sealing it performs the
        # materialisation charged just above.
        comm.set_phase(f"checkpoint[{i}]")
        ckpt.save(ordinal, i, payload)
    return payload


# ---------------------------------------------------------------------------
# the recovery driver and the public entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cost:
    """Committed simulated seconds, traffic and disk blocks of one run,
    or banked over the failed runs."""

    seconds: float = 0.0
    bytes: int = 0
    blocks: int = 0
    blocks_read: int = 0

    @staticmethod
    def of(run: Cluster | ClusterResult) -> "Cost":
        return Cost(
            run.clock.sim_time, run.stats.total_bytes,
            sum(d.stats.blocks_total for d in run.disks),
            sum(d.stats.blocks_read for d in run.disks),
        )

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass(frozen=True)
class Attempt:
    """The only state the driver's states pass on.  ``index`` counts the
    runs banked: the next run's fault-plan attempt, ``attempts`` - 1."""

    width: int
    index: int = 0
    run_root: str | None = None  # checkpoint root the next run resumes from
    reshard: ReshardPlan | None = None
    speed_prior: tuple[float, ...] | None = None
    epoch: int = 0  # degrade events with checkpoints: the epoch directory
    ranks_lost: tuple[int, ...] = ()
    streak: int = 0  # same-width failures since the last width change
    transient_total: int = 0
    banked: Cost = Cost()


@dataclass(frozen=True)
class _Lane:
    """What one run leaves once its cluster is let go: its result or its
    failure, its cost and (hetero builds) the speeds a failure measured."""

    result: ClusterResult | None
    exc: BaseException | None
    cost: Cost
    rates: tuple[float, ...] | None = None


@dataclass(frozen=True)
class _Job:
    """The checked inputs every run of one build shares."""

    relation: Relation
    cards: tuple[int, ...]
    spec: MachineSpec
    config: CubeConfig
    selected: tuple[View, ...] | None
    estimate_method: str
    disk_root: str | None
    faults: object
    checkpoint_dir: str | None
    recovery: RecoveryPolicy | None


def _run(job: _Job, att: Attempt) -> _Lane:
    """State *run*: one SPMD execution on a fresh cluster at the record's
    width, its replayed pieces mapped from their seals.  Operator
    interrupts are no rank failures: they propagate."""
    spec = job.spec
    if att.width != spec.p:
        spec = spec.with_processors(att.width)
    cluster = Cluster(
        spec, disk_root=job.disk_root, faults=job.faults, attempt=att.index
    )
    args = (
        split_even(job.relation, att.width), job.cards, job.config,
        job.selected, job.estimate_method, spec.memory_budget,
        att.run_root, att.reshard, att.speed_prior,
    )
    try:
        result = cluster.run(_rank_program, args)
        # Replayed pieces come back as references into their seals.
        hand_over([views for views, *_ in result.rank_results])
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        cluster.clock.abandon()
        # Per-rank busy seconds are a free speed observation under
        # near-equal work (speed ∝ 1/busy): a prior the clamp bounds and
        # the next fresh measurement blends away.
        busy = cluster.clock.rank_busy
        rates = None
        if job.config.hetero and max(busy) > 1e-9:
            ones = np.ones(len(busy))
            rates = tuple(map(float, throughput_rates(ones, busy, eps=1e-9)))
        return _Lane(None, exc, Cost.of(cluster), rates)
    return _Lane(result, None, Cost.of(result))


def _bank(att: Attempt, cost: Cost) -> Attempt:
    """State *bank*: fold a failed run into the record, so the simulation
    honestly pays for re-execution."""
    return replace(att, index=att.index + 1, banked=att.banked + cost)


def _classify(policy, att: Attempt, exc: BaseException) -> str:
    """The :data:`TRANSITIONS` row of a failed run: the failure taxonomy
    (:func:`~repro.mpi.errors.classify_failure`) under the policy."""
    if policy is None or not policy.is_retryable(exc):
        return "fatal"
    kind, culprit = classify_failure(exc)
    named = culprit is not None and 0 <= culprit < att.width
    room = att.width - 1 >= max(policy.min_ranks, 1)
    exhausted = att.streak >= policy.max_retries
    if policy.mode == "degrade" and named and (kind == PERMANENT or exhausted):
        return "lost" if room else "floor"
    return "exhausted" if exhausted else "transient"


def _fail(job: _Job, att: Attempt, lane: _Lane):
    """Take the transition the table names for a failed, banked run; the
    speeds it measured become the next run's prior."""
    event = _classify(job.recovery, att, lane.exc)
    if lane.rates is not None:
        att = replace(att, speed_prior=lane.rates)
    return TRANSITIONS[event](job, att, lane)


def _reraise(job: _Job, att: Attempt, lane: _Lane):
    raise lane.exc


def _below_floor(job: _Job, att: Attempt, lane: _Lane):
    raise MPIError(
        f"cannot degrade below min_ranks={job.recovery.min_ranks}: rank "
        f"{classify_failure(lane.exc)[1]} lost at width {att.width}"
    ) from lane.exc


def _retry(job: _Job, att: Attempt, lane: _Lane):
    """State *retry*: the same width again."""
    att = replace(
        att, streak=att.streak + 1, transient_total=att.transient_total + 1
    )
    return _relaunch(job, att, lane)


def _degrade(job: _Job, att: Attempt, lane: _Lane):
    """State *degrade*: blacklist the culprit and continue at width - 1, a
    fresh epoch with checkpoints, from scratch without; new retry budget."""
    target = None
    if att.run_root is not None:
        att = replace(att, epoch=att.epoch + 1)
        target = os.path.join(job.checkpoint_dir, f"epoch{att.epoch:02d}")
    att = replace(_without(job, att, lane, target), streak=0)
    return _relaunch(job, att, lane)


def _relaunch(job: _Job, att: Attempt, lane: _Lane):
    """Let go of the failed run, then run the record: the failure's
    traceback pins its rank frames' view pieces and (their functions'
    closures) the cluster, a SIGKILLed worker leaks shm segments, and
    freed pages stay the allocator's until handed back."""
    exc = lane.exc
    while exc is not None:
        traceback.clear_frames(exc.__traceback__)
        exc.__traceback__ = None
        exc = exc.__context__
    if job.spec.backend == "process":
        sweep_orphans()
    release_heap()
    return att, _run(job, att)


def _without(job: _Job, att: Attempt, lane: _Lane, target) -> Attempt:
    """The record of a width-(p-1) continuation without the failed run's
    culprit: with checkpoints, its seals adopted by position into
    ``target``; the survivors' measured speeds become the prior."""
    culprit = classify_failure(lane.exc)[1]
    survivors = [r for r in range(att.width) if r != culprit]
    model = reshard = None
    if lane.rates is not None:
        model = RankSpeedModel.from_rates(lane.rates).restrict(survivors)
    if att.run_root is not None:
        reshard = ReshardPlan.after_loss(
            att.width, [culprit], att.run_root, target
        )
    return replace(
        att, width=att.width - 1, reshard=reshard,
        run_root=None if reshard is None else target,
        speed_prior=None if model is None else model.speeds,
        ranks_lost=att.ranks_lost + (culprit,),
    )


#: The transition table: the row :func:`_classify` names for a failed run
#: (rows in the order it tries them) -> its state (DESIGN.md §9.3).
TRANSITIONS = {
    "fatal": _reraise,  # recovery off, or a programming error
    "floor": _below_floor,  # a loss that would drop under min_ranks
    "lost": _degrade,  # degrade mode: a permanent loss or a repeat offender
    "exhausted": _reraise,  # the same-width streak is past max_retries
    "transient": _retry,  # anything else retryable
}


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
    relation, cardinalities:
        The raw data set ``R`` (dimension codes + one measure column) and
        ``|Di|`` per dimension, ordered by non-increasing cardinality (the
        paper's convention, which the data generator emits).
    spec, config:
        Simulated machine (default :class:`MachineSpec`, p=4) and
        algorithm knobs (γ thresholds, schedule-tree strategy, aggregate).
    selected:
        Optional subset of views for a partial cube; ``None`` = all ``2^d``.
    estimate_method:
        View-size estimator fed to schedule-tree construction
        (``"sample"``, ``"fm"``, ``"analytic"``, ``"exact"``).
    disk_root, backend:
        Directory for real spill files (``None``: in-memory virtual
        disks, identical accounting) and an execution backend override
        (``"thread"`` or ``"process"``; only ``host_seconds`` changes).
    faults:
        Optional :class:`~repro.mpi.faults.FaultPlan` injected into every
        attempt (deterministic crash/corruption/straggler/disk-full).
    checkpoint_dir:
        Directory for per-rank iteration checkpoints: a recovery attempt
        resumes from the last iteration all ranks completed.
    recovery:
        :class:`~repro.config.RecoveryPolicy`; ``None`` propagates the
        first failure.  Which failure retries or degrades to p - k is
        :data:`TRANSITIONS` (DESIGN.md §9.3); failed attempts'
        simulated time, traffic and disk blocks are folded into the
        returned metrics.
    audit:
        Attach :func:`repro.core.audit.audit_cube`'s summary of the result
        to ``metrics.audit``.
    """
    job = _plan(
        relation, cardinalities, spec, config, selected, backend,
        estimate_method=estimate_method, disk_root=disk_root, faults=faults,
        checkpoint_dir=checkpoint_dir, recovery=recovery,
    )
    att = Attempt(width=job.spec.p, run_root=job.checkpoint_dir)
    lane = _run(job, att)
    while lane.exc is not None:
        att, lane = _fail(job, _bank(att, lane.cost), lane)
    cube = _assemble(lane.result, att, job.cards, job.config.agg)
    if audit:
        from repro.core.audit import audit_cube

        cube.metrics.audit = audit_cube(cube, relation=job.relation).to_dict()
    return cube


def build_partial_cube(
    relation: Relation, cardinalities: Sequence[int], selected: Sequence[View],
    spec: MachineSpec | None = None, config: CubeConfig | None = None,
    **kwargs,
) -> CubeResult:
    """Convenience wrapper: :func:`build_data_cube` with a selected subset."""
    return build_data_cube(
        relation, cardinalities, spec=spec, config=config,
        selected=selected, **kwargs,
    )


def _plan(relation, cardinalities, spec, config, selected, backend, **rest):
    """State *plan*: check the inputs and fix what every run shares."""
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
    dims = relation.dims
    if relation.nrows and dims.size and (
        dims.min() < 0 or (dims >= np.asarray(cards)[None, :]).any()
    ):
        raise ValueError("dimension codes outside [0, cardinality)")
    if selected is not None:
        selected = {canonical_view(v) for v in selected}
        selected = tuple(sorted(selected, key=lambda v: (len(v), v)))
        for v in selected:
            if v and max(v) >= len(cards):
                raise ValueError(f"selected view {view_name(v)} out of range")
        if not selected:
            raise ValueError("selected view set must not be empty")
    relation, internal_agg = prepare_measure(relation, config.agg)
    if internal_agg != config.agg:
        config = replace(config, agg=internal_agg)
    return _Job(relation, cards, spec, config, selected, **rest)


def _assemble(
    cluster: ClusterResult, att: Attempt, cards: tuple[int, ...], agg: str
) -> CubeResult:
    """State *done*: the winning run's cube, every banked run folded into
    its metrics."""
    rank_views = [result[0] for result in cluster.rank_results]
    _, reports, trees, speed_model = cluster.rank_results[0]
    banked = att.banked
    metrics = RunResult(
        simulated_seconds=cluster.simulated_seconds + banked.seconds,
        host_seconds=cluster.host_seconds,
        output_rows=sum(d.nrows for rv in rank_views for d in rv.values()),
        view_count=len(rank_views[0]),
        comm_bytes=cluster.stats.total_bytes + banked.bytes,
        disk_blocks=cluster.total_disk_blocks() + banked.blocks,
        disk_blocks_read=cluster.total_disk_blocks_read() + banked.blocks_read,
        phase_seconds=cluster.clock.phase_breakdown(),
        phase_comm_seconds=cluster.clock.phase_comm_breakdown(),
        superstep_log=list(cluster.clock.log),
        attempts=att.index + 1,
        recovered_seconds=banked.seconds,
        recovered_bytes=banked.bytes,
        recovered_blocks=banked.blocks,
        shm_pool=dict(cluster.shm_pool),
        ranks_lost=list(att.ranks_lost),
        final_width=att.width,
        transient_retries=att.transient_total,
        speed_model=speed_model,
        rank_busy_seconds=list(cluster.clock.rank_busy),
    )
    return CubeResult(rank_views, cards, metrics, reports, trees, agg)
