"""Procedure 2: Adaptive-Sample-Sort.

Parallel sort by regular sampling (Li et al. [14]) with the paper's
adaptive twist: after the single h-relation that redistributes data by
global pivots, the per-rank sizes are inspected and a second "global
shift" h-relation is performed **only** when the relative imbalance

    I(y0..yp-1) = max((ymax - yavg)/yavg, (yavg - ymin)/yavg)

exceeds the threshold ``γ`` (1% during data partitioning, 3% inside the
merge's case-3 re-sorts).

Rows here are ``(key, measure)`` pairs with packed int64 keys; keys are
**not** required to be unique.  Bucketing uses ``searchsorted(...,
side="right")``, so every rank maps a given key value to the same bucket —
equal keys never straddle ranks after the first h-relation (the property
that lets the caller fully aggregate locally).  The global shift, when
triggered, splits by *position* instead and may re-split ties; callers that
aggregate afterwards handle boundary duplicates in the merge phase, exactly
as the paper's pipeline does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mpi.comm import Comm
from repro.mpi.speed import HeteroState, RankSpeedModel
from repro.storage.scan import aggregate_sorted_keys, merge_runs
from repro.storage.sortkernels import is_sorted_int64

__all__ = [
    "SortOutcome", "adaptive_sample_sort", "batched_sample_sort",
    "global_shift", "relative_imbalance",
]


def relative_imbalance(
    sizes: np.ndarray, targets: np.ndarray | None = None
) -> float:
    """The paper's ``I(y0..yp-1)``; 0 for an empty or single-rank vector.

    With ``targets`` (non-uniform speed-proportional row goals) the
    measure generalises to ``max_j |y_j - t_j| / yavg`` — identical to the
    paper's formula when every target equals the mean, so the γ contract
    is unchanged for homogeneous runs.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size <= 1:
        return 0.0
    avg = sizes.mean()
    if avg == 0:
        return 0.0
    if targets is None:
        return float(
            max((sizes.max() - avg) / avg, (avg - sizes.min()) / avg)
        )
    t = np.asarray(targets, dtype=np.float64)
    return float(np.abs(sizes - t).max() / avg)


def _select_pivots(
    pool: np.ndarray,
    p: int,
    rho: int,
    shares: np.ndarray | None = None,
) -> np.ndarray:
    """p-1 global pivots at pool ranks ``j·p + rho`` (clamped).

    With ``shares`` (speed-proportional bucket fractions summing to 1)
    the pivots move to the pool's cumulative-share quantiles
    ``⌊cum_j·|pool|⌋ + rho`` instead — which reduces exactly to the
    uniform ``j·p + rho`` when the shares are equal and the pool holds
    the full p² sample.

    An empty pool (every rank empty) degenerates to zero-valued pivots so
    the bucketing step still produces ``p`` (empty) lanes.
    """
    if pool.size == 0:
        return np.zeros(p - 1, dtype=np.int64)
    if shares is None:
        idx = np.arange(1, p, dtype=np.int64) * p + rho
    else:
        cum = np.cumsum(np.asarray(shares, dtype=np.float64))[:-1]
        idx = np.floor(cum * pool.size).astype(np.int64) + rho
    idx = np.clip(idx, 0, pool.size - 1)
    return pool[idx]


def _sorted_run(
    comm: Comm, keys: np.ndarray, measure: np.ndarray, what: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Procedure 2's step 1 when the caller has already sorted: verify
    the run with one early-exit scan (charged as a scan; an unsorted run
    raises naming ``what`` and the rank, it is never silently sorted) and
    read the p local pivots at ranks 0, n/p, ..., (p-1)n/p straight off
    it.  Returns ``(keys, measure, local_pivots)``; nothing is copied."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    measure = np.ascontiguousarray(measure, dtype=np.float64)
    n_local = keys.shape[0]
    comm.disk.work.charge_scan(n_local)
    if keys.shape != measure.shape or not is_sorted_int64(keys):
        raise ValueError(
            f"{what} on rank {comm.rank} is not a key-sorted run with a "
            "parallel measure array"
        )
    if not n_local:
        return keys, measure, keys[:0]
    idx = (np.arange(comm.size, dtype=np.int64) * n_local) // comm.size
    return keys, measure, keys[idx]


@dataclass
class SortOutcome:
    """Result of one Adaptive-Sample-Sort call on one rank."""

    keys: np.ndarray
    measure: np.ndarray
    #: Relative imbalance after the first h-relation.
    imbalance: float
    #: Whether the global shift (second h-relation) ran.
    shifted: bool
    #: The rows of this rank's step-6 input run that stayed on this rank:
    #: the whole run unless the shift ran.
    kept: slice


def adaptive_sample_sort(
    comm: Comm,
    keys: np.ndarray,
    measure: np.ndarray,
    gamma: float,
    pivot_offset: int | None = None,
    hetero: HeteroState | None = None,
) -> SortOutcome:
    """Globally sort the ranks' key-sorted ``(keys, measure)`` runs.

    Every rank passes a run it has already sorted by key (Procedure 1
    sorts and aggregates the local ``Di``-root in step 1a, so Procedure 2
    starts at its step 2) and receives its slice of the global key order;
    slices are contiguous and ascending with rank.  One early-exit scan
    verifies the order — an unsorted run raises ``ValueError`` naming the
    rank, it is never silently sorted — and the clock is charged that
    scan, not a sort.

    Follows Procedure 2 step by step; see the module docstring for the
    duplicate-key bucketing contract.

    ``pivot_offset`` is the ρ of the global-pivot ranks ``j·p + ρ`` in the
    sorted p² sample pool.  ``None`` uses the paper's ``⌊p/2⌋`` (the PSRS
    worst-case-centering choice, right for arbitrary input such as the
    data-partitioning phase).  Pass ``0`` when the input is already nearly
    globally sorted, because the ``⌊p/2⌋`` offset then lands every pivot
    mid-bucket and needlessly moves ~half of all rows between ranks.

    ``hetero`` enables heterogeneity-aware partitioning.  The caller has
    opened the throughput probe in front of the local sort
    (:meth:`~repro.mpi.speed.HeteroState.open_probe`); it is closed here,
    the per-rank samples are allgathered so every rank derives the
    identical updated :class:`~repro.mpi.speed.RankSpeedModel`, and the
    global pivots / balance targets shift to that model's clamped
    speed-proportional shares instead of uniform ``n/p``.
    """
    (outcome,) = _sample_sort(
        comm, [(keys, measure)], gamma, pivot_offset,
        what="adaptive_sample_sort: the input", hetero=hetero,
    )
    return outcome


def batched_sample_sort(
    comm: Comm,
    items: list[tuple[np.ndarray, np.ndarray]],
    gamma: float,
    pivot_offset: int | None = None,
    agg: str | None = None,
    speed: RankSpeedModel | None = None,
) -> list[SortOutcome]:
    """Sample-merge of many independent key-sorted runs in one superstep set.

    Every ``(keys, measure)`` item must already be key-sorted on every
    rank (the merge phase's case-3 pieces are Pipesort output), so
    Procedure 2 starts at step 2: one early-exit scan per item verifies
    the order — an unsorted item raises ``ValueError`` naming it — and the
    p local pivots are read straight off the run.  Nothing is sorted or
    copied and the clock is charged that scan, not a sort.

    Steps 2-6 then run for every item *simultaneously*:
    each item keeps its own pivots, its own imbalance test and its own
    (optional) global shift, but all items share the same five collectives
    — one pivot gather, one pivot broadcast, one data h-relation, one size
    allgather and (when any item needs it) one shift h-relation.  With
    hundreds of case-3 views per merge phase this removes the per-view
    latency that would otherwise dominate the BSP clock, without changing
    what any single view experiences.

    When ``agg`` is given, every item is collapse-aggregated right after
    the local merge, *before* the balance test — the γ contract then
    applies to the stored (post-aggregation) rows, which is what the
    paper's "each view evenly distributed" output condition is about.
    Value-bucketing guarantees each key lives on one rank at that point,
    so the positional shift can never split a group.

    ``speed`` applies an already-published
    :class:`~repro.mpi.speed.RankSpeedModel` to every item's pivots and
    balance targets (no probing here: the batched call rides inside the
    merge phase, whose model was measured during partitioning).
    """
    if not items:
        return []
    return _sample_sort(
        comm, items, gamma, pivot_offset,
        what="batched_sample_sort: item {}", agg=agg, speed=speed,
    )


def _sample_sort(
    comm: Comm,
    items: Sequence[tuple[np.ndarray, np.ndarray]],
    gamma: float,
    pivot_offset: int | None,
    what: str,
    agg: str | None = None,
    speed: RankSpeedModel | None = None,
    hetero: HeteroState | None = None,
) -> list[SortOutcome]:
    """Procedure 2 steps 2-6 over one or more items at once (both public
    calls); ``what.format(item)`` names an unsorted item.  Lists meter as
    the sum of their items, so one item costs what a bare run would."""
    p = comm.size
    n_items = len(items)

    # Step 1 is the caller's: verify each sorted run, read its pivots.
    sorted_items: list[tuple[np.ndarray, np.ndarray]] = []
    pivot_lists: list[np.ndarray] = []
    for item, (keys, measure) in enumerate(items):
        keys, measure, pivots = _sorted_run(
            comm, keys, measure, what.format(item)
        )
        sorted_items.append((keys, measure))
        pivot_lists.append(pivots)
    gathered = comm.gather(pivot_lists, root=0)

    # Throughput probe: the pivot gather's superstep commit has folded
    # the caller's local-sort segment into rank_busy.  One extra cheap
    # allgather publishes every rank's sample; all ranks fold them into
    # the same model, so the pivot targets below agree everywhere without
    # further coordination.
    if hetero is not None:
        speed = hetero.observe(comm.allgather(hetero.close_probe(comm)))
    shares = None if speed is None else np.asarray(speed.shares)

    # Step 2: P0 sorts each item's <= p^2 pivots and picks p-1 regularly
    # spaced global pivots (ranks p + p/2, 2p + p/2, ...), or the clamped
    # speed-share quantiles when a speed model is active; one broadcast.
    rho = p // 2 if pivot_offset is None else int(pivot_offset)
    if comm.rank == 0:
        all_pivots = []
        for item in range(n_items):
            pool = np.sort(
                np.concatenate([ranks[item] for ranks in gathered])
            )
            all_pivots.append(_select_pivots(pool, p, rho, shares))
    else:
        all_pivots = None
    all_pivots = comm.bcast(all_pivots, root=0)

    # Steps 3+4: bucket every item, ship all buckets in one h-relation.
    # side="right" sends a key equal to pivot k into bucket k, identically
    # on every rank.
    lanes: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(p)]
    for (keys, measure), pivots in zip(sorted_items, all_pivots):
        cuts = np.searchsorted(keys, pivots, side="right")
        bounds = np.concatenate(([0], cuts, [keys.shape[0]]))
        for k in range(p):
            lanes[k].append(
                (keys[bounds[k] : bounds[k + 1]],
                 measure[bounds[k] : bounds[k + 1]])
            )
    received = comm.alltoall(lanes)

    # Step 5: per-item local p-way merge; the size allgather that ends
    # it and step 6 are global_shift's.
    merged: list[tuple[np.ndarray, np.ndarray]] = []
    for item in range(n_items):
        pieces = [received[j][item] for j in range(p)]
        comm.disk.work.charge_scan(sum(k.shape[0] for k, _ in pieces))
        keys, measure = merge_runs(pieces)
        if agg is not None:
            keys, measure = aggregate_sorted_keys(keys, measure, agg)
        merged.append((keys, measure))
    return global_shift(comm, merged, gamma, speed)


def global_shift(
    comm: Comm,
    runs: Sequence[tuple[np.ndarray, np.ndarray]],
    gamma: float,
    speed: RankSpeedModel | None = None,
) -> list[SortOutcome]:
    """Procedure 2's step-5 size allgather and step-6 global shift.

    The runs must already be in global order across ranks: every key of
    rank ``j``'s run sorts before every key of rank ``j + 1``'s.  One
    allgather publishes every run's size; each run whose imbalance
    against its targets (``total/p`` each, the remainder on the lowest
    ranks, or ``speed.counts`` under a speed model) exceeds ``γ`` then
    joins one positional-shift h-relation.  Rows occupy global positions
    ``offset_j .. offset_j + y_j`` on rank ``j`` and each goes to the rank
    whose target range holds its position, so the shift never interleaves
    rows: a rank keeps its own slice at home and concatenates what it
    receives in source-rank order, which *is* global order.  Nothing is
    charged here; a caller charges what its copies cost.
    """
    p, rank = comm.size, comm.rank
    sizes = np.array([keys.shape[0] for keys, _ in runs], dtype=np.int64)
    all_sizes = np.vstack(comm.allgather(sizes))  # (p, len(runs))
    outcomes: list[SortOutcome] = []
    lanes: list[list[tuple[np.ndarray, np.ndarray]] | None] = [
        [] for _ in range(p)
    ]
    shifting: list[int] = []
    for item, (keys, measure) in enumerate(runs):
        column = all_sizes[:, item]
        targets = None if speed is None else speed.counts(int(column.sum()))
        imbalance = relative_imbalance(column, targets)
        kept = slice(0, keys.shape[0])
        if imbalance > gamma:
            if targets is None:
                base, rem = divmod(int(column.sum()), p)
                targets = np.full(p, base, dtype=np.int64)
                targets[:rem] += 1
            # Rank k's target positions, relative to this run's first row.
            bounds = np.concatenate(([0], np.cumsum(targets)))
            cuts = np.clip(bounds - int(column[:rank].sum()), 0, keys.shape[0])
            for k in range(p):
                if k != rank:
                    lo, hi = cuts[k], cuts[k + 1]
                    lanes[k].append((keys[lo:hi], measure[lo:hi]))
            kept = slice(int(cuts[rank]), int(cuts[rank + 1]))
            shifting.append(item)
        outcomes.append(
            SortOutcome(keys, measure, imbalance, imbalance > gamma, kept)
        )
    if shifting:
        lanes[rank] = None
        received = comm.alltoall(lanes)
        for slot, item in enumerate(shifting):
            outcome = outcomes[item]
            parts = [
                (outcome.keys[outcome.kept], outcome.measure[outcome.kept])
                if j == rank else received[j][slot]
                for j in range(p)
            ]
            outcome.keys = np.concatenate([keys for keys, _ in parts])
            outcome.measure = np.concatenate([meas for _, meas in parts])
    return outcomes
