"""Procedure 3: Merge-Partitions.

After phase 2, every rank holds its local piece of every view of the
current ``Di``-partition, all in the same (global-schedule-tree) sort
order.  This module agglomerates the ``p`` pieces of each view so that
every group-by key ends up fully aggregated on exactly one rank, with each
view spread evenly across ranks:

* **Case 1 — prefix views.**  The view's order is a prefix of the global
  sort order, so the pieces are already globally sorted and only keys
  straddling rank boundaries need agglomeration.  The paper exchanges each
  boundary row with the left neighbour; we generalise slightly — a single
  key can span more than two ranks (a rank whose whole piece is one key),
  so first/last boundary rows are gathered at P0 (O(p) data per view), P0
  resolves the straddle chains, and per-rank fix-up instructions are
  scattered back.

* **Case 2 — non-prefix views, balanced.**  Pieces overlap in the view's
  key order.  Each rank broadcasts its last key; key ownership is
  ``owner(K) = min{ j : K <= last_j }`` (ties to the lowest rank, final
  bucket unbounded), which both covers every key exactly once and keeps
  rank slices in ascending key order.  Expected post-routing sizes are
  estimated from the 100·p decimation samples (Section 2.4) — only the
  estimated *counts* travel, never the samples; if the relative imbalance
  is within γ, one h-relation routes the overlap and each rank splices
  what it receives into the tail zone of the slice it already owns.

* **Case 3 — non-prefix views, imbalanced.**  Routing by last-key
  boundaries would leave the distribution lopsided, so the view is
  globally re-sorted with Adaptive-Sample-Sort (γ = 3%) and aggregated.
  The pieces are key-sorted Pipesort output, so Procedure 2 runs from
  step 2 (a sample-*merge*): no rank sorts anything in this phase.

Batching: collectives are shared across all views of the partition — one
boundary gather/scatter covers every case-1 view, one metadata allgather
pair classifies every non-prefix view, one h-relation routes every case-2
view and one batched Adaptive-Sample-Sort re-sorts every case-3 view.
Per-view latency would otherwise dominate the BSP clock at 2^d views; the
per-view semantics (own pivots, own imbalance test, own γ contract) are
unchanged.  The case decision is made identically on every rank from the
same allgathered metadata, keeping ranks in lockstep without an extra
broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import CubeConfig
from repro.core.aggregate import combine_scalar
from repro.core.pipesort import ScheduleTree
from repro.core.sample_sort import batched_sample_sort, relative_imbalance
from repro.mpi.speed import RankSpeedModel
from repro.core.sampling import (
    SAMPLES_PER_RANK, decimation_sample, estimate_range_count,
)
from repro.core.viewdata import ViewData
from repro.core.views import View, is_prefix
from repro.mpi.comm import Comm
from repro.storage.scan import aggregate_sorted_keys, merge_runs, merge_sorted

__all__ = ["MergeReport", "merge_partitions"]


@dataclass
class MergeReport:
    """What happened to each view during one Merge-Partitions call."""

    #: view -> "case1" | "case2" | "case3"
    cases: dict[View, str] = field(default_factory=dict)
    #: view -> estimated post-overlap imbalance (non-prefix views only)
    imbalance: dict[View, float] = field(default_factory=dict)
    #: view -> rows of *this rank's* piece the merge rewrote: the row that
    #: absorbed a straddling group, the spliced zone, the whole piece.
    rewritten: dict[View, int] = field(default_factory=dict)
    #: view -> rows of *this rank's* local piece the merge took in: the
    #: boundary rows of a straddling group, the shipped rows plus the
    #: zone, the whole piece (what a piece on disk is read back for).
    #: Step 3's input for this run only: not sealed, not shipped.
    read: dict[View, int] = field(default_factory=dict)

    def count(self, case: str) -> int:
        return sum(1 for c in self.cases.values() if c == case)

    def __getstate__(self) -> dict:
        # A seal records what the merge made; what it read was charged
        # when it ran, and a replayed iteration reads nothing.
        return {k: v for k, v in self.__dict__.items() if k != "read"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, read={})


def merge_partitions(
    comm: Comm,
    local_views: dict[View, ViewData],
    tree: ScheduleTree,
    config: CubeConfig,
    memory_budget: int,
    speed: "RankSpeedModel | None" = None,
) -> tuple[dict[View, ViewData], MergeReport]:
    """Merge every view's ``p`` local pieces (Procedure 3).

    ``local_views`` holds this rank's pieces keyed by canonical view id;
    all ranks must pass the same key set (same global schedule tree).
    Returns the merged pieces plus a per-view case report.

    The call consumes ``local_views``: every piece leaves the dict, and
    the merge lets go of a case-2 or case-3 piece as soon as that view's
    merged piece exists, so a rank never holds a view's local piece
    beside its merged copy for longer than one splice or one re-sort.
    Case-1 output pieces are zero-copy slices of their inputs.

    ``speed`` — an active :class:`~repro.mpi.speed.RankSpeedModel` —
    makes the case-2/case-3 verdict accept *either* a uniform or a
    speed-proportional layout as balanced (a deliberately skewed
    heterogeneity-aware layout is not misread as imbalance, and a
    uniform layout left by a case-1/case-2 merge is not forced through
    a re-sort just to match the speed targets), and steers the case-3
    re-sort pivots to the clamped speed-proportional shares.
    """
    root_order = tree.nodes[tree.root].order
    merged: dict[View, ViewData] = {}
    report = MergeReport()
    # Identical iteration order on every rank keeps collectives aligned.
    ordered = sorted(local_views, key=lambda v: (-len(v), v))
    prefix = [
        v for v in ordered if is_prefix(local_views[v].order, root_order)
    ]
    prefix_set = set(prefix)
    nonprefix = [v for v in ordered if v not in prefix_set]

    # ---- Case 1 batch ---------------------------------------------------
    fixed = _batch_boundary_merge(
        comm, [local_views.pop(v) for v in prefix], config.agg
    )
    for view, (data, rows, taken) in zip(prefix, fixed):
        merged[view] = data
        report.cases[view] = "case1"
        report.rewritten[view] = rows
        report.read[view] = taken
    if not nonprefix:
        return merged, report

    # ---- Non-prefix metadata: last keys + size estimates ----------------
    p = comm.size
    nv = len(nonprefix)
    capacity = SAMPLES_PER_RANK * p
    my_last = np.array(
        [
            int(local_views[v].keys[-1]) if local_views[v].nrows else -1
            for v in nonprefix
        ],
        dtype=np.int64,
    )
    all_last = np.vstack(comm.allgather(my_last))  # (p, nv)
    # Effective ownership boundaries: prefix maxima of the last keys.
    boundaries = np.maximum.accumulate(all_last, axis=0)[:-1]  # (p-1, nv)

    my_counts = np.zeros((nv, p))
    for idx, view in enumerate(nonprefix):
        data = local_views[view]
        if data.nrows:
            sample = decimation_sample(data.keys, capacity)
            my_counts[idx] = estimate_range_count(
                sample, data.nrows, boundaries[:, idx]
            )
    est = np.sum(comm.allgather(my_counts), axis=0)  # (nv, p)

    case2_idx, case3_idx = [], []
    shares = None if speed is None else np.asarray(speed.shares)
    for idx, view in enumerate(nonprefix):
        imbalance = relative_imbalance(est[idx])
        if shares is not None:
            imbalance = min(
                imbalance,
                relative_imbalance(est[idx], shares * est[idx].sum()),
            )
        report.imbalance[view] = imbalance
        if config.merge_policy == "always_resort":
            resort = True
        elif config.merge_policy == "never_resort":
            resort = False
        else:
            resort = imbalance > config.gamma_merge
        if resort:
            case3_idx.append(idx)
            report.cases[view] = "case3"
        else:
            case2_idx.append(idx)
            report.cases[view] = "case2"

    # ---- Case 2 batch: one routing h-relation ----------------------------
    routed = _batch_route(
        comm,
        [local_views.pop(nonprefix[i]) for i in case2_idx],
        [boundaries[:, i] for i in case2_idx],
        config.agg,
    )
    for idx, (data, rows, taken) in zip(case2_idx, routed):
        merged[nonprefix[idx]] = data
        report.rewritten[nonprefix[idx]] = rows
        report.read[nonprefix[idx]] = taken

    # ---- Case 3 batch: one joint Adaptive-Sample-Sort --------------------
    if case3_idx:
        pieces = [local_views.pop(nonprefix[i]) for i in case3_idx]
        # pivot_offset=0: the pieces are nearly globally sorted already,
        # so alignment-preserving pivots avoid the half-bucket shift of the
        # generic PSRS offset.  agg=...: collapse before the balance test,
        # so γ bounds the *stored* rows of each view and the positional
        # shift can never split a group (see sample_sort module docs).
        outcomes = batched_sample_sort(
            comm, [(piece.keys, piece.measure) for piece in pieces],
            config.gamma_merge, pivot_offset=0, agg=config.agg, speed=speed,
        )
        for idx, piece, outcome in zip(case3_idx, pieces, outcomes):
            view = nonprefix[idx]
            merged[view] = ViewData(piece.order, outcome.keys, outcome.measure)
            report.rewritten[view] = merged[view].nrows
            report.read[view] = piece.nrows
    return merged, report


# ---------------------------------------------------------------------------
# Case 1: prefix views — batched boundary agglomeration
# ---------------------------------------------------------------------------


def _batch_boundary_merge(
    comm: Comm, datas: list[ViewData], agg: str
) -> list[tuple[ViewData, int, int]]:
    """Agglomerate boundary-straddling keys of globally sorted views.

    One gather + one scatter covers all ``datas``; P0 resolves the straddle
    chains of every view independently.  Returns each piece with the rows
    it rewrote: 1 if its last row absorbed a straddling group (dropping a
    first row or a whole piece moves a bound, not data), and the rows a
    straddling group took from it: that last row, a dropped first row or
    the dropped piece.
    """
    if not datas:
        # Every rank must still participate in the two collectives only if
        # any rank has data; the view list is identical across ranks, so an
        # empty list means nobody calls the collectives — stay aligned.
        return []
    summaries = []
    for data in datas:
        n = data.nrows
        if n:
            summaries.append(
                (
                    n,
                    int(data.keys[0]),
                    float(data.measure[0]),
                    int(data.keys[-1]),
                    float(data.measure[-1]),
                )
            )
        else:
            summaries.append((0, 0, 0.0, 0, 0.0))
    gathered = comm.gather(summaries, root=0)

    per_rank_instr = None
    if comm.rank == 0:
        p = comm.size
        per_rank_instr = [[] for _ in range(p)]
        for item in range(len(datas)):
            chain = _resolve_boundary_chains(
                [gathered[j][item] for j in range(p)], agg
            )
            for j in range(p):
                per_rank_instr[j].append(chain[j])
    my_instr = comm.scatter(per_rank_instr, root=0)

    out = []
    for data, (drop_first, drop_all, set_last) in zip(datas, my_instr):
        keys, measure = data.keys, data.measure
        if drop_all:
            keys, measure = keys[:0], measure[:0]
        else:
            if set_last is not None:
                measure = measure.copy()
                measure[-1] = set_last
            if drop_first:
                keys, measure = keys[1:], measure[1:]
        rewritten = int(set_last is not None)
        taken = rewritten + int(drop_first or drop_all)
        out.append((ViewData(data.order, keys, measure), rewritten, taken))
    return out


def _merge_prefix_view(comm: Comm, data: ViewData, agg: str) -> ViewData:
    """Single-view convenience wrapper over the batched boundary merge."""
    return _batch_boundary_merge(comm, [data], agg)[0][0]


def _resolve_boundary_chains(
    summaries: list[tuple[int, int, float, int, float]], agg: str
) -> list[tuple[bool, bool, float | None]]:
    """P0-side chain resolution for one prefix view.

    Each rank reported ``(count, first_key, first_val, last_key,
    last_val)``.  Local pieces have unique keys, so a key can only straddle
    ranks as: last row of some rank, then the *only* row of zero or more
    following ranks, then optionally the first row of one final rank.  The
    lowest rank keeps the fully combined row; the others drop theirs.

    Returns per-rank ``(drop_first, drop_all, set_last)`` instructions.
    """
    p = len(summaries)
    drop_first = [False] * p
    drop_all = [False] * p
    set_last: list[float | None] = [None] * p
    nonempty = [j for j in range(p) if summaries[j][0] > 0]

    idx = 0
    while idx < len(nonempty) - 1:
        j = nonempty[idx]
        _, _, _, last_key, last_val = summaries[j]
        key = last_key
        total = last_val
        group_end = idx  # index (into nonempty) of last rank in the chain
        consumed_end = True  # did the chain fully consume its last rank?
        t = idx + 1
        while t < len(nonempty):
            r = nonempty[t]
            count_r, first_key, first_val, _, _ = summaries[r]
            if first_key != key:
                break
            total = combine_scalar(total, first_val, agg)
            group_end = t
            if count_r == 1:
                drop_all[r] = True
                consumed_end = True
                t += 1
            else:
                drop_first[r] = True
                consumed_end = False
                break
        if group_end == idx:
            idx += 1  # no chain started at this boundary
            continue
        set_last[j] = total
        # A partially consumed chain-end rank can start the next chain with
        # its own last row; a fully consumed one cannot.
        idx = group_end if not consumed_end else group_end + 1
    return list(zip(drop_first, drop_all, set_last))


# ---------------------------------------------------------------------------
# Case 2: batched overlap routing
# ---------------------------------------------------------------------------


def _batch_route(
    comm: Comm,
    datas: list[ViewData | None],
    boundaries: list[np.ndarray],
    agg: str,
) -> list[tuple[ViewData, int, int]]:
    """Splice every case-2 view into its owners' pieces in one h-relation.

    Each lane carries one concatenated key array, one concatenated measure
    array and the per-view row counts, so the payload stays a handful of
    large buffers regardless of how many views are in flight.  The slice a
    rank owns itself never leaves home (the self lane is empty), and only
    the zone at or after the smallest foreign key is merged and collapsed:
    own rows first, then sources by rank.  A piece that receives nothing is
    a slice of its input.  Returns each piece with the rows of that zone,
    and the rows taken from the input: those shipped plus its own rows in
    the zone.

    Takes ``datas`` over: each entry is set to ``None`` once its view's
    spliced piece exists, and with it go the rows it received (a received
    lane is freed with the last view that reads it).
    """
    if not datas:
        return []
    rank = comm.rank
    cuts = [
        np.concatenate(([0], np.searchsorted(d.keys, b, side="right"), [d.nrows]))
        for d, b in zip(datas, boundaries)
    ]

    def lane(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank ``k``'s rows of every view, packed into one lane."""
        keys = [d.keys[c[k] : c[k + 1]] for d, c in zip(datas, cuts)]
        meas = [d.measure[c[k] : c[k + 1]] for d, c in zip(datas, cuts)]
        counts = np.array([len(x) for x in keys], dtype=np.int64)
        return np.concatenate(keys), np.concatenate(meas), counts

    # Per source rank, in rank order: its rows of every view.
    lanes = comm.alltoall(
        [None if k == rank else lane(k) for k in range(comm.size)]
    )
    foreign = [_split_lane(*received) for received in filter(None, lanes)]
    del lanes

    out, scanned = [], 0
    for item, cut in enumerate(cuts):
        zone_keys, zone_meas = merge_runs([source[item] for source in foreign])
        for source in foreign:
            source[item] = None
        data, datas[item] = datas[item], None
        keys = data.keys[cut[rank] : cut[rank + 1]]
        measure = data.measure[cut[rank] : cut[rank + 1]]
        order = data.order
        taken = data.nrows - keys.shape[0]  # shipped
        del data
        if zone_keys.shape[0]:  # the zone takes in own rows from `start` on
            start = np.searchsorted(keys, zone_keys[0], side="left")
            taken += keys.shape[0] - start
            scanned += keys.shape[0] - start + zone_keys.shape[0]
            zone_keys, zone_meas = aggregate_sorted_keys(
                *merge_sorted(keys[start:], measure[start:], zone_keys, zone_meas),
                agg,
            )
            keys = np.concatenate((keys[:start], zone_keys))
            measure = np.concatenate((measure[:start], zone_meas))
        out.append(
            (ViewData(order, keys, measure), zone_keys.shape[0], int(taken))
        )
    comm.disk.work.charge_scan(scanned)
    return out


def _split_lane(
    keys: np.ndarray, measure: np.ndarray, counts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """One received lane cut back into its per-view ``(keys, measure)``."""
    ends = np.cumsum(counts)[:-1]
    return list(zip(np.split(keys, ends), np.split(measure, ends)))
