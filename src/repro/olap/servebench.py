"""Workload synthesis and open-loop measurement for the serving tier.

Shared by ``benchmarks/bench_serving.py``, ``bench_serving_chaos.py``,
``bench_refresh.py`` and the ``serve-bench`` CLI subcommand.  Four
pieces:

* :func:`synthetic_serving_cube` — a serving-scale cube built directly
  (sorted unique packed keys + codec-remap roll-ups), so a ≥1M-row view
  exists in seconds without running the full construction engine;
* :func:`serving_workload` — a seeded mixed workload of point lookups,
  roll-ups, and slice scans, the three access shapes the index path
  treats differently;
* :func:`integer_delta` — a seeded insert-only delta batch with
  integer-valued measures (float SUMs stay exact);
* one open-loop load driver against a
  :class:`~repro.olap.service.QueryService`: query *i* is submitted at
  ``t0 + i/qps`` whatever the service is doing, latency is measured
  from the *scheduled* arrival to completion (so queueing delay under
  overload is charged, not hidden), and every offered query ends in
  exactly one outcome.  :func:`run_at_rate` (one rung of an offered-QPS
  ladder), :func:`run_with_refresh` (live refresh underneath) and
  :func:`run_chaos` (answers checked against an oracle) are scorers
  over that one outcome list.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.config import RunResult
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View
from repro.olap.query import Query
from repro.olap.service import QueryService
from repro.olap.supervise import PoisonQuery, QueryTimeout, ServiceOverloaded
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import sort_pairs
from repro.storage.table import Relation

__all__ = [
    "integer_delta",
    "latency_percentiles",
    "run_at_rate",
    "run_chaos",
    "run_with_refresh",
    "serving_workload",
    "synthetic_serving_cube",
]


def synthetic_serving_cube(
    n_rows: int,
    cardinalities: Sequence[int],
    p: int = 4,
    seed: int = 0,
) -> CubeResult:
    """A serving-scale cube built arithmetically, not via the engine.

    The base view gets ``n_rows`` sorted *unique* packed keys (random
    gaps over the full key capacity) with random positive measures.
    The other views are every single dimension and every adjacent pair,
    each the exact roll-up of the base (codec remap + sort + aggregate).
    Each view splits contiguously into ``p`` rank pieces, so the store's
    sorted-concatenation invariant holds by construction and query
    answers are identical to what a real build of the same relation
    would serve.
    """
    cards = tuple(int(c) for c in cardinalities)
    d = len(cards)
    base = tuple(range(d))
    capacity = int(np.prod([np.int64(c) for c in cards]))
    if n_rows > capacity:
        raise ValueError(
            f"n_rows {n_rows} exceeds key capacity {capacity}"
        )
    views: list[View] = [base]
    views += [(i,) for i in range(d)]
    views += [(i, i + 1) for i in range(d - 1)]

    rng = np.random.default_rng(seed)
    gap = max(capacity // n_rows, 1)
    gaps = rng.integers(1, gap + 1, size=n_rows, dtype=np.int64)
    base_keys = np.cumsum(gaps) - 1
    base_measure = rng.random(n_rows)

    rank_views: list[dict[View, ViewData]] = [dict() for _ in range(p)]
    total_rows = 0
    codec = codec_for_order(base, cards)
    for view in views:
        if view == base:
            vkeys, vmeasure = base_keys, base_measure
        else:
            keys, _ = codec.remap(base_keys, base, view)
            keys, measure = sort_pairs(keys, base_measure)
            vkeys, vmeasure = aggregate_sorted_keys(keys, measure, "sum")
        n = int(vkeys.shape[0])
        total_rows += n
        cuts = [round(rank * n / p) for rank in range(p + 1)]
        for rank in range(p):
            lo, hi = cuts[rank], cuts[rank + 1]
            rank_views[rank][view] = ViewData(
                view, vkeys[lo:hi], vmeasure[lo:hi]
            )
    metrics = RunResult(
        simulated_seconds=0.0,
        host_seconds=0.0,
        output_rows=total_rows,
        view_count=len(views),
        comm_bytes=0,
        disk_blocks=0,
    )
    return CubeResult(
        rank_views=rank_views,
        cardinalities=cards,
        metrics=metrics,
        agg="sum",
    )


def serving_workload(
    cardinalities: Sequence[int],
    n: int = 256,
    seed: int = 0,
    mix: tuple[float, float, float] = (0.5, 0.3, 0.2),
) -> list[tuple[str, Query]]:
    """A seeded mixed workload: ``(kind, query)`` pairs.

    * ``point`` — every dimension point-filtered, no group-by: one key
      range of at most a fence block on the base view;
    * ``rollup`` — one or two group-by dims, unfiltered: an aggregated
      small view answers it;
    * ``slice`` — a range filter on the base view's leading dimension
      plus a group-by: a contiguous slice of the sorted base.
    """
    cards = tuple(int(c) for c in cardinalities)
    d = len(cards)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(
        ["point", "rollup", "slice"], size=n, p=list(mix)
    )
    out: list[tuple[str, Query]] = []
    for kind in kinds:
        if kind == "point":
            filters = {
                dim: (int(v), int(v))
                for dim, v in enumerate(
                    rng.integers(0, cards, size=d)
                )
            }
            query = Query(group_by=(), filters=filters)
        elif kind == "rollup":
            k = int(rng.integers(1, 3))
            dims = tuple(
                sorted(rng.choice(d, size=k, replace=False).tolist())
            )
            query = Query(group_by=dims)
        else:
            lo = int(rng.integers(0, cards[0] - 1))
            hi = int(rng.integers(lo, cards[0]))
            gdim = int(rng.integers(1, d))
            query = Query(group_by=(gdim,), filters={0: (lo, hi)})
        out.append((str(kind), query))
    return out


def integer_delta(
    rng: np.random.Generator, n_rows: int, cardinalities: Sequence[int]
) -> Relation:
    """``n_rows`` uniform rows over ``cardinalities`` with measures drawn
    from 1..99: integer-valued float64 keeps every SUM exact (< 2^53),
    so refreshed and rebuilt stores can be compared bit for bit.  The
    columns are drawn first, then the measures, all from ``rng``."""
    dims = np.column_stack(
        [
            rng.integers(0, c, size=n_rows, dtype=np.int64)
            for c in cardinalities
        ]
    )
    measure = rng.integers(1, 100, size=n_rows).astype(np.float64)
    return Relation(dims, measure)


def latency_percentiles(samples: Sequence[float]) -> dict[str, float]:
    """p50/p95/p99 of latency samples, in milliseconds."""
    arr = np.asarray(samples, dtype=np.float64) * 1e3
    if arr.size == 0:
        return {"p50_ms": None, "p95_ms": None, "p99_ms": None}
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


#: How long the driver waits for stragglers after the last submission.
DRAIN_S = 120.0
#: How long :func:`run_with_refresh` waits for every worker to rotate
#: onto the final generation before it asks the staleness probe.
ROTATE_S = 30.0


class _Offer(NamedTuple):
    """One offered query: its outcome (``answered``, ``mismatched``,
    ``shed``, ``timeout``, ``poisoned``, ``error`` or ``undrained``),
    its scheduled arrival and its completion (``None`` when shed or
    undrained)."""

    outcome: str
    scheduled: float
    done: float | None


def _same(a: Relation, b: Relation) -> bool:
    return bool(
        np.array_equal(a.dims, b.dims)
        and np.array_equal(a.measure, b.measure)
    )


def _offer_load(
    service: QueryService,
    queries: Sequence[Query],
    offered_qps: float,
    n_queries: int,
    expected: dict | None = None,
    on_tick: Callable[[int], None] | None = None,
) -> tuple[float, float, list[_Offer]]:
    """Offer ``n_queries`` queries (cycling ``queries``) open loop: the
    one load driver the three scorers below share.

    Query *i* is submitted at ``t0 + i/qps`` and never skipped, so
    falling behind shows up as queueing latency, not as a silently
    lowered offered rate.  Between submissions the loop harvests
    finished tickets; after the last one it drains for at most
    :data:`DRAIN_S`.  A ticket that fails ends ``timeout``
    (:class:`~repro.olap.supervise.QueryTimeout`), ``poisoned``
    (:class:`~repro.olap.supervise.PoisonQuery`) or ``error``; a refused
    submission ends ``shed``, an unresolved ticket after the drain
    ``undrained``, and an answer ``mismatched`` when it differs from
    ``expected[query]`` (if given), else ``answered``.

    ``on_tick(submitted)`` runs once per loop pass while submissions
    remain, before the next arrival is due or sent.  Returns ``(t0,
    end, offers)`` with one :class:`_Offer` per offered query.
    """
    interval = 1.0 / float(offered_qps)
    flying: dict[int, tuple[float, Query]] = {}
    offers: list[_Offer] = []

    def harvest() -> None:
        for ticket in service.poll():
            entry = flying.pop(ticket, None)
            if entry is None:
                continue
            scheduled, query = entry
            done = service.completed_at.get(ticket, time.monotonic())
            try:
                got = service.wait(ticket)
            except QueryTimeout:
                outcome = "timeout"
            except PoisonQuery:
                outcome = "poisoned"
            except Exception:  # noqa: BLE001 - scored, not fatal
                outcome = "error"
            else:
                outcome = (
                    "answered"
                    if expected is None or _same(expected[query], got)
                    else "mismatched"
                )
            offers.append(_Offer(outcome, scheduled, done))

    t0 = time.monotonic()
    submitted = 0
    while submitted < n_queries:
        if on_tick is not None:
            on_tick(submitted)
        scheduled = t0 + submitted * interval
        now = time.monotonic()
        if now < scheduled:
            harvest()
            time.sleep(min(scheduled - now, 0.002))
            continue
        query = queries[submitted % len(queries)]
        try:
            flying[service.submit(query)] = (scheduled, query)
        except ServiceOverloaded:
            offers.append(_Offer("shed", scheduled, None))
        submitted += 1
        harvest()
    deadline = time.monotonic() + DRAIN_S
    while flying and time.monotonic() < deadline:
        harvest()
        time.sleep(0.001)
    offers.extend(_Offer("undrained", t, None) for t, _ in flying.values())
    return t0, time.monotonic(), offers


def _answered(offers: Sequence[_Offer]) -> list[_Offer]:
    return [o for o in offers if o.outcome == "answered"]


def _latencies(offers: Sequence[_Offer]) -> dict[str, float]:
    return latency_percentiles([o.done - o.scheduled for o in offers])


def run_at_rate(
    service: QueryService,
    queries: Sequence[Query],
    offered_qps: float,
    duration_s: float,
) -> dict:
    """One rung of the offered-QPS ladder: ``offered_qps`` for
    ``duration_s`` seconds.

    ``achieved_qps`` counts completions over the span from ``t0`` to the
    last completion.  ``errors`` counts every failed ticket that is not
    a deadline miss (``deadline_timeouts``); ``shed`` counts refused
    submissions and ``timed_out`` tickets still unresolved after the
    drain.
    """
    n_offered = max(int(offered_qps * duration_s), 1)
    t0, _, offers = _offer_load(service, queries, offered_qps, n_offered)
    count = Counter(o.outcome for o in offers)
    answered = _answered(offers)
    last_done = max((o.done for o in answered), default=t0)
    result = {
        "offered_qps": float(offered_qps),
        "duration_s": float(duration_s),
        "submitted": len(offers),
        "completed": len(answered),
        "errors": count["error"] + count["poisoned"],
        "shed": count["shed"],
        "deadline_timeouts": count["timeout"],
        "timed_out": count["undrained"],
        "achieved_qps": len(answered) / max(last_done - t0, 1e-9),
    }
    result.update(_latencies(answered))
    return result


def run_with_refresh(
    service: QueryService,
    queries: Sequence[Query],
    delta_batches: Sequence[Relation],
    offered_qps: float,
    n_queries: int,
    refresh_every: int,
    probe: Query | None = None,
) -> dict:
    """Serve a workload while the store is refreshed *live* underneath.

    Every ``refresh_every`` submissions the next batch from
    ``delta_batches`` is folded into the store by
    :func:`~repro.olap.refresh.refresh_store` **in a background
    thread** (when the previous one has finished) — queries keep
    flowing while the new generation is built, exactly the deployment
    the non-blocking snapshot swap exists for.  When a refresh
    publishes, the coordinator is told at the next loop pass
    (:meth:`~repro.olap.service.QueryService.check_generation`) so its
    cache keying bumps without waiting out the poll interval; workers
    rotate on their own cadence.

    Scoring: **availability** is the fraction of offered queries
    answered within their deadline (shed, timed-out, and errored
    submissions all count against it), with latency percentiles
    reported both overall and restricted to queries whose lifetime
    overlapped a refresh window — the p99-during-refresh number that
    shows whether a swap ever blocks readers.

    ``probe``, when given, is the staleness sentinel: it is answered
    (and cached) *before* the first refresh, then re-answered after the
    final refresh once every live worker has rotated, and compared
    bit-for-bit against an inline engine opened fresh on the final
    generation.  A stale cache hit or a worker stuck on an old
    generation makes ``probe_fresh`` false.
    """
    from repro.olap.refresh import refresh_store
    from repro.olap.store import CubeStore

    if refresh_every < 1:
        raise ValueError(
            f"refresh_every must be >= 1, got {refresh_every}"
        )
    windows: list[tuple[float, float]] = []
    window_lock = threading.Lock()
    reports: list = []
    refresh_failures: list[str] = []
    published = threading.Event()
    generation_start = service.check_generation()

    def refresh(delta: Relation) -> None:
        start = time.monotonic()
        try:
            reports.append(refresh_store(service.store_path, delta))
        except Exception as exc:  # noqa: BLE001 - scored, not fatal
            refresh_failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            with window_lock:
                windows.append((start, time.monotonic()))
            published.set()

    refresher: threading.Thread | None = None
    started = 0

    def refresh_lane(submitted: int) -> None:
        nonlocal refresher, started
        if published.is_set():
            published.clear()
            service.check_generation()
        if (
            submitted >= refresh_every * (started + 1)
            and started < len(delta_batches)
            and (refresher is None or not refresher.is_alive())
        ):
            refresher = threading.Thread(
                target=refresh, args=(delta_batches[started],), daemon=True
            )
            refresher.start()
            started += 1

    probe_before = None
    if probe is not None:
        try:
            probe_before = service.answer(probe)
            service.answer(probe)  # second hit seeds/exercises the cache
        except Exception:  # pragma: no cover - probe best-effort
            probe_before = None

    _, _, offers = _offer_load(
        service, queries, offered_qps, n_queries, on_tick=refresh_lane
    )
    if refresher is not None:
        refresher.join(DRAIN_S)

    # Force the final generation pickup, then wait for every advertised
    # worker slot to rotate up before judging freshness.
    generation_end = service.check_generation()
    rotate_deadline = time.monotonic() + ROTATE_S
    while time.monotonic() < rotate_deadline:
        gens = [
            g
            for g in service.stats()["worker_store_generations"]
            if g >= 0
        ]
        if gens and min(gens) >= generation_end:
            break
        service.poll()
        time.sleep(0.01)
    probe_fresh = None
    if probe is not None and probe_before is not None:
        want = CubeStore.open(service.store_path).query_engine().answer(probe)
        try:
            probe_fresh = _same(want, service.answer(probe))
        except Exception:  # pragma: no cover - probe best-effort
            probe_fresh = False

    count = Counter(o.outcome for o in offers)
    answered = _answered(offers)
    in_window = [
        o
        for o in answered
        if any(o.scheduled <= e and s <= o.done for s, e in windows)
    ]
    result = {
        "offered": len(offers),
        "completed": len(answered),
        "errors": count["error"] + count["poisoned"],
        "shed": count["shed"],
        "deadline_timeouts": count["timeout"],
        "undrained": count["undrained"],
        "availability": len(answered) / max(len(offers), 1),
        "refreshes": len(reports),
        "refresh_failures": refresh_failures,
        "refresh_seconds": [round(e - s, 4) for s, e in windows],
        "rows_refreshed": int(sum(r.delta_rows for r in reports)),
        "generation_start": generation_start,
        "generation_end": generation_end,
        "probe_fresh": probe_fresh,
    }
    result.update(_latencies(answered))
    window_stats = {"completed": len(in_window)}
    window_stats.update(_latencies(in_window))
    result["refresh_window"] = window_stats
    return result


def run_chaos(
    service: QueryService,
    queries: Sequence[Query],
    expected: dict,
    offered_qps: float,
    n_queries: int,
) -> dict:
    """Drive a seeded workload against a (fault-injected) service and
    score **availability**: the fraction of offered queries answered
    *correctly* within their deadline.

    Every harvested result is compared bit-for-bit against ``expected``
    (the inline :class:`~repro.olap.query.QueryEngine` answers for the
    same queries), so a retry that silently returned wrong bytes counts
    against availability, not for it.  Shed submissions, deadline
    misses, and errors are all unavailability — the denominator is
    everything offered.
    """
    t0, end, offers = _offer_load(
        service, queries, offered_qps, n_queries, expected=expected
    )
    count = Counter(o.outcome for o in offers)
    answered = _answered(offers)
    result = {
        "offered": len(offers),
        "correct_within_deadline": len(answered),
        "mismatched": count["mismatched"],
        "errors": count["error"],
        "shed": count["shed"],
        "deadline_timeouts": count["timeout"],
        "poisoned": count["poisoned"],
        "undrained": count["undrained"],
        "availability": len(answered) / max(len(offers), 1),
        "wall_seconds": round(end - t0, 3),
    }
    result.update(_latencies(answered))
    return result
