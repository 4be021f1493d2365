"""Workload synthesis and closed-loop measurement for the serving tier.

Shared by ``benchmarks/bench_serving.py`` and the ``serve-bench`` CLI
subcommand.  Three pieces:

* :func:`synthetic_serving_cube` — a serving-scale cube built directly
  (sorted unique packed keys + codec-remap roll-ups), so a ≥1M-row view
  exists in seconds without running the full construction engine;
* :func:`serving_workload` — a seeded mixed workload of point lookups,
  roll-ups, and slice scans, the three access shapes the index path
  treats differently;
* :func:`run_at_rate` — one rung of a closed-loop offered-QPS ladder
  against a :class:`~repro.olap.service.QueryService`: queries are
  submitted on a fixed arrival schedule, latency is measured from the
  *scheduled* arrival to completion (so queueing delay under overload
  is charged, not hidden), and the rung reports achieved QPS plus
  p50/p95/p99.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.config import RunResult
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view
from repro.olap.query import Query
from repro.olap.service import QueryService
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import sort_pairs

__all__ = [
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
    views: Sequence[View] | None = None,
) -> CubeResult:
    """A serving-scale cube built arithmetically, not via the engine.

    The base view gets ``n_rows`` sorted *unique* packed keys (random
    gaps over the full key capacity) with random positive measures;
    every other view is the exact roll-up of the base (codec remap +
    sort + aggregate).  Each view splits contiguously into ``p`` rank
    pieces, so the store's sorted-concatenation invariant holds by
    construction and query answers are identical to what a real build
    of the same relation would serve.
    """
    cards = tuple(int(c) for c in cardinalities)
    d = len(cards)
    base = tuple(range(d))
    capacity = int(np.prod([np.int64(c) for c in cards]))
    if n_rows > capacity:
        raise ValueError(
            f"n_rows {n_rows} exceeds key capacity {capacity}"
        )
    if views is None:
        views = [base]
        views += [(i,) for i in range(d)]
        views += [(i, i + 1) for i in range(d - 1)]
    views = [canonical_view(v) for v in views]

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


def run_at_rate(
    service: QueryService,
    queries: Sequence[Query],
    offered_qps: float,
    duration_s: float,
    drain_timeout_s: float = 60.0,
) -> dict:
    """Drive one rung of the offered-QPS ladder (closed loop).

    Submissions follow the fixed arrival schedule ``t0 + i/qps`` (we
    never skip an arrival, so falling behind shows up as queueing
    latency, not as a silently lowered offered rate).  Latency is
    scheduled-arrival → completion.  ``achieved_qps`` counts completions
    over the span from ``t0`` to the last completion.

    Failure outcomes are split the way the supervised service splits
    them: ``shed`` counts submissions refused by load shedding
    (:class:`~repro.olap.supervise.ServiceOverloaded` — an arrival was
    offered but never enqueued), ``deadline_timeouts`` counts tickets
    failed with :class:`~repro.olap.supervise.QueryTimeout`, and
    ``errors`` everything else.
    """
    from repro.olap.supervise import QueryTimeout, ServiceOverloaded

    n_offered = max(int(offered_qps * duration_s), 1)
    interval = 1.0 / float(offered_qps)
    tickets: dict[int, float] = {}
    latencies: list[float] = []
    errors = 0
    shed = 0
    deadline_timeouts = 0
    last_done = t0 = time.monotonic()

    def harvest() -> None:
        nonlocal errors, deadline_timeouts, last_done
        for ticket in service.poll():
            sched = tickets.pop(ticket, None)
            if sched is None:
                continue
            done = service.completed_at.get(ticket, time.monotonic())
            try:
                service.wait(ticket)
            except QueryTimeout:
                deadline_timeouts += 1
                continue
            except Exception:
                errors += 1
                continue
            latencies.append(done - sched)
            last_done = max(last_done, done)

    submitted = 0
    while submitted < n_offered:
        sched = t0 + submitted * interval
        now = time.monotonic()
        if now < sched:
            harvest()
            time.sleep(min(sched - now, 0.002))
            continue
        query = queries[submitted % len(queries)]
        try:
            tickets[service.submit(query)] = sched
        except ServiceOverloaded:
            shed += 1
        submitted += 1
        harvest()
    deadline = time.monotonic() + drain_timeout_s
    while tickets and time.monotonic() < deadline:
        harvest()
        time.sleep(0.001)
    span = max(last_done - t0, 1e-9)
    completed = len(latencies)
    result = {
        "offered_qps": float(offered_qps),
        "duration_s": float(duration_s),
        "submitted": submitted,
        "completed": completed,
        "errors": errors,
        "shed": shed,
        "deadline_timeouts": deadline_timeouts,
        "timed_out": len(tickets),
        "achieved_qps": completed / span,
    }
    result.update(latency_percentiles(latencies))
    return result


def run_with_refresh(
    service: QueryService,
    queries: Sequence[Query],
    delta_batches: Sequence,
    offered_qps: float,
    n_queries: int,
    refresh_every: int,
    probe: Query | None = None,
    spec=None,
    config=None,
    drain_timeout_s: float = 120.0,
    rotate_timeout_s: float = 30.0,
) -> dict:
    """Serve a workload while the store is refreshed *live* underneath.

    Every ``refresh_every`` submissions the next batch from
    ``delta_batches`` is folded into the store by
    :func:`~repro.olap.refresh.refresh_store` **in a background
    thread** — queries keep flowing while the new generation is built,
    exactly the deployment the non-blocking snapshot swap exists for.
    When a refresh publishes, the coordinator is told immediately
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
    import threading

    from repro.olap.supervise import QueryTimeout, ServiceOverloaded

    if refresh_every < 1:
        raise ValueError(
            f"refresh_every must be >= 1, got {refresh_every}"
        )
    interval = 1.0 / float(offered_qps)
    tickets: dict[int, float] = {}
    completions: list[tuple[float, float]] = []  # (scheduled, done)
    errors = shed = deadline_timeouts = 0
    windows: list[tuple[float, float]] = []
    window_lock = threading.Lock()
    reports: list = []
    refresh_failures: list[str] = []
    bump_pending = threading.Event()
    generation_start = service.check_generation()

    def _refresh(delta) -> None:
        from repro.olap.refresh import refresh_store

        start = time.monotonic()
        try:
            reports.append(
                refresh_store(
                    service.store_path, delta, spec=spec, config=config
                )
            )
        except Exception as exc:  # noqa: BLE001 - scored, not fatal
            refresh_failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            with window_lock:
                windows.append((start, time.monotonic()))
            bump_pending.set()

    def harvest() -> None:
        nonlocal errors, deadline_timeouts
        for ticket in service.poll():
            sched = tickets.pop(ticket, None)
            if sched is None:
                continue
            done = service.completed_at.get(ticket, time.monotonic())
            try:
                service.wait(ticket)
            except QueryTimeout:
                deadline_timeouts += 1
                continue
            except Exception:
                errors += 1
                continue
            completions.append((sched, done))

    probe_before = None
    if probe is not None:
        try:
            probe_before = service.answer(probe)
            service.answer(probe)  # second hit seeds/exercises the cache
        except Exception:  # pragma: no cover - probe best-effort
            probe_before = None

    refresh_thread: threading.Thread | None = None
    next_batch = 0
    next_refresh_at = refresh_every
    submitted = 0
    t0 = time.monotonic()
    while submitted < n_queries:
        if bump_pending.is_set():
            bump_pending.clear()
            service.check_generation()
        if (
            submitted >= next_refresh_at
            and next_batch < len(delta_batches)
            and (refresh_thread is None or not refresh_thread.is_alive())
        ):
            refresh_thread = threading.Thread(
                target=_refresh,
                args=(delta_batches[next_batch],),
                daemon=True,
            )
            refresh_thread.start()
            next_batch += 1
            next_refresh_at += refresh_every
        sched = t0 + submitted * interval
        now = time.monotonic()
        if now < sched:
            harvest()
            time.sleep(min(sched - now, 0.002))
            continue
        query = queries[submitted % len(queries)]
        try:
            tickets[service.submit(query)] = sched
        except ServiceOverloaded:
            shed += 1
        submitted += 1
        harvest()
    if refresh_thread is not None:
        refresh_thread.join(drain_timeout_s)
    if bump_pending.is_set():
        bump_pending.clear()
    drain_deadline = time.monotonic() + drain_timeout_s
    while tickets and time.monotonic() < drain_deadline:
        harvest()
        time.sleep(0.001)

    # Force the final generation pickup, then wait for every advertised
    # worker slot to rotate up before judging freshness.
    generation_end = service.check_generation()
    rotate_deadline = time.monotonic() + rotate_timeout_s
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
        from repro.olap.store import CubeStore

        want = (
            CubeStore.open(service.store_path)
            .query_engine(index=service.index)
            .answer(probe)
        )
        try:
            got = service.answer(probe)
            probe_fresh = bool(
                np.array_equal(want.dims, got.dims)
                and np.array_equal(want.measure, got.measure)
            )
        except Exception:  # pragma: no cover - probe best-effort
            probe_fresh = False

    overall = [done - sched for sched, done in completions]
    in_window = [
        done - sched
        for sched, done in completions
        if any(sched <= e and s <= done for s, e in windows)
    ]
    result = {
        "offered": submitted,
        "completed": len(completions),
        "errors": errors,
        "shed": shed,
        "deadline_timeouts": deadline_timeouts,
        "undrained": len(tickets),
        "availability": len(completions) / max(submitted, 1),
        "refreshes": len(reports),
        "refresh_failures": refresh_failures,
        "refresh_seconds": [round(e - s, 4) for s, e in windows],
        "rows_refreshed": int(sum(r.delta_rows for r in reports)),
        "generation_start": generation_start,
        "generation_end": generation_end,
        "probe_fresh": probe_fresh,
    }
    result.update(latency_percentiles(overall))
    window_stats = {"completed": len(in_window)}
    window_stats.update(latency_percentiles(in_window))
    result["refresh_window"] = window_stats
    return result


def run_chaos(
    service: QueryService,
    queries: Sequence[Query],
    expected: dict,
    offered_qps: float,
    n_queries: int,
    drain_timeout_s: float = 120.0,
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
    from repro.olap.supervise import (
        PoisonQuery,
        QueryTimeout,
        ServiceOverloaded,
    )

    interval = 1.0 / float(offered_qps)
    tickets: dict[int, tuple[float, Query]] = {}
    latencies: list[float] = []
    correct = mismatched = errors = shed = 0
    deadline_timeouts = poisoned = 0
    t0 = time.monotonic()

    def harvest() -> None:
        nonlocal correct, mismatched, errors, deadline_timeouts, poisoned
        for ticket in service.poll():
            entry = tickets.pop(ticket, None)
            if entry is None:
                continue
            sched, query = entry
            done = service.completed_at.get(ticket, time.monotonic())
            try:
                got = service.wait(ticket)
            except QueryTimeout:
                deadline_timeouts += 1
                continue
            except PoisonQuery:
                poisoned += 1
                continue
            except Exception:
                errors += 1
                continue
            want = expected[query]
            if np.array_equal(want.dims, got.dims) and np.array_equal(
                want.measure, got.measure
            ):
                correct += 1
                latencies.append(done - sched)
            else:
                mismatched += 1

    submitted = 0
    while submitted < n_queries:
        sched = t0 + submitted * interval
        now = time.monotonic()
        if now < sched:
            harvest()
            time.sleep(min(sched - now, 0.002))
            continue
        query = queries[submitted % len(queries)]
        try:
            tickets[service.submit(query)] = (sched, query)
        except ServiceOverloaded:
            shed += 1
        submitted += 1
        harvest()
    drain_deadline = time.monotonic() + drain_timeout_s
    while tickets and time.monotonic() < drain_deadline:
        harvest()
        time.sleep(0.001)
    wall_s = time.monotonic() - t0
    result = {
        "offered": submitted,
        "correct_within_deadline": correct,
        "mismatched": mismatched,
        "errors": errors,
        "shed": shed,
        "deadline_timeouts": deadline_timeouts,
        "poisoned": poisoned,
        "undrained": len(tickets),
        "availability": correct / max(submitted, 1),
        "wall_seconds": round(wall_s, 3),
    }
    result.update(latency_percentiles(latencies))
    return result
