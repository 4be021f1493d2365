"""The three ``serve_*`` workloads: queries against a ``QueryService``.

One operation is one query, timed from its submission (closed loop) or
from the moment it was due (open loop) to its answer.  The store is a
real ``build_data_cube`` result saved as format 2; one worker serves it,
and this process is both load generator and coordinator.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from collections import defaultdict

from repro import MachineSpec, build_data_cube, generate_dataset
from repro.olap import (
    CubeStore,
    Query,
    QueryService,
    QueryTimeout,
    refresh_store,
)
from repro.storage import Relation

import check
import workloads
from measure import Outcome, call, dir_stats, median, percentile, put, timed

_SETUP_REPS = 5         # timed set-ups, after one untimed
_WAIT_S = 30.0          # no query of these workloads takes a second
_TRACE_BLOCK = 256      # traced runs alternate traced / untraced blocks
_PROBE = Query(())      # the grand total: every delta changes it


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class _Served:
    """One set-up: the input, its saved store and the live service."""

    def __init__(self, workload, seed, scale, workdir, rep, tracer):
        dspec = workloads.dataset_spec(workload, seed, scale, rep)
        spec = workloads.machine_spec(workload)
        self.path = os.path.join(workdir, f"store-{rep}")
        start = time.perf_counter()
        self.relation = call(tracer, "data.generate", generate_dataset, dspec)
        cube = build_data_cube(self.relation, dspec.cardinalities, spec)
        call(tracer, "olap.store_save", CubeStore.save, cube, self.path, format=2)
        service_start = time.perf_counter()
        self.service = QueryService(self.path, workers=1)
        self.probe_before = self.service.answer(_PROBE, timeout=_WAIT_S)
        done = time.perf_counter()
        self.setup_s = done - start
        self.service_start_s = done - service_start
        self.sim_build_s = cube.metrics.simulated_seconds
        self.view_rows = cube.total_rows()
        self.store_bytes = dir_stats(self.path)[0]
        self.spec = spec

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# load generators
# ---------------------------------------------------------------------------


class _Samples:
    """Latencies of the timed queries plus the answers kept for checking."""

    def __init__(self) -> None:
        self.plain: list[float] = []    # untraced latencies, seconds
        self.traced: list[float] = []
        #: kind -> ([untraced latencies], [traced latencies])
        self.by_kind: dict[str, tuple[list, list]] = defaultdict(
            lambda: ([], [])
        )
        #: (kind, query, answer, latency, generations that may have answered)
        self.kept: list[tuple] = []
        self.span_s = 0.0
        self.late: list[float] = []
        self.refresh_window: list[float] = []

    def add(self, kind: str, latency: float, with_trace: bool) -> None:
        (self.traced if with_trace else self.plain).append(latency)
        self.by_kind[kind][with_trace].append(latency)

    def trace_overhead(self) -> float:
        """(traced - untraced) / untraced median latency, per query kind
        (the kinds differ by orders of magnitude), median over kinds."""
        shares = [
            (median(traced) - median(plain)) / median(plain)
            for plain, traced in self.by_kind.values()
            if plain and traced
        ]
        return median(shares)


def _closed_loop(service, stream, seconds, keep_every, block, tally, tracer):
    """One client: the next query is sent when the previous one returns."""
    out = _Samples()
    answer = service.answer
    traced_answer = (
        tracer.wrap("olap.service_roundtrip", answer) if tracer else None
    )
    started = time.perf_counter()
    for i, (kind, query) in enumerate(stream):
        if time.perf_counter() - started >= seconds:
            break
        with_trace = tracer is not None and (i // block) % 2 == 1
        fn = traced_answer if with_trace else answer
        t0 = time.perf_counter()
        try:
            result = fn(query, timeout=_WAIT_S)
        except Exception as exc:  # noqa: BLE001 - a failed query is a result
            tally.record(False, f"{query.describe()}: {type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - t0
        tally.record(True)
        out.add(kind, latency, with_trace)
        if i % keep_every == 0:
            out.kept.append((kind, query, result, latency, (0,)))
    out.span_s = time.perf_counter() - started
    return out


def _refresher_main(conn, store_path: str, p: int) -> None:
    """Child process: run ``refresh_store`` once per delta received."""
    while True:
        msg = conn.recv()
        if msg is None:
            return
        dims, measure = msg
        try:
            start = time.monotonic()
            report = refresh_store(
                store_path, Relation(dims, measure), spec=MachineSpec(p=p)
            )
            end = time.monotonic()
            conn.send(
                {
                    "refresh_s": end - start,
                    "swapped_at": end,
                    "generation": report.generation,
                    "delta_build_s": report.delta_build_seconds,
                    "merge_s": report.merge_seconds,
                    "files_written": report.files_written,
                    "files_linked": report.files_linked,
                    "bytes_written": sum(
                        os.path.getsize(os.path.join(root, name))
                        for root, _, names in os.walk(report.path)
                        for name in names
                        if os.stat(os.path.join(root, name)).st_nlink == 1
                    ),
                }
            )
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send({"error": f"{type(exc).__name__}: {exc}"})


class _Refresher:
    """The refresh child and the refreshes it has run."""

    def __init__(self, store_path: str, p: int):
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_refresher_main, args=(child, store_path, p)
        )
        self.proc.start()
        child.close()
        self.reports: list[dict] = []
        self.windows: list[tuple[float, float]] = []
        self.started_at: float | None = None

    @property
    def busy(self) -> bool:
        return self.started_at is not None

    def start(self, delta) -> None:
        self.started_at = time.monotonic()
        self.conn.send((delta.dims, delta.measure))

    def poll(self) -> dict | None:
        """The finished refresh's report, if one just finished."""
        if not self.busy or not self.conn.poll():
            return None
        report = self.conn.recv()
        self.windows.append((self.started_at, time.monotonic()))
        self.started_at = None
        self.reports.append(report)
        return report

    def close(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(_WAIT_S)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def _open_loop(service, refresher, stream, size, deltas, refs, tally, tracer):
    """Queries submitted on a fixed schedule whatever the service does,
    each timed from the moment it was due; refreshes run beside them.

    Returns ``(samples, rotation seconds)``.
    """
    out = _Samples()
    submit = service.submit
    traced_submit = (
        tracer.wrap("olap.service_submit", submit) if tracer else submit
    )
    rotations: list[float] = []
    rate = size["rate_qps"]
    refresh_at = [
        size["first_refresh_s"] + k * size["refresh_every_s"]
        for k in range(len(deltas))
    ]
    next_refresh = 0
    known_gen = 0
    awaiting_rotation: tuple[int, float] | None = None
    #: ticket -> (stream index, due time, known generation at submission)
    flying: dict[int, tuple[int, float, int]] = {}
    lifetimes: list[tuple[float, float]] = []

    def finish(ticket: int, done: float, result=None, error=None) -> None:
        index, due, gen_lo = flying.pop(ticket)
        kind, query = stream[index]
        if result is None and error is None:
            try:
                result = service.wait(ticket, timeout=_WAIT_S)
            except Exception as exc:  # noqa: BLE001 - a failed query is a result
                error = exc
        if error is not None:
            tally.record(
                False, f"{query.describe()}: {type(error).__name__}: {error}"
            )
            return
        tally.record(True)
        with_trace = tracer is not None and (index // _TRACE_BLOCK) % 2 == 1
        out.add(kind, done - due, with_trace)
        lifetimes.append((due, done))
        if index % 10 == 0:
            # A worker may lag one generation behind CURRENT or be one
            # ahead of what this process has heard about.
            gens = range(max(gen_lo - 1, 0), known_gen + 2)
            out.kept.append((kind, query, result, done - due, gens))

    def rotated() -> bool:
        gen, swapped_at = awaiting_rotation
        if all(g >= gen for g in service.stats()["worker_store_generations"]):
            rotations.append(time.monotonic() - swapped_at)
            return True
        return False

    start = time.monotonic()
    i = 0
    n = len(stream)
    while i < n or flying or refresher.busy:
        now = time.monotonic()
        while i < n and start + i / rate <= now:
            due = start + i / rate
            out.late.append(now - due)
            try:
                fn = traced_submit if (i // _TRACE_BLOCK) % 2 == 1 else submit
                ticket = fn(stream[i][1])
            except Exception as exc:  # noqa: BLE001 - shed counts as failed
                tally.record(False, f"submit: {type(exc).__name__}: {exc}")
            else:
                flying[ticket] = (i, due, known_gen)
            i += 1
            now = time.monotonic()
        for ticket, done in list(service.completed_at.items()):
            if ticket in flying:
                finish(ticket, done)
        report = refresher.poll()
        if report is not None:
            if "error" in report:
                tally.record(False, f"refresh: {report['error']}")
            else:
                tally.record(True)
                known_gen = report["generation"]
                refs.pin(known_gen)
                awaiting_rotation = (known_gen, report["swapped_at"])
        if awaiting_rotation is not None and rotated():
            awaiting_rotation = None
        if (
            next_refresh < len(deltas)
            and not refresher.busy
            and now - start >= refresh_at[next_refresh]
        ):
            refresher.start(deltas[next_refresh])
            next_refresh += 1
        # Block in the service's own event loop until the oldest query
        # resolves or the next one is due, whichever comes first.
        next_due = start + i / rate if i < n else now + 0.002
        budget = min(max(next_due - time.monotonic(), 0.0002), 0.002)
        if not flying:
            time.sleep(budget)
            continue
        oldest = next(iter(flying))
        try:
            result = service.wait(oldest, timeout=budget)
        except QueryTimeout as exc:
            finish(oldest, time.monotonic(), error=exc)
        except TimeoutError:
            pass  # not resolved within the budget; go round again
        except Exception as exc:  # noqa: BLE001 - a failed query is a result
            finish(oldest, time.monotonic(), error=exc)
        else:
            finish(oldest, time.monotonic(), result=result)
    out.span_s = time.monotonic() - start
    for due, done in lifetimes:
        if any(due < end and done > begin for begin, end in refresher.windows):
            out.refresh_window.append(done - due)
    # The last rotation may finish after the last query.
    deadline = time.monotonic() + 5.0
    while awaiting_rotation is not None and time.monotonic() < deadline:
        if rotated():
            awaiting_rotation = None
        else:
            time.sleep(0.01)
    if awaiting_rotation is not None:
        tally.fail("worker never rotated to the last generation")
    return out, rotations


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _refresh_count(size: dict, seconds: float) -> int:
    """Refreshes that can start early enough to finish inside the run."""
    k = 0
    while size["first_refresh_s"] + k * size["refresh_every_s"] <= seconds - 2.5:
        k += 1
    return max(k, 1)


def _verify(samples: _Samples, refs, tally) -> dict[str, float]:
    """Check the kept answers against in-process engines; the same pass
    times the engine alone, its planner, and what it touches."""
    open_s, engine = timed(refs.engine, 0)
    meter = refs.handles[0].meter
    touched_before = meter.snapshot()["rows_touched"]
    engine_s: dict[str, list[float]] = defaultdict(list)
    plan_s: list[float] = []
    overheads: list[float] = []  # service latency minus engine time, per query
    paths: dict[str, int] = defaultdict(int)
    result_rows = 0
    for kind, query, result, latency, gens in samples.kept:
        if tuple(gens) == (0,):
            dt, expect = timed(engine.answer, query)
            engine_s[kind].append(dt)
            overheads.append(latency - dt)
            ok = check.same_answer(result, expect)
            dt, plan = timed(engine.explain, query)
            plan_s.append(dt)
            paths[plan.access_path] += 1
            result_rows += result.nrows
        else:
            ok = refs.matches(query, result, gens)
        if not ok:
            tally.fail(f"{query.describe()}: answer differs from the reference")
    touched = meter.snapshot()["rows_touched"] - touched_before
    layers = {"olap.store_open_s": open_s}
    # Only the closed loops drive the engine by itself (generation 0).
    planned = sum(paths.values())
    if planned:
        layers.update({
            "olap.rows_touched_per_result_row": touched / result_rows,
            "olap.access_index_share": paths["index"] / planned,
            "olap.access_index_sort_share": paths["index+sort"] / planned,
            "olap.access_scan_share": paths["scan"] / planned,
        })
    put(layers, "olap.plan_ms", plan_s, scale=1e3)
    for kind, samples in engine_s.items():
        put(layers, f"olap.engine_{kind}_ms", samples, scale=1e3)
    put(layers, "olap.service_overhead_ms", overheads, scale=1e3)
    return layers


def _service_layers(stats, served, setups, samples) -> dict[str, float]:
    every = samples.plain + samples.traced
    cache = stats["cache"]
    return {
        "olap.service_start_s": median([s[1] for s in setups]),
        "olap.store_bytes": served.store_bytes,
        "olap.store_bytes_per_row": served.store_bytes / served.view_rows,
        "olap.query_p95_ms": percentile(every, 95) * 1e3,
        "olap.query_p99_ms": percentile(every, 99) * 1e3,
        "olap.executed_share": stats["executed"] / stats["submitted"],
        "olap.cache_hit_ratio": cache["hit_rate"],
        "olap.cache_evictions": cache["evictions"],
        "olap.cache_bytes_held": cache["bytes_held"],
        "olap.retries": stats["retries"],
        "olap.shed": stats["shed"],
        "olap.timeouts": stats["timeouts"],
        "olap.worker_restarts": stats["restarts"],
    }


def _refresh_layers(refresher, samples, rotations) -> dict[str, float]:
    good = [r for r in refresher.reports if "error" not in r]

    def mid(key: str) -> float:
        return median([r[key] for r in good])

    return {
        "olap.refresh_s": mid("refresh_s"),
        "olap.refresh_delta_build_s": mid("delta_build_s"),
        "olap.refresh_merge_s": mid("merge_s"),
        "olap.refresh_files_written": mid("files_written"),
        "olap.refresh_files_linked": mid("files_linked"),
        "olap.refresh_bytes_written": mid("bytes_written"),
        "olap.refresh_window_p99_ms": percentile(samples.refresh_window, 99) * 1e3,
        "olap.rotate_s": median(rotations),
        "bench.gen_late_p99_ms": percentile(samples.late, 99) * 1e3,
    }


def run(workload: str, seed: int, seconds: float, scale: float,
        workdir: str, tracer=None) -> Outcome:
    out = Outcome.start()
    tally = out.tally
    size = workloads.SIZES[workload]

    served = None
    refresher = None
    setups: list[tuple[float, float, float]] = []
    try:
        # The first set-up pays for imports and first-touch pages and is
        # not timed; the last one's store and service take the load.  Each
        # draws its own relation from the seed, so ``setup_s`` and
        # ``sim_build_s`` are medians over five inputs, not one.
        for rep in range(1 + _SETUP_REPS):
            if served is not None:
                served.close()
            served = _Served(workload, seed, scale, workdir, rep, tracer)
            setups.append(
                (served.setup_s, served.service_start_s, served.sim_build_s)
            )
        del setups[0]
        service = served.service
        refs = check.ReferenceEngines(served.path, os.path.join(workdir, "pins"))

        rotations: list[float] = []
        if workload == "serve_lookup":
            stream = workloads.lookup_queries(
                seed, served.relation, int(2_500 * seconds) + _TRACE_BLOCK
            )
            samples = _closed_loop(
                service, stream, seconds, 8, _TRACE_BLOCK, tally, tracer
            )
        elif workload == "serve_analytic":
            stream = workloads.analytic_queries(seed, int(60 * seconds) + 16)
            samples = _closed_loop(service, stream, seconds, 4, 1, tally, tracer)
        else:
            stream = workloads.zipf_stream(
                seed, served.relation, size["templates"],
                int(size["rate_qps"] * seconds), size["zipf_s"],
            )
            delta_rows = max(int(size["delta_rows"] * scale), 100)
            deltas = [
                workloads.delta_relation(seed, k, delta_rows)
                for k in range(_refresh_count(size, seconds))
            ]
            refresher = _Refresher(served.path, served.spec.p)
            samples, rotations = _open_loop(
                service, refresher, stream, size, deltas, refs, tally, tracer
            )
            # The probe answered before the first refresh must re-answer
            # fresh, through the cache, after the last one.
            final_gen = service.check_generation()
            fresh = service.answer(_PROBE, timeout=_WAIT_S)
            tally.record(
                check.same_answer(fresh, refs.engine(final_gen).answer(_PROBE))
                and not check.same_answer(fresh, served.probe_before),
                "probe query is stale after the last refresh",
            )
        stats = service.stats()
        out.layers.update(_verify(samples, refs, tally))
    finally:
        if refresher is not None:
            refresher.close()
        if served is not None:
            served.close()

    lat = samples.plain
    out.notes = {
        "rows": served.relation.nrows,
        "view_rows": served.view_rows,
        "queries_timed": len(lat),
        "queries_traced": len(samples.traced),
        "queries_checked": len(samples.kept),
        "stream_exhausted": len(lat) + len(samples.traced) == len(stream),
    }
    out.e2e = {
        "setup_s": median([s[0] for s in setups]),
        "sim_build_s": median([s[2] for s in setups]),
    }
    if lat:
        out.layers["op_p50_ms"] = percentile(lat, 50) * 1e3
        out.layers["throughput_ops"] = (
            len(lat) + len(samples.traced)
        ) / samples.span_s
    out.layers.update(_service_layers(stats, served, setups, samples))
    if refresher is not None:
        out.layers.update(_refresh_layers(refresher, samples, rotations))
    if tracer is not None:
        totals = tracer.totals()
        for name in ("data.generate", "olap.store_save"):
            row = totals.get(name)
            if row:
                out.layers[name + "_s"] = row["seconds"] / row["calls"]
        out.layers["bench.trace_overhead"] = samples.trace_overhead()
    return out.finish()
