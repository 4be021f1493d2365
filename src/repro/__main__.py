"""Command-line interface.

Subcommands::

    python -m repro build   --rows 20000 --p 8 --out ./cube.d
    python -m repro info    ./cube.d
    python -m repro query   ./cube.d --group-by 0,1 --filter 2=0:3
    python -m repro refresh ./cube.d --rows 1000
    python -m repro demo

``build`` generates a synthetic data set (the paper's parameter presets)
and constructs its cube on the simulated cluster; ``query`` serves
group-bys from a stored cube; ``info`` prints a stored cube's inventory;
``refresh`` folds a delta batch into a stored cube as a new generation
(incremental maintenance — see ``repro.olap.refresh``).
For the paper-figure experiments use ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _parse_view(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text.lower() == "all":
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_filter(text: str) -> tuple[int, tuple[int, int]]:
    """``dim=lo:hi`` or ``dim=value``."""
    dim_part, _, range_part = text.partition("=")
    if not range_part:
        raise argparse.ArgumentTypeError(
            f"filter {text!r} must look like DIM=LO:HI or DIM=VALUE"
        )
    lo, _, hi = range_part.partition(":")
    return int(dim_part), (int(lo), int(hi or lo))


def cmd_build(args: argparse.Namespace) -> int:
    from repro import CubeConfig, MachineSpec, build_data_cube, generate_dataset, paper_preset
    from repro.olap import CubeStore

    if args.from_csv:
        from repro.storage.relio import read_csv

        if not args.dimensions or not args.measure:
            print("--from-csv needs --dimensions and --measure")
            return 2
        ds = read_csv(
            args.from_csv, args.dimensions.split(","), args.measure
        )
        data, cards = ds.relation, ds.cardinalities
        print(
            f"loaded {data.nrows:,} rows from {args.from_csv}; dimensions "
            f"{ds.names} (cardinalities {cards})"
        )
    else:
        spec = paper_preset(
            args.rows, alpha=args.alpha, mix=args.mix, seed=args.seed,
            d=args.dims,
        )
        data = generate_dataset(spec)
        cards = spec.cardinalities
        print(
            f"generated {data.nrows:,} rows x {data.width} dims "
            f"(cardinalities {cards}, alpha {args.alpha})"
        )
    faults = None
    if args.faults:
        from repro.mpi.faults import FaultPlan

        if args.faults.startswith("random:"):
            faults = FaultPlan.random(seed=int(args.faults[7:]), p=args.p)
        else:
            faults = FaultPlan.parse(args.faults)
        print(f"fault plan: {faults.describe()}")
    recovery = None
    if faults is not None or args.max_retries is not None or args.degrade:
        from repro import RecoveryPolicy

        recovery = RecoveryPolicy(
            max_retries=2 if args.max_retries is None else args.max_retries,
            mode="degrade" if args.degrade else "restart",
            min_ranks=args.min_ranks,
        )
    machine = MachineSpec(p=args.p, backend=args.backend)
    cube = build_data_cube(
        data,
        cards,
        machine,
        CubeConfig(agg=args.agg, hetero=args.hetero),
        selected=None,
        faults=faults,
        checkpoint_dir=args.checkpoint_dir,
        recovery=recovery,
        audit=args.audit,
    )
    print(cube.describe())
    metrics = cube.metrics
    if metrics.speed_model is not None:
        speeds = ", ".join(
            f"{s:.2f}" for s in metrics.speed_model["speeds"]
        )
        print(f"rank speed model (mean 1.0): [{speeds}]")
    if metrics.attempts > 1:
        print(
            f"recovered: {metrics.attempts - 1} failed attempt(s) "
            f"({metrics.transient_retries} transient retr"
            f"{'y' if metrics.transient_retries == 1 else 'ies'}), "
            f"{metrics.recovered_seconds:.2f}s simulated re-execution"
        )
    if metrics.ranks_lost:
        lost = ", ".join(str(r) for r in metrics.ranks_lost)
        print(
            f"degraded: lost rank(s) {lost} permanently; finished at "
            f"p={metrics.final_width} of {args.p}"
        )
    if args.out:
        CubeStore.save(cube, args.out)
        print(f"stored at {args.out} (format 2)")
    if metrics.audit is not None:
        if metrics.audit["ok"]:
            print(f"audit: OK ({len(metrics.audit['checks'])} checks)")
        else:
            issues = "; ".join(metrics.audit["issues"])
            print(f"audit: FAILED ({issues})")
            return 1
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.core.views import view_name
    from repro.olap import CubeStore

    cube = CubeStore.load(args.path)
    print(
        f"cube at {args.path}: {cube.view_count} views, "
        f"{cube.total_rows():,} rows, p={len(cube.rank_views)}, "
        f"agg={cube.agg}, cardinalities={cube.cardinalities}"
    )
    if args.views:
        for view in cube.views:
            dist = cube.distribution(view)
            print(
                f"  {view_name(view):12s} {cube.view_rows(view):10,} rows"
                f"  (per-rank max/mean "
                f"{dist.max() / max(dist.mean(), 1e-9):.2f})"
            )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.olap import CubeStore, Query

    # open() (rather than load()) serves format-2 stores through the
    # mmap-backed index path where the view order allows it.
    engine = CubeStore.open(args.path).query_engine()
    query = Query(
        group_by=_parse_view(args.group_by),
        filters=dict(args.filter or []),
    )
    plan = engine.explain(query)
    print(f"plan: {plan.describe()}")
    if args.parallel:
        result, latency = engine.answer_parallel(query)
        print(f"parallel latency: {latency * 1e3:.2f} ms (simulated)")
    else:
        result = engine.answer(query)
    limit = args.limit
    order = np.argsort(-result.measure)[:limit]
    for row_idx in order:
        key = ",".join(str(v) for v in result.dims[row_idx])
        print(f"  ({key})  {result.measure[row_idx]:,.3f}")
    if result.nrows > limit:
        print(f"  ... {result.nrows - limit} more groups")
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    from repro.olap import CubeStore
    from repro.olap.refresh import refresh_store
    from repro.olap.servebench import integer_delta

    handle = CubeStore.open(args.path)
    cards = handle.cardinalities
    if args.from_csv:
        from repro.storage.relio import read_csv

        if not args.dimensions or not args.measure:
            print("--from-csv needs --dimensions and --measure")
            return 2
        ds = read_csv(
            args.from_csv, args.dimensions.split(","), args.measure
        )
        delta = ds.relation
        print(f"loaded {delta.nrows:,} delta rows from {args.from_csv}")
    else:
        delta = integer_delta(
            np.random.default_rng(args.seed), args.rows, cards
        )
        print(f"generated {delta.nrows:,} synthetic delta rows")
    report = refresh_store(args.path, delta, gc=args.gc)
    print(
        f"refreshed {args.path}: generation "
        f"{report.previous_generation} -> {report.generation} "
        f"({report.path})"
    )
    print(
        f"  {report.views_merged} views merged, {report.rows_added:,} "
        "rows added"
    )
    print(
        f"  delta build {report.delta_build_seconds:.3f}s + merge "
        f"{report.merge_seconds:.3f}s; {report.files_written} files "
        "written"
    )
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from repro.mpi.faults import FaultPlan
    from repro.olap import CubeStore, QueryService, ServicePolicy
    from repro.olap.servebench import (
        integer_delta,
        run_at_rate,
        run_with_refresh,
        serving_workload,
        synthetic_serving_cube,
    )

    faults = FaultPlan.parse(args.faults) if args.faults else None
    policy = ServicePolicy(
        suspect_after=args.suspect_after,
        deadline_s=args.deadline if args.deadline > 0 else None,
        max_retries=args.max_retries,
        max_queue_depth=args.max_queue,
        max_restarts=args.max_restarts,
    )
    with tempfile.TemporaryDirectory() as tmpdir:
        if args.store:
            store_path = args.store
            cards = CubeStore.open(store_path).cardinalities
            print(f"serving existing store {store_path}")
        else:
            cards = (128, 64, 32, 16)
            cube = synthetic_serving_cube(
                args.rows, cards, p=4, seed=args.seed
            )
            store_path = os.path.join(tmpdir, "cube.d")
            CubeStore.save(cube, store_path)
            print(
                f"synthesized {args.rows:,}-row serving cube "
                f"({len(cube.views)} views) at {store_path}"
            )
        if faults is not None:
            print(f"injecting serve faults: {faults.describe()}")
        workload = [q for _, q in serving_workload(cards, n=512,
                                                   seed=args.seed)]
        with QueryService(
            store_path,
            workers=args.workers,
            byte_budget=args.cache_mb << 20 if args.cache_mb else None,
            policy=policy,
            faults=faults,
        ) as service:
            service.answer_many(workload[:8])  # warm the pool
            if args.refresh_every:
                from repro.olap import Query

                rng = np.random.default_rng(args.seed + 1)
                offered = args.qps[0]
                n_total = max(
                    int(offered * args.duration), args.refresh_every + 1
                )
                n_batches = max(n_total // args.refresh_every, 1)
                batches = [
                    integer_delta(rng, args.delta_rows, cards)
                    for _ in range(n_batches)
                ]
                print(
                    f"live refresh: {n_batches} delta batches x "
                    f"{args.delta_rows:,} rows, one every "
                    f"{args.refresh_every} submissions"
                )
                rung = run_with_refresh(
                    service,
                    workload,
                    batches,
                    offered,
                    n_total,
                    args.refresh_every,
                    probe=Query(group_by=(0,)),
                )
                window = rung["refresh_window"]
                print(
                    f"  availability {rung['availability']:.4f} "
                    f"({rung['completed']}/{rung['offered']}), "
                    f"generation {rung['generation_start']} -> "
                    f"{rung['generation_end']}, probe fresh: "
                    f"{rung['probe_fresh']}"
                )
                print(
                    f"  applied {rung['refreshes']} of {n_batches} delta "
                    f"batches ({rung['skipped']} never started, "
                    f"{len(rung['refresh_failures'])} failed)"
                )
                print(
                    f"  overall p50 {rung['p50_ms']:.2f} ms  p99 "
                    f"{rung['p99_ms']:.2f} ms; during refresh windows "
                    f"({window['completed']} queries) p99 "
                    f"{window['p99_ms'] if window['p99_ms'] is None else round(window['p99_ms'], 2)} ms"
                )
            for offered in args.qps:
                rung = run_at_rate(
                    service, workload, offered, args.duration
                )
                print(
                    f"  offered {rung['offered_qps']:7g} QPS -> achieved "
                    f"{rung['achieved_qps']:7.1f}  p50 "
                    f"{rung['p50_ms']:7.2f} ms  p95 {rung['p95_ms']:7.2f}"
                    f" ms  p99 {rung['p99_ms']:7.2f} ms"
                    + (
                        f"  (shed {rung['shed']}, deadline misses "
                        f"{rung['deadline_timeouts']})"
                        if rung["shed"] or rung["deadline_timeouts"]
                        else ""
                    )
                )
            stats = service.stats()
            print(f"service stats: {stats}")
            if stats["worker_deaths"] or stats["worker_hangs"]:
                print(
                    f"survived {stats['worker_deaths']} worker deaths "
                    f"and {stats['worker_hangs']} hangs with "
                    f"{stats['restarts']} restarts and "
                    f"{stats['retries']} query retries"
                )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro import MachineSpec, build_data_cube, generate_dataset, paper_preset

    spec = paper_preset(10_000, seed=1)
    data = generate_dataset(spec)
    cube = build_data_cube(
        data,
        spec.cardinalities,
        MachineSpec(p=args.p, backend=args.backend),
    )
    print(cube.describe())
    print("phase breakdown:")
    for phase, secs in sorted(cube.metrics.phase_seconds.items()):
        if secs > 0.01:
            print(f"  {phase:20s} {secs:7.2f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel ROLAP data cube construction (IPDPS 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="generate data and build a cube")
    p_build.add_argument("--rows", type=int, default=20_000)
    p_build.add_argument("--p", type=int, default=8, help="virtual processors")
    p_build.add_argument("--backend", default="thread",
                         choices=("thread", "process"),
                         help="execution backend (process = one worker "
                              "process per rank, parallel host execution)")
    p_build.add_argument("--alpha", type=float, default=0.0, help="Zipf skew")
    p_build.add_argument("--mix", default="B", choices="ABCD")
    p_build.add_argument("--dims", type=int, default=None)
    p_build.add_argument("--agg", default="sum",
                         choices=("sum", "count", "min", "max"))
    p_build.add_argument("--seed", type=int, default=0xC0FFEE)
    p_build.add_argument("--out", default=None, help="store directory")
    p_build.add_argument("--from-csv", default=None,
                         help="build from a CSV fact table instead of "
                              "synthetic data")
    p_build.add_argument("--dimensions", default=None,
                         help="comma-separated dimension columns "
                              "(with --from-csv)")
    p_build.add_argument("--measure", default=None,
                         help="measure column (with --from-csv)")
    p_build.add_argument("--faults", default=None,
                         help="fault plan, e.g. 'crash@r1s5;delay@r0s2x0.5' "
                              "or 'random:<seed>' (see repro.mpi.faults)")
    p_build.add_argument("--checkpoint-dir", default=None,
                         help="persist per-rank checkpoints after each "
                              "dimension iteration; recovery resumes there")
    p_build.add_argument("--max-retries", type=int, default=None,
                         help="restarts allowed on rank failure "
                              "(default 2 when --faults is given)")
    p_build.add_argument("--degrade", action="store_true",
                         help="survive permanent rank loss: blacklist the "
                              "dead rank, reshard its checkpointed state "
                              "and finish at reduced width")
    p_build.add_argument("--min-ranks", type=int, default=1,
                         help="lowest width --degrade may fall to before "
                              "giving up (default 1)")
    p_build.add_argument("--hetero", action="store_true",
                         help="meter per-rank throughput during sampling "
                              "and size each rank's h-relation share to "
                              "its measured speed (clamped to "
                              "[1/2p, 2/p])")
    p_build.add_argument("--audit", action="store_true",
                         help="run the post-build integrity audit; a "
                              "failed audit exits non-zero")
    p_build.set_defaults(fn=cmd_build)

    p_info = sub.add_parser("info", help="describe a stored cube")
    p_info.add_argument("path")
    p_info.add_argument("--views", action="store_true",
                        help="list every view with its distribution")
    p_info.set_defaults(fn=cmd_info)

    p_query = sub.add_parser("query", help="group-by query over a stored cube")
    p_query.add_argument("path")
    p_query.add_argument("--group-by", default="", help="e.g. 0,2 (empty = ALL)")
    p_query.add_argument("--filter", type=_parse_filter, action="append",
                         help="DIM=LO:HI, repeatable")
    p_query.add_argument("--parallel", action="store_true",
                         help="execute across the virtual cluster")
    p_query.add_argument("--limit", type=int, default=10)
    p_query.set_defaults(fn=cmd_query)

    p_serve = sub.add_parser(
        "serve-bench",
        help="drive a QueryService worker pool at fixed offered QPS",
    )
    p_serve.add_argument("--store", default=None,
                         help="existing cube store to serve (default: "
                              "synthesize one)")
    p_serve.add_argument("--rows", type=int, default=200_000,
                         help="base-view rows for the synthetic store")
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--qps", type=float, nargs="+",
                         default=[25.0, 50.0, 100.0],
                         help="offered-rate ladder")
    p_serve.add_argument("--duration", type=float, default=2.0,
                         help="seconds per rung")
    p_serve.add_argument("--cache-mb", type=int, default=0,
                         help="result-cache byte budget in MiB "
                              "(0 = cache off)")
    p_serve.add_argument("--seed", type=int, default=0xC0FFEE)
    p_serve.add_argument("--faults", default=None,
                         help="serving fault plan, e.g. "
                              "'kill@w0q5;hang@w1q3x2.5;corrupt@w2q4' "
                              "(keyed by each worker's executed-query "
                              "count; optional g<generation> suffix)")
    p_serve.add_argument("--deadline", type=float, default=0.0,
                         help="per-query deadline in seconds "
                              "(0 = no deadline)")
    p_serve.add_argument("--max-queue", type=int, default=1024,
                         help="in-flight query cap; submissions past it "
                              "are shed with ServiceOverloaded")
    p_serve.add_argument("--max-retries", type=int, default=3,
                         help="re-executions allowed per query after "
                              "worker failures")
    p_serve.add_argument("--max-restarts", type=int, default=16,
                         help="replacement workers the supervisor may "
                              "spawn over the run")
    p_serve.add_argument("--suspect-after", type=float, default=5.0,
                         help="declare a silent worker hung after this "
                              "many seconds")
    p_serve.add_argument("--refresh-every", type=int, default=0,
                         help="fold a delta batch into the store every N "
                              "submissions (background refresh thread; "
                              "0 = off) and report availability plus "
                              "p99 during refresh windows")
    p_serve.add_argument("--delta-rows", type=int, default=5_000,
                         help="rows per delta batch (with "
                              "--refresh-every)")
    p_serve.set_defaults(fn=cmd_serve_bench)

    p_refresh = sub.add_parser(
        "refresh",
        help="fold a delta batch into a stored cube as a new generation",
    )
    p_refresh.add_argument("path")
    p_refresh.add_argument("--rows", type=int, default=1_000,
                           help="synthetic delta rows (uniform over the "
                                "store's cardinalities)")
    p_refresh.add_argument("--seed", type=int, default=0xC0FFEE)
    p_refresh.add_argument("--gc", action="store_true",
                           help="remove superseded generation "
                                "directories after publishing")
    p_refresh.add_argument("--from-csv", default=None,
                           help="read the delta from a CSV fact table "
                                "instead of synthesizing one")
    p_refresh.add_argument("--dimensions", default=None,
                           help="comma-separated dimension columns "
                                "(with --from-csv)")
    p_refresh.add_argument("--measure", default=None,
                           help="measure column (with --from-csv)")
    p_refresh.set_defaults(fn=cmd_refresh)

    p_demo = sub.add_parser("demo", help="tiny end-to-end demonstration")
    p_demo.add_argument("--p", type=int, default=8)
    p_demo.add_argument("--backend", default="thread",
                        choices=("thread", "process"))
    p_demo.set_defaults(fn=cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
