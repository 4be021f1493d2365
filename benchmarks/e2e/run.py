"""One command for the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload <name> --seed <int>
        [--seconds <int>] [--trace 0|1] [--workdir DIR] [--out FILE]

runs one workload from this single process, checks its outputs, prints
every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json`` (and prints the ``ALSO_BOUNDED`` ones after them);
``--trace 1`` repeats the workload with spans recorded and reports the
per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
#: Free space wanted before scratch goes to tmpfs: a saved store is
#: 130 MB and serve_hot_refresh holds up to four generations of it.
_SCRATCH_BYTES = 2 << 30

#: ISSUE 12's end-to-end metrics that ``BENCHMARK.json`` can only list
#: under ``per_layer``, with the issue's bounds.  The host timings do not
#: repeat within any bound the driver allows on this shared host, which is
#: when the issue says to demote; the last four mean nothing on a build,
#: and the driver wants every end-to-end metric from every workload.  All
#: are still measured with tracing off on every run that has them, printed
#: and recorded, and compare.py holds them to these bounds.
ALSO_BOUNDED = {
    "op_p50_ms": 0.10,
    "throughput_ops": 0.10,
    "olap.query_p95_ms": 0.10,
    "olap.query_p99_ms": 0.10,
    "olap.refresh_s": 0.10,
    "olap.store_bytes_per_row": 0.0,
}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def default_workdir() -> str:
    """tmpfs when there is room for it, else ``out/`` beside this file.

    The program itself needs ``/dev/shm`` (its data plane and every
    multiprocessing lock live there).  Scratch files on the sandbox's
    virtual disk made the same checkpointed build take 1.8 to 3.7 s
    depending on what else the host was writing; on tmpfs the fsync calls
    are still issued but latencies are the sandbox's, not a device's.
    """
    shm = "/dev/shm"
    try:
        roomy = shutil.disk_usage(shm).free >= _SCRATCH_BYTES
    except OSError:
        roomy = False
    if roomy and os.access(shm, os.W_OK):
        return shm
    return OUT_DIR


def host_descriptor(workdir: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "workdir": workdir,
        "workdir_fs": _filesystem(workdir),
    }


def _stop_resource_tracker() -> None:
    """multiprocessing's resource tracker is a child that otherwise ends
    only after this process has; stop it and wait, so nothing we started
    outlives us."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, scale: float = 1.0):
    """Run one workload; returns ``(Outcome, Tracer or None)``."""
    import builds
    import serving
    import workloads
    from tracing import Tracer

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; have {workloads.WORKLOADS}")
    tracer = Tracer() if trace else None
    driver = builds if workload in workloads.BUILD_WORKLOADS else serving
    outcome = driver.run(workload, seed, seconds, scale, workdir, tracer)
    return outcome, tracer


def report_metrics(outcome, workload: str, trace: bool, contract: dict) -> dict:
    """The metrics this mode reports, exactly those the contract names."""
    from workloads import APPLIES

    declared = contract["per_layer" if trace else "end_to_end"]
    measured = outcome.layers if trace else outcome.e2e
    names = {m["name"] for m in declared}
    if set(measured) - names:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(set(measured) - names)}")
    wanted = {n for n in names if not trace or workload in APPLIES[n]}
    if wanted - set(measured):
        raise SystemExit(f"metrics not measured: {sorted(wanted - set(measured))}")
    # A layer the workload bypasses reports 0 (a count of nothing).
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workdir", default=None,
                        help="parent of the scratch directory (default: "
                             "/dev/shm when roomy, else out/ beside this file)")
    parser.add_argument("--out", default=None,
                        help="append the full run record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    trace = bool(args.trace)
    parent = args.workdir or default_workdir()
    workdir = os.path.join(parent, f"repro-e2e-{os.getpid()}")
    os.makedirs(workdir)
    started = time.time()
    try:
        outcome, tracer = run_workload(
            args.workload, args.seed, seconds, trace, workdir
        )
        host = host_descriptor(workdir)
        if tracer is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.dump(
                os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed, "host": host},
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()

    metrics = report_metrics(outcome, args.workload, trace, contract)
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    tally = outcome.tally
    print(f"workload {args.workload}  seed {args.seed}  trace {int(trace)}  "
          f"seconds {seconds:g}  wall {time.time() - started:.1f} s")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print("notes " + "  ".join(f"{k}={v}" for k, v in outcome.notes.items()))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if not trace:
        for name in ALSO_BOUNDED:
            if name in outcome.layers:
                print(f"{name:36s} {outcome.layers[name]:.6g} {units[name]}")
    print(f"{'failed_share':36s} {tally.failed / max(tally.attempted, 1):.6g} ratio")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        # ``observed`` holds everything this run could see: an untraced
        # run also knows the counts and the ALSO_BOUNDED metrics.
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=int(trace), seconds=seconds, host=host,
                      notes=outcome.notes,
                      observed={**outcome.layers, **outcome.e2e})
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
