"""Compare two sets of benchmark runs: ``compare.py a.jsonl b.jsonl``.

Each file holds the run records ``runset.py`` (or ``run.py --out``)
appends: the same seeds on every workload.  ``a`` is the base (the parent
commit, or the first of two sets of one commit), ``b`` the candidate.

Runs are paired by seed, so that what the inputs of one seed cost
cancels: ``b/a`` is the median over seeds of the per-seed ratio, and
``noise`` is the spread between repeated runs of the same inputs, taken
from the pairs (the distance between the quartiles of the ratios, over
the square root of two because a ratio carries the noise of two runs).
``spread a`` and ``spread b`` are each side's quartile distance over its
median across the seeds, inputs and all, which is what the driver holds
against the bound.

One row is printed for every (workload, metric) with a bound: the
end-to-end metrics of ``BENCHMARK.json`` and the ``ALSO_BOUNDED`` ones of
``run.py``, all from untraced runs.  The verdict is

* ``REGRESSION``  b is worse than a by more than the bound, and by more
                  than the noise;
* ``unresolved``  the noise exceeds the bound, so these runs cannot tell
                  (reported, never counted as unchanged);
* ``ok``          otherwise.

Then the ``EXACT`` per-layer metrics, which repeat bit for bit on one
seed: any seed on which ``b`` is worse is a ``REGRESSION``.  The other
per-layer metrics of the traced runs are listed with their ratio and no
verdict.  Exit status is 1 on a regression or when ``b`` failed more
operations than ``a``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import ALSO_BOUNDED, load_contract

#: Per-layer metrics that are counts of what the program did, not times:
#: two runs of one commit on one seed give the same number.
EXACT = (
    "core.merge_case1_views", "core.merge_case2_views",
    "core.merge_case3_views", "core.attempts", "core.checkpoint_bytes",
    "core.checkpoint_files", "mpi.comm_bytes", "mpi.supersteps",
    "mpi.shm_segments_created", "mpi.shm_leases", "storage.sort_calls",
    "storage.sort_rows", "storage.disk_blocks", "olap.store_bytes",
    "olap.refresh_files_written", "olap.refresh_files_linked",
    "olap.refresh_bytes_written",
)


def load(path: str):
    """``{(workload, trace): {metric: {seed: value}}}`` and the failed
    operations per workload.  Several runs of one seed keep their median."""
    runs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    failed = defaultdict(int)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, value in rec["observed"].items():
                runs[rec["workload"], rec["trace"]][name][rec["seed"]].append(value)
            failed[rec["workload"]] += rec["failed"]
    values = {
        key: {
            name: {seed: statistics.median(v) for seed, v in by_seed.items()}
            for name, by_seed in metrics.items()
        }
        for key, metrics in runs.items()
    }
    return values, failed


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median, as the driver takes it."""
    mid = statistics.median(values)
    return quartile_distance(values) / abs(mid) if mid else 0.0


def worsening(ratio: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` when ``b/a`` is ``ratio``."""
    return ratio - 1.0 if better == "lower" else 1.0 - ratio


def compare(path_a: str, path_b: str, contract: dict, out=sys.stdout) -> int:
    vals_a, failed_a = load(path_a)
    vals_b, failed_b = load(path_b)
    status = 0
    workloads = [w["name"] for w in contract["workloads"]]
    layer = {m["name"]: m for m in contract["per_layer"]}
    bounded = list(contract["end_to_end"]) + [
        dict(layer[name], bound=bound) for name, bound in ALSO_BOUNDED.items()
    ]

    print(f"{'workload':20s} {'metric':24s} {'a median':>10s} {'b median':>10s} "
          f"{'b/a':>6s} {'noise':>6s} {'spread a':>8s} {'spread b':>8s} "
          f"{'bound':>5s}  verdict", file=out)
    for workload in workloads:
        a, b = vals_a.get((workload, 0), {}), vals_b.get((workload, 0), {})
        for m in bounded:
            name = m["name"]
            seeds = sorted(set(a.get(name, ())) & set(b.get(name, ())))
            if not seeds:
                continue
            xs = [a[name][s] for s in seeds]
            ys = [b[name][s] for s in seeds]
            ratios = [y / x for x, y in zip(xs, ys)]
            ratio = statistics.median(ratios)
            noise = quartile_distance(ratios) / 2 ** 0.5
            if worsening(ratio, m["better"]) > max(m["bound"], noise):
                verdict = "REGRESSION"
                status = 1
            elif noise > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            med_a = statistics.median(xs)
            print(f"{workload:20s} {name:24s} {med_a:10.5g} "
                  f"{statistics.median(ys):10.5g} {ratio:6.3f} {noise:6.1%} "
                  f"{spread(xs):8.1%} {spread(ys):8.1%} {m['bound']:5.0%}  "
                  f"{verdict} (base {med_a:.5g} {m['unit']}, n={len(seeds)})",
                  file=out)
        if failed_b[workload] > failed_a[workload]:
            print(f"{workload:20s} failed operations {failed_a[workload]} -> "
                  f"{failed_b[workload]}  REGRESSION", file=out)
            status = 1

    print(file=out)
    print(f"{'workload':20s} {'exact layer metric':28s} {'a':>12s} {'b':>12s}  "
          "verdict (seed 1 shown)", file=out)
    for workload in workloads:
        for name in EXACT:
            pairs = [
                (va[name][seed], vb[name][seed])
                for trace in (0, 1)
                for va, vb in [(vals_a.get((workload, trace), {}),
                                vals_b.get((workload, trace), {}))]
                for seed in sorted(set(va.get(name, ())) & set(vb.get(name, ())))
            ]
            if not pairs or not any(x or y for x, y in pairs):
                continue  # a layer this workload bypasses
            better = layer[name]["better"]
            if any((y > x) if better == "lower" else (y < x) for x, y in pairs):
                verdict = "REGRESSION"
                status = 1
            elif any(x != y for x, y in pairs):
                verdict = "improved"
            else:
                verdict = "ok"
            x, y = pairs[0]
            print(f"{workload:20s} {name:28s} {x:12.6g} {y:12.6g}  "
                  f"{verdict} (n={len(pairs)})", file=out)

    print(file=out)
    print(f"{'workload':20s} {'layer metric':34s} {'a':>12s} {'b':>12s} {'b/a':>7s}",
          file=out)
    for workload in workloads:
        a, b = vals_a.get((workload, 1), {}), vals_b.get((workload, 1), {})
        for name in layer:
            if name in EXACT or name in ALSO_BOUNDED:
                continue
            if name not in a or name not in b:
                continue
            med_a = statistics.median(a[name].values())
            med_b = statistics.median(b[name].values())
            if not med_a and not med_b:
                continue  # measured, and nothing there (no recovery, say)
            print(f"{workload:20s} {name:34s} {med_a:12.5g} {med_b:12.5g} "
                  f"{med_b / med_a if med_a else 0:7.3f}", file=out)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return compare(argv[0], argv[1], load_contract())


if __name__ == "__main__":
    sys.exit(main())
