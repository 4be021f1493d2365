"""A/B benchmark of the packed-key sort kernels against the argsort baseline.

Two micro-benches isolate the kernels on the workloads they were built
for — ``radix`` on a large uniform-key sort, ``segmented`` on a
shared-prefix re-sort (sorted source keys remapped to a target order
sharing a 2-dim prefix) — and one end-to-end check builds the same cube
under every forced kernel and asserts bit-identical views **and**
identical simulated metering: modelled seconds at ``compute_scale=0``,
traffic and disk blocks (the kernels may only change host time; a
sort's charge counts the runs in its input, off the data).

Writes ``BENCH_sort_kernels.json`` at the repository root.  Runnable
standalone (``python benchmarks/bench_sort_kernels.py``) or under
pytest.  Scale knobs: ``REPRO_BENCH_SORT_N`` (micro-bench rows, default
1,500,000), ``REPRO_BENCH_ROUNDS`` (best-of rounds, default 3) and
``REPRO_BENCH_QUICK`` (any non-empty value: shrink the micro-benches
and skip the speedup assertions — the CI smoke mode, which still
asserts cross-kernel cube equality).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.config import MachineSpec
from repro.core.cube import build_data_cube
from repro.data.generator import generate_dataset, paper_preset
from repro.storage.sortkernels import (
    ENV_KERNEL,
    calibration,
    set_default_kernel,
    sort_pairs,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_sort_kernels.json"

#: Host-seconds ratio (argsort / kernel) each specialised kernel must
#: reach on its home workload in full (non-quick) mode.
RADIX_TARGET = 1.2
SEGMENTED_TARGET = 1.3

#: Kernels forced end-to-end through a full cube build.
CUBE_KERNELS = ("auto", "argsort", "radix", "segmented", "presorted")


def _quick() -> bool:
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def _neutralise_forcing() -> None:
    """This bench A/Bs kernels against each other; a forced kernel (CI
    matrix env var or a leftover process default) would silently make
    every lane run the same code."""
    os.environ.pop(ENV_KERNEL, None)
    set_default_kernel("auto")


def _best(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _ab(keys, values, kernel: str, rounds: int, **hints) -> dict:
    """Time ``kernel`` vs the argsort baseline on one workload; verify
    bit-identical output while at it."""
    base_k, base_v = sort_pairs(keys, values, "argsort")
    got_k, got_v = sort_pairs(keys, values, kernel, **hints)
    assert np.array_equal(got_k, base_k) and np.array_equal(got_v, base_v), (
        f"{kernel} output diverges from argsort"
    )
    t_arg = _best(lambda: sort_pairs(keys, values, "argsort"), rounds)
    t_ker = _best(lambda: sort_pairs(keys, values, kernel, **hints), rounds)
    return {
        "kernel": kernel,
        "rows": int(keys.shape[0]),
        "argsort_seconds": round(t_arg, 4),
        "kernel_seconds": round(t_ker, 4),
        "speedup": round(t_arg / max(t_ker, 1e-9), 3),
        "bit_identical": True,
    }


def run_micro(n: int | None = None, rounds: int | None = None) -> dict:
    """The two micro A/Bs; returns their result dicts."""
    _neutralise_forcing()
    n = n or int(os.environ.get(
        "REPRO_BENCH_SORT_N", 200_000 if _quick() else 1_500_000
    ))
    rounds = rounds or int(os.environ.get("REPRO_BENCH_ROUNDS", 5))
    rng = np.random.default_rng(0x5017)

    # Radix home turf: large uniform draw from a 2^33 key space (the
    # paper's 256·128·…·6 preset capacity).
    key_space = 1 << 33
    keys = rng.integers(0, key_space, n, dtype=np.int64)
    values = rng.random(n)
    radix = _ab(keys, values, "radix", rounds, key_bound=key_space)
    print(
        f"  radix      n={n:>9,}  argsort {radix['argsort_seconds']:7.3f} s"
        f"  radix {radix['kernel_seconds']:7.3f} s"
        f"  -> {radix['speedup']:.2f}x"
    )

    # Segmented home turf: a shared-prefix re-sort.  Source rows sorted
    # under the old order stay clustered by the shared prefix after the
    # remap; only the suffix within each of the prefix's segments needs
    # sorting.  Few large segments with a narrow suffix keep the
    # composite ``segment·W + suffix`` within one 16-bit digit pass —
    # the regime where the prefix discount is steepest.  (Timsort's
    # galloping merges already near-linearise many-small-segment inputs,
    # so argsort is a strong baseline on this workload either way.)
    suffix_cap = 1 << 12
    nseg = 1 << 4
    prefixes = np.sort(rng.integers(0, 1 << 30, nseg, dtype=np.int64))
    seg_of_row = np.sort(rng.integers(0, nseg, n, dtype=np.int64))
    seg_keys = prefixes[seg_of_row] * suffix_cap + rng.integers(
        0, suffix_cap, n, dtype=np.int64
    )
    segmented = _ab(
        seg_keys, values, "segmented", rounds, seg_divisor=suffix_cap
    )
    segmented["segments"] = nseg
    print(
        f"  segmented  n={n:>9,}  argsort "
        f"{segmented['argsort_seconds']:7.3f} s"
        f"  segmented {segmented['kernel_seconds']:7.3f} s"
        f"  -> {segmented['speedup']:.2f}x"
    )
    return {"radix": radix, "segmented": segmented}


def run_cube_equality(n: int | None = None) -> dict:
    """Build one cube per forced kernel; every build must be bit-identical
    to the auto build — views, simulated clock, traffic and disk blocks."""
    _neutralise_forcing()
    n = n or int(os.environ.get("REPRO_BENCH_CUBE_N", 6_000))
    spec_ds = paper_preset(n, seed=3)
    data = generate_dataset(spec_ds)
    builds = {}
    results = []
    for kernel in CUBE_KERNELS:
        machine = MachineSpec(p=4, compute_scale=0.0, sort_kernel=kernel)
        t0 = time.perf_counter()
        cube = build_data_cube(data, spec_ds.cardinalities, machine)
        host = time.perf_counter() - t0
        builds[kernel] = cube
        m = cube.metrics
        results.append(
            {
                "kernel": kernel,
                "host_seconds": round(host, 4),
                "simulated_seconds": m.simulated_seconds,
                "comm_bytes": m.comm_bytes,
                "disk_blocks": m.disk_blocks,
                "output_rows": m.output_rows,
            }
        )
        print(
            f"  cube[{kernel:9s}]  host {host:6.2f} s   "
            f"sim {m.simulated_seconds:8.4f} s   rows {m.output_rows:,}"
        )
    ref = builds["auto"]
    for kernel, cube in builds.items():
        for rank_ref, rank_got in zip(ref.rank_views, cube.rank_views):
            assert rank_ref.keys() == rank_got.keys()
            for view in rank_ref:
                assert np.array_equal(
                    rank_ref[view].keys, rank_got[view].keys
                ) and np.array_equal(
                    rank_ref[view].measure, rank_got[view].measure
                ), f"kernel {kernel} changed view {view}"
    return {"n": n, "kernels": list(CUBE_KERNELS), "results": results,
            "bit_identical": True}


def run() -> dict:
    micro = run_micro()
    cube = run_cube_equality()
    cal = calibration()
    report = {
        "bench": "sort_kernels",
        "quick": _quick(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration": {
            "argsort_sec_per_row_level": cal.argsort_sec_per_row_level,
            "radix_sec_per_row_pass": cal.radix_sec_per_row_pass,
            "radix_pass_overhead_sec": cal.radix_pass_overhead_sec,
        },
        "targets": {"radix": RADIX_TARGET, "segmented": SEGMENTED_TARGET},
        "micro": micro,
        "cube_equality": cube,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def check_report(report: dict) -> None:
    """Assert the bench's claims.

    Bit-identical outputs are asserted unconditionally (they were checked
    during the runs; re-checked here from the record), and so is the
    metering of the cube builds: a sort is charged for the runs it finds
    in its input, which must be read off the data, never off the kernel,
    so the modelled seconds (``compute_scale=0``), traffic and disk
    blocks are equal under every kernel.  The speedup targets are
    full-mode only: quick mode shrinks the inputs below the regime the
    kernels are for (the cost model itself would pick argsort there), so
    CI records the numbers without gating on them.
    """
    assert report["cube_equality"]["bit_identical"]
    results = report["cube_equality"]["results"]
    for key in ("simulated_seconds", "comm_bytes", "disk_blocks",
                "output_rows"):
        seen = {r["kernel"]: r[key] for r in results}
        assert len(set(seen.values())) == 1, (
            f"{key} differs across kernels: {seen}"
        )
    for lane in ("radix", "segmented"):
        assert report["micro"][lane]["bit_identical"]
    if report["quick"]:
        print("  quick mode: speedup targets recorded, not asserted")
        return
    radix = report["micro"]["radix"]
    assert radix["speedup"] >= RADIX_TARGET, (
        f"radix reached only {radix['speedup']:.2f}x over argsort on "
        f"{radix['rows']:,} uniform keys (target {RADIX_TARGET}x)"
    )
    segmented = report["micro"]["segmented"]
    assert segmented["speedup"] >= SEGMENTED_TARGET, (
        f"segmented reached only {segmented['speedup']:.2f}x over argsort "
        f"on a shared-prefix re-sort of {segmented['rows']:,} rows "
        f"(target {SEGMENTED_TARGET}x)"
    )


def test_sort_kernels():
    check_report(run())


if __name__ == "__main__":
    check_report(run())
    sys.exit(0)
