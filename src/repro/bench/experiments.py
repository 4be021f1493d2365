"""One entry point per figure of the paper's evaluation (Section 4).

Every function returns ``(title, series, notes)`` where ``series`` is a
list of :class:`~repro.bench.harness.Series` ready for
:func:`~repro.bench.reporting.format_series_table`.  Parameters follow the
paper exactly, modulo the documented scale-down and two cardinality
substitutions forced by the 63-bit packed-key space (see DESIGN.md):

* Figure 9 mix A uses ``|Di| = 128`` instead of 256 (256^8 = 2^64 exceeds
  the key space; the sparsity regime is unchanged at our row counts).
* Figure 10 sweeps dimensionality with ``|Di| = 32`` instead of 256
  (256^10 = 2^80); the figure's subject — output size growing ~2^d — is
  preserved.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.baselines.local_tree import local_tree_cube
from repro.baselines.onedim import onedim_partition_cube
from repro.baselines.sequential import sequential_cube
from repro.bench.harness import (
    BenchScale,
    Series,
    SeriesPoint,
    dataset_for,
    speedup_sweep,
)
from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.views import View, all_views
from repro.data.generator import DatasetSpec, paper_preset

__all__ = [
    "fig5_speedup",
    "fig6_partial",
    "fig7_schedule_trees",
    "fig8_skew",
    "fig9_cardinality",
    "fig10_dimensionality",
    "fig11_balance",
    "headline",
    "ablation_merge_cases",
    "ablation_onedim",
]


def _p8(n: int, **kw) -> DatasetSpec:
    return paper_preset(n, **kw)


# ---------------------------------------------------------------------------
# Figure 5: relative speedup, full cube, two input sizes
# ---------------------------------------------------------------------------


def fig5_speedup(scale: BenchScale) -> tuple[str, list[Series], str]:
    series = []
    for mult in (1, 2):
        n = scale.n_base * mult
        spec = _p8(n)
        data = dataset_for(spec)
        series.append(
            speedup_sweep(
                f"n={n:,}", data, spec.cardinalities, scale.processors
            )
        )
    notes = (
        "Paper: n=1M and n=2M on 16 nodes; larger n amortises communication "
        "better, approaching linear speedup."
    )
    return "Figure 5: full-cube wall clock and relative speedup", series, notes


# ---------------------------------------------------------------------------
# Figure 6: partial cubes at 25/50/75/100% selected views
# ---------------------------------------------------------------------------


def select_views(d: int, percent: int, seed: int = 1701) -> list[View]:
    """A reproducible ``percent``-% sample of the 2^d - 1 non-trivial views
    (the raw-data view itself is never 'selected')."""
    pool = [v for v in all_views(d) if 0 < len(v) < d]
    pool.append(())  # ALL is selectable
    rng = random.Random(seed)
    k = max(1, round(len(pool) * percent / 100))
    chosen = rng.sample(pool, k)
    if percent == 100:
        chosen = pool + [tuple(range(d))]
    return chosen


def fig6_partial(scale: BenchScale) -> tuple[str, list[Series], str]:
    n = scale.n_base * 2
    spec = _p8(n)
    data = dataset_for(spec)
    d = spec.d
    series = []
    for percent in (25, 50, 75, 100):
        selected = None if percent == 100 else select_views(d, percent)
        seq = sequential_cube(
            data, spec.cardinalities, selected=selected
        ).metrics.simulated_seconds
        s = Series(label=f"{percent}% selected", x_name="processors")
        for p in scale.processors:
            cube = build_data_cube(
                data,
                spec.cardinalities,
                MachineSpec(p=p),
                selected=selected,
            )
            s.points.append(
                SeriesPoint(
                    x=p,
                    seconds=cube.metrics.simulated_seconds,
                    speedup=seq / cube.metrics.simulated_seconds,
                    comm_mb=cube.metrics.comm_bytes / 1e6,
                )
            )
        series.append(s)
    notes = (
        "Paper: >=50% selected tracks the full-cube speedup with a small "
        "penalty; 25% stays above half of linear; tiny selections collapse."
    )
    return "Figure 6: partial-cube wall clock and speedup", series, notes


# ---------------------------------------------------------------------------
# Figure 7: local vs global schedule trees
# ---------------------------------------------------------------------------


def fig7_schedule_trees(scale: BenchScale) -> tuple[str, list[Series], str]:
    spec = _p8(scale.n_base)
    data = dataset_for(spec)
    seq = sequential_cube(data, spec.cardinalities).metrics.simulated_seconds
    global_series = speedup_sweep(
        "global tree", data, spec.cardinalities, scale.processors,
        sequential_seconds=seq,
    )
    local_series = speedup_sweep(
        "local trees", data, spec.cardinalities, scale.processors,
        builder=lambda rel, cards, mspec, cfg: local_tree_cube(
            rel, cards, mspec, cfg
        ),
        sequential_seconds=seq,
    )
    notes = (
        "Paper conclusion (Sections 2.3/4.2 text, Figure 7 curves): the "
        "global schedule tree wins because local trees force per-view "
        "re-sorts into a common order before Merge-Partitions.  (The paper "
        "contains a typo calling local trees 'superior'; its own Section "
        "2.3 states the opposite twice.)"
    )
    return "Figure 7: local vs global schedule trees", \
        [global_series, local_series], notes


# ---------------------------------------------------------------------------
# Figure 8: data skew — time and communication volume vs alpha
# ---------------------------------------------------------------------------


def fig8_skew(scale: BenchScale) -> tuple[str, list[Series], str]:
    p = max(scale.processors)
    series = Series(label=f"p={p}", x_name="alpha")
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        spec = _p8(scale.n_base, alpha=alpha)
        data = dataset_for(spec)
        cube = build_data_cube(data, spec.cardinalities, MachineSpec(p=p))
        series.points.append(
            SeriesPoint(
                x=alpha,
                seconds=cube.metrics.simulated_seconds,
                comm_mb=cube.metrics.comm_bytes / 1e6,
                extra={"output_rows": cube.metrics.output_rows},
            )
        )
    notes = (
        "Paper: time falls as skew rises (data reduction); communicated "
        "bytes spike around alpha=1 then collapse for alpha>1."
    )
    return "Figure 8: skew vs time and communicated data", [series], notes


# ---------------------------------------------------------------------------
# Figure 9: cardinality mixes A-D
# ---------------------------------------------------------------------------


def fig9_cardinality(scale: BenchScale) -> tuple[str, list[Series], str]:
    mixes: list[tuple[str, DatasetSpec]] = [
        # (A) all-high cardinality: 128 substitutes the paper's 256 (2^64
        #     would overflow the packed-key space); equally ultra-sparse.
        ("A: |Di|=128", DatasetSpec(scale.n_base, (128,) * 8, (0.0,) * 8)),
        ("B: paper mix", _p8(scale.n_base)),
        ("C: |Di|=16", DatasetSpec(scale.n_base, (16,) * 8, (0.0,) * 8)),
        ("D: B + a0=3", _p8(scale.n_base, mix="D")),
    ]
    series = []
    for label, spec in mixes:
        data = dataset_for(spec)
        series.append(
            speedup_sweep(label, data, spec.cardinalities, scale.processors)
        )
    notes = (
        "Paper: sparser mixes (A) take longer in absolute time with similar "
        "speedup; the hard case D (high-skew, high-cardinality leading "
        "dimension) loses speedup but stays above half of linear."
    )
    return "Figure 9: cardinality mixes", series, notes


# ---------------------------------------------------------------------------
# Figure 10: dimensionality sweep
# ---------------------------------------------------------------------------


def fig10_dimensionality(scale: BenchScale) -> tuple[str, list[Series], str]:
    p = max(scale.processors)
    series = Series(label=f"p={p}", x_name="dimensions")
    for d in (6, 7, 8, 9, 10):
        spec = DatasetSpec(scale.n_base, (32,) * d, (0.0,) * d)
        data = dataset_for(spec)
        cube = build_data_cube(data, spec.cardinalities, MachineSpec(p=p))
        series.points.append(
            SeriesPoint(
                x=d,
                seconds=cube.metrics.simulated_seconds,
                comm_mb=cube.metrics.comm_bytes / 1e6,
                extra={"output_rows": cube.metrics.output_rows},
            )
        )
    notes = (
        "Paper: wall clock grows essentially linearly with the output size, "
        "which itself grows ~2^d.  (|Di|=32 substitutes the paper's 256: "
        "256^10 exceeds the 63-bit packed-key space; the 2^d view-count "
        "growth driving the figure is unchanged.)"
    )
    return "Figure 10: wall clock vs dimensionality", [series], notes


# ---------------------------------------------------------------------------
# Figure 11: balance-threshold sweep
# ---------------------------------------------------------------------------


def fig11_balance(scale: BenchScale) -> tuple[str, list[Series], str]:
    spec = _p8(scale.n_base)
    data = dataset_for(spec)
    seq = sequential_cube(data, spec.cardinalities).metrics.simulated_seconds
    series = []
    for gamma in (0.03, 0.05, 0.07):
        config = CubeConfig(gamma_merge=gamma)
        series.append(
            speedup_sweep(
                f"gamma={gamma:.0%}", data, spec.cardinalities,
                scale.processors, config=config,
                sequential_seconds=seq,
            )
        )
    notes = (
        "Paper: smaller gamma means better per-view balance at slightly "
        "higher construction time; the effect is small and 3% is a good "
        "default."
    )
    return "Figure 11: balance thresholds", series, notes


# ---------------------------------------------------------------------------
# Headline claims (abstract / Section 4.1)
# ---------------------------------------------------------------------------


def headline(scale: BenchScale) -> tuple[str, list[tuple[str, str]], str]:
    pairs = []
    p = max(scale.processors)
    for mult, paper_rows, paper_out in ((2, "2,000,000", 227e6),):
        n = scale.n_base * mult
        spec = _p8(n)
        data = dataset_for(spec)
        cube = build_data_cube(data, spec.cardinalities, MachineSpec(p=p))
        seq = sequential_cube(data, spec.cardinalities)
        pairs.extend(
            [
                (f"input rows (stands in for {paper_rows})", f"{n:,}"),
                ("output rows", f"{cube.metrics.output_rows:,}"),
                (
                    "output/input ratio (paper: ~113x at n=2M)",
                    f"{cube.metrics.output_rows / max(n, 1):.1f}x",
                ),
                (
                    f"parallel time p={p}",
                    f"{cube.metrics.simulated_seconds:.1f} s (simulated)",
                ),
                (
                    "sequential time",
                    f"{seq.metrics.simulated_seconds:.1f} s (simulated)",
                ),
                (
                    "relative speedup",
                    f"{seq.metrics.simulated_seconds / cube.metrics.simulated_seconds:.2f}",
                ),
                (
                    "communication",
                    f"{cube.metrics.comm_bytes / 1e6:.1f} MB",
                ),
            ]
        )
    notes = (
        "Paper: 2M rows -> ~227M-row cube in under 6 minutes on 16 nodes "
        "(close to optimal speedup).  The output/input ratio is density-"
        "dependent and therefore differs at reduced scale; the speedup and "
        "the sub-6-minute-equivalent shape are the reproduced claims."
    )
    return "Headline claims", pairs, notes


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures (DESIGN.md section 5)
# ---------------------------------------------------------------------------


def ablation_merge_cases(scale: BenchScale) -> tuple[str, list[Series], str]:
    """Force the merge down each path to show why the 3-case design wins."""
    spec = _p8(scale.n_base)
    data = dataset_for(spec)
    seq = sequential_cube(data, spec.cardinalities).metrics.simulated_seconds
    variants = [
        ("adaptive (paper)", CubeConfig()),
        ("always re-sort (case 3)", CubeConfig(merge_policy="always_resort")),
        ("never re-sort (case 2)", CubeConfig(merge_policy="never_resort")),
    ]
    series = []
    for label, config in variants:
        series.append(
            speedup_sweep(
                label, data, spec.cardinalities, scale.processors,
                config=config, sequential_seconds=seq,
            )
        )
    notes = (
        "Always rebalancing sends every non-prefix view through case 3: "
        "after the route, its overflow rides a positional shift (or a "
        "sample-merge re-sort where that is predicted cheaper); never "
        "rebalancing leaves skew-lopsided views (slower OLAP scans later) "
        "but builds fastest.  The adaptive rule buys balance at a small "
        "premium."
    )
    return "Ablation: merge case policy", series, notes


def ablation_onedim(scale: BenchScale) -> tuple[str, list[Series], str]:
    """Section 2.2's rejected design vs the paper's, on the hard mix D."""
    spec = _p8(scale.n_base, mix="D")
    data = dataset_for(spec)
    seq = sequential_cube(data, spec.cardinalities).metrics.simulated_seconds
    main = speedup_sweep(
        "partition all dims (paper)", data, spec.cardinalities,
        scale.processors, sequential_seconds=seq,
    )
    onedim = Series(label="partition on D0 only", x_name="processors")
    for p in scale.processors:
        cube = onedim_partition_cube(
            data, spec.cardinalities, MachineSpec(p=p)
        )
        onedim.points.append(
            SeriesPoint(
                x=p,
                seconds=cube.metrics.simulated_seconds,
                speedup=seq / cube.metrics.simulated_seconds,
                comm_mb=cube.metrics.comm_bytes / 1e6,
            )
        )
    notes = (
        "With alpha0=3 most rows share one leading-dimension value, so "
        "single-dimension partitioning stops scaling (its heaviest rank "
        "holds most of the data) while the paper's all-dims partitioning "
        "keeps improving with p."
    )
    return "Ablation: one-dimensional data partitioning", [main, onedim], notes
