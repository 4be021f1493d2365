#!/usr/bin/env python
"""Partial cubes: materialise only the views a query workload needs.

Section 3 of the paper: with d = 20 you would never build 2^20 views.
This example takes a clickstream workload, selects the views its queries
group by (the paper takes a partial cube's selected views as given;
choosing them is view selection, its reference [12]), builds the partial
cube, and compares its cost against the full cube and against the naive
one-sort-per-view strategy the paper recommends for tiny selections.

Run with::

    python examples/partial_cube_advisor.py
"""

from repro import MachineSpec, build_data_cube, build_partial_cube
from repro.baselines.naive import naive_sequential_cube
from repro.baselines.sequential import sequential_cube
from repro.core.views import view_name
from repro.data.datasets import weblog_hits


def workload_views(dataset):
    """The dashboards this warehouse actually serves."""
    queries = [
        ("traffic by country",            ("country",)),
        ("errors by url",                 ("url", "status")),
        ("hourly traffic",                ("hour",)),
        ("hourly errors",                 ("hour", "status")),
        ("referrer quality",              ("referrer", "status")),
        ("agent share by country",        ("user_agent", "country")),
        ("url popularity",                ("url",)),
        ("grand total",                   ()),
    ]
    return [(label, dataset.view_of(*dims)) for label, dims in queries]


def main() -> None:
    dataset = weblog_hits(n=40_000)
    data = dataset.generate()
    d = data.width
    queries = workload_views(dataset)
    print(
        f"{dataset.name}: {data.nrows:,} hits, {d} dimensions "
        f"(2^{d} = {2**d} possible views)"
    )

    # materialise exactly the views the workload groups by
    selected = sorted(
        {view for _, view in queries}, key=lambda v: (len(v), v)
    )
    print(f"materialising {len(selected)} views: "
          + ", ".join(view_name(v) for v in selected))

    machine = MachineSpec(p=8)

    partial = build_partial_cube(data, dataset.cardinalities, selected, machine)
    full = build_data_cube(data, dataset.cardinalities, machine)
    naive = naive_sequential_cube(data, dataset.cardinalities, selected=selected)
    seq_partial = sequential_cube(data, dataset.cardinalities, selected=selected)

    print("\nstrategy comparison (simulated seconds):")
    rows = [
        ("partial cube, 8 nodes (this paper)", partial.metrics),
        ("full cube, 8 nodes", full.metrics),
        ("partial cube, sequential", seq_partial.metrics),
        ("naive per-view sorts, sequential", naive.metrics),
    ]
    for label, metrics in rows:
        print(
            f"  {label:36s} {metrics.simulated_seconds:8.1f}s   "
            f"{metrics.output_rows:10,} rows materialised"
        )

    saved = 1 - partial.metrics.simulated_seconds / full.metrics.simulated_seconds
    print(
        f"\nthe partial build is {saved:.0%} cheaper than the full cube "
        f"while serving the entire workload:"
    )
    for label, view in queries:
        rel = partial.view_relation(view)
        print(f"  {label:28s} <- view {view_name(view):6s} ({rel.nrows:,} rows)")

    # intermediate views: scheduled but not returned
    tree_views = {
        v for tree in partial.schedule_trees for v in tree.views()
    }
    intermediates = tree_views - set(partial.views)
    print(
        f"\nschedule trees computed {len(intermediates)} intermediate "
        f"view(s) on the way: "
        + (", ".join(sorted(view_name(v) for v in intermediates)) or "none")
    )


if __name__ == "__main__":
    main()
