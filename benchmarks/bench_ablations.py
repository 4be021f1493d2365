"""Ablations beyond the paper's figures (DESIGN.md section 5):
merge case policy, and one-dimensional partitioning on the hard mix."""

from conftest import record

from repro.bench.experiments import ablation_merge_cases, ablation_onedim
from repro.bench.reporting import format_series_table


def test_ablation_merge_cases(benchmark, scale, results_dir):
    title, series, notes = benchmark.pedantic(
        ablation_merge_cases, args=(scale,), rounds=1, iterations=1
    )
    text = format_series_table(title, series, show_comm=True)
    record(results_dir, "ablation_merge_cases", text + f"\n  note: {notes}")

    max_p = max(scale.processors)
    by_label = {s.label: s for s in series}

    def at(label):
        return next(
            pt for pt in by_label[label].points if pt.x == max_p
        )

    # Always re-sorting must move (far) more data than the adaptive rule.
    assert at("always re-sort (case 3)").comm_mb > at("adaptive (paper)").comm_mb
    # Never re-sorting is the comm floor.
    assert at("never re-sort (case 2)").comm_mb <= at("adaptive (paper)").comm_mb * 1.05
    # Section 2.3's point: on uniform data at small p most non-prefix views
    # are nearly in place, and re-sorting (so rewriting) all of them costs
    # far more than splicing the overlaps.
    for adaptive, resort in zip(
        by_label["adaptive (paper)"].points,
        by_label["always re-sort (case 3)"].points,
    ):
        if adaptive.x <= 4:
            assert resort.seconds >= 1.2 * adaptive.seconds, adaptive.x


def test_ablation_onedim(benchmark, scale, results_dir):
    title, series, notes = benchmark.pedantic(
        ablation_onedim, args=(scale,), rounds=1, iterations=1
    )
    text = format_series_table(title, series)
    record(results_dir, "ablation_onedim", text + f"\n  note: {notes}")

    main, onedim = series
    max_p = max(scale.processors)

    def at(s, p):
        return next(pt for pt in s.points if pt.x == p)

    # On the skewed leading dimension, the paper's all-dims partitioning
    # scales while single-dimension partitioning stalls.
    if max_p >= 8:
        assert at(main, max_p).speedup > at(onedim, max_p).speedup


def test_gigabit_projection(benchmark, scale, results_dir):
    """Section 4's forward-looking claim: the 1 Gbit upgrade 'will further
    improve the relative speedup'.  Projected from the superstep log."""
    from repro.bench.harness import dataset_for
    from repro.bench.reporting import format_kv_block
    from repro.config import MachineSpec
    from repro.core.cube import build_data_cube
    from repro.baselines.sequential import sequential_cube
    from repro.data.generator import paper_preset
    from repro.mpi.whatif import gigabit_upgrade, recost_cube

    def run():
        spec_data = paper_preset(scale.n_base, seed=1)
        data = dataset_for(spec_data)
        p = max(scale.processors)
        machine = MachineSpec(p=p)
        cube = build_data_cube(data, spec_data.cardinalities, machine)
        seq = sequential_cube(data, spec_data.cardinalities)
        proj = recost_cube(cube, gigabit_upgrade(machine))
        return seq.metrics.simulated_seconds, cube, proj, p

    seq_s, cube, proj, p = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup_100mbit = seq_s / proj.measured_seconds
    speedup_1gbit = seq_s / proj.projected_seconds
    pairs = [
        (f"relative speedup p={p}, 100 Mbit", f"{speedup_100mbit:.2f}"),
        (f"relative speedup p={p}, 1 Gbit (projected)", f"{speedup_1gbit:.2f}"),
        ("comm time 100 Mbit", f"{proj.measured_comm_seconds:.2f} s"),
        ("comm time 1 Gbit", f"{proj.projected_comm_seconds:.2f} s"),
    ]
    record(
        results_dir, "gigabit_projection",
        format_kv_block("What-if: the paper's announced 1 Gbit upgrade", pairs),
    )
    # the paper's expectation: the faster interconnect improves speedup
    assert speedup_1gbit > speedup_100mbit


def test_molap_space_argument(benchmark, scale, results_dir):
    """Introduction's claim: ROLAP 'requires only linear space'.  Compare
    per-view bytes of the built (ROLAP) cube against dense MOLAP arrays."""
    from repro.baselines.molap import space_comparison
    from repro.baselines.reference import reference_cube
    from repro.bench.harness import dataset_for
    from repro.bench.reporting import format_kv_block
    from repro.data.generator import paper_preset

    def run():
        spec_data = paper_preset(max(2000, scale.n_base // 4), seed=1)
        data = dataset_for(spec_data)
        ref = reference_cube(data, spec_data.cardinalities)
        rows = {v: r.nrows for v, r in ref.items()}
        table = space_comparison(rows, spec_data.cardinalities)
        rolap_total = sum(r for _, r, _ in table)
        molap_total = sum(m for _, _, m in table)
        return rolap_total, molap_total, data.nrows

    rolap_total, molap_total, n = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    pairs = [
        ("input rows", f"{n:,}"),
        ("ROLAP cube bytes (16 B/row)", f"{rolap_total / 1e6:,.1f} MB"),
        ("MOLAP cube bytes (8 B/cell)", f"{molap_total / 1e6:,.1f} MB"),
        ("MOLAP / ROLAP", f"{molap_total / max(rolap_total, 1):,.1f}x"),
    ]
    record(
        results_dir, "molap_space",
        format_kv_block("ROLAP linear space vs dense MOLAP arrays", pairs),
    )
    assert molap_total > rolap_total  # the sparse regime of the paper
