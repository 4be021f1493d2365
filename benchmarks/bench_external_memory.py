"""Beyond the paper's figures: the external-memory regime.

The paper's nodes have 512 MB of RAM against a 72-360 MB input; its cost
analysis is written in the Vitter I/O model precisely because larger
warehouses spill.  This bench shrinks the per-node memory budget until
sorts go external and measures what the paper's analysis predicts:

* block transfers grow by one read+write of the data per extra merge
  pass (``O((n/B)·log_{m/B}(n/B))``),
* data partitioning (p-way splitting) pulls per-node working sets back
  under the memory budget — a 16-node cluster keeps sorting in memory
  long after the sequential machine has spilled,
* memory-fit buys reads as well as sorts: with room for everything the
  only blocks read are the raw input's (every Pipesort parent stays
  resident until its last sort child is made), and a smaller budget
  never charges fewer blocks.
"""

from conftest import record

from repro.bench.harness import dataset_for
from repro.bench.reporting import format_kv_block
from repro.config import MachineSpec
from repro.core.cube import build_data_cube
from repro.baselines.sequential import sequential_cube
from repro.data.generator import paper_preset


def test_external_memory_regime(benchmark, scale, results_dir):
    def run():
        spec = paper_preset(scale.n_base, seed=11)
        data = dataset_for(spec)
        p = max(scale.processors)
        # memory budget of half the input rows: the sequential machine
        # must run external sorts, each cluster node stays in memory.
        budget = max(512, scale.n_base // 2)
        roomy = MachineSpec(p=1, memory_budget=1 << 21)
        tight = MachineSpec(p=1, memory_budget=budget, block_size=256)
        tight_par = MachineSpec(p=p, memory_budget=budget, block_size=256)

        seq_roomy = sequential_cube(data, spec.cardinalities, roomy)
        seq_tight = sequential_cube(data, spec.cardinalities, tight)
        par_tight = build_data_cube(data, spec.cardinalities, tight_par)
        # the sequential machine down a budget ladder, one block size
        ladder = [
            (m, sequential_cube(
                data, spec.cardinalities,
                MachineSpec(p=1, memory_budget=m, block_size=256),
            ).metrics.disk_blocks)
            for m in (1 << 21, 2 * scale.n_base, scale.n_base)
        ] + [(budget, seq_tight.metrics.disk_blocks)]
        raw_blocks = -(-data.nrows // roomy.block_size)
        return (seq_roomy.metrics, seq_tight.metrics, par_tight.metrics, p,
                ladder, raw_blocks)

    seq_roomy, seq_tight, par_tight, p, ladder, raw_blocks = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    def blocks(m):
        return (f"({m.disk_blocks:,} blocks: {m.disk_blocks_read:,} read"
                f" + {m.disk_blocks_written:,} written)")

    pairs = [
        ("sequential, memory-resident",
         f"{seq_roomy.simulated_seconds:.1f} s  {blocks(seq_roomy)}"),
        ("sequential, constrained memory",
         f"{seq_tight.simulated_seconds:.1f} s  {blocks(seq_tight)}"),
        (f"parallel p={p}, constrained memory",
         f"{par_tight.simulated_seconds:.1f} s  {blocks(par_tight)}"),
        ("spill penalty (sequential)",
         f"{seq_tight.simulated_seconds / seq_roomy.simulated_seconds:.2f}x"),
        ("parallel speedup in the spill regime",
         f"{seq_tight.simulated_seconds / par_tight.simulated_seconds:.2f}x"),
        ("sequential blocks by budget (B=256)",
         ", ".join(f"{m:,}: {b:,}" for m, b in ladder)),
    ]
    record(
        results_dir,
        "external_memory",
        format_kv_block("External-memory regime (constrained budgets)", pairs),
    )

    # With room for everything the raw input is all that is read...
    assert seq_roomy.disk_blocks_read == raw_blocks
    # ...and less memory never charges fewer blocks.
    counts = [b for _, b in ladder]
    assert counts == sorted(counts)
    # Spilling must cost real block traffic...
    assert seq_tight.disk_blocks > seq_roomy.disk_blocks * 1.5
    assert seq_tight.simulated_seconds > seq_roomy.simulated_seconds
    # ...and partitioning must claw the loss back (memory-fit is a real
    # benefit of shared-nothing scale-out).
    assert (
        seq_tight.simulated_seconds / par_tight.simulated_seconds
        > seq_tight.simulated_seconds / seq_roomy.simulated_seconds
    )
