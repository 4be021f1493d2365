"""The three ``build_*`` workloads: timed ``build_data_cube`` calls.

One operation is one complete cube build of the workload's input.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np

from repro import (
    FaultPlan,
    RecoveryPolicy,
    build_data_cube,
    generate_dataset,
)
from repro.mpi import run_spmd
from repro.storage import KeyCodec, sort_pairs

import check
import workloads
from measure import Outcome, dir_stats, median, timed

_SETUP_REPS = 5   # timed set-ups, after one untimed
_MIN_BUILDS = 3
_DRIVE_REPS = 5
_EXCHANGE_ROUNDS = 20
_EXCHANGE_BYTES = 4 << 20


def _noop_program(comm):
    return comm.rank


def _exchange_program(comm, rounds: int, nbytes: int):
    lane = np.zeros(nbytes // 8, dtype=np.int64)
    for _ in range(rounds):
        comm.alltoall([lane] * comm.size)
    return comm.rank


def _phase_sum(phases: dict, kind: str) -> float:
    return float(sum(v for k, v in phases.items() if k.startswith(kind)))


class _BuildRunner:
    """One workload's build call, with its per-call scratch state."""

    def __init__(self, workload: str, cards, workdir: str):
        self.workload = workload
        self.cards = cards
        self.spec = workloads.machine_spec(workload)
        self.crash = workload == "build_ckpt_crash"
        self.ckpt_root = os.path.join(workdir, "ckpt")
        self.ckpt_bytes = 0
        self.ckpt_files = 0

    def reference_build(self, relation):
        """The fault-free build every timed build must equal."""
        return build_data_cube(relation, self.cards, self.spec)

    def build(self, relation):
        """``(seconds, cube)`` of one build; the clock covers the
        ``build_data_cube`` call alone, not the scratch housekeeping."""
        if not self.crash:
            return timed(self.reference_build, relation)
        # A fresh directory per build: resuming from a previous build's
        # chain would skip the work being timed.
        os.makedirs(self.ckpt_root)
        try:
            return timed(
                build_data_cube,
                relation,
                self.cards,
                self.spec,
                checkpoint_dir=self.ckpt_root,
                faults=FaultPlan.parse(workloads.CRASH_FAULT),
                recovery=RecoveryPolicy(max_retries=2),
            )
        finally:
            self.ckpt_bytes, self.ckpt_files = dir_stats(self.ckpt_root)
            shutil.rmtree(self.ckpt_root)


def _run_layers(cube) -> dict[str, float]:
    """Per-layer numbers a finished build exposes by itself."""
    m = cube.metrics
    cases = [c for report in cube.merge_reports for c in report.cases.values()]
    busy = [b for b in m.rank_busy_seconds if b > 0]
    out = {
        "core.merge_case1_views": cases.count("case1"),
        "core.merge_case2_views": cases.count("case2"),
        "core.merge_case3_views": cases.count("case3"),
        "core.attempts": m.attempts,
        "core.recovered_sim_s": m.recovered_seconds,
        "core.sim_partition_s": _phase_sum(m.phase_seconds, "partition-sort"),
        "core.sim_compute_s": _phase_sum(m.phase_seconds, "compute"),
        "core.sim_merge_s": _phase_sum(m.phase_seconds, "merge"),
        "mpi.comm_bytes": m.comm_bytes,
        "mpi.supersteps": len(m.superstep_log),
        "mpi.sim_comm_share": (
            sum(m.phase_comm_seconds.values()) / m.simulated_seconds
        ),
        "mpi.rank_busy_imbalance": max(busy) / (sum(busy) / len(busy)),
        "storage.disk_blocks": m.disk_blocks,
    }
    pool = m.shm_pool  # empty under the thread backend: no shm data plane
    if pool:
        out["mpi.shm_segments_created"] = pool["segments_created"]
        out["mpi.shm_leases"] = pool["leases"]
        out["mpi.shm_reuse_ratio"] = pool["segments_reused"] / pool["leases"]
    return out


def _span_layers(tracer, run_ids: list[int], crash: bool) -> dict[str, float]:
    """Per-build means of the traced spans (seconds summed over ranks)."""
    totals = tracer.totals(set(run_ids))
    n = len(run_ids)
    out = {}
    # A span that never fired leaves its metric out (run.py knows which
    # workloads must have it), so a mistyped name cannot pass for a 0.
    for metric, span, key in (
        ("core.partition_sort_s", "core.partition_sort", "seconds"),
        ("core.pipesort_plan_s", "core.pipesort_plan", "seconds"),
        ("core.pipesort_exec_s", "core.pipesort_exec", "seconds"),
        ("core.merge_s", "core.merge", "seconds"),
        ("core.checkpoint_save_s", "core.checkpoint_save", "seconds"),
        ("mpi.collective_wait_s", "mpi.collective", "seconds"),
        ("storage.sort_s", "storage.sort", "seconds"),
        ("storage.sort_calls", "storage.sort", "calls"),
        ("storage.sort_rows", "storage.sort", "count"),
        ("storage.codec_remap_s", "storage.codec_remap", "seconds"),
        ("storage.aggregate_s", "storage.aggregate", "seconds"),
    ):
        if span in totals:
            out[metric] = totals[span][key] / n
    if crash:
        out["core.resume_s"] = median(
            [tracer.resume_seconds(r) for r in run_ids]
        )
    return out


def _direct_drives(runner: _BuildRunner, relation) -> dict[str, float]:
    """Layers driven by themselves, outside a build."""
    spec = runner.spec
    spawn = [timed(run_spmd, _noop_program, spec)[0] for _ in range(_DRIVE_REPS)]
    exchange = run_spmd(
        _exchange_program, spec, (_EXCHANGE_ROUNDS, _EXCHANGE_BYTES)
    )
    codec = KeyCodec(runner.cards)
    keys = codec.pack(relation.dims)
    sorts = [
        timed(sort_pairs, keys, relation.measure, key_bound=codec.capacity)[0]
        for _ in range(_DRIVE_REPS)
    ]
    return {
        "mpi.spawn_s": median(spawn),
        "mpi.exchange_mb_per_s": (
            exchange.stats.total_bytes / 1e6 / exchange.host_seconds
        ),
        "storage.sort_mrows_per_s": len(keys) / 1e6 / median(sorts),
    }


class _Timed:
    """What the measuring window of a build workload produced."""

    def __init__(self) -> None:
        self.plain: list[float] = []     # untraced build seconds
        self.traced: list[float] = []    # traced build seconds
        self.sims: list[float] = []      # simulated seconds, untraced builds
        self.traced_ids: list[int] = []  # tracer run ids of the traced builds
        self.layers: dict[str, float] = {}  # of a build of ``inputs[0]``


def _timed_builds(runner, inputs, seconds, tally, tracer) -> _Timed:
    """Build for ``seconds`` (at least ``_MIN_BUILDS`` times), taking the
    ``(relation, fingerprint)`` pairs of ``inputs`` in turn; with a
    tracer, every other build runs under it."""
    out = _Timed()
    started = time.perf_counter()
    i = 0
    while i < _MIN_BUILDS or time.perf_counter() - started < seconds:
        with_trace = tracer is not None and i % 2 == 1
        relation, fingerprint = inputs[i % len(inputs)]
        i += 1
        if with_trace:
            tracer.run_id += 1
            tracer.install()
        try:
            dt, cube = runner.build(relation)
        except Exception as exc:  # noqa: BLE001 - a failed build is a result
            tally.record(False, f"build raised {type(exc).__name__}: {exc}")
            continue
        finally:
            if with_trace:
                tracer.uninstall()
        ok = check.cube_fingerprint(cube) == fingerprint
        if runner.crash and cube.metrics.attempts != 2:
            ok = False
        tally.record(ok, "build is not bit-identical to the reference")
        if with_trace:
            out.traced.append(dt)
            out.traced_ids.append(tracer.run_id)
        else:
            out.plain.append(dt)
            out.sims.append(cube.metrics.simulated_seconds)
        if relation is inputs[0][0]:
            # Counts come from one input, so they repeat from run to run
            # however many builds the window held.
            out.layers = _run_layers(cube)
            out.layers["core.checkpoint_bytes"] = runner.ckpt_bytes
            out.layers["core.checkpoint_files"] = runner.ckpt_files
        del cube
        gc.collect()  # between operations, so no build pays for the last one
    return out


def run(workload: str, seed: int, seconds: float, scale: float,
        workdir: str, tracer=None) -> Outcome:
    out = Outcome.start()
    tally = out.tally

    # One set-up is the data generation plus a first build, which also
    # lets lazy state (sort-kernel calibration, codec caches) settle.  The
    # first set-up pays for imports and first-touch pages and is not timed.
    # Each set-up draws its own relation from the seed and leaves the twin
    # that every timed build of that relation must equal bit for bit; the
    # last one is verified in full.  What one draw costs follows its
    # schedule tree (build time by 10%, by 40% on build_ckpt_crash, whose
    # crash lands at a different share of the supersteps), so the timed
    # builds take the draws in turn and a run's medians are over all six.
    cards = workloads.dataset_spec(workload, seed, scale, 0).cardinalities
    runner = _BuildRunner(workload, cards, workdir)
    setups, generates, inputs = [], [], []
    for draw in range(1 + _SETUP_REPS):
        dspec = workloads.dataset_spec(workload, seed, scale, draw)
        start = time.perf_counter()
        relation = generate_dataset(dspec)
        generates.append(time.perf_counter() - start)
        reference = runner.reference_build(relation)
        setups.append(time.perf_counter() - start)
        inputs.append((relation, check.cube_fingerprint(reference)))
    del setups[0], generates[0]
    problem = check.verify_build(reference, relation, cards, seed)
    tally.record(not problem, f"reference build: {problem}")
    del reference
    # The verified draw goes first: the counts are taken from its builds.
    # A traced run stays on it, so spans and counts are of one input.
    inputs = inputs[::-1] if tracer is None else inputs[-1:]

    timed_ = _timed_builds(runner, inputs, seconds, tally, tracer)
    plain, traced = timed_.plain, timed_.traced

    out.notes = {
        "rows": dspec.n,
        "builds_timed": len(plain),
        "builds_traced": len(traced),
    }
    if plain:
        out.e2e = {
            "setup_s": median(setups),
            "sim_build_s": median(timed_.sims),
        }
        out.layers["op_p50_ms"] = median(plain) * 1e3
        out.layers["throughput_ops"] = len(plain) / sum(plain)
    out.layers.update(timed_.layers)
    out.layers["data.generate_s"] = median(generates)
    if traced and plain:
        traced_ids = timed_.traced_ids
        if runner.spec.backend == "process":
            # Forked ranks take their spans with them; the same input on
            # the thread backend at the same p gives the core/storage
            # split, and the difference is what the process runtime costs.
            tracer.run_id += 1
            with tracer:
                twin_s = timed(
                    build_data_cube, relation, cards,
                    runner.spec.with_backend("thread"),
                )[0]
            traced_ids = [tracer.run_id]
            out.layers["mpi.backend_overhead_s"] = median(plain) - twin_s
        out.layers.update(_span_layers(tracer, traced_ids, runner.crash))
        out.layers.update(_direct_drives(runner, relation))
        out.layers["bench.trace_overhead"] = (
            median(traced) - median(plain)
        ) / median(plain)
    return out.finish()
