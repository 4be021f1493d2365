"""Machine and run configuration for the simulated shared-nothing cluster.

The paper's platform is a 16-node Beowulf cluster (1.8 GHz Xeon, 512 MB RAM,
IDE disks, 100 Mbit Ethernet).  We cannot attach real hardware, so every
quantity the paper's analysis reasons about is modelled explicitly here:

* ``p``                -- number of (virtual) processors,
* ``memory_budget``    -- per-processor main-memory budget in *rows* used by
                          the external-memory sort,
* ``block_size``       -- disk block transfer size in *rows* (the ``B`` of
                          the external-memory model),
* ``beta_sec_per_mb``  -- network inverse bandwidth (seconds per megabyte of
                          the maximum per-rank h-relation volume),
* ``latency_sec``      -- per-collective latency (the ``λ`` of a BSP
                          superstep),
* ``disk_sec_per_block`` -- cost charged per block transfer,
* ``sort_sec_per_row_level`` / ``scan_sec_per_row`` -- per-row CPU work
                          charged for sorting and streaming.

Simulated time is built from these charges alone (``repro.mpi.clock``):
no host measurement enters it, so it is exact and repeats bit for bit.

Defaults are calibrated to the paper's regime: "communication speed is
extremely slow in comparison to computation speed" (100 Mbit switch vs Xeon
CPUs), which is what makes the merge-avoidance machinery worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


#: Balance threshold used by the data-partitioning global sort (Procedure 1,
#: step 1b): "In our implementation we use a threshold value of γ = 1%."
GAMMA_PARTITION_DEFAULT = 0.01

#: Balance threshold used by Merge-Partitions for the case-2/case-3 decision
#: and the case-3 re-sort (Procedure 3, step 5 uses γ = 3%).
GAMMA_MERGE_DEFAULT = 0.03


@dataclass(frozen=True)
class MachineSpec:
    """Static description of the simulated shared-nothing machine.

    Instances are immutable; derive variants with :meth:`with_processors`
    or :func:`dataclasses.replace`.
    """

    #: Number of virtual processors (MPI ranks).
    p: int = 4
    #: Execution backend for the SPMD engine: ``"thread"`` runs ranks as
    #: threads in one process (deterministic default; the GIL serialises
    #: Python-level rank code, so ``host_seconds`` does not improve with
    #: ``p``), ``"process"`` forks one worker process per rank with
    #: shared-memory collectives (``host_seconds`` scales with real
    #: cores).  Simulated-time accounting is backend-independent.
    backend: str = "thread"
    #: Per-processor in-memory row budget for external-memory operations.
    #: The default mirrors the paper's regime (512 MB nodes vs a 72-360 MB
    #: data set: sorts run in memory at benchmark scales on the sequential
    #: baseline too, so speedups stay sub-linear as in the paper).  Shrink
    #: it to force the external-memory sort paths.
    memory_budget: int = 1 << 21
    #: Disk block size in rows (``B`` in the external-memory model).
    block_size: int = 1 << 10
    #: Seconds charged per megabyte of max-per-rank h-relation traffic.
    #: 100 Mbit Ethernet moves ~12.5 MB/s; 0.08 s/MB matches that era.
    beta_sec_per_mb: float = 0.08
    #: Fixed latency charged per collective operation (seconds).
    latency_sec: float = 1e-3
    #: Seconds charged per disk block transfer.  7200 RPM IDE streamed
    #: ~25 MB/s; one 1024-row (36 KB) block ≈ 1.4 ms.
    disk_sec_per_block: float = 1.4e-3
    #: Modelled CPU cost of sorting: seconds per row per log2-level.  A
    #: sort that fits in memory merges the ascending runs its input
    #: already holds, ``a · Σ n_s · log2 r_s`` over its segments (one run
    #: costs nothing); one that spills is ``n`` runs, ``a · n · log2 n``
    #: (:func:`repro.storage.external_sort.external_sort`).  The runs are
    #: read off the data, so the charge does not depend on the host sort,
    #: which is always NumPy's stable sort.
    #: 0.2 µs/row-level ≈ a 1.8 GHz Xeon comparison-sorting 36-byte
    #: records; it reproduces the paper's sequential magnitudes
    #: (n = 1M, 255 views → O(10^3) seconds).
    sort_sec_per_row_level: float = 2.0e-7
    #: Modelled CPU cost of streaming work (scan-aggregate, merge, pack):
    #: seconds per row touched.
    scan_sec_per_row: float = 2.0e-7
    #: Supervision: real seconds of pipe silence after which a *live*
    #: worker is declared a hung straggler (:class:`~repro.mpi.errors.
    #: RankHung`, a transient failure); a worker that exits is reported
    #: dead at once, without a deadline.  ``None`` falls back to the
    #: barrier timeout (:data:`repro.mpi.comm.BARRIER_TIMEOUT_SEC`) —
    #: long compute between collectives never false-triggers by default.
    suspect_after: float | None = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.memory_budget < 4:
            raise ValueError(
                f"memory_budget must be >= 4 rows, got {self.memory_budget}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.block_size > self.memory_budget:
            raise ValueError(
                "block_size must not exceed memory_budget "
                f"({self.block_size} > {self.memory_budget})"
            )
        if self.beta_sec_per_mb < 0 or self.latency_sec < 0:
            raise ValueError("network cost parameters must be non-negative")
        if self.disk_sec_per_block < 0:
            raise ValueError("disk_sec_per_block must be non-negative")
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"unknown execution backend: {self.backend!r} "
                "(expected 'thread' or 'process')"
            )
        if self.suspect_after is not None and self.suspect_after <= 0:
            raise ValueError("suspect_after must be positive (or None)")

    def with_processors(self, p: int) -> "MachineSpec":
        """Return a copy of this spec with a different processor count."""
        return replace(self, p=p)

    def with_backend(self, backend: str) -> "MachineSpec":
        """Return a copy of this spec with a different execution backend."""
        return replace(self, backend=backend)

    def comm_cost(self, max_rank_bytes: int) -> float:
        """BSP cost of one h-relation whose largest per-rank volume
        (bytes in + bytes out on the busiest rank) is ``max_rank_bytes``."""
        return self.latency_sec + self.beta_sec_per_mb * max_rank_bytes / 1e6


@dataclass(frozen=True)
class CubeConfig:
    """Algorithm-level knobs of the parallel cube construction."""

    #: Balance threshold γ for the partitioning sort (Procedure 1 step 1b).
    gamma_partition: float = GAMMA_PARTITION_DEFAULT
    #: Balance threshold γ for Merge-Partitions case selection / re-sort.
    gamma_merge: float = GAMMA_MERGE_DEFAULT
    #: Use one global schedule tree per partition (paper's choice) or let
    #: every rank build its own local tree (the Figure 7 comparator).
    global_schedule_tree: bool = True
    #: Merge-phase policy for non-prefix views: "adaptive" (the paper's
    #: γ-driven case-2/case-3 choice), "always_resort" (every non-prefix
    #: view rebalanced by case 3, whichever mechanism it prices cheaper)
    #: or "never_resort" (none: ownership routing regardless of
    #: imbalance) — the latter two exist for the ablation benchmarks.
    merge_policy: str = "adaptive"
    #: Aggregate function applied to the measure column.
    agg: str = "sum"
    #: Heterogeneity-aware partitioning: meter per-rank throughput during
    #: the sample-sort phase and size each rank's h-relation share
    #: proportional to its measured speed (Cérin-style non-uniform
    #: pivots) instead of uniform ``n/p``.  Content is unchanged — only
    #: the distribution across ranks moves.  The share clamp and the
    #: blend weight are constants of :mod:`repro.mpi.speed`.
    hetero: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma_partition <= 1.0:
            raise ValueError(
                f"gamma_partition must be in (0, 1], got {self.gamma_partition}"
            )
        if not 0.0 < self.gamma_merge <= 1.0:
            raise ValueError(
                f"gamma_merge must be in (0, 1], got {self.gamma_merge}"
            )
        if self.merge_policy not in ("adaptive", "always_resort", "never_resort"):
            raise ValueError(
                f"unknown merge_policy: {self.merge_policy!r}"
            )
        if self.agg not in ("sum", "count", "min", "max"):
            raise ValueError(f"unsupported aggregate: {self.agg!r}")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How :func:`~repro.core.cube.build_data_cube` reacts to rank failures.

    On a retryable failure (an injected fault, a corrupt payload, a dead
    or timed-out rank — any :class:`~repro.mpi.errors.MPIError` except
    :class:`~repro.mpi.errors.CollectiveMisuse`, which is a programming
    error and would fail identically on every retry), the driver restarts
    the SPMD run.  With a checkpoint directory configured the restart
    resumes from the last dimension iteration every rank completed;
    without one it re-executes from scratch.  Either way the failed
    attempts' committed simulated time, traffic and disk transfers are
    folded into the final metrics, so recovery cost is never hidden.

    ``mode="degrade"`` adds elastic width reduction on *permanent* rank
    loss (see :func:`repro.mpi.errors.classify_failure`): the dead rank is
    blacklisted, its checkpointed state is resharded across the p' = p - k
    survivors, and the build continues at width p'.  Transient failures
    still retry at the current width, with a fresh retry budget after
    every width change; a rank that exhausts the transient budget is
    promoted to a permanent loss.  ``min_ranks`` is the floor below which
    degradation gives up and re-raises.
    """

    #: Same-width restart attempts per width (0 = no transient retries).
    max_retries: int = 2
    #: ``"restart"`` retries every failure at full width (the PR-2
    #: behaviour); ``"degrade"`` drops permanently lost ranks and
    #: continues at reduced width.
    mode: str = "restart"
    #: Smallest width degrade mode may shrink to; losing a rank that
    #: would drop below this floor re-raises the failure instead.
    min_ranks: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.mode not in ("restart", "degrade"):
            raise ValueError(
                f"unknown recovery mode: {self.mode!r} "
                "(expected 'restart' or 'degrade')"
            )
        if self.min_ranks < 1:
            raise ValueError(f"min_ranks must be >= 1, got {self.min_ranks}")

    def is_retryable(self, exc: BaseException) -> bool:
        # Imported lazily: repro.mpi.__init__ pulls in the engine, which
        # imports this module back.
        from repro.mpi.errors import CollectiveMisuse, MPIError

        if isinstance(exc, CollectiveMisuse):
            return False
        return isinstance(exc, MPIError)


@dataclass
class RunResult:
    """Outcome record of one parallel cube construction run."""

    #: Simulated parallel wall-clock seconds (BSP model).
    simulated_seconds: float
    #: Real wall-clock seconds the simulation itself took.
    host_seconds: float
    #: Total rows across all views of the produced cube.
    output_rows: int
    #: Number of views materialised.
    view_count: int
    #: Total bytes moved through the virtual network.
    comm_bytes: int
    #: Total disk block transfers across all ranks.
    disk_blocks: int
    #: The reads among :attr:`disk_blocks`; the rest are
    #: :attr:`disk_blocks_written`.  Filled by the cube builders, 0 in
    #: results that charge no disk.
    disk_blocks_read: int = 0
    #: Free-form per-phase breakdown (phase name -> simulated seconds).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Communication-only per-phase breakdown.
    phase_comm_seconds: dict[str, float] = field(default_factory=dict)
    #: Full superstep log (SuperstepRecord objects) — feeds the what-if
    #: network projection and the trace diagnostics.
    superstep_log: list = field(default_factory=list)
    #: SPMD attempts executed (1 = no failures; >1 means recovery ran).
    attempts: int = 1
    #: Simulated seconds consumed by *failed* attempts —
    #: already included in :attr:`simulated_seconds`.
    recovered_seconds: float = 0.0
    #: Network bytes of failed attempts — included in :attr:`comm_bytes`.
    recovered_bytes: int = 0
    #: Disk block transfers of failed attempts — included in
    #: :attr:`disk_blocks`.
    recovered_blocks: int = 0
    #: Result-segment counters of the process backend
    #: (``segments_created``, ``leases``, ``segments_reused``: one segment
    #: per rank result, see :func:`repro.mpi.shm.write_result`), of the
    #: attempt that produced the cube.  Empty for the thread backend.
    shm_pool: dict = field(default_factory=dict)
    #: Ranks permanently lost (blacklisted) during a degraded-mode run,
    #: in loss order, numbered in the width they died at.  Empty unless
    #: ``RecoveryPolicy(mode="degrade")`` dropped someone.
    ranks_lost: list[int] = field(default_factory=list)
    #: Width the successful attempt ran at (== the spec's ``p`` unless
    #: degraded-mode recovery shrank the cluster).  1 for the sequential
    #: baseline, 0 in results of the other baselines.
    final_width: int = 0
    #: Same-width transient retries consumed across the whole run (every
    #: width's budget counted; permanent losses are not included).
    transient_retries: int = 0
    #: Post-build integrity audit summary (see :func:`repro.core.audit.
    #: audit_cube`): ``{"ok": bool, "checks": {...}, "issues": [...]}``.
    #: ``None`` when the audit was not requested.
    audit: dict | None = None
    #: The winning attempt's final per-rank speed model
    #: (:meth:`repro.mpi.speed.RankSpeedModel.to_dict`); ``None`` unless
    #: ``CubeConfig.hetero`` was on.
    speed_model: dict | None = None
    #: Per-rank cumulative local-work seconds of the winning attempt —
    #: the finish-time spread across ranks (empty for baselines).
    rank_busy_seconds: list[float] = field(default_factory=list)

    @property
    def disk_blocks_written(self) -> int:
        """The writes among :attr:`disk_blocks`."""
        return self.disk_blocks - self.disk_blocks_read

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.view_count} views, {self.output_rows} rows, "
            f"simulated {self.simulated_seconds:.2f}s "
            f"(host {self.host_seconds:.2f}s, "
            f"{self.comm_bytes / 1e6:.1f} MB communicated, "
            f"{self.disk_blocks} disk blocks: {self.disk_blocks_read} read "
            f"+ {self.disk_blocks_written} written)"
        )
        if self.attempts > 1:
            text += (
                f" [recovered after {self.attempts - 1} failed attempt(s), "
                f"{self.recovered_seconds:.2f}s re-execution]"
            )
        if self.ranks_lost:
            lost = ",".join(str(r) for r in self.ranks_lost)
            text += (
                f" [degraded: lost rank(s) {lost}, "
                f"finished at p={self.final_width}]"
            )
        if self.audit is not None:
            text += " [audit: OK]" if self.audit.get("ok") else " [audit: FAILED]"
        return text
