"""SPMD execution engine for the simulated shared-nothing cluster.

:func:`run_spmd` is the ``mpiexec`` of this reproduction: it runs ``p``
rank programs — each executing the *same* code against its own
communicator endpoint and private local disk — waits for completion, and
returns per-rank results together with the BSP clock and traffic meters.

*How* the ranks execute is pluggable (see :mod:`repro.mpi.backends` and
``MachineSpec.backend``): the default ``thread`` backend runs ranks as
threads in this process (deterministic, shared mailboxes), while the
``process`` backend forks one worker process per rank and runs the
collectives over shared memory, so ``host_seconds`` scales with real
cores.  Simulated-time and traffic accounting are backend-independent.

Failure semantics: if any rank raises, every peer blocked in a collective
unblocks with :class:`~repro.mpi.errors.RankFailure`; the engine then
re-raises the originating exception to the caller.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.config import MachineSpec
from repro.mpi.clock import BSPClock
from repro.mpi.comm import (
    BARRIER_TIMEOUT_SEC,
    Comm,
    SuperstepBarrier,
    ThreadTransport,
)
from repro.mpi.errors import CollectiveMisuse, MPIError
from repro.mpi.faults import slow_factor
from repro.mpi.stats import CommStats
from repro.storage.disk import LocalDisk, WorkMeter

__all__ = ["Cluster", "ClusterResult", "run_spmd"]

#: Hard ceiling on virtual processors: beyond this the one-host simulation
#: stops being meaningful (thread scheduling noise dominates).
MAX_RANKS = 64


@dataclass
class ClusterResult:
    """Everything a finished SPMD run produced."""

    #: Per-rank return values of the rank program.
    rank_results: list
    #: The BSP clock (simulated wall-clock, per-phase breakdown, log).
    clock: BSPClock
    #: Network traffic meters.
    stats: CommStats
    #: Per-rank local disks (for I/O accounting inspection).
    disks: list[LocalDisk]
    #: Real host seconds the simulation took.
    host_seconds: float = 0.0
    #: Result-segment counters (process backend only): ``segments_created``,
    #: ``leases`` and ``segments_reused`` of the ranks' result segments
    #: (see :func:`repro.mpi.shm.write_result`).  Empty for the thread
    #: backend, whose results never leave the address space.
    shm_pool: dict = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        return self.clock.sim_time

    def total_disk_blocks(self) -> int:
        return sum(d.stats.blocks_total for d in self.disks)

    def total_disk_blocks_read(self) -> int:
        return sum(d.stats.blocks_read for d in self.disks)


class Cluster:
    """A reusable virtual cluster: mailboxes, clock, meters, disks.

    ``faults`` installs a :class:`~repro.mpi.faults.FaultPlan`: every
    rank's transport is wrapped for deterministic fault injection and
    CRC-sealed payloads (backend-independent), and disk-full quotas are
    armed on the targeted ranks.  ``attempt`` is the recovery attempt
    index the plan's faults are gated on (see
    :class:`~repro.config.RecoveryPolicy`).  A plan with a fault
    addressed to a serving worker raises ``ValueError``.
    """

    def __init__(
        self,
        spec: MachineSpec,
        disk_root: str | None = None,
        faults=None,
        attempt: int = 0,
    ):
        if not 1 <= spec.p <= MAX_RANKS:
            raise MPIError(
                f"processor count {spec.p} outside supported range "
                f"1..{MAX_RANKS}"
            )
        if faults is not None:
            faults.check_space("r")
        self.spec = spec
        self.faults = faults
        self.attempt = attempt
        self.suspect_after = (
            spec.suspect_after
            if spec.suspect_after is not None
            else BARRIER_TIMEOUT_SEC
        )
        self.clock = BSPClock(spec)
        self.stats = CommStats()
        self.disks = [
            LocalDisk(
                spec.block_size,
                root=None
                if disk_root is None
                else os.path.join(disk_root, f"rank{j:02d}"),
                work=WorkMeter(
                    spec.sort_sec_per_row_level, spec.scan_sec_per_row
                ),
            )
            for j in range(spec.p)
        ]
        # Thread-backend state (mailboxes + superstep barriers).  The
        # process backend replays the same commit parent-side instead.
        self._slots: list = [None] * spec.p
        self._action_error: BaseException | None = None
        self._enter = SuperstepBarrier(spec.p, action=self._safe_action)
        self._leave = SuperstepBarrier(spec.p)
        # Filled by the process backend's coordinator with the aggregated
        # data-plane counters of its workers; stays empty under threads.
        self.shm_pool: dict = {}

    def _safe_action(self) -> None:
        try:
            self._superstep_action()
        except BaseException as exc:  # noqa: BLE001 - must break the barrier
            self._action_error = exc
            raise

    # -- superstep commit (runs in exactly one thread per superstep) --------

    def _superstep_action(self) -> None:
        kinds = {slot[2] for slot in self._slots}
        if len(kinds) > 1:
            # Mismatched collectives are undefined behaviour under MPI;
            # raising here breaks the barrier so every rank aborts loudly
            # instead of silently mixing payloads.
            raise CollectiveMisuse(
                f"ranks disagree on the collective: {sorted(kinds)}"
            )
        rows = [slot[1] for slot in self._slots]
        kind = self._slots[0][2]
        matrix = np.vstack(rows) if rows else np.zeros((0, 0), dtype=np.int64)
        total, max_rank = self.stats.record(
            kind, self.clock._phase[0], matrix
        )
        self.clock.commit_superstep(kind, total, max_rank)

    # -- running -------------------------------------------------------------

    def transport_for(self, rank: int, inner):
        """Apply the fault plan (if any) to one rank's transport.

        Shared by both backends: the thread backend wraps its mailbox
        transport here, the process backend wraps its pipe transport
        inside each forked worker (the cluster object crosses the fork).
        """
        if self.faults is None:
            return inner
        return self.faults.instrument(
            rank, self.attempt, inner, self.clock, self.disks[rank],
            backend=self.spec.backend,
        )

    def tail_segment(self, rank: int) -> float:
        """Take ``rank``'s local work since its last collective — the
        run's final segment, which no transport sees — stretched by the
        fault plan's ``slow@`` factor like every segment before it."""
        disk = self.disks[rank]
        clock = self.clock
        clock.mark_segment(rank, disk.stats.blocks_total, disk.work.seconds)
        segment = clock._pending_segment[rank]
        clock._pending_segment[rank] = 0.0
        if self.faults is not None:
            segment *= slow_factor(
                self.faults.for_rank(rank, self.attempt), clock._phase[rank]
            )
        return segment

    def comm(self, rank: int) -> Comm:
        """Thread-backend communicator endpoint for ``rank`` (also used by
        tests to drive a single endpoint directly)."""
        return Comm(
            rank,
            self.spec.p,
            self.transport_for(
                rank,
                ThreadTransport(
                    rank, self.spec.p, self._slots, self._enter, self._leave
                ),
            ),
            self.clock,
            self.stats,
            self.disks[rank],
        )

    def run(
        self,
        rank_program: Callable[..., Any],
        args: Sequence[Any] = (),
    ) -> ClusterResult:
        """Execute ``rank_program(comm, *args)`` on every rank."""
        from repro.mpi.backends import get_backend

        backend = get_backend(self.spec.backend)
        t0 = time.perf_counter()
        results = backend.run(self, rank_program, args)
        return ClusterResult(
            rank_results=results,
            clock=self.clock,
            stats=self.stats,
            disks=self.disks,
            host_seconds=time.perf_counter() - t0,
            shm_pool=dict(self.shm_pool),
        )


def run_spmd(
    rank_program: Callable[..., Any],
    spec: MachineSpec,
    args: Sequence[Any] = (),
    disk_root: str | None = None,
    faults=None,
    attempt: int = 0,
) -> ClusterResult:
    """Spawn a fresh virtual cluster and run one SPMD program on it.

    Parameters
    ----------
    rank_program:
        ``fn(comm, *args)`` executed identically on every rank.
    spec:
        Machine description (rank count, execution backend, cost-model
        parameters).
    args:
        Extra positional arguments passed to every rank.
    disk_root:
        Directory for real spill files; ``None`` keeps disks in memory.
    faults:
        Optional :class:`~repro.mpi.faults.FaultPlan` to inject
        deterministic failures (crash, corruption, straggler, disk-full).
    attempt:
        Recovery attempt index the plan's faults are gated on.
    """
    return Cluster(
        spec, disk_root=disk_root, faults=faults, attempt=attempt
    ).run(rank_program, args)
