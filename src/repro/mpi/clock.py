"""BSP cost clock: turns a single-host simulation into cluster wall-clock.

Model
-----
Execution is a sequence of *supersteps* separated by collectives.  In
superstep ``s`` every rank ``j`` performs local work (disk I/O and per-row
CPU work, both modelled) and then enters the collective.  Simulated time
advances by::

    T_s = max_j (blocks_j * disk_sec_per_block + work_j)
          + latency + beta * h_s / 1e6

where ``work_j`` is the rank's charged sort and scan seconds and ``h_s``
is the busiest rank's in+out byte volume of the collective (the
h-relation measure the paper's analysis uses).  Total simulated time is
``sum_s T_s``.

Every term is a charged counter, never a host measurement, so simulated
time is an exact function of the run's input and spec: identical between
runs and between the thread and process backends.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.config import MachineSpec

__all__ = ["BSPClock", "SuperstepRecord"]


@dataclass
class SuperstepRecord:
    """One superstep's accounting, for introspection and tests."""

    kind: str
    phase: str
    compute_seconds: float
    comm_seconds: float
    offrank_bytes: int
    max_rank_bytes: int


class BSPClock:
    """Accumulates simulated parallel wall-clock time for one cluster run."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.sim_time = 0.0
        self.compute_time = 0.0
        self.comm_time = 0.0
        self.phase_seconds: dict[str, float] = defaultdict(float)
        self.phase_comm_seconds: dict[str, float] = defaultdict(float)
        self.phase_compute_seconds: dict[str, float] = defaultdict(float)
        self.log: list[SuperstepRecord] = []
        p = spec.p
        # Per-rank bookkeeping, touched only by the owning rank thread
        # (except inside the barrier action, where all rank threads are
        # parked).
        self._io_mark = [0] * p
        self._work_mark = [0.0] * p
        self._pending_segment = [0.0] * p
        # Cumulative local-work seconds per rank across the whole run —
        # the raw signal for per-rank throughput (rows/sec) estimation.
        # Thread backend + the process-backend coordinator see the full
        # vector; a process-backend worker only maintains its own entry.
        self.rank_busy = [0.0] * p
        self._phase = ["startup"] * p
        # Per-rank accrual of local work split by the phase it happened in
        # (rank 0's split is used to apportion each superstep's cost).
        self._phase_accrual: list[dict[str, float]] = [
            defaultdict(float) for _ in range(p)
        ]
        self.max_log = 100_000

    # -- rank-side hooks ------------------------------------------------------

    def rank_start(
        self, rank: int, io_blocks: int, work_seconds: float = 0.0
    ) -> None:
        """Called by each rank thread as it begins executing."""
        self._io_mark[rank] = io_blocks
        self._work_mark[rank] = work_seconds

    def set_phase(
        self,
        rank: int,
        phase: str,
        io_blocks: int | None = None,
        work_seconds: float | None = None,
    ) -> None:
        """Label subsequent work; SPMD code keeps ranks in lockstep, so the
        labels agree across ranks whenever a superstep completes.  Work
        charged since the previous label (when the caller passes the
        counters) is banked against the old phase so that phases without
        their own collectives still show up in the breakdown."""
        if io_blocks is None:
            io_blocks = self._io_mark[rank]
        if work_seconds is None:
            work_seconds = self._work_mark[rank]
        self._bank_modelled(rank, io_blocks, work_seconds)
        self._phase[rank] = phase

    def modelled_seconds(self, io_blocks: int, work_seconds: float) -> float:
        """What the cost model charges for ``io_blocks`` block transfers
        and ``work_seconds`` of per-row CPU work: a segment's whole local
        cost.  Linear, so it prices counter totals and their deltas alike;
        the one place a segment is priced."""
        return io_blocks * self.spec.disk_sec_per_block + work_seconds

    def _bank_modelled(
        self, rank: int, io_blocks: int, work_seconds: float
    ) -> None:
        """Bank the modelled cost since the rank's last mark under its
        current phase and advance the marks to the given counters."""
        self._phase_accrual[rank][self._phase[rank]] += self.modelled_seconds(
            io_blocks - self._io_mark[rank],
            work_seconds - self._work_mark[rank],
        )
        self._io_mark[rank] = io_blocks
        self._work_mark[rank] = work_seconds

    def mark_segment(
        self, rank: int, io_blocks: int, work_seconds: float = 0.0
    ) -> None:
        """Snapshot the rank's local work since the previous superstep.

        Must be called immediately before entering a collective.  The
        segment cost is modelled disk block time + modelled per-row CPU
        work.
        """
        # Modelled disk + work join the accrual under the *current* phase
        # (they are not split across a mid-segment phase change; phases
        # that matter set their label before doing their work).
        self._bank_modelled(rank, io_blocks, work_seconds)
        self._pending_segment[rank] = sum(
            self._phase_accrual[rank].values()
        )

    # -- barrier-action side ---------------------------------------------------

    def commit_superstep(
        self,
        kind: str,
        offrank_bytes: int,
        max_rank_bytes: int,
    ) -> None:
        """Advance simulated time; runs in exactly one thread per superstep."""
        compute = max(self._pending_segment)
        comm = self.spec.comm_cost(max_rank_bytes)
        self.sim_time += compute + comm
        self.compute_time += compute
        self.comm_time += comm
        phase = self._phase[0]
        # Apportion the superstep's compute across phases using rank 0's
        # accrual split; comm goes to the phase the collective runs in.
        accrual = self._phase_accrual[0]
        banked = sum(accrual.values())
        if banked > 0:
            for ph, amount in accrual.items():
                share = compute * (amount / banked)
                self.phase_seconds[ph] += share
                self.phase_compute_seconds[ph] += share
        else:
            self.phase_seconds[phase] += compute
            self.phase_compute_seconds[phase] += compute
        self.phase_seconds[phase] += comm
        self.phase_comm_seconds[phase] += comm
        if len(self.log) < self.max_log:
            self.log.append(
                SuperstepRecord(
                    kind=kind,
                    phase=phase,
                    compute_seconds=compute,
                    comm_seconds=comm,
                    offrank_bytes=offrank_bytes,
                    max_rank_bytes=max_rank_bytes,
                )
            )
        for j in range(len(self._pending_segment)):
            self.rank_busy[j] += self._pending_segment[j]
            self._pending_segment[j] = 0.0
            self._phase_accrual[j].clear()

    def finish(self, segments: list[float]) -> None:
        """Fold in the final (post-last-collective) per-rank segments."""
        compute = max(segments) if segments else 0.0
        for j, seg in enumerate(segments):
            if j < len(self.rank_busy):
                self.rank_busy[j] += seg
        self.sim_time += compute
        self.compute_time += compute
        self.phase_seconds[self._phase[0]] += compute
        self.phase_compute_seconds[self._phase[0]] += compute

    # -- reading ---------------------------------------------------------------

    def phase_breakdown(self) -> dict[str, float]:
        """Simulated seconds per phase label."""
        return dict(self.phase_seconds)

    def phase_comm_breakdown(self) -> dict[str, float]:
        """Communication seconds per phase label."""
        return dict(self.phase_comm_seconds)

    def phase_compute_breakdown(self) -> dict[str, float]:
        """Local-work seconds per phase label."""
        return dict(self.phase_compute_seconds)

    def superstep_count(self) -> int:
        return len(self.log)

    def comm_fraction(self) -> float:
        """Share of simulated time spent in communication."""
        if self.sim_time <= 0:
            return 0.0
        return self.comm_time / self.sim_time

    def as_array(self) -> np.ndarray:
        """``(supersteps, 2)`` array of (compute, comm) seconds, for plots."""
        return np.array(
            [[rec.compute_seconds, rec.comm_seconds] for rec in self.log]
        ).reshape(-1, 2)
