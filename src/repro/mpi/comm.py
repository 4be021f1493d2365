"""Rank-side communicator endpoint of the simulated cluster.

Every collective here is blocking and must be called by *all* ranks in the
same order — the same contract real MPI imposes on the paper's code.  Each
call is one BSP superstep: the rank's local work since the previous
collective is snapshotted into the cluster clock, payloads are exchanged
through the rank's :class:`Transport`, and the superstep commit (see
:mod:`repro.mpi.engine` / :mod:`repro.mpi.backends`) advances simulated
time and the traffic meters.

:class:`Comm` is transport-agnostic: the same collective algebra and
metering runs over the in-process mailbox transport of the thread backend
(:class:`ThreadTransport`, payloads travel by reference) and over the
pipe transport of the process backend (payloads cross address spaces;
see :mod:`repro.mpi.backends`).  Rank code must not write into a
received array: the thread backend delivers it by reference, so the
write would reach the sender's array.  The process backend unpickles
every array a peer sent into a private, writable one, as a real
``MPI_Recv`` fills the receiver's own buffer; a rank's own slot never
leaves it and is aliased on both backends.  Payloads are metered at their buffer
size either way, matching the buffer-protocol fast path of mpi4py.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from repro.mpi.errors import CollectiveMisuse, RankFailure
from repro.mpi.stats import payload_nbytes

__all__ = [
    "BARRIER_TIMEOUT_SEC",
    "Comm",
    "SuperstepBarrier",
    "ThreadTransport",
    "Transport",
]

#: Upper bound on how long one rank waits for its peers before the run is
#: declared wedged, on both backends; also the supervision deadline when
#: ``MachineSpec.suspect_after`` is unset.  Generous: the whole benchmark
#: suite runs in minutes.
BARRIER_TIMEOUT_SEC = 600.0


class Transport(Protocol):
    """One rank's wire: runs a single collective superstep.

    ``exchange`` blocks until every rank has entered the same collective,
    hands the metering row to the superstep commit, applies ``reader`` to
    the per-rank payload slots (index = source rank), and returns its
    result.  ``root`` is the root rank of a bcast/gather/scatter (0 for
    the other kinds), so a transport can route only what is read.  Implementations must also guarantee the commit protocol of
    :meth:`repro.mpi.clock.BSPClock.commit_superstep` +
    :meth:`repro.mpi.stats.CommStats.record` runs exactly once per
    superstep.
    """

    def exchange(
        self,
        kind: str,
        payload: Any,
        send_row: np.ndarray,
        reader: Callable[[Sequence[Any]], Any],
        root: int = 0,
    ) -> Any: ...


class SuperstepBarrier(threading.Barrier):
    """A barrier whose :meth:`abort` breaks only the waits it has not
    released yet.

    A plain :class:`threading.Barrier` also breaks the waits it released
    but whose threads have not woken up, so a rank failing right after a
    superstep stopped a random subset of its peers one superstep early.
    Here a released rank runs on to its next collective and stops there,
    as a forked rank does, so a failed attempt banks the same disk
    blocks on both backends."""

    def __init__(self, parties: int, action: Callable[[], None] | None = None):
        super().__init__(parties, action=self._trip)
        self._on_trip = action
        self.trips = 0  # generations released

    def _trip(self) -> None:
        if self._on_trip is not None:
            self._on_trip()  # raising breaks the barrier, released nothing
        self.trips += 1

    def wait(self, timeout: float | None = None) -> int:
        trips = self.trips  # cannot move before this thread arrives
        try:
            return super().wait(timeout)
        except threading.BrokenBarrierError:
            if self.trips == trips:
                raise
            return -1  # released before the abort reached it


class ThreadTransport:
    """Shared-mailbox transport of the thread backend.

    All ranks live in one address space; ``slots[j]`` is rank ``j``'s
    mailbox and two barriers frame each superstep.  The *enter* barrier's
    action (installed by the engine) meters traffic and advances the
    clock; the *leave* barrier keeps slots stable until every reader is
    done, and then each rank empties its own slot, so a payload lives no
    longer than its superstep.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        slots: list,
        enter: SuperstepBarrier,
        leave: SuperstepBarrier,
    ):
        self.rank = rank
        self.size = size
        self._slots = slots
        self._enter = enter
        self._leave = leave

    def _wait(self, barrier: SuperstepBarrier) -> None:
        try:
            barrier.wait(timeout=BARRIER_TIMEOUT_SEC)
        except threading.BrokenBarrierError:
            raise RankFailure(
                f"rank {self.rank}: a peer rank aborted the computation"
            ) from None

    def exchange(
        self,
        kind: str,
        payload: Any,
        send_row: np.ndarray,
        reader: Callable[[Sequence[Any]], Any],
        root: int = 0,
    ) -> Any:
        self._slots[self.rank] = (payload, send_row, kind)
        self._wait(self._enter)  # barrier action meters + advances the clock
        try:
            result = reader([slot[0] for slot in self._slots])
        finally:
            self._wait(self._leave)  # everyone done reading; slots reusable
        self._slots[self.rank] = None
        return result


class Comm:
    """One rank's view of the cluster (constructed by the engine)."""

    def __init__(
        self,
        rank: int,
        size: int,
        transport: Transport,
        clock,
        stats,
        disk,
    ):
        self.rank = rank
        self.size = size
        self._transport = transport
        self.clock = clock
        self.stats = stats
        self.disk = disk

    # -- phase labelling --------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Label subsequent supersteps for time/traffic attribution."""
        self.clock.set_phase(
            self.rank,
            phase,
            io_blocks=self.disk.stats.blocks_total,
            work_seconds=self.disk.work.seconds,
        )

    # -- superstep plumbing -------------------------------------------------

    def _exchange(
        self,
        kind: str,
        payload: Any,
        send_row: np.ndarray,
        reader: Callable[[list], Any],
        root: int = 0,
    ) -> Any:
        """Run one collective superstep and return this rank's result."""
        self.clock.mark_segment(
            self.rank, self.disk.stats.blocks_total, self.disk.work.seconds
        )
        return self._transport.exchange(kind, payload, send_row, reader, root)

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.size, dtype=np.int64)

    def _misuse(self, detail: str) -> CollectiveMisuse:
        """A :class:`CollectiveMisuse` carrying rank + phase context, so a
        misuse raised deep inside an SPMD program is attributable without
        a debugger attached to the failing rank."""
        phase = self.clock._phase[self.rank]
        return CollectiveMisuse(
            f"rank {self.rank} [phase {phase}]: {detail}"
        )

    # -- collectives -------------------------------------------------------

    def barrier(self) -> None:
        """Synchronise all ranks (superstep boundary with no traffic)."""
        self._exchange("barrier", None, self._zeros(), lambda slots: None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        self._check_root(root)
        row = self._zeros()
        payload = None
        if self.rank == root:
            payload = obj
            nbytes = payload_nbytes(obj)
            row[:] = nbytes
            row[root] = 0
        return self._exchange(
            "bcast", payload, row, lambda slots: slots[root], root
        )

    def gather(self, obj: Any, root: int = 0) -> list | None:
        """Gather one value per rank at ``root`` (others get ``None``)."""
        self._check_root(root)
        row = self._zeros()
        if self.rank != root:
            row[root] = payload_nbytes(obj)
        reader = (
            (lambda slots: list(slots))
            if self.rank == root
            else (lambda slots: None)
        )
        return self._exchange("gather", obj, row, reader, root)

    def allgather(self, obj: Any) -> list:
        """Gather one value per rank at every rank."""
        row = self._zeros()
        row[:] = payload_nbytes(obj)
        row[self.rank] = 0
        return self._exchange("allgather", obj, row, list)

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Distribute ``values[k]`` from ``root`` to rank ``k``."""
        self._check_root(root)
        # Validate on *every* rank: a wrong-length list on a non-root rank
        # is a latent bug that would only surface when roles rotate.
        if values is not None and len(values) != self.size:
            raise self._misuse(
                f"scatter needs exactly one value per rank "
                f"({self.size}), got {len(values)}"
            )
        row = self._zeros()
        payload = None
        if self.rank == root:
            if values is None:
                raise self._misuse(
                    "scatter at root needs a value list, got None"
                )
            payload = list(values)
            for k, val in enumerate(payload):
                if k != root:
                    row[k] = payload_nbytes(val)
        rank = self.rank
        return self._exchange(
            "scatter", payload, row, lambda slots: slots[root][rank], root
        )

    def alltoall(self, lanes: Sequence[Any]) -> list:
        """The h-relation: rank ``j`` sends ``lanes[k]`` to rank ``k``.

        Returns the list of ``size`` payloads addressed to this rank
        (indexed by source rank).  This is the simulation's
        ``MPI_ALLTOALLV``; lanes may be ``None`` / empty arrays.
        """
        if len(lanes) != self.size:
            raise self._misuse(
                f"alltoall needs {self.size} lanes, got {len(lanes)}"
            )
        row = np.fromiter(
            (payload_nbytes(lane) for lane in lanes),
            dtype=np.int64,
            count=self.size,
        )
        row[self.rank] = 0 if lanes[self.rank] is None else row[self.rank]
        rank = self.rank
        return self._exchange(
            "alltoall",
            list(lanes),
            row,
            lambda slots: [slots[j][rank] for j in range(len(slots))],
        )

    def allreduce(self, value: float, op: str = "sum") -> float:
        """All-reduce a scalar with ``sum``/``max``/``min``.

        Metered as a true reduction: the wire carries one 8-byte float64
        per rank pair (``payload_nbytes`` of a 1-element ndarray), and the
        superstep is recorded under its own ``"allreduce"`` kind instead
        of masquerading as a list-of-objects allgather.
        """
        if op not in ("sum", "max", "min"):
            raise self._misuse(f"unsupported allreduce op: {op!r}")
        arr = np.array([float(value)], dtype=np.float64)
        row = self._zeros()
        row[:] = arr.nbytes
        row[self.rank] = 0
        values = self._exchange(
            "allreduce",
            arr,
            row,
            lambda slots: [float(np.asarray(s)[0]) for s in slots],
        )
        if op == "sum":
            return float(sum(values))
        if op == "max":
            return float(max(values))
        return float(min(values))

    def sendrecv_left(self, obj: Any) -> Any:
        """Every rank sends ``obj`` to rank-1 and receives rank+1's value.

        Rank 0 sends nothing; the last rank receives ``None``.  Implemented
        as one sparse h-relation (the paper's case-1 boundary exchange).
        """
        lanes: list[Any] = [None] * self.size
        if self.rank > 0:
            lanes[self.rank - 1] = obj
        received = self.alltoall(lanes)
        if self.rank < self.size - 1:
            return received[self.rank + 1]
        return None

    # -- misc -------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise self._misuse(
                f"root {root} out of range for {self.size} ranks"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(rank={self.rank}, size={self.size})"
