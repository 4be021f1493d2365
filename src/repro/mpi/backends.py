"""Execution backends for the SPMD engine.

The engine's contract (see :mod:`repro.mpi.engine`) is backend-neutral:
run the same rank program on ``p`` communicator endpoints, meter every
superstep through :meth:`~repro.mpi.stats.CommStats.record` +
:meth:`~repro.mpi.clock.BSPClock.commit_superstep`, and surface the first
real failure while breaking every peer with
:class:`~repro.mpi.errors.RankFailure`.  Two backends implement it:

``thread`` (default)
    ``p`` rank threads over shared mailboxes.  Deterministic, cheap to
    spawn, zero-copy payload delivery — but the GIL serialises all
    Python-level rank code, so ``host_seconds`` does not shrink with
    ``p``.  Simulated time is unaffected (it is charged, not measured),
    which is why this stays the default for tests and figure
    reproductions.

``process``
    ``p`` forked worker processes (one :class:`~repro.mpi.pool.WorkerPool`)
    coordinated by the parent.  Collectives ride the pool's pipes: a
    rank's ``step`` carries only what its peers will read, pickled
    in-band, and the coordinator relays to each rank one ``deliver``
    holding just the slots its reader indexes.  A rank's own slot never
    leaves it.  The parent replays the exact superstep commit of the
    thread backend from per-rank metering shipped with each collective,
    so ``simulated_seconds`` / ``comm_bytes`` / ``disk_blocks`` are
    identical between backends, bit for bit.
    ``host_seconds`` scales with real cores.  Each rank's finished result
    is written to one shared-memory segment that the parent maps instead
    of copying (:mod:`repro.mpi.shm`).

On any failure the parent broadcasts ``("abort",)`` and drains the pipes.
Peers blocked in a collective observe :class:`RankFailure`, exactly like
a broken barrier.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import traceback
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi import shm
from repro.mpi.comm import BARRIER_TIMEOUT_SEC, Comm
from repro.mpi.errors import (
    CollectiveMisuse,
    MPIError,
    RankFailure,
    rebuild,
    ship,
)
from repro.mpi.pool import WorkerPool

__all__ = [
    "BACKENDS",
    "ProcessBackend",
    "ThreadBackend",
    "get_backend",
]

#: How long failure cleanup waits for workers to exit on their own before
#: terminating them.  Workers notice an abort at their next collective, so
#: only a rank wedged in local compute ever hits the hard kill.
_ABORT_DRAIN_SEC = 5.0


def get_backend(name: str):
    """Resolve a backend name (``MachineSpec.backend``) to an instance."""
    try:
        return BACKENDS[name]()
    except KeyError:
        raise MPIError(
            f"unknown execution backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}"
        ) from None


# ---------------------------------------------------------------------------
# thread backend
# ---------------------------------------------------------------------------


class ThreadBackend:
    """Rank-per-thread execution over the cluster's shared mailboxes."""

    name = "thread"

    def run(
        self,
        cluster,
        rank_program: Callable[..., Any],
        args: Sequence[Any],
    ) -> list:
        p = cluster.spec.p
        results: list = [None] * p
        finals: list[float] = [0.0] * p
        errors: list[BaseException | None] = [None] * p

        def worker(rank: int) -> None:
            comm = cluster.comm(rank)
            disk = cluster.disks[rank]
            cluster.clock.rank_start(
                rank, disk.stats.blocks_total, disk.work.seconds
            )
            try:
                results[rank] = rank_program(comm, *args)
                finals[rank] = cluster.tail_segment(rank)
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                errors[rank] = exc
                cluster._enter.abort()
                cluster._leave.abort()

        threads = [
            threading.Thread(
                target=worker, args=(j,), name=f"rank-{j}", daemon=True
            )
            for j in range(p)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        origin = cluster._action_error or next(
            (
                e
                for e in errors
                if e is not None and not isinstance(e, RankFailure)
            ),
            None,
        ) or next((e for e in errors if e is not None), None)
        if origin is not None:
            # Every other rank's error pins that rank's frames (and the
            # view pieces they hold) in a cycle through this closure's
            # cells; clear and drop them so reference counting frees the
            # failed attempt.  The caller owns the origin's traceback.
            for exc in errors:
                if exc is not None and exc is not origin:
                    traceback.clear_frames(exc.__traceback__)
            errors[:] = [None] * p
            raise origin

        cluster.clock.finish(finals)
        return results


# ---------------------------------------------------------------------------
# process backend: worker side
# ---------------------------------------------------------------------------


_LANES = ("scatter", "alltoall")


def _outbound(kind: str, root: int, rank: int, payload: Any) -> Any:
    """What this rank's step carries: only what other ranks will read.

    A scatter/alltoall carries every lane but the rank's own; a bcast
    the root's payload; a gather a non-root's payload; an allgather or
    allreduce the payload.  The rank's own slot never leaves it.
    """
    if kind in _LANES:
        if kind == "scatter" and rank != root:
            return None
        lanes = list(payload)
        lanes[rank] = None
        return lanes
    if kind == "bcast":
        return payload if rank == root else None
    if kind == "gather":
        return None if rank == root else payload
    return None if kind == "barrier" else payload


def _send(conn, msg) -> bool:
    """Send ``msg`` pickled at the highest protocol, which writes array
    buffers in-band without the extra copy of multiprocessing's default
    protocol; False if the pipe is gone."""
    try:
        conn.send_bytes(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))
        return True
    except OSError:  # BrokenPipeError, ConnectionResetError
        return False


def _route(kind: str, root: int, sent: list, dest: int) -> list:
    """The slots rank ``dest``'s reader indexes, by source rank: lane
    ``dest`` of each scatter/alltoall lane list, a gather's payloads at
    its root only, anything else whole.  ``dest``'s own slot and every
    slot it does not read are None."""
    if kind == "gather" and dest != root:
        return [None] * len(sent)
    lanes = kind in _LANES
    return [
        None if j == dest or out is None else (out[dest] if lanes else out)
        for j, out in enumerate(sent)
    ]


class _ProcessTransport:
    """Pipe transport of one forked rank: its step carries what its peers
    read, the coordinator's deliver what it reads; its own slot stays
    local, aliased as :class:`~repro.mpi.comm.ThreadTransport` hands it
    over."""

    def __init__(self, rank: int, size: int, conn, clock):
        self.rank = rank
        self.size = size
        self._conn = conn
        self._clock = clock

    def _recv(self):
        try:
            if not self._conn.poll(BARRIER_TIMEOUT_SEC):
                raise RankFailure(
                    f"rank {self.rank}: timed out waiting for peers"
                )
            return self._conn.recv()
        except (EOFError, OSError):
            raise RankFailure(
                f"rank {self.rank}: the coordinator vanished"
            ) from None

    def exchange(
        self,
        kind: str,
        payload: Any,
        send_row: np.ndarray,
        reader: Callable[[Sequence[Any]], Any],
        root: int = 0,
    ) -> Any:
        clock, rank = self._clock, self.rank
        # Ship the same quantities the barrier action reads in-process:
        # this rank's pending segment, its phase label, and (from rank 0)
        # the phase accrual used to apportion the superstep's compute.
        segment = clock._pending_segment[rank]
        phase = clock._phase[rank]
        accrual = dict(clock._phase_accrual[rank]) if rank == 0 else None
        step = (
            "step",
            kind,
            root,
            np.asarray(send_row, dtype=np.int64),
            segment,
            phase,
            accrual,
            _outbound(kind, root, rank, payload),
        )
        if not _send(self._conn, step):
            raise RankFailure(f"rank {rank}: the coordinator vanished")
        msg = self._recv()
        if msg[0] != "deliver":
            raise RankFailure(
                f"rank {rank}: a peer rank aborted the computation"
            )
        slots = msg[1]
        if kind in _LANES:
            # Readers index lane [rank] of each source's lane list.
            slots = [
                [lane if k == rank else None for k in range(self.size)]
                for lane in slots
            ]
        slots[rank] = payload
        result = reader(slots)
        # Mirror the superstep commit clearing the rank's local accrual.
        # The worker's forked clock never runs commit_superstep, so fold
        # the shipped segment into its own rank_busy entry here to keep
        # the throughput profiler's view consistent across backends.
        clock.rank_busy[rank] += segment
        clock._pending_segment[rank] = 0.0
        clock._phase_accrual[rank].clear()
        return result


def _local_state(disk) -> tuple[dict, dict]:
    """A rank's absolute disk and work counters, as the parent adopts
    them (:meth:`ProcessBackend._apply_local_state`)."""
    work = disk.work
    return disk.stats.snapshot(), {
        "seconds": work.seconds,
        "rows_sorted": work.rows_sorted,
        "rows_scanned": work.rows_scanned,
        "spill_counter": disk._counter,
    }


def _worker_main(
    rank: int,
    _generation: int,
    conn,
    cluster,
    rank_program: Callable[..., Any],
    args: Sequence[Any],
) -> None:
    """Entry point of one forked rank process (a :class:`WorkerPool`
    slot)."""
    disk = cluster.disks[rank]
    clock = cluster.clock  # forked copy: authoritative only for this rank
    spec = cluster.spec
    transport = cluster.transport_for(
        rank, _ProcessTransport(rank, spec.p, conn, clock)
    )
    comm = Comm(rank, spec.p, transport, clock, cluster.stats, disk)
    clock.rank_start(rank, disk.stats.blocks_total, disk.work.seconds)
    written = None
    try:
        result = rank_program(comm, *args)
        final = cluster.tail_segment(rank)
        written = shm.write_result(result)
        conn.send(
            ("done", final, clock._phase[rank], written, *_local_state(disk))
        )
        conn.recv()  # release (or abort): the parent mapped the result
    except BaseException as exc:  # noqa: BLE001 - ship, don't hang peers
        try:
            shipped = ship(exc, f"rank {rank}", _local_state(disk))
            conn.send(("error", shipped))
        except Exception:
            pass
    finally:
        # The parent's map keeps the result's pages; a SIGKILLed rank's
        # segment is left to the pool's orphan sweep.
        if written is not None and written.segment is not None:
            shm.unlink(written.segment)
        try:
            conn.close()
        except Exception:  # pragma: no cover - defensive
            pass


# ---------------------------------------------------------------------------
# process backend: coordinator side
# ---------------------------------------------------------------------------


class ProcessBackend:
    """Rank-per-process execution with collectives relayed over pipes."""

    name = "process"

    def run(
        self,
        cluster,
        rank_program: Callable[..., Any],
        args: Sequence[Any],
    ) -> list:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise MPIError(
                "the process backend needs the fork start method "
                "(unavailable on this platform); use backend='thread'"
            )
        # A rank SIGKILLed in an earlier run leaks its result segment.
        # Segment names embed their creator pid, so stale ones are
        # identifiable and safe to reclaim here.
        shm.sweep_orphans()
        pool = WorkerPool(
            cluster.spec.p,
            _worker_main,
            (cluster, rank_program, tuple(args)),
            suspect_after=cluster.suspect_after,
            label="rank",
        )
        try:
            return _Coordinator(cluster, pool).run()
        finally:
            pool.close(_ABORT_DRAIN_SEC)


class _Abort(Exception):
    """Internal control flow: carries the failure to surface."""

    def __init__(self, origin: BaseException):
        self.origin = origin


class _Coordinator:
    """Parent-side replay of the thread backend's barrier action."""

    def __init__(self, cluster, pool: WorkerPool):
        self.cluster = cluster
        self.pool = pool
        self.p = cluster.spec.p

    # -- main loop --------------------------------------------------------

    def run(self) -> list:
        try:
            while True:
                msgs = self._collect_round()
                kinds = {
                    m[1] if m[0] == "step" else "<exit>"
                    for m in msgs.values()
                }
                if len(kinds) > 1:
                    raise _Abort(
                        CollectiveMisuse(
                            "ranks disagree on the collective: "
                            f"{sorted(kinds)}"
                        )
                    )
                if "<exit>" in kinds:
                    return self._finish(msgs)
                self._superstep(msgs)
        except _Abort as abort:
            raise self._cleanup_failure(abort.origin) from None

    def _collect_round(self) -> dict[int, tuple]:
        """One message per rank: either all "step" or all "done"."""
        msgs: dict[int, tuple] = {}
        for j in range(self.p):
            try:
                msg = self.pool.recv(j)
            except MPIError as verdict:  # RankDead / RankHung
                raise _Abort(verdict) from None
            if msg[0] == "error":
                raise _Abort(self._absorb_error(j, msg))
            msgs[j] = msg
        return msgs

    def _absorb_error(self, rank: int, msg) -> BaseException:
        """Unpack a worker error, adopting its shipped disk/work counters
        so a failed attempt's local I/O stays visible to recovery."""
        shipped = msg[1]
        if shipped.counters is not None:
            self._apply_local_state(rank, *shipped.counters)
        return rebuild(shipped)

    def _superstep(self, msgs: dict[int, tuple]) -> None:
        """Meter + commit exactly like the thread backend's barrier
        action, then relay to each rank the slots its reader indexes."""
        clock = self.cluster.clock
        kind, root = msgs[0][1], msgs[0][2]
        rows = []
        for j in range(self.p):
            _, _, _, row, segment, phase, accrual, _ = msgs[j]
            rows.append(np.asarray(row, dtype=np.int64))
            clock._pending_segment[j] = segment
            clock._phase[j] = phase
            if j == 0:
                clock._phase_accrual[0].clear()
                clock._phase_accrual[0].update(accrual or {})
        matrix = (
            np.vstack(rows) if rows else np.zeros((0, 0), dtype=np.int64)
        )
        total, max_rank = self.cluster.stats.record(
            kind, clock._phase[0], matrix
        )
        clock.commit_superstep(kind, total, max_rank)

        # A failed send is a death the next round's recv reports.
        sent = [msgs[j][7] for j in range(self.p)]
        for j, conn in enumerate(self.pool.conns):
            _send(conn, ("deliver", _route(kind, root, sent, j)))

    def _finish(self, msgs: dict[int, tuple]) -> list:
        """All ranks exited together: collect results and fold tails.

        Each result is adopted, not copied: its arrays are read-only
        views over a map of the rank's result segment, taken before
        ``release`` lets the rank unlink it."""
        clock = self.cluster.clock
        results: list = [None] * self.p
        finals: list[float] = [0.0] * self.p
        for j in range(self.p):
            _, final, phase, written, disk_snap, work_snap = msgs[j]
            finals[j] = final
            clock._phase[j] = phase
            results[j] = shm.adopt(written)
            self._apply_local_state(j, disk_snap, work_snap)
        created = sum(msgs[j][3].segment is not None for j in range(self.p))
        self.cluster.shm_pool = {
            "segments_created": created,
            "leases": created,
            "segments_reused": 0,
        }
        self.pool.broadcast(("release",))
        clock.finish(finals)
        return results

    def _apply_local_state(self, rank: int, disk_snap, work_snap) -> None:
        """Adopt the worker's absolute disk/work counters into the parent
        cluster (workers start from a fork of the parent state, so the
        shipped totals are directly assignable — cluster reuse included)."""
        disk = self.cluster.disks[rank]
        stats = disk.stats
        stats.blocks_read = disk_snap["blocks_read"]
        stats.blocks_written = disk_snap["blocks_written"]
        stats.rows_read = disk_snap["rows_read"]
        stats.rows_written = disk_snap["rows_written"]
        stats.files_created = disk_snap["files_created"]
        disk.work.seconds = work_snap["seconds"]
        disk.work.rows_sorted = work_snap["rows_sorted"]
        disk.work.rows_scanned = work_snap["rows_scanned"]
        disk._counter = work_snap["spill_counter"]

    # -- failure / shutdown ------------------------------------------------

    def _cleanup_failure(self, origin: BaseException) -> BaseException:
        """Abort every worker and pick the best origin (a real error
        beats a secondary RankFailure, like the thread engine's triage).

        A failed rank unlinks its own result segment, if it wrote one;
        what a SIGKILLed rank leaves goes in the pool's targeted orphan
        sweep on close."""
        self.pool.broadcast(("abort",))
        deadline = time.monotonic() + _ABORT_DRAIN_SEC
        for j, conn in enumerate(self.pool.conns):
            while True:
                try:
                    budget = max(0.0, deadline - time.monotonic())
                    if not conn.poll(budget):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                if msg[0] == "error":
                    exc = self._absorb_error(j, msg)
                    if isinstance(origin, RankFailure) and not isinstance(
                        exc, RankFailure
                    ):
                        origin = exc
        return origin


BACKENDS: dict[str, type] = {
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}
