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
    ``p``.  Simulated time is unaffected (per-rank CPU is measured with
    ``thread_time``), which is why this stays the default for tests and
    figure reproductions.

``process``
    ``p`` forked worker processes coordinated by the parent.  Collectives
    run over the :mod:`repro.mpi.shm` data plane: large numeric arrays
    cross through pooled POSIX shared-memory segments, everything else
    rides a small pickle blob on the worker's pipe.  The parent replays
    the exact superstep commit of the thread backend from per-rank
    metering shipped with each collective, so ``simulated_seconds`` /
    ``comm_bytes`` / ``disk_blocks`` are identical between backends
    whenever the clock's measured-CPU term is disabled
    (``compute_scale=0``) — and statistically equal otherwise.
    ``host_seconds`` now scales with real cores.

Superstep wire protocol (process backend), one round per collective::

    worker j -> parent : ("step", kind, send_row, segment_j, phase_j,
                          accrual_0 if j == 0, encoded_payload, held_j)
    parent             : meters + commits exactly like the barrier action
    parent -> worker j : ("deliver", [encoded payloads by source rank],
                          recycle_j)

``held_j`` lists the foreign segments rank ``j`` still aliases through
live zero-copy views; ``recycle_j`` hands rank ``j`` back its *own*
segments once every rank has stopped aliasing them.  Sending ``step``
N+1 doubles as rank ``j``'s release notification for superstep N: its
reader has returned by then, so any superstep-N segment absent from
``held_j`` can never be touched by rank ``j`` again.  The parent tracks
each in-flight segment in a ledger and recycles it to its creator only
after all ``p`` ranks have released it — the owner never overwrites
bytes a consumer can still observe.  Unlinking under live consumer views
is safe: POSIX keeps the backing memory until the last mapping closes;
only *reuse* needs the ledger.

On any failure the parent broadcasts ``("abort",)`` and drains the pipes;
a worker that errors waits for that abort before tearing down its data
plane, so its segments outlive every peer still inside a reader.  Peers
blocked in a collective observe :class:`RankFailure`, exactly like a
broken barrier.
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
from repro.mpi.comm import Comm, ThreadTransport
from repro.mpi.errors import (
    CollectiveMisuse,
    MPIError,
    RankDead,
    RankFailure,
    RankHung,
    exit_cause,
)

__all__ = [
    "BACKENDS",
    "ProcessBackend",
    "Supervisor",
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


_MISSING = object()


class _LazyLanes:
    """Per-source lane list of a scatter/alltoall slot, decoded on access.

    Keeps the h-relation O(own traffic): a rank only pays the decode for
    lanes actually addressed to it, even though every rank receives the
    full descriptor table.
    """

    def __init__(self, blobs: list, decode: Callable[[Any], Any]):
        self._blobs = blobs
        self._decode = decode
        self._cache: list = [_MISSING] * len(blobs)

    def __len__(self) -> int:
        return len(self._blobs)

    def __getitem__(self, idx: int):
        val = self._cache[idx]
        if val is _MISSING:
            blob = self._blobs[idx]
            val = None if blob is None else self._decode(blob)
            self._cache[idx] = val
        return val

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class _LazySlots:
    """The per-rank payload table a collective's reader indexes into."""

    def __init__(self, entries: list, decode: Callable[[Any], Any]):
        self._entries = entries
        self._decode = decode
        self._cache: list = [_MISSING] * len(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, idx: int):
        val = self._cache[idx]
        if val is _MISSING:
            val = self._cache[idx] = _decode_entry(
                self._entries[idx], self._decode
            )
        return val

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _encode_payload(kind: str, payload: Any, plane: shm.DataPlane):
    """Encode one rank's payload for the wire.

    Scatter/alltoall payloads are lane lists: each lane is its own blob
    (receivers decode only the lanes addressed to them) but all lanes of
    the collective share one arena segment (`encode_lanes`).
    """
    if payload is None:
        return None
    if kind in ("scatter", "alltoall") and isinstance(payload, list):
        return ("lanes", plane.encode_lanes(payload))
    return ("obj", plane.encode(payload))


def _decode_entry(entry, decode: Callable[[Any], Any]):
    if entry is None:
        return None
    tag, body = entry
    if tag == "obj":
        return decode(body)
    return _LazyLanes(body, decode)


def _prune_entries(kind: str, entries: list, dest: int) -> list:
    """Strip a deliver table down to what rank ``dest`` can actually read.

    :class:`~repro.mpi.comm.Comm` fixes the access pattern per collective:
    scatter/alltoall readers index only lane ``[dest]`` of each source's
    lane list.  Pruning the other lanes keeps the
    per-rank deliver pickle O(own traffic) instead of O(p^2) — the bytes
    never cross the pipe at all.  Sealed lane lists (fault injection)
    are sealed lane by lane and prune the same way, and metering happened
    before encoding, so neither is affected.
    """
    if kind not in ("scatter", "alltoall"):
        return entries
    pruned = []
    for entry in entries:
        if entry is None or entry[0] != "lanes":
            pruned.append(entry)
            continue
        blobs = entry[1]
        lane = [None] * len(blobs)
        lane[dest] = blobs[dest]
        pruned.append(("lanes", lane))
    return pruned


def _encoded_segments(entry) -> list[str]:
    """Deduped shared-memory segment names of one encoded payload."""
    if entry is None:
        return []
    tag, body = entry
    if tag == "obj":
        names = body.segments
    else:
        names = tuple(
            name
            for blob in body
            if blob is not None
            for name in blob.segments
        )
    return list(dict.fromkeys(names))


class _ProcessTransport:
    """Pipe+shared-memory transport of one worker process."""

    def __init__(
        self, rank: int, size: int, conn, clock, disk, plane,
        timeout: float | None = None,
    ):
        self.rank = rank
        self.size = size
        self._conn = conn
        self._clock = clock
        self._disk = disk
        self._plane = plane
        from repro.mpi.comm import resolve_barrier_timeout

        self._timeout = resolve_barrier_timeout(timeout)

    def _send(self, msg) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, EOFError, OSError):
            raise RankFailure(
                f"rank {self.rank}: the coordinator vanished"
            ) from None

    def _recv(self):
        try:
            if not self._conn.poll(self._timeout):
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
    ) -> Any:
        clock, rank, plane = self._clock, self.rank, self._plane
        # Ship the same quantities the barrier action reads in-process:
        # this rank's pending segment, its phase label, and (from rank 0)
        # the phase accrual used to apportion the superstep's compute.
        segment = clock._pending_segment[rank]
        phase = clock._phase[rank]
        accrual = dict(clock._phase_accrual[rank]) if rank == 0 else None
        self._send(
            (
                "step",
                kind,
                np.asarray(send_row, dtype=np.int64),
                segment,
                phase,
                accrual,
                _encode_payload(kind, payload, plane),
                plane.held(),
            )
        )
        msg = self._recv()
        if msg[0] != "deliver":
            raise RankFailure(
                f"rank {rank}: a peer rank aborted the computation"
            )
        # The parent only returns segments every rank released;
        # recycling before the read is safe because this round's own
        # segments are still in flight, not in the list.
        plane.recycle(msg[2])
        result = reader(_LazySlots(msg[1], plane.decode))
        # Mirror the superstep commit clearing the rank's local accrual.
        # The worker's forked clock never runs commit_superstep, so fold
        # the shipped segment into its own rank_busy entry here to keep
        # the throughput profiler's view consistent across backends.
        clock.rank_busy[rank] += segment
        clock._pending_segment[rank] = 0.0
        clock._phase_accrual[rank].clear()
        return result


def _ship_exception(rank: int, exc: BaseException, disk=None):
    """Best-effort picklable form of a worker failure.

    Carries the rank's disk/work counters so the parent can account the
    failed attempt's local I/O (recovery folds it into run metrics)."""
    tb = traceback.format_exc()
    try:
        pickle.dumps(exc)
    except Exception:
        exc = MPIError(
            f"rank {rank} failed with unpicklable "
            f"{type(exc).__name__}: {exc}"
        )
    disk_snap = work_snap = None
    if disk is not None:
        try:
            disk_snap = disk.stats.snapshot()
            work_snap = {
                "seconds": disk.work.seconds,
                "rows_sorted": disk.work.rows_sorted,
                "rows_scanned": disk.work.rows_scanned,
                "spill_counter": disk._counter,
            }
        except Exception:  # pragma: no cover - defensive
            pass
    return (exc, tb, disk_snap, work_snap)


def _worker_main(
    rank: int,
    conn,
    stale_conns,
    cluster,
    rank_program: Callable[..., Any],
    args: Sequence[Any],
) -> None:
    """Entry point of one forked rank process."""
    # Forked children inherit every pipe end created before their fork;
    # close the ones that aren't ours so EOF detection works in the parent.
    for stale in stale_conns:
        try:
            stale.close()
        except Exception:  # pragma: no cover - defensive
            pass
    disk = cluster.disks[rank]
    clock = cluster.clock  # forked copy: authoritative only for this rank
    spec = cluster.spec
    plane = shm.DataPlane()
    transport = cluster.transport_for(
        rank,
        _ProcessTransport(
            rank, spec.p, conn, clock, disk, plane,
            timeout=cluster.barrier_timeout,
        ),
    )
    comm = Comm(rank, spec.p, transport, clock, cluster.stats, disk)
    clock.rank_start(rank, disk.stats.blocks_total, disk.work.seconds)
    try:
        result = rank_program(comm, *args)
        final = cluster.tail_segment(rank)
        blob = plane.encode(result)
        conn.send(
            (
                "done",
                final,
                clock._phase[rank],
                blob,
                disk.stats.snapshot(),
                {
                    "seconds": disk.work.seconds,
                    "rows_sorted": disk.work.rows_sorted,
                    "rows_scanned": disk.work.rows_scanned,
                    "spill_counter": disk._counter,
                },
                plane.stats(),
            )
        )
        conn.recv()  # release (or abort) — parent mapped the result
    except BaseException as exc:  # noqa: BLE001 - ship, don't hang peers
        try:
            conn.send(("error", _ship_exception(rank, exc, disk)))
            # Peers may still be reading this rank's segments; wait for
            # the parent's abort before tearing the data plane down so a
            # mid-read attach never finds the name already gone.
            if conn.poll(_ABORT_DRAIN_SEC):
                conn.recv()
        except Exception:
            pass
    finally:
        # Unlinks every segment this worker created — pooled, in flight,
        # or holding the result blob (the parent's map keeps the result's
        # pages) — and closes foreign attachments.
        plane.close()
        try:
            conn.close()
        except Exception:  # pragma: no cover - defensive
            pass


# ---------------------------------------------------------------------------
# process backend: coordinator side
# ---------------------------------------------------------------------------


class Supervisor:
    """Deadline-based liveness supervision of the process backend's workers.

    Liveness has two signals, both piggybacked on the superstep protocol
    rather than a separate ping channel:

    * **Protocol messages as heartbeats** — any ``step``/``done``/``error``
      message from a rank proves it alive; a healthy worker is never
      probed and pays zero overhead.
    * **OS-level probes while silent** — while a pipe is quiet the
      supervisor polls in ``heartbeat_interval`` slices, checking the
      worker process between slices.  A process that exited (or was
      SIGKILLed) is reported as :class:`~repro.mpi.errors.RankDead` with
      its exit code / signal — a *permanent* loss.  A process still alive
      but silent past ``suspect_after`` is declared a hung straggler —
      :class:`~repro.mpi.errors.RankHung`, a *transient* failure.

    This replaces the old flat ``conn.poll(600)``: detection latency for
    a dead rank drops from the barrier timeout to one heartbeat interval,
    and the deadline for stragglers is a per-run knob instead of a
    module constant.
    """

    def __init__(
        self,
        procs: Sequence,
        heartbeat_interval: float = 0.25,
        suspect_after: float = 600.0,
        now: Callable[[], float] | None = None,
    ):
        self.procs = procs
        self.heartbeat_interval = float(heartbeat_interval)
        self.suspect_after = float(suspect_after)
        # Injectable clock so the deadline boundary (exactly-at vs
        # just-under) is testable without real sleeps.
        self._now = time.monotonic if now is None else now

    def await_message(self, conn, rank: int):
        """Block until rank's next protocol message, supervising its
        liveness; raises :class:`RankDead` / :class:`RankHung`."""
        deadline = self._now() + self.suspect_after
        while True:
            budget = min(
                self.heartbeat_interval,
                max(0.0, deadline - self._now()),
            )
            try:
                if conn.poll(budget):
                    return conn.recv()
            except (EOFError, OSError):
                raise self.post_mortem(rank, "its pipe closed") from None
            proc = self.procs[rank]
            if not proc.is_alive():
                # A worker that exited cleanly may have left a final
                # message buffered; drain it before declaring death.
                try:
                    if conn.poll(0):
                        continue
                except (EOFError, OSError):
                    pass
                raise self.post_mortem(rank, "its process exited")
            if self._now() >= deadline:
                raise RankHung(
                    f"rank {rank} exceeded its {self.suspect_after:.1f}s "
                    "superstep deadline (process alive: straggler declared "
                    "hung)",
                    rank=rank,
                )

    def post_mortem(self, rank: int, detail: str) -> RankDead:
        """Describe a dead worker (exit code / fatal signal attached)."""
        return RankDead(
            f"rank {rank} worker process died: {detail} "
            f"({exit_cause(self.procs[rank])})",
            rank=rank,
        )


class ProcessBackend:
    """Rank-per-process execution with shared-memory collectives."""

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
        # A SIGKILL'd worker from an earlier run leaks its arena segments
        # (it never reaches plane.close() and the coordinator may never
        # have learnt the names).  Segment names embed their creator pid,
        # so stale ones are identifiable and safe to reclaim here.
        shm.sweep_orphans()
        ctx = multiprocessing.get_context("fork")
        p = cluster.spec.p
        pipes = [ctx.Pipe(duplex=True) for _ in range(p)]
        parent_conns = [pc for pc, _ in pipes]
        procs = []
        for j in range(p):
            stale = parent_conns + [cc for k, (_, cc) in enumerate(pipes) if k != j]
            procs.append(
                ctx.Process(
                    target=_worker_main,
                    args=(j, pipes[j][1], stale, cluster,
                          rank_program, tuple(args)),
                    name=f"rank-{j}",
                    daemon=True,
                )
            )
        # Each rank starts from the parent's resident set: trim the
        # allocator's free pages first so no rank inherits them.
        shm.release_heap()
        for proc in procs:
            proc.start()
        for _, child_conn in pipes:
            child_conn.close()
        coordinator = _Coordinator(cluster, parent_conns, procs)
        try:
            return coordinator.run()
        finally:
            coordinator.close()


class _Abort(Exception):
    """Internal control flow: carries the failure to surface."""

    def __init__(self, origin: BaseException):
        self.origin = origin


class _Coordinator:
    """Parent-side replay of the thread backend's barrier action.

    The coordinator additionally keeps the segment *ledger*: every
    shared segment delivered in a superstep is in flight until all ``p``
    ranks have released it (reported via the ``held`` list on their next
    message), at which point its name is queued for the creator's next
    ``deliver`` and the creator's arena may reuse it.
    """

    def __init__(self, cluster, conns, procs):
        self.cluster = cluster
        self.conns = conns
        self.procs = procs
        self.p = cluster.spec.p
        self.supervisor = Supervisor(
            procs,
            heartbeat_interval=cluster.spec.heartbeat_interval,
            suspect_after=cluster.suspect_after,
        )
        # segment name -> (owner rank, ranks yet to release it)
        self._ledger: dict[str, tuple[int, set[int]]] = {}
        # owner rank -> segment names cleared for reuse
        self._releasable: dict[int, list[str]] = {}

    # -- plumbing ---------------------------------------------------------

    def _recv(self, rank: int):
        try:
            return self.supervisor.await_message(self.conns[rank], rank)
        except (RankDead, RankHung) as verdict:
            raise _Abort(verdict) from None

    def _broadcast(self, msg) -> None:
        for conn in self.conns:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass

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
            msg = self._recv(j)
            if msg[0] == "error":
                raise _Abort(self._absorb_error(j, msg))
            if msg[0] == "step":
                self._release(j, msg[7])
            msgs[j] = msg
        return msgs

    def _release(self, rank: int, held: list[str]) -> None:
        """Process one rank's release notification.

        ``rank`` sending its next step message means its reader for the
        previous superstep has returned; any in-flight segment it does
        not report as held can never be touched by it again.  A segment
        released by all ranks moves to its owner's releasable queue.
        """
        held_set = set(held)
        freed = []
        for name, (owner, waiting) in self._ledger.items():
            if rank in waiting and name not in held_set:
                waiting.discard(rank)
                if not waiting:
                    freed.append((name, owner))
        for name, owner in freed:
            del self._ledger[name]
            self._releasable.setdefault(owner, []).append(name)

    def _absorb_error(self, rank: int, msg) -> BaseException:
        """Unpack a worker error, adopting its shipped disk/work counters
        so a failed attempt's local I/O stays visible to recovery."""
        exc, _tb, disk_snap, work_snap = msg[1]
        if disk_snap is not None and work_snap is not None:
            try:
                self._apply_local_state(rank, disk_snap, work_snap)
            except Exception:  # pragma: no cover - defensive
                pass
        return exc

    def _superstep(self, msgs: dict[int, tuple]) -> None:
        """Meter + commit exactly like the thread backend's barrier
        action, then deliver payloads with each creator's recycled
        segments."""
        clock = self.cluster.clock
        kind = msgs[0][1]
        rows = []
        for j in range(self.p):
            _, _, row, segment, phase, accrual, _, _ = msgs[j]
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

        entries = [msgs[j][6] for j in range(self.p)]
        # Register this round's segments before handing anything out:
        # all p ranks must release a segment before it is reused.
        for j in range(self.p):
            for name in _encoded_segments(entries[j]):
                self._ledger[name] = (j, set(range(self.p)))
        for j, conn in enumerate(self.conns):
            recycle = tuple(self._releasable.pop(j, ()))
            try:
                conn.send(
                    ("deliver", _prune_entries(kind, entries, j), recycle)
                )
            except (BrokenPipeError, OSError):
                pass

    def _finish(self, msgs: dict[int, tuple]) -> list:
        """All ranks exited together: collect results and fold tails.

        Each result is adopted, not copied: its arrays are read-only
        views over a map of the rank's result segment, taken before
        ``release`` lets the rank unlink it."""
        clock = self.cluster.clock
        results: list = [None] * self.p
        finals: list[float] = [0.0] * self.p
        pool_totals: dict[str, float] = {}
        for j in range(self.p):
            _, final, phase, blob, disk_snap, work_snap, plane_stats = msgs[j]
            finals[j] = final
            clock._phase[j] = phase
            results[j] = shm.adopt(blob)
            self._apply_local_state(j, disk_snap, work_snap)
            for key, val in plane_stats.items():
                if key != "hit_rate":
                    pool_totals[key] = pool_totals.get(key, 0) + val
        leases = pool_totals.get("leases", 0)
        pool_totals["hit_rate"] = (
            round(pool_totals.get("segments_reused", 0) / leases, 4)
            if leases
            else 0.0
        )
        self.cluster.shm_pool = pool_totals
        self._broadcast(("release",))
        for proc in self.procs:
            proc.join(timeout=_ABORT_DRAIN_SEC)
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

        Segment cleanup needs no parent-side unlinking any more: every
        worker tears down its own :class:`~repro.mpi.shm.DataPlane` in
        its ``finally`` (a worker that errors first waits for our abort,
        so it never yanks a segment from under a mid-read peer), and
        SIGKILL'd workers are reaped by the targeted orphan sweep in
        :meth:`close`."""
        self._broadcast(("abort",))
        deadline = time.monotonic() + _ABORT_DRAIN_SEC
        for j, conn in enumerate(self.conns):
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
                    # Workers hold their plane teardown until the parent
                    # acknowledges; the initial broadcast covered errors
                    # already in flight, late ones get a direct reply.
                    try:
                        conn.send(("abort",))
                    except (BrokenPipeError, OSError):
                        pass
        return origin

    def close(self) -> None:
        for proc in self.procs:
            proc.join(timeout=_ABORT_DRAIN_SEC)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - defensive
                pass
        # Reap segments of workers that died without unlinking (SIGKILL,
        # hard crash): every worker is joined by now, so a targeted sweep
        # of their pids cannot race a live creator.
        pids = [proc.pid for proc in self.procs if proc.pid is not None]
        if pids:
            shm.sweep_orphans(pids=pids)


BACKENDS: dict[str, type] = {
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}
