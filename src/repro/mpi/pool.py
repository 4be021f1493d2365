"""One pool of forked workers, one duplex pipe each.

Both runtimes that fork run on it: the process backend's SPMD ranks
(:mod:`repro.mpi.backends`) and the serving workers of
:class:`~repro.olap.service.QueryService`.  The pool spawns, watches,
kills and replaces workers; what their messages mean is the caller's
business.

* **Spawn.**  A slot's worker is forked after
  :func:`~repro.mpi.shm.release_heap` (it starts from a trimmed heap)
  and gets one duplex pipe.  The child closes every other pipe end it
  inherited, so the coordinator's death reads as EOF in the worker.
  Each slot counts its generations; ``all_pids`` keeps every pid ever
  spawned for the final orphan sweep, ``restart_log`` one entry per
  respawn with its detection -> ready times.
* **Liveness.**  Protocol messages are the heartbeats and the process
  sentinel reports a death: one ``multiprocessing.connection.wait``
  over the pipes and sentinels returns the ready messages, or a
  :class:`~repro.mpi.errors.RankDead` naming the exit cause
  (:func:`~repro.mpi.errors.exit_cause`), without a polling slice.  A
  dying worker's last messages are delivered before its death.
* **Hung workers.**  A slot that holds work and has been silent past
  ``suspect_after`` is a straggler, :class:`~repro.mpi.errors.RankHung`.
  Silence counts from the slot's last message, or from the moment the
  coordinator handed work to the idle worker (:meth:`WorkerPool.watch`).

Entry points: :meth:`~WorkerPool.recv` serves the SPMD coordinator,
which waits on one rank at a time; :meth:`~WorkerPool.wait` serves the
query service, which waits on all of its workers at once.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_conn
import os
import signal
import time
from typing import Any, Callable, Sequence

from repro.mpi.errors import RankDead, RankHung, exit_cause
from repro.mpi.shm import release_heap, sweep_orphans

__all__ = ["WorkerPool"]


def _child(target, args, slot, generation, conn, stale) -> None:
    """Entry point of a forked worker: drop the inherited pipe ends that
    are not its own, then run the caller's worker function."""
    for other in stale:
        other.close()
    target(slot, generation, conn, *args)


class WorkerPool:
    """``size`` forked workers, each ``target(slot, generation, conn,
    *args)`` on its own end of a duplex pipe.

    ``suspect_after`` is the silence after which a worker holding work is
    hung; ``max_restarts`` bounds :meth:`respawn` over the pool's life;
    ``label`` names a slot in failure messages (``"rank"``).  ``now`` is
    the clock the deadlines read, injectable so the deadline boundary is
    testable without sleeping.
    """

    def __init__(
        self,
        size: int,
        target: Callable[..., None],
        args: Sequence[Any] = (),
        *,
        suspect_after: float,
        max_restarts: int = 0,
        label: str = "worker",
        now: Callable[[], float] = time.monotonic,
    ):
        self.suspect_after = float(suspect_after)
        self.max_restarts = int(max_restarts)
        self.label = label
        self.now = now
        self._target = target
        self._args = tuple(args)
        self.procs: list = [None] * size
        self.conns: list = [None] * size
        self.generation = [0] * size
        #: When each slot last spoke or was handed work while idle.
        self.heard = [0.0] * size
        self.all_pids: list[int] = []
        self.restarts = 0
        self.restart_log: list[dict] = []
        self._spawn(range(size))

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, slots) -> None:
        ctx = multiprocessing.get_context("fork")
        pipes = {slot: ctx.Pipe(duplex=True) for slot in slots}
        for slot, (mine, _) in pipes.items():
            self.conns[slot] = mine
        theirs = [child for _, child in pipes.values()]
        ours = [conn for conn in self.conns if conn is not None]
        procs = {
            slot: ctx.Process(
                target=_child,
                args=(self._target, self._args, slot, self.generation[slot],
                      child, ours + [c for c in theirs if c is not child]),
                name=f"{self.label}-{slot}",
                daemon=True,
            )
            for slot, (_, child) in pipes.items()
        }
        release_heap()
        for slot, proc in procs.items():
            proc.start()
            self.procs[slot] = proc
            self.all_pids.append(proc.pid)
        for child in theirs:
            child.close()

    def live(self) -> list[int]:
        """Occupied slots (a worker that died stays listed until its
        death is reported and the slot respawned or dropped)."""
        return [s for s, proc in enumerate(self.procs) if proc is not None]

    def kill(self, slot: int) -> None:
        """SIGKILL the slot's worker; its death is reported as usual."""
        proc = self.procs[slot]
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - already reaped
            pass

    def drop(self, slot: int) -> None:
        """Empty a slot: kill its worker if still alive, close its pipe
        and sweep the shared-memory segments it leaked."""
        pid = self.procs[slot].pid
        self._release(slot)
        sweep_orphans([pid])

    def _release(self, slot: int) -> None:
        proc = self.procs[slot]
        if proc.is_alive():
            self.kill(slot)
        proc.join(1.0)
        self.conns[slot].close()
        self.procs[slot] = self.conns[slot] = None

    def respawn(self, slot: int, cause: str) -> bool:
        """Replace the slot's worker at ``generation + 1``; False (the
        slot left empty) once ``max_restarts`` is spent."""
        detected = time.monotonic()
        self.drop(slot)
        if self.restarts >= self.max_restarts:
            return False
        self.restarts += 1
        self.generation[slot] += 1
        self._spawn([slot])
        self.restart_log.append(
            {
                "slot": slot,
                "generation": self.generation[slot],
                "cause": cause,
                "detected_at": detected,
                "ready_at": time.monotonic(),
            }
        )
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Wait up to ``timeout`` for every worker to exit, kill the
        rest, and sweep the segments of every worker ever spawned."""
        deadline = time.monotonic() + timeout
        for slot in self.live():
            self.procs[slot].join(max(deadline - time.monotonic(), 0.5))
            self._release(slot)
        sweep_orphans(self.all_pids)

    # -- messages -------------------------------------------------------------

    def send(self, slot: int, msg) -> bool:
        """False if the worker's pipe is gone (its death is then
        reported by :meth:`recv` / :meth:`wait`)."""
        try:
            self.conns[slot].send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def broadcast(self, msg) -> None:
        for slot in self.live():
            self.send(slot, msg)

    def recv(self, slot: int, deadline: float | None = None):
        """The slot's next message (the SPMD coordinator's entry point).

        Raises :class:`RankDead` if the worker dies first and
        :class:`RankHung` if nothing arrives by ``deadline`` (default:
        ``suspect_after`` from now).  A message already buffered wins:
        at the deadline, and from a worker that sent it before dying.
        """
        conn, sentinel = self.conns[slot], self.procs[slot].sentinel
        if deadline is None:
            deadline = self.now() + self.suspect_after
        while True:
            remaining = deadline - self.now()
            ready = mp_conn.wait([conn, sentinel], max(remaining, 0.0))
            if conn in ready:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise self._dead(slot, "its pipe closed") from None
            if ready:
                raise self._dead(slot, "its process exited")
            if remaining <= 0:
                raise self._hung(slot)

    def wait(self, timeout: float | None) -> list[tuple[int, Any]]:
        """Block up to ``timeout`` for any worker (the service's entry
        point); returns ``(slot, message)`` pairs, where a dead worker's
        last item is its :class:`RankDead`, after every message it sent."""
        live = self.live()
        by_conn = {self.conns[slot]: slot for slot in live}
        by_sentinel = {self.procs[slot].sentinel: slot for slot in live}
        ready = mp_conn.wait([*by_conn, *by_sentinel], timeout)
        if not ready:
            return []
        now = self.now()
        exited = {by_sentinel[r] for r in ready if r in by_sentinel}
        events: list[tuple[int, Any]] = []
        for slot in sorted(exited | {by_conn[r] for r in ready if r in by_conn}):
            conn = self.conns[slot]
            detail = "its process exited" if slot in exited else None
            try:
                while conn.poll():
                    events.append((slot, conn.recv()))
                    self.heard[slot] = now
            except (EOFError, OSError):
                detail = detail or "its pipe closed"
            if detail:
                events.append((slot, self._dead(slot, detail)))
        return events

    # -- liveness -------------------------------------------------------------

    def watch(self, slot: int) -> None:
        """Start the slot's silence clock: it was just handed work while
        idle."""
        self.heard[slot] = self.now()

    def hung(self, busy, now: float) -> list[tuple[int, RankHung]]:
        """The slots of ``busy`` (those holding work) silent for at least
        ``suspect_after``."""
        return [
            (slot, self._hung(slot))
            for slot in busy
            if now - self.heard[slot] >= self.suspect_after
        ]

    def _hung(self, slot: int) -> RankHung:
        return RankHung(
            f"{self.label} {slot} sent nothing within its "
            f"{self.suspect_after:.2f}s deadline (process alive: "
            "straggler declared hung)",
            rank=slot,
        )

    def _dead(self, slot: int, detail: str) -> RankDead:
        proc = self.procs[slot]
        return RankDead(
            f"{self.label} {slot} worker process died: {detail} "
            f"({exit_cause(proc)}); generation {self.generation[slot]}, "
            f"pid {proc.pid}",
            rank=slot,
        )
