"""A supervised, fault-tolerant OLAP query service over a stored cube.

:class:`QueryService` fronts one :class:`~repro.olap.store.CubeStore`
directory with a pool of **worker processes**.  Each worker mmap-opens
the store read-only (the OS page cache shares the bytes between
workers), answers queries through the index-accelerated
:class:`~repro.olap.query.QueryEngine`, and sends each result's
``(dims, measure)`` arrays back pickled on its pipe.

The workers are a :class:`~repro.mpi.pool.WorkerPool`, the one the
process backend's ranks run on, with one pipe per worker and one
message per query each way; failures follow the build engine's
taxonomy (:func:`~repro.mpi.errors.classify_failure`):

* a SIGKILLed or crashed worker is reported
  :class:`~repro.mpi.errors.RankDead` as soon as its process exits, its
  in-flight queries are **reassigned** with bounded retries and
  exponential backoff, and a replacement is spawned into its slot up to
  the restart budget;
* a worker silent past ``suspect_after`` while holding work is a
  straggler declared :class:`~repro.mpi.errors.RankHung`, killed, and
  replaced — slow workers are failures, not a special case;
* every result carries a CRC over its arrays; a corrupt result is
  re-executed elsewhere;
* queries that repeatedly kill workers trip a **poison circuit
  breaker** (:class:`~repro.olap.supervise.PoisonQuery`) instead of
  felling the whole pool;
* per-query **deadlines** are enforced on both sides (worker-side shed
  of already-expired tasks, coordinator-side
  :class:`~repro.olap.supervise.QueryTimeout`), and a bounded in-flight
  window sheds load explicitly
  (:class:`~repro.olap.supervise.ServiceOverloaded`).

The coordinator is one event loop with no threads: it sleeps in the
pool's ``wait`` until a message, a death or its next timer (a query
deadline, a retry release, a ``CURRENT`` poll, a hang deadline).

The coordinator keeps a byte-budgeted, admission-controlled
:class:`~repro.olap.cache.ResultCache` in front of the pool and dedups
identical in-flight queries, so a dashboard stampede on one hot query
costs one worker execution.

The service is **refresh-aware**: the store directory may gain new
generations while queries are flowing
(:func:`~repro.olap.refresh.refresh_store`).  Each worker pins the
generation it has open for the duration of every query, re-reads the
store's ``CURRENT`` pointer between queries (every
``policy.current_poll_interval``), and swaps to the new generation by
simply reopening the store — no restart, no coordination, and no
reader ever blocks on a refresh because the old generation's files
stay mapped until the swap.  Result-cache entries are keyed by
``(store generation, query)`` so a result computed against generation
N can never satisfy a query once the coordinator has observed N+1.
Superseded generation directories are always garbage-collected once no
live worker still has them pinned.

The API is deliberately queue-shaped for open-loop load generation
(:mod:`repro.olap.servebench`):
``submit`` enqueues and returns a ticket, ``wait`` collects, ``answer``
is the synchronous round trip.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing as mp
import os
import signal
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mpi import errors as mpi_errors
from repro.mpi.errors import (
    CorruptPayload,
    RankDead,
    classify_failure,
    rebuild,
    ship,
)
from repro.mpi.faults import FaultPlan, firing
from repro.mpi.pool import WorkerPool
from repro.olap.cache import ResultCache, result_nbytes
from repro.olap.query import Query
from repro.olap.supervise import (
    PoisonQuery,
    QueryTimeout,
    ServiceOverloaded,
    ServicePolicy,
    retry_backoff,
)
from repro.storage.table import Relation

__all__ = [
    "PoisonQuery",
    "QueryService",
    "QueryTimeout",
    "ServiceOverloaded",
    "ServicePolicy",
]

_SHUTDOWN = None  # the task that stops a worker
#: Dispatched, unanswered tasks per worker.  A hung worker reads no
#: pipe: the cap keeps every coordinator send far below what a pipe
#: buffers (a few hundred task messages), so a send never blocks; the
#: rest wait in the dispatch queue, where a failure can still reassign
#: them.
_TASKS_PER_WORKER = 2


def _result_crc(dims: np.ndarray, measure: np.ndarray) -> int:
    """Integrity stamp over a result's canonical bytes, read in place."""
    crc = zlib.crc32(repr((dims.shape, measure.shape)).encode())
    crc = zlib.crc32(np.ascontiguousarray(dims), crc)
    return zlib.crc32(np.ascontiguousarray(measure), crc)


def _corrupt(dims: np.ndarray, measure: np.ndarray, crc: int):
    """A result corrupted after its CRC was stamped: one byte flipped in
    a copy of its first non-empty array (an empty result keeps its
    arrays and gets a flipped stamp instead)."""
    arrays = [dims.copy(), measure.copy()]
    for arr in arrays:
        if arr.nbytes:
            arr.reshape(-1).view(np.uint8)[0] ^= 0xFF
            return tuple(arrays), crc
    return tuple(arrays), crc ^ 0xFFFFFFFF


def _worker_main(
    slot: int,
    generation: int,
    conn,
    store_path: str,
    faults: FaultPlan | None,
    store_gens,
    current_poll_interval: float,
) -> None:
    """One serving worker (a :class:`~repro.mpi.pool.WorkerPool` slot):
    open the store, answer tasks until the shutdown sentinel.

    The worker blocks on its pipe until a task arrives or its next
    ``CURRENT`` re-read is due.  A task is ``(seq, attempt, query,
    deadline)`` and gets one reply, carrying the result's ``(dims,
    measure)`` and its CRC.  Tasks whose deadline already passed are shed
    without execution (the soft, between-tasks half of deadline
    enforcement).

    Every query is answered entirely by the store generation the worker
    had open when it dequeued the task; *between* tasks the worker
    re-reads ``CURRENT`` (every ``current_poll_interval``) and reopens
    the store when a refresh published a new generation, advertising
    the pinned generation through the shared ``store_gens`` slot so the
    coordinator's GC never deletes a directory a live worker still
    serves from.  (POSIX keeps unlinked-but-mapped files readable, so
    even a racing GC cannot break an open generation.)
    """
    from repro.olap.store import CubeStore

    handle = CubeStore.open(store_path)
    # Workers keep mmap-only access: every view column opens read-only.
    engine = handle.query_engine()
    store_gen = store_gens[slot] = handle.generation
    gen_poll_at = time.monotonic() + current_poll_interval

    def _maybe_rotate() -> None:
        """Pick up a refreshed generation between tasks (never during)."""
        nonlocal handle, engine, store_gen, gen_poll_at
        now = time.monotonic()
        if now < gen_poll_at:
            return
        gen_poll_at = now + current_poll_interval
        try:
            if CubeStore.current_generation(store_path) == store_gen:
                return
            fresh = CubeStore.open(store_path)
            fresh_engine = fresh.query_engine()
        except (OSError, ValueError, KeyError):
            return  # mid-swap or torn state; retry next poll
        handle, engine = fresh, fresh_engine
        store_gen = store_gens[slot] = fresh.generation

    mine = [] if faults is None else faults.for_worker(slot, generation)
    executed = 0
    try:
        while True:
            _maybe_rotate()
            if not conn.poll(max(gen_poll_at - time.monotonic(), 0.0)):
                continue
            task = conn.recv()
            if task is _SHUTDOWN:
                break
            seq, attempt, query, deadline = task
            arrays, crc, err = None, 0, None
            if deadline is not None and time.monotonic() >= deadline:
                late = QueryTimeout(
                    f"deadline already passed when worker {slot} "
                    "dequeued the task"
                )
                err = ship(late, f"worker {slot}")
                conn.send((seq, attempt, store_gen, arrays, crc, err))
                continue
            fire = firing(mine, executed)
            executed += 1
            if "hang" in fire:
                time.sleep(fire["hang"].arg)
            if "kill" in fire:
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                result = engine.answer(query)
                arrays = (result.dims, result.measure)
                crc = _result_crc(*arrays)
                if "corrupt" in fire:
                    arrays, crc = _corrupt(*arrays, crc)
            except Exception as exc:  # noqa: BLE001 - relayed to caller
                err = ship(exc, f"worker {slot}")
            conn.send((seq, attempt, store_gen, arrays, crc, err))
    except (EOFError, OSError):
        pass  # the coordinator is gone


@dataclass
class _Flight:
    """One in-flight query execution (shared by all its waiters)."""

    seq: int
    query: Query
    attempt: int = 0
    #: The pool slot executing it (None while queued or backing off).
    assigned: int | None = None
    submitted_at: float = 0.0
    deadline: float | None = None
    #: The ``(store generation, query)`` key its waiters registered
    #: under (the generation the coordinator saw at submit time).
    wkey: tuple[int, Query] | None = None
    #: Waiters already failed with QueryTimeout; the flight lingers only
    #: so a late result / worker death can be reconciled cleanly.
    zombie: bool = False


class QueryService:
    """A supervised pool of store-backed query workers behind a cache.

    Parameters
    ----------
    store_path:
        A :class:`~repro.olap.store.CubeStore` directory (either
        format); every worker opens it independently.
    workers:
        Pool size (>= 1).
    byte_budget:
        Result-cache size in bytes (see
        :class:`~repro.olap.cache.ResultCache`); ``None`` disables
        caching entirely.
    policy:
        The service's failure posture — hang deadline, query deadlines,
        retry bound, queue depth, poison threshold, restart budget
        (see :class:`~repro.olap.supervise.ServicePolicy`).
    faults:
        Optional :class:`~repro.mpi.faults.FaultPlan` of serving-worker
        faults (``w<worker>q<query>``; chaos testing).  A rank fault
        raises ``ValueError``.
    """

    def __init__(
        self,
        store_path: str,
        workers: int = 2,
        byte_budget: int | None = 64 << 20,
        policy: ServicePolicy | None = None,
        faults: FaultPlan | None = None,
    ):
        # Bookkeeping __del__ touches is initialised before anything can
        # raise, so a failed construction tears down silently.
        self._closed = True
        self.pool: WorkerPool | None = None
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if faults is not None:
            faults.check_space("w")
        # Validate the store before forking anything: a bad path should
        # fail the constructor, not crash-loop every worker through the
        # restart budget.  (Local import: store is a sibling serving
        # module, imported lazily like the workers do.)
        from repro.olap.store import CubeStore

        CubeStore._read_manifest(CubeStore.resolve(store_path)[0])
        self.store_path = store_path
        self.workers = int(workers)
        self.policy = policy if policy is not None else ServicePolicy()
        #: The store generation the coordinator currently believes is
        #: CURRENT; cache lookups key on it, so one observed bump makes
        #: every older entry unreachable.
        self._store_gen = CubeStore.current_generation(store_path)
        self._gen_poll_at = (
            time.monotonic() + self.policy.current_poll_interval
        )
        self.generation_bumps = 0
        self.generations_removed = 0
        self._cache = (
            None if byte_budget is None else ResultCache(byte_budget)
        )
        # One slot per worker advertising the generation it has pinned
        # (-1 until the worker opens the store); GC consults this so no
        # directory a live worker serves from is ever removed.
        self._store_gens = mp.get_context("fork").Array(
            "l", [-1] * self.workers, lock=False
        )
        #: Issued tickets :meth:`wait` has not collected yet.
        self._uncollected: set[int] = set()
        self._flights: dict[int, _Flight] = {}
        #: (store generation, query) -> tickets; the generation in the
        #: key keeps a waiter joined before a refresh from being fed a
        #: result computed against a different snapshot than it joined.
        self._waiters: dict[tuple[int, Query], list[int]] = {}
        self._results: dict[int, Relation | Exception] = {}
        self._dispatchq: deque[int] = deque()
        self._retry_heap: list[tuple[float, int]] = []
        self._death_counts: dict[Query, int] = {}
        self._quarantined: set[Query] = set()
        #: Monotonic completion time per resolved ticket (for latency
        #: measurement by the open-loop load driver; popped with wait).
        self.completed_at: dict[int, float] = {}
        self.submitted = 0
        self.executed = 0
        self.shed = 0
        self.retries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.worker_hangs = 0
        self.poisoned = 0
        self.corrupt_results = 0
        #: Per slot: dispatched sequence numbers -> attempt (the
        #: reassignment set when the worker fails).
        self._outstanding: list[dict[int, int]] = [
            {} for _ in range(self.workers)
        ]
        self.pool = WorkerPool(
            self.workers,
            _worker_main,
            (store_path, faults, self._store_gens,
             self.policy.current_poll_interval),
            suspect_after=self.policy.suspect_after,
            max_restarts=self.policy.max_restarts,
            label="serving slot",
        )
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(
        self, query: Query, deadline_s: float | None = None
    ) -> int:
        """Enqueue a query; returns a ticket for :meth:`wait`.

        Cache hits resolve immediately; an identical query already in
        flight is joined rather than re-executed.  ``deadline_s``
        overrides the policy's default per-query deadline.  Raises
        :class:`ServiceOverloaded` when the in-flight queue is at
        ``policy.max_queue_depth`` — callers should back off.
        """
        if self._closed:
            raise RuntimeError("QueryService is closed")
        self._poll_generation(time.monotonic())
        if query in self._quarantined:
            ticket = self._issue()
            self._results[ticket] = PoisonQuery(
                f"{query.describe()} is quarantined: it killed "
                f"{self._death_counts.get(query, 0)} workers"
            )
            self.completed_at[ticket] = time.monotonic()
            return ticket
        wkey = (self._store_gen, query)
        if self._cache is not None:
            cached = self._cache.get(wkey)
            if cached is not None:
                ticket = self._issue()
                self._results[ticket] = cached
                self.completed_at[ticket] = time.monotonic()
                return ticket
        waiters = self._waiters.get(wkey)
        if waiters is not None:
            ticket = self._issue()
            waiters.append(ticket)
            return ticket
        if len(self._flights) >= self.policy.max_queue_depth:
            self.shed += 1
            raise ServiceOverloaded(
                f"{len(self._flights)} queries in flight >= "
                f"max_queue_depth {self.policy.max_queue_depth}; "
                "back off and retry"
            )
        ticket = self._issue()
        now = time.monotonic()
        if deadline_s is None:
            deadline_s = self.policy.deadline_s
        flight = _Flight(
            seq=ticket,
            query=query,
            submitted_at=now,
            deadline=None if deadline_s is None else now + deadline_s,
            wkey=wkey,
        )
        self._waiters[wkey] = [ticket]
        self._flights[ticket] = flight
        self._dispatchq.append(ticket)
        self._dispatch()
        return ticket

    def _issue(self) -> int:
        """The next ticket: tickets count submissions from 1."""
        self.submitted += 1
        self._uncollected.add(self.submitted)
        return self.submitted

    # -- the event loop ----------------------------------------------------

    def _pump(self, budget: float) -> None:
        """One event-loop pass: sleep until a worker message, a death, or
        the next timer (at most ``budget`` seconds), then absorb results
        and failures, declare hung workers, enforce deadlines, release
        backed-off retries, and dispatch ready work."""
        now = time.monotonic()
        wake = min(budget, max(self._next_timer() - now, 0.0))
        for slot, item in self.pool.wait(wake):
            if isinstance(item, RankDead):
                self._on_worker_failure(slot, item)
            else:
                self._on_result(slot, item)
        now = time.monotonic()
        self._poll_generation(now)
        for slot, exc in self.pool.hung(self._busy(), now):
            self._on_worker_failure(slot, exc)
        self._enforce_deadlines(now)
        self._release_retries(now)
        self._dispatch()

    def _busy(self) -> list[int]:
        return [s for s in self.pool.live() if self._outstanding[s]]

    def _next_timer(self) -> float:
        """The earliest of the ``CURRENT`` poll, a retry release, a
        query deadline and a busy worker's hang deadline."""
        timers = [self._gen_poll_at]
        if self._retry_heap:
            timers.append(self._retry_heap[0][0])
        timers.extend(
            f.deadline
            for f in self._flights.values()
            if f.deadline is not None and not f.zombie
        )
        timers.extend(
            self.pool.heard[s] + self.policy.suspect_after
            for s in self._busy()
        )
        return min(timers)

    def _on_result(self, slot: int, msg) -> None:
        seq, attempt, store_gen, arrays, crc, err = msg
        self._outstanding[slot].pop(seq, None)
        flight = self._flights.get(seq)
        stale = flight is None or flight.attempt != attempt
        if err is not None:
            if stale:
                return
            if flight.zombie:
                self._flights.pop(seq, None)
                return
            # A worker-side shed (the deadline passed in queue), or a
            # query error from a healthy worker, which is deterministic:
            # its original type goes to all waiters, no retry.
            query = flight.query.describe()
            if isinstance(err.exc, QueryTimeout):
                self.timeouts += 1
                context = f"{query} shed by worker {slot}: "
            else:
                context = f"worker {slot} failed on {query}: "
            self._fail_flight(flight, rebuild(err, context))
            return
        if _result_crc(*arrays) != crc:
            # The *transport* failed, not the query: retry it elsewhere.
            if stale:
                return
            self.corrupt_results += 1
            self._retry_or_fail(
                flight,
                CorruptPayload(
                    f"result from worker {slot} failed its CRC check "
                    f"(stamped {crc:#010x})",
                    rank=slot,
                ),
            )
            return
        outcome = Relation(*arrays)
        if stale or flight.zombie:
            if flight is not None and flight.zombie:
                self._flights.pop(seq, None)
            return
        self.executed += 1
        if self._cache is not None:
            # Keyed by the generation that *computed* the result (the
            # worker's pinned generation), not the submit-time one — a
            # worker that rotated ahead of the coordinator must not
            # poison the old generation's namespace, and vice versa.
            self._cache.put(
                (store_gen, flight.query), outcome, result_nbytes(outcome)
            )
        self._resolve(flight, outcome)

    def _resolve(self, flight: _Flight, outcome) -> None:
        """Fulfil every waiter of a flight and forget it."""
        self._flights.pop(flight.seq, None)
        done = time.monotonic()
        for ticket in self._waiters.pop(flight.wkey, []):
            self._results[ticket] = outcome
            self.completed_at[ticket] = done

    def _fail_flight(self, flight: _Flight, exc: Exception) -> None:
        self._resolve(flight, exc)

    def _retry_or_fail(self, flight: _Flight, exc: Exception) -> None:
        """Reassign a flight after a worker failure, within budget."""
        flight.assigned = None
        if flight.zombie:
            self._flights.pop(flight.seq, None)
            return
        if flight.attempt >= self.policy.max_retries:
            self._fail_flight(
                flight,
                type(exc)(
                    f"{flight.query.describe()} failed after "
                    f"{flight.attempt + 1} attempts: {exc}"
                ),
            )
            return
        flight.attempt += 1
        self.retries += 1
        ready = time.monotonic() + retry_backoff(flight.attempt)
        heapq.heappush(self._retry_heap, (ready, flight.seq))

    def _on_worker_failure(self, slot: int, exc: Exception) -> None:
        # RankHung classifies transient (the node is alive, merely
        # slow), RankDead permanent — the same taxonomy degraded-mode
        # recovery uses.  Either way the worker is replaced (a hung one
        # is SIGKILLed first); the labels feed the counters and the
        # restart log.
        kind, _culprit = classify_failure(exc)
        hung = kind != mpi_errors.PERMANENT
        if hung:
            self.worker_hangs += 1
        else:
            self.worker_deaths += 1
        outstanding, self._outstanding[slot] = self._outstanding[slot], {}
        for seq, attempt in outstanding.items():
            flight = self._flights.get(seq)
            if flight is None or flight.attempt != attempt:
                continue
            if flight.zombie:
                self._flights.pop(seq, None)
                continue
            deaths = self._death_counts.get(flight.query, 0) + 1
            self._death_counts[flight.query] = deaths
            if deaths >= self.policy.poison_threshold:
                # Circuit breaker: retrying would only fell the next
                # replacement too.
                self._quarantined.add(flight.query)
                self.poisoned += 1
                self._fail_flight(
                    flight,
                    PoisonQuery(
                        f"{flight.query.describe()} killed {deaths} "
                        f"workers (threshold "
                        f"{self.policy.poison_threshold}); quarantined "
                        f"and failed to all waiters"
                    ),
                )
                continue
            self._retry_or_fail(flight, exc)
        if self._closed:
            self.pool.drop(slot)
        elif (
            not self.pool.respawn(slot, "hung" if hung else "died")
            and not self.pool.live()
        ):
            # Pool extinct and the restart budget is spent: fail
            # everything queued rather than stranding the waiters.
            for flight in list(self._flights.values()):
                self._fail_flight(
                    flight,
                    RankDead(
                        "no live serving workers left and the restart "
                        f"budget ({self.policy.max_restarts}) is "
                        f"exhausted: {exc}"
                    ),
                )
            self._dispatchq.clear()
            self._retry_heap.clear()

    def _enforce_deadlines(self, now: float) -> None:
        """Coordinator-side hard deadline: fail the waiters, keep the
        ticket bookkeeping consistent for the late result."""
        for seq in list(self._flights):
            flight = self._flights.get(seq)
            if (
                flight is None
                or flight.zombie
                or flight.deadline is None
                or now < flight.deadline
            ):
                continue
            self.timeouts += 1
            done = time.monotonic()
            exc = QueryTimeout(
                f"{flight.query.describe()} missed its "
                f"{flight.deadline - flight.submitted_at:.3f}s deadline "
                f"(attempt {flight.attempt + 1})"
            )
            for ticket in self._waiters.pop(flight.wkey, []):
                self._results[ticket] = exc
                self.completed_at[ticket] = done
            if flight.assigned is None:
                # Never dispatched (queued or backing off): nothing to
                # reconcile later, drop it now.
                self._flights.pop(seq, None)
            else:
                flight.zombie = True

    # -- refresh awareness -------------------------------------------------

    def _poll_generation(self, now: float) -> None:
        """Time-gated CURRENT re-read (every
        ``policy.current_poll_interval``)."""
        if now < self._gen_poll_at:
            return
        self._gen_poll_at = now + self.policy.current_poll_interval
        self.check_generation()

    def check_generation(self) -> int:
        """Re-read the store's ``CURRENT`` pointer immediately.

        Bumps the coordinator's cache-keying generation when a refresh
        published a new one (making every older cache entry
        unreachable), then garbage-collects superseded generation
        directories no live worker still has pinned.  Returns the
        generation now in effect.  Called automatically from the event
        loop; exposed so a refresher can force the pickup without
        waiting out the poll interval.
        """
        from repro.olap.store import CubeStore

        try:
            gen = CubeStore.current_generation(self.store_path)
        except (OSError, ValueError):
            return self._store_gen  # torn mid-swap; retry next poll
        if gen != self._store_gen:
            self._store_gen = gen
            self.generation_bumps += 1
        self._maybe_gc()
        return self._store_gen

    def _maybe_gc(self) -> None:
        """Remove superseded generations once every live worker has
        rotated up to (at least) the coordinator's generation."""
        if self._store_gen == 0:
            return
        pinned = [int(self._store_gens[s]) for s in self.pool.live()]
        if not pinned or min(pinned) < self._store_gen:
            # A worker still serves an older generation (or has not
            # advertised yet, slot -1): deleting now would race it.
            return
        from repro.olap.store import CubeStore

        try:
            removed = CubeStore.gc_generations(
                self.store_path, keep=pinned
            )
        except OSError:  # pragma: no cover - racing a refresh publish
            return
        self.generations_removed += len(removed)

    def _release_retries(self, now: float) -> None:
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, seq = heapq.heappop(self._retry_heap)
            if seq in self._flights:
                self._dispatchq.append(seq)

    def _dispatch(self) -> None:
        """Assign queued flights to the least-loaded live workers, at
        most ``_TASKS_PER_WORKER`` each."""
        while self._dispatchq:
            seq = self._dispatchq[0]
            flight = self._flights.get(seq)
            if (
                flight is None
                or flight.zombie
                or flight.assigned is not None
            ):
                self._dispatchq.popleft()
                continue
            free = [
                s for s in self.pool.live()
                if len(self._outstanding[s]) < _TASKS_PER_WORKER
            ]
            if not free:
                # Every worker is full (or none is left: extinction is
                # handled by the failure path, which clears this queue).
                return
            slot = min(free, key=lambda s: (len(self._outstanding[s]), s))
            self._dispatchq.popleft()
            if not self._outstanding[slot]:
                self.pool.watch(slot)
            flight.assigned = slot
            self._outstanding[slot][seq] = flight.attempt
            # A failed send is a death the next pool wait reports.
            self.pool.send(
                slot, (seq, flight.attempt, flight.query, flight.deadline)
            )

    # -- collection --------------------------------------------------------

    def wait(self, ticket: int, timeout: float | None = None) -> Relation:
        """The result for ``ticket`` (collecting others on the way).

        ``timeout`` bounds the **total** wait: even while other tickets'
        results keep arriving, ``TimeoutError`` is raised once the
        deadline passes.  A ticket never issued, or already collected,
        raises ``KeyError``.
        """
        if ticket not in self._uncollected:
            raise KeyError(f"unknown or already collected ticket {ticket}")
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while ticket not in self._results:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise TimeoutError(
                    f"ticket {ticket} unresolved after {timeout:.3f}s "
                    f"({len(self._flights)} queries in flight)"
                )
            self._pump(
                math.inf if deadline is None else max(deadline - now, 0.001)
            )
        outcome = self._results.pop(ticket)
        self._uncollected.discard(ticket)
        self.completed_at.pop(ticket, None)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def poll(self) -> list[int]:
        """Collect every already-available result without blocking;
        returns the tickets now resolvable via :meth:`wait`."""
        self._pump(0.0)
        return list(self._results)

    # -- convenience -------------------------------------------------------

    def answer(self, query: Query, timeout: float | None = None) -> Relation:
        """Synchronous round trip through cache + pool."""
        return self.wait(self.submit(query), timeout)

    def answer_many(
        self, queries: Sequence[Query], timeout: float | None = None
    ) -> list[Relation]:
        """Answer a batch, overlapping execution across the pool."""
        tickets = [self.submit(q) for q in queries]
        return [self.wait(t, timeout) for t in tickets]

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> dict:
        """Coordinator-side counters (cache, dedup, and failure
        handling effectiveness)."""
        out = {
            "workers": self.workers,
            "live_workers": len(self.pool.live()),
            "submitted": self.submitted,
            "executed": self.executed,
            "in_flight": len(self._flights),
            "shed": self.shed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "worker_hangs": self.worker_hangs,
            "restarts": self.pool.restarts,
            "poisoned": self.poisoned,
            "corrupt_results": self.corrupt_results,
            "store_generation": self._store_gen,
            "worker_store_generations": [
                int(g) for g in self._store_gens
            ],
            "generation_bumps": self.generation_bumps,
            "generations_removed": self.generations_removed,
        }
        if self._cache is not None:
            out["cache"] = self._cache.snapshot()
        return out

    def close(self, timeout: float = 10.0) -> None:
        """Drain in-flight work and stop the pool.

        Outstanding queries that cannot finish before ``timeout`` — or
        at all, because every worker is gone — fail their waiters with
        ``RuntimeError`` instead of stranding them.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        try:
            while self._flights and time.monotonic() < deadline:
                self._pump(max(deadline - time.monotonic(), 0.0))
                if self._flights and not self.pool.live():
                    break  # nobody left to finish the work
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
        for flight in list(self._flights.values()):
            self._fail_flight(
                flight,
                RuntimeError(
                    f"QueryService closed with "
                    f"{flight.query.describe()} unfinished"
                ),
            )
        self._dispatchq.clear()
        self._retry_heap.clear()
        # A full pipe is impossible here: every worker holds at most
        # _TASKS_PER_WORKER tasks, so the sentinel always fits.
        self.pool.broadcast(_SHUTDOWN)
        self.pool.close(max(deadline - time.monotonic(), 0.5))

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            if getattr(self, "_closed", True):
                return
            pool = getattr(self, "pool", None)
            if pool is not None and pool.live():
                self.close(timeout=2.0)
        except Exception:
            pass
