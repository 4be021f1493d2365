"""The serving tier's failure surface and failure posture.

:class:`~repro.olap.service.QueryService` runs its workers on the
:class:`~repro.mpi.pool.WorkerPool` the process backend's ranks use,
so a worker fails the way a rank does: an exited process is
:class:`~repro.mpi.errors.RankDead`, a live worker silent past
``suspect_after`` while holding work is
:class:`~repro.mpi.errors.RankHung`, and replacements go into the
failed slot (generation + 1) until ``max_restarts`` is spent.  This
module holds what a caller of the service sees of that: the exceptions
a query can fail with, and :class:`ServicePolicy`, the one object that
configures deadlines, retry/backoff bounds, queue depth, the poison
threshold and the restart budget.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PoisonQuery",
    "QueryTimeout",
    "ServiceOverloaded",
    "ServicePolicy",
]


# ---------------------------------------------------------------------------
# serving-side failure surface
# ---------------------------------------------------------------------------


class QueryTimeout(TimeoutError):
    """A query missed its deadline.

    Raised to every waiter of the query: either the coordinator's hard
    per-query deadline passed with the result still outstanding, or a
    worker shed the task because the deadline had already expired when
    it was dequeued.  The ticket bookkeeping stays consistent — a late
    result arriving afterwards is discarded and its segments recycled.
    """


class ServiceOverloaded(RuntimeError):
    """``submit`` refused a query because the service is at its
    configured queue depth (:attr:`ServicePolicy.max_queue_depth`).
    Explicit load shedding: the caller should back off and retry, and
    the shed count is surfaced in ``stats()``."""


class PoisonQuery(RuntimeError):
    """A query was quarantined by the poison circuit breaker.

    After :attr:`ServicePolicy.poison_threshold` worker deaths
    attributable to the same query, retrying it would only keep killing
    replacements — the query is failed to all its waiters and every
    later submission fails fast with this exception."""


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServicePolicy:
    """Failure posture of one :class:`~repro.olap.service.QueryService`.

    Parameters
    ----------
    suspect_after:
        A worker holding in-flight work that has sent nothing for this
        long (counted from its last message, or from when it was handed
        work while idle) is declared hung
        (:class:`~repro.mpi.errors.RankHung`), SIGKILLed, and replaced.
        Must comfortably exceed the longest legitimate query.
    deadline_s:
        Default per-query deadline (``None`` = no deadline).  Enforced
        on both sides: workers shed tasks that are already expired when
        dequeued, the coordinator hard-fails waiters with
        :class:`QueryTimeout` once the deadline passes.
    max_retries:
        Re-executions allowed per query after worker failures (death,
        hang, corrupt or lost result).  Query *errors* relayed from a
        healthy worker are deterministic and never retried.
    backoff_base / backoff_growth:
        Exponential backoff before re-dispatching a failed query:
        attempt ``n`` waits ``backoff_base * backoff_growth**(n-1)``.
    max_queue_depth:
        In-flight query cap; ``submit`` past it raises
        :class:`ServiceOverloaded`.
    poison_threshold:
        Worker deaths attributable to one query before the circuit
        breaker quarantines it.
    max_restarts:
        Total replacement workers the pool may spawn over the service
        lifetime.
    current_poll_interval:
        How often workers (between queries) and the coordinator (a
        timer of its event loop) re-read the store's ``CURRENT``
        pointer to pick up a freshly refreshed generation.  Workers
        never switch mid-query — each query is answered entirely by the
        generation its worker had open when it dequeued the task.
    gc_generations:
        When True the coordinator deletes superseded generation
        directories once no live worker still has them open (pinned
        generations are never removed; the flat generation-0 layout is
        never removed either).
    """

    suspect_after: float = 5.0
    deadline_s: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.02
    backoff_growth: float = 2.0
    max_queue_depth: int = 1024
    poison_threshold: int = 3
    max_restarts: int = 16
    current_poll_interval: float = 0.25
    gc_generations: bool = True

    def __post_init__(self) -> None:
        if self.current_poll_interval <= 0:
            raise ValueError("current_poll_interval must be > 0")
        if self.suspect_after <= 0:
            raise ValueError("suspect_after must be > 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None)")
        if self.max_retries < 0 or self.max_restarts < 0:
            raise ValueError("retry/restart budgets must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before dispatching retry ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_growth ** max(
            attempt - 1, 0
        )
