"""Error types and failure taxonomy of the simulated MPI runtime.

Besides the exception classes, this module owns the *failure taxonomy*
that degraded-mode recovery (see :class:`repro.config.RecoveryPolicy`)
acts on: :func:`classify_failure` maps any exception to ``transient``
(worth retrying at the same width), ``permanent`` (the rank is gone —
blacklist it and continue at reduced width) or ``fatal`` (not a runtime
failure at all; never retried).

Exceptions raised at a site that can identify the *culprit* rank carry a
``rank`` attribute (set via the ``rank=`` keyword).  The attribute rides
:attr:`BaseException.__dict__` and therefore survives pickling across the
process backend's worker pipes.  Sites that only *observe* a failure
(e.g. a surviving rank's broken barrier) leave it unset — recovery must
never blacklist a bystander.
"""

from __future__ import annotations

import pickle
import signal
from dataclasses import dataclass

__all__ = [
    "MPIError",
    "RankFailure",
    "CollectiveMisuse",
    "InjectedFault",
    "CorruptPayload",
    "DiskFull",
    "RankDead",
    "RankHung",
    "CheckpointError",
    "Shipped",
    "classify_failure",
    "exit_cause",
    "rebuild",
    "ship",
]


class MPIError(RuntimeError):
    """Base class for simulated-MPI failures.

    ``rank`` (optional keyword) names the culprit rank when the raise
    site knows it; it is stored as an instance attribute so it survives
    cross-process pickling.
    """

    def __init__(self, *args, rank: int | None = None):
        super().__init__(*args)
        if rank is not None:
            self.rank = rank


class RankFailure(MPIError):
    """Raised in surviving ranks when a peer rank aborted the computation.

    The engine re-raises the *originating* rank's exception to the caller;
    ``RankFailure`` is only ever observed inside other rank threads (or by
    the caller if the origin could not be identified).
    """


class CollectiveMisuse(MPIError):
    """A collective was called with inconsistent arguments across ranks
    (e.g. a scatter list of the wrong length, or mismatched roots)."""


class InjectedFault(MPIError):
    """A deterministic fault fired by a :class:`repro.mpi.faults.FaultPlan`
    (rank crash or injected disk failure).  Retryable by a
    :class:`~repro.config.RecoveryPolicy`."""


class CorruptPayload(MPIError):
    """A collective payload failed its CRC check at the receiver.

    Raised by the checksumming transport wrapper (see
    :mod:`repro.mpi.faults`) on every rank that reads the corrupted slot —
    the simulation's equivalent of a NIC/driver-level data-integrity
    failure surfacing through a checksummed wire protocol.  Carries the
    *sender* as its culprit rank: the bytes went bad on that rank's wire."""


class DiskFull(InjectedFault):
    """A rank's :class:`~repro.storage.disk.LocalDisk` refused a write
    because an injected disk-full fault tripped its block quota."""


class RankDead(MPIError):
    """A worker process is gone for good: its process exited (or was
    SIGKILLed) while the run still needed it.  Permanent by definition —
    retrying at the same width would wait on a corpse.  Raised by the
    :class:`~repro.mpi.pool.WorkerPool` (process-backend ranks and
    serving workers) with the dead slot attached."""


class RankHung(MPIError):
    """A worker exceeded its supervision deadline (``suspect_after``)
    while its process is still alive — a straggler declared hung.
    Transient: the rank may merely be slow, so recovery retries at full
    width before giving up on it."""


class CheckpointError(MPIError):
    """A checkpoint manifest or payload failed validation (missing file,
    CRC mismatch, truncated chain).  Recovery treats the damaged entry as
    absent and resumes from the last intact iteration instead."""


# ---------------------------------------------------------------------------
# failure taxonomy
# ---------------------------------------------------------------------------

#: Classification labels returned by :func:`classify_failure`.
TRANSIENT = "transient"
PERMANENT = "permanent"
FATAL = "fatal"


def classify_failure(exc: BaseException) -> tuple[str, int | None]:
    """Classify a run failure for degraded-mode recovery.

    Returns ``(kind, rank)`` where ``kind`` is one of

    ``"transient"``
        Worth retrying at the same width: a corrupt payload (the wire
        failed, not the node), a straggler past its deadline
        (:class:`RankHung`), an injected disk-full (quota disarms after
        firing), or a secondary :class:`RankFailure` whose origin was
        never identified.
    ``"permanent"``
        The rank is gone: its process died (:class:`RankDead`) or a
        deterministic crash fault felled it (:class:`InjectedFault`).
        Degrade-mode recovery blacklists the rank and continues at
        reduced width.
    ``"fatal"``
        Not a runtime failure: operator interrupts, programming errors
        (:class:`CollectiveMisuse`), or anything that is not an
        :class:`MPIError`.  Never retried.

    ``rank`` is the culprit rank when the raise site attached one, else
    ``None`` (bystander reports never name a culprit).
    """
    rank = getattr(exc, "rank", None)
    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
        return FATAL, rank
    if isinstance(exc, CollectiveMisuse):
        return FATAL, rank
    if isinstance(exc, RankDead):
        return PERMANENT, rank
    # Order matters: DiskFull subclasses InjectedFault but is transient
    # (the one-shot quota disarms — "the operator freed space").
    if isinstance(exc, DiskFull):
        return TRANSIENT, rank
    if isinstance(exc, InjectedFault):
        return PERMANENT, rank
    if isinstance(exc, (CorruptPayload, RankHung, RankFailure)):
        return TRANSIENT, rank
    if isinstance(exc, MPIError):
        return TRANSIENT, rank
    return FATAL, rank


def exit_cause(proc) -> str:
    """How a dead worker process ended, for a :class:`RankDead` message:
    ``"killed by SIGKILL"``, ``"exit code 3"`` or ``"exit status
    unknown"``."""
    try:
        proc.join(timeout=0.5)  # let the exit code settle
        code = proc.exitcode
    except Exception:  # pragma: no cover - defensive
        code = None
    if code is None:
        return "exit status unknown"
    if code >= 0:
        return f"exit code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:  # pragma: no cover - exotic signal
        return f"killed by signal {-code}"


@dataclass(frozen=True)
class Shipped:
    """A worker's failure as it crosses its pool pipe, from a build rank
    and a serving worker alike: the exception and, for a rank, its disk
    and work counters, so the coordinator banks the failed run's I/O."""

    exc: BaseException
    counters: tuple[dict, dict] | None = None


def ship(exc: BaseException, who: str, counters=None) -> Shipped:
    """The one way a worker sends its failure: the exception itself when
    it survives a pickle round trip (a culprit ``rank`` included), else an
    :class:`MPIError` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = MPIError(
            f"{who} failed with unpicklable {type(exc).__name__}: {exc}"
        )
    return Shipped(exc, counters)


def rebuild(shipped: Shipped, context: str = "") -> BaseException:
    """The one way a coordinator raises a shipped failure: the exception
    itself or, with ``context``, one of its type whose message leads with
    it (``RuntimeError`` if the type takes no single message)."""
    exc = shipped.exc
    if not context:
        return exc
    try:
        return type(exc)(f"{context}{exc}")
    except Exception:  # pragma: no cover - constructor-picky type
        return RuntimeError(f"{context}{exc}")
