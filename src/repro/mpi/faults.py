"""Deterministic fault injection for the simulated cluster.

The paper targets Beowulf clusters where losing a node mid-build is the
expected failure mode.  This module makes that failure mode *injectable*
and *observable* in the simulation, deterministically and on both
execution backends:

* :class:`FaultPlan` — a declarative, seedable set of faults:

  - :class:`CrashFault` — the rank raises :class:`InjectedFault` as it
    enters its k-th collective (a process dying at a superstep boundary);
  - :class:`KillFault` — the rank's worker process SIGKILLs itself
    entering the k-th collective (a hard node loss; under the thread
    backend, where ranks are threads and cannot be killed, it degrades
    to an injected crash — both classify as *permanent* for
    degraded-mode recovery);
  - :class:`CorruptFault` — the rank's payload bytes are flipped *after*
    its CRC is stamped, so every reader of the slot surfaces
    :class:`CorruptPayload` (a wire/driver data-integrity failure);
  - :class:`DelayFault` — the rank charges extra simulated seconds to the
    superstep (a straggler node; honest BSP accounting, no real sleep);
  - :class:`DiskFullFault` — the rank's :class:`LocalDisk` refuses writes
    with :class:`DiskFull` once a block quota trips (a spilled-over local
    disk).

* :class:`FaultyTransport` — a wrapper around any
  :class:`~repro.mpi.comm.Transport` (thread mailboxes or the process
  backend's pipes+shared-memory), so the same plan runs unchanged under
  both backends.  While a plan is active every payload is *sealed*:
  pickled, CRC-32 stamped, and verified at each reader — corruption
  cannot travel silently.

Faults carry an ``attempt`` index (default 0): a fault fires only during
that recovery attempt, which is what lets
``build_data_cube(..., recovery=RecoveryPolicy(...))`` demonstrate an
honest crash-then-recover cycle without any cross-process mutable state.

Sealing costs host CPU (an extra pickle round per payload) but does not
change the traffic metering: byte rows are computed from the unsealed
payload before the transport sees it.
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi.errors import (
    CorruptPayload,
    DiskFull,
    InjectedFault,
    MPIError,
    RankHung,
)

__all__ = [
    "CrashFault",
    "CorruptFault",
    "DelayFault",
    "DiskFullFault",
    "HangFault",
    "KillFault",
    "SlowFault",
    "FaultPlan",
    "FaultyTransport",
    "ServeCorruptFault",
    "ServeFaultPlan",
    "ServeFaultSchedule",
    "ServeHangFault",
    "ServeKillFault",
]


# ---------------------------------------------------------------------------
# fault descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Rank ``rank`` raises :class:`InjectedFault` entering superstep
    ``superstep`` (0-based count of that rank's collectives)."""

    rank: int
    superstep: int
    attempt: int = 0
    kind: str = field(default="crash", init=False)


@dataclass(frozen=True)
class KillFault:
    """Rank ``rank``'s worker SIGKILLs itself entering superstep
    ``superstep`` — a hard node loss, detected by the process backend's
    :class:`~repro.mpi.backends.Supervisor` as
    :class:`~repro.mpi.errors.RankDead`.  Under the thread backend ranks
    are threads of the test process and cannot be killed, so the fault
    degrades to an injected crash; both forms classify as *permanent*
    for degraded-mode recovery."""

    rank: int
    superstep: int
    attempt: int = 0
    kind: str = field(default="kill", init=False)


@dataclass(frozen=True)
class CorruptFault:
    """Rank ``rank``'s payload at superstep ``superstep`` is corrupted on
    the wire; readers of the slot raise :class:`CorruptPayload`."""

    rank: int
    superstep: int
    attempt: int = 0
    kind: str = field(default="corrupt", init=False)


@dataclass(frozen=True)
class DelayFault:
    """Rank ``rank`` straggles by ``seconds`` simulated seconds at
    superstep ``superstep`` (charged to the BSP clock, no real sleep)."""

    rank: int
    superstep: int
    seconds: float = 1.0
    attempt: int = 0
    kind: str = field(default="delay", init=False)


@dataclass(frozen=True)
class DiskFullFault:
    """Rank ``rank``'s local disk raises :class:`DiskFull` on the write
    that would push its cumulative written-block count past ``blocks``.
    One-shot: the quota disarms after firing (the operator freed space),
    so a recovery retry can proceed."""

    rank: int
    blocks: int
    attempt: int = 0
    kind: str = field(default="diskfull", init=False)


@dataclass(frozen=True)
class SlowFault:
    """Rank ``rank`` runs ``factor``× slower: every superstep's local
    segment (measured CPU + modelled disk/work) is multiplied before the
    BSP commit reads it, and so is the work after the last collective
    (:meth:`repro.mpi.engine.Cluster.tail_segment`) — a deterministic
    heterogeneous-host model, no real sleep.  Persistent for the whole
    run; an optional ``iteration`` restricts the slowdown to segments
    whose phase label carries that cube-iteration index (``...[i]``)."""

    rank: int
    factor: float
    iteration: int | None = None
    attempt: int = 0
    kind: str = field(default="slow", init=False)


@dataclass(frozen=True)
class HangFault:
    """Rank ``rank`` is declared a hung straggler entering superstep
    ``superstep``: the rank raises :class:`~repro.mpi.errors.RankHung`
    with itself as culprit — the verdict the process backend's
    :class:`~repro.mpi.backends.Supervisor` reaches after
    ``suspect_after`` of real silence, synthesised deterministically so
    straggler handling (transient retry, speculative re-execution) is
    testable on both backends without wall-clock stalls."""

    rank: int
    superstep: int
    attempt: int = 0
    kind: str = field(default="hang", init=False)


Fault = (
    CrashFault
    | KillFault
    | CorruptFault
    | DelayFault
    | DiskFullFault
    | SlowFault
    | HangFault
)

#: CLI grammar, one entry per fault, ``;``-separated:
#:   crash@r<rank>s<superstep>[a<attempt>]
#:   kill@r<rank>s<superstep>[a<attempt>]
#:   corrupt@r<rank>s<superstep>[a<attempt>]
#:   delay@r<rank>s<superstep>x<seconds>[a<attempt>]
#:   diskfull@r<rank>b<blocks>[a<attempt>]
#:   slow@r<rank>x<factor>[i<iteration>][a<attempt>]
#:   hang@r<rank>s<superstep>[a<attempt>]
_SPEC_RE = re.compile(
    r"^(?P<kind>crash|kill|corrupt|delay|diskfull|slow|hang)@r(?P<rank>\d+)"
    r"(?:s(?P<step>\d+))?(?:b(?P<blocks>\d+))?"
    r"(?:x(?P<seconds>[0-9.]+))?(?:i(?P<iteration>\d+))?"
    r"(?:a(?P<attempt>\d+))?$"
)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one SPMD run.

    The plan is immutable and carries no execution state; per-run state
    (superstep counters, disk quotas) lives in the wrappers it installs,
    so the same plan object can drive every attempt of a recovery loop.
    """

    faults: tuple[Fault, ...] = ()
    #: Seal every payload with a CRC-32 (needed to *detect* corruption;
    #: kept on even for plans without corrupt faults so the wire contract
    #: is uniform whenever fault injection is active).
    seal_payloads: bool = True

    def __post_init__(self) -> None:
        for f in self.faults:
            if f.rank < 0:
                raise ValueError(f"fault rank must be >= 0: {f}")

    # -- construction -------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "FaultPlan":
        """Parse the CLI grammar, e.g. ``"crash@r1s5;delay@r0s2x0.5"``."""
        faults: list[Fault] = []
        for raw in re.split(r"[;,]", text):
            raw = raw.strip()
            if not raw:
                continue
            m = _SPEC_RE.match(raw)
            if m is None:
                raise ValueError(
                    f"bad fault spec {raw!r}; expected e.g. crash@r1s5, "
                    "kill@r1s5, corrupt@r2s3, delay@r0s2x0.5, diskfull@r1b40, "
                    "slow@r0x2, hang@r1s5 (optional a<attempt> suffix)"
                )
            kind = m.group("kind")
            rank = int(m.group("rank"))
            attempt = int(m.group("attempt") or 0)
            if kind == "diskfull":
                if m.group("blocks") is None:
                    raise ValueError(f"{raw!r}: diskfull needs b<blocks>")
                faults.append(
                    DiskFullFault(rank, int(m.group("blocks")), attempt)
                )
                continue
            if kind == "slow":
                if m.group("seconds") is None:
                    raise ValueError(f"{raw!r}: slow needs x<factor>")
                factor = float(m.group("seconds"))
                if factor <= 0:
                    raise ValueError(f"{raw!r}: slow factor must be > 0")
                iteration = (
                    int(m.group("iteration"))
                    if m.group("iteration") is not None
                    else None
                )
                faults.append(SlowFault(rank, factor, iteration, attempt))
                continue
            if m.group("step") is None:
                raise ValueError(f"{raw!r}: {kind} needs s<superstep>")
            step = int(m.group("step"))
            if kind == "crash":
                faults.append(CrashFault(rank, step, attempt))
            elif kind == "kill":
                faults.append(KillFault(rank, step, attempt))
            elif kind == "corrupt":
                faults.append(CorruptFault(rank, step, attempt))
            elif kind == "hang":
                faults.append(HangFault(rank, step, attempt))
            else:
                faults.append(
                    DelayFault(
                        rank, step, float(m.group("seconds") or 1.0), attempt
                    )
                )
        if not faults:
            raise ValueError(f"empty fault spec: {text!r}")
        return FaultPlan(tuple(faults))

    @staticmethod
    def random(
        seed: int,
        p: int,
        n_faults: int = 2,
        max_superstep: int = 20,
        kinds: Sequence[str] = ("crash", "corrupt", "delay", "diskfull"),
        attempts: int = 1,
    ) -> "FaultPlan":
        """A seeded random plan (the chaos-matrix generator)."""
        rng = np.random.default_rng(seed)
        faults: list[Fault] = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            rank = int(rng.integers(p))
            attempt = int(rng.integers(attempts))
            if kind == "crash":
                faults.append(
                    CrashFault(rank, int(rng.integers(max_superstep)), attempt)
                )
            elif kind == "corrupt":
                faults.append(
                    CorruptFault(
                        rank, int(rng.integers(max_superstep)), attempt
                    )
                )
            elif kind == "delay":
                faults.append(
                    DelayFault(
                        rank,
                        int(rng.integers(max_superstep)),
                        float(rng.uniform(0.1, 2.0)),
                        attempt,
                    )
                )
            elif kind == "slow":
                faults.append(
                    SlowFault(
                        rank, float(rng.uniform(1.25, 3.0)), None, attempt
                    )
                )
            elif kind == "hang":
                faults.append(
                    HangFault(rank, int(rng.integers(max_superstep)), attempt)
                )
            else:
                faults.append(
                    DiskFullFault(
                        rank, int(rng.integers(1, 200)), attempt
                    )
                )
        return FaultPlan(tuple(faults))

    # -- queries ------------------------------------------------------------

    def for_rank(self, rank: int, attempt: int) -> list[Fault]:
        return [
            f
            for f in self.faults
            if f.rank == rank and f.attempt == attempt
        ]

    def describe(self) -> str:
        return "; ".join(
            f"{f.kind}@r{f.rank}"
            + (f"s{f.superstep}" if hasattr(f, "superstep") else "")
            + (f"b{f.blocks}" if isinstance(f, DiskFullFault) else "")
            + (
                f"x{f.seconds:g}"
                if isinstance(f, DelayFault)
                else ""
            )
            + (f"x{f.factor:g}" if isinstance(f, SlowFault) else "")
            + (
                f"i{f.iteration}"
                if isinstance(f, SlowFault) and f.iteration is not None
                else ""
            )
            + (f"a{f.attempt}" if f.attempt else "")
            for f in self.faults
        )

    # -- installation (called by the engine / worker main) -------------------

    def instrument(
        self, rank: int, attempt: int, transport, clock, disk,
        backend: str = "thread",
    ):
        """Wrap ``transport`` and arm ``disk`` for one rank execution.

        Returns the transport the rank's :class:`~repro.mpi.comm.Comm`
        should use.  Every rank is wrapped whenever a plan is active —
        the sealed wire format must be uniform across ranks — while
        the per-rank fault schedule only carries this rank's faults.
        ``backend`` selects the realisation of :class:`KillFault`: a real
        ``SIGKILL`` of the worker process under ``"process"``, an
        injected crash under ``"thread"`` (killing a rank thread would
        kill the host).
        """
        mine = self.for_rank(rank, attempt)
        quota = min(
            (f.blocks for f in mine if isinstance(f, DiskFullFault)),
            default=None,
        )
        if quota is not None:
            _arm_disk_quota(disk, rank, quota)
        else:
            disk.write_guard = None
        return FaultyTransport(
            rank,
            transport,
            clock,
            crash_at={
                f.superstep for f in mine if isinstance(f, CrashFault)
            },
            kill_at={
                f.superstep for f in mine if isinstance(f, KillFault)
            },
            corrupt_at={
                f.superstep for f in mine if isinstance(f, CorruptFault)
            },
            delay_at={
                f.superstep: f.seconds
                for f in mine
                if isinstance(f, DelayFault)
            },
            hang_at={
                f.superstep for f in mine if isinstance(f, HangFault)
            },
            slow=tuple(f for f in mine if isinstance(f, SlowFault)),
            seal=self.seal_payloads,
            hard_kill=(backend == "process"),
        )


# ---------------------------------------------------------------------------
# serving-side faults
# ---------------------------------------------------------------------------
#
# The build engine's faults key on a rank's superstep count; a serving
# worker has no supersteps, so its faults key on the worker's
# *executed-query count* instead — the q-th query that worker process
# executes in its lifetime.  A respawned replacement starts counting
# from zero again, which is what lets one spec drive sustained chaos
# (``kill@w0q5`` fells every generation of slot 0 at its 5th query);
# the optional ``g<generation>`` suffix pins a fault to one generation
# when a test needs the worker to survive afterwards.


@dataclass(frozen=True)
class ServeKillFault:
    """Serving worker in slot ``worker`` SIGKILLs itself entering its
    ``query``-th executed query (0-based, per process lifetime) — the
    hard mid-query node loss the service supervisor must absorb."""

    worker: int
    query: int
    generation: int | None = None
    kind: str = field(default="kill", init=False)


@dataclass(frozen=True)
class ServeHangFault:
    """Serving worker in slot ``worker`` goes silent for ``seconds``
    (a real sleep, heartbeats included) entering its ``query``-th
    executed query — a straggler the supervisor must declare hung."""

    worker: int
    query: int
    seconds: float = 5.0
    generation: int | None = None
    kind: str = field(default="hang", init=False)


@dataclass(frozen=True)
class ServeCorruptFault:
    """Serving worker in slot ``worker`` flips a byte in its
    ``query``-th result blob *after* the result CRC is stamped, so the
    coordinator's integrity check catches it and retries elsewhere."""

    worker: int
    query: int
    generation: int | None = None
    kind: str = field(default="corrupt", init=False)


ServeFault = ServeKillFault | ServeHangFault | ServeCorruptFault

#: ``--serve-faults`` grammar, one entry per fault, ``;``-separated:
#:   kill@w<worker>q<query>[g<generation>]
#:   hang@w<worker>q<query>[x<seconds>][g<generation>]
#:   corrupt@w<worker>q<query>[g<generation>]
_SERVE_SPEC_RE = re.compile(
    r"^(?P<kind>kill|hang|corrupt)@w(?P<worker>\d+)q(?P<query>\d+)"
    r"(?:x(?P<seconds>[0-9.]+))?(?:g(?P<generation>\d+))?$"
)


@dataclass(frozen=True)
class ServeFaultSchedule:
    """One worker generation's resolved fault schedule, keyed by its
    executed-query counter.  Built by :meth:`ServeFaultPlan.schedule`;
    interpreted by the serving worker's main loop."""

    kill_at: frozenset[int] = frozenset()
    hang_at: tuple[tuple[int, float], ...] = ()
    corrupt_at: frozenset[int] = frozenset()

    def hang_seconds(self, query_index: int) -> float | None:
        for at, seconds in self.hang_at:
            if at == query_index:
                return seconds
        return None


@dataclass(frozen=True)
class ServeFaultPlan:
    """A deterministic set of serving-side faults for one
    :class:`~repro.olap.service.QueryService` run.  Immutable and free
    of execution state, like :class:`FaultPlan`."""

    faults: tuple[ServeFault, ...] = ()

    def __post_init__(self) -> None:
        for f in self.faults:
            if f.worker < 0 or f.query < 0:
                raise ValueError(
                    f"serve fault worker/query must be >= 0: {f}"
                )

    @staticmethod
    def parse(text: str) -> "ServeFaultPlan":
        """Parse the CLI grammar, e.g. ``"kill@w0q5;hang@w1q3x2.5g0"``."""
        faults: list[ServeFault] = []
        for raw in re.split(r"[;,]", text):
            raw = raw.strip()
            if not raw:
                continue
            m = _SERVE_SPEC_RE.match(raw)
            if m is None:
                raise ValueError(
                    f"bad serve-fault spec {raw!r}; expected e.g. "
                    "kill@w0q5, hang@w1q3x2.5, corrupt@w2q4 "
                    "(optional g<generation> suffix)"
                )
            kind = m.group("kind")
            worker = int(m.group("worker"))
            query = int(m.group("query"))
            generation = (
                int(m.group("generation"))
                if m.group("generation") is not None
                else None
            )
            if kind == "kill":
                faults.append(ServeKillFault(worker, query, generation))
            elif kind == "corrupt":
                faults.append(
                    ServeCorruptFault(worker, query, generation)
                )
            else:
                faults.append(
                    ServeHangFault(
                        worker,
                        query,
                        float(m.group("seconds") or 5.0),
                        generation,
                    )
                )
        if not faults:
            raise ValueError(f"empty serve-fault spec: {text!r}")
        return ServeFaultPlan(tuple(faults))

    def describe(self) -> str:
        return "; ".join(
            f"{f.kind}@w{f.worker}q{f.query}"
            + (
                f"x{f.seconds:g}"
                if isinstance(f, ServeHangFault)
                else ""
            )
            + (f"g{f.generation}" if f.generation is not None else "")
            for f in self.faults
        )

    def schedule(
        self, worker: int, generation: int
    ) -> ServeFaultSchedule:
        """Resolve the schedule one worker generation must honour."""
        mine = [
            f
            for f in self.faults
            if f.worker == worker
            and (f.generation is None or f.generation == generation)
        ]
        return ServeFaultSchedule(
            kill_at=frozenset(
                f.query for f in mine if isinstance(f, ServeKillFault)
            ),
            hang_at=tuple(
                (f.query, f.seconds)
                for f in mine
                if isinstance(f, ServeHangFault)
            ),
            corrupt_at=frozenset(
                f.query
                for f in mine
                if isinstance(f, ServeCorruptFault)
            ),
        )


def _arm_disk_quota(disk, rank: int, blocks: int) -> None:
    """Install a one-shot write quota on a rank's local disk."""

    def guard(pending_blocks: int) -> None:
        if disk.stats.blocks_written + pending_blocks > blocks:
            disk.write_guard = None  # one-shot: disarm before raising
            raise DiskFull(
                f"rank {rank}: injected disk-full after "
                f"{disk.stats.blocks_written} blocks "
                f"(quota {blocks}, write of {pending_blocks} refused)",
                rank=rank,
            )

    disk.write_guard = guard


# ---------------------------------------------------------------------------
# sealed (checksummed) payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sealed:
    """A payload pickled + CRC-stamped by the sending rank."""

    data: bytes
    crc: int
    source: int

    @property
    def nbytes(self) -> int:  # keeps payload_nbytes sane if ever metered
        return len(self.data)


def _seal(payload: Any, source: int) -> _Sealed:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _Sealed(data, zlib.crc32(data), source)


def _unseal(sealed: Any, reader_rank: int) -> Any:
    if sealed is None:
        return None
    if not isinstance(sealed, _Sealed):
        raise MPIError(
            f"rank {reader_rank}: expected a sealed payload, got "
            f"{type(sealed).__name__} (mixed fault-injection wiring?)"
        )
    if zlib.crc32(sealed.data) != sealed.crc:
        # The *sender* is the culprit rank: its wire corrupted the bytes.
        raise CorruptPayload(
            f"rank {reader_rank}: payload from rank {sealed.source} "
            f"failed its CRC check (stamped {sealed.crc:#010x})",
            rank=sealed.source,
        )
    return pickle.loads(sealed.data)


class _UnsealingSlots:
    """Lazy slot table: verify + unpickle a slot only when it is read.

    A scatter/alltoall slot holds one seal per lane; it reads as a lane
    list that unseals a lane only when that lane is read, so a reader
    unpickles the lanes addressed to it and nothing else."""

    def __init__(self, slots: Sequence[Any], reader_rank: int):
        self._slots = slots
        self._rank = reader_rank
        self._cache: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, idx: int):
        if idx not in self._cache:
            slot = self._slots[idx]
            self._cache[idx] = (
                _unseal(slot, self._rank)
                if slot is None or isinstance(slot, _Sealed)
                else _UnsealingSlots(slot, self._rank)
            )
        return self._cache[idx]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _seal_payload(kind: str, payload: Any, source: int):
    """Seal a payload for the wire: a scatter/alltoall lane list one lane
    at a time (see :class:`_UnsealingSlots`), anything else whole."""
    if kind in ("scatter", "alltoall") and isinstance(payload, list):
        return [None if lane is None else _seal(lane, source) for lane in payload]
    return _seal(payload, source)


def _flip_byte(sealed: _Sealed) -> _Sealed:
    """Corrupt one byte of the sealed stream, keeping the stale CRC."""
    data = bytearray(sealed.data)
    if not data:  # pragma: no cover - pickle streams are never empty
        data = bytearray(b"\0")
    pos = len(data) // 2
    data[pos] ^= 0xFF
    return _Sealed(bytes(data), sealed.crc, sealed.source)


# ---------------------------------------------------------------------------
# the transport wrapper
# ---------------------------------------------------------------------------


def slow_factor(faults: Sequence, phase: str) -> float:
    """Combined slowdown of one rank's segment marked in ``phase``: the
    product of the :class:`SlowFault` factors among ``faults`` that are
    unrestricted or restricted to the iteration ``phase`` is labelled
    with."""
    factor = 1.0
    for f in faults:
        if isinstance(f, SlowFault) and (
            f.iteration is None or phase.endswith(f"[{f.iteration}]")
        ):
            factor *= f.factor
    return factor


class FaultyTransport:
    """Transport decorator realising a rank's fault schedule.

    Counts this rank's collectives (the superstep index faults refer to),
    fires crash/delay faults before the underlying exchange, and runs the
    seal/verify wire protocol around it.  Wraps both
    :class:`~repro.mpi.comm.ThreadTransport` and the process backend's
    pipe transport — fault semantics are backend-independent.
    """

    def __init__(
        self,
        rank: int,
        inner,
        clock,
        crash_at: set[int] | None = None,
        kill_at: set[int] | None = None,
        corrupt_at: set[int] | None = None,
        delay_at: dict[int, float] | None = None,
        hang_at: set[int] | None = None,
        slow: tuple[SlowFault, ...] = (),
        seal: bool = True,
        hard_kill: bool = False,
    ):
        self.rank = rank
        self.inner = inner
        self.clock = clock
        self.crash_at = crash_at or set()
        self.kill_at = kill_at or set()
        self.corrupt_at = corrupt_at or set()
        self.delay_at = delay_at or {}
        self.hang_at = hang_at or set()
        self.slow = slow
        self.seal = seal
        self.hard_kill = hard_kill
        self.superstep = 0

    def exchange(
        self,
        kind: str,
        payload: Any,
        send_row: np.ndarray,
        reader: Callable[[Sequence[Any]], Any],
    ) -> Any:
        step = self.superstep
        self.superstep += 1
        if step in self.kill_at:
            if self.hard_kill:
                # Process backend: die for real.  The Supervisor observes
                # the pipe close + exit code and raises RankDead.
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"rank {self.rank}: injected kill at superstep {step} "
                f"({kind}; thread backend degrades SIGKILL to a crash)",
                rank=self.rank,
            )
        if step in self.crash_at:
            raise InjectedFault(
                f"rank {self.rank}: injected crash at superstep {step} "
                f"({kind})",
                rank=self.rank,
            )
        if step in self.hang_at:
            # Synthesised supervisor verdict: the straggler is declared
            # hung without a real wall-clock stall, so both backends see
            # the same deterministic transient failure.
            raise RankHung(
                f"rank {self.rank}: injected hang at superstep {step} "
                f"({kind}; synthesised straggler verdict)",
                rank=self.rank,
            )
        delay = self.delay_at.get(step)
        if delay is not None:
            # Straggle: charge extra simulated seconds to this rank's
            # pending segment (and its phase accrual, so attribution
            # stays consistent) before the superstep commit reads them.
            self.clock._pending_segment[self.rank] += delay
            self.clock._phase_accrual[self.rank][
                self.clock._phase[self.rank]
            ] += delay
        phase = self.clock._phase[self.rank]
        factor = slow_factor(self.slow, phase)
        if factor != 1.0:
            # Multiply the segment the BSP commit is about to read;
            # Comm always marks the segment before calling the
            # transport, so the full local work is in pending here.
            extra = (factor - 1.0) * self.clock._pending_segment[self.rank]
            self.clock._pending_segment[self.rank] += extra
            self.clock._phase_accrual[self.rank][phase] += extra
        if not self.seal:
            return self.inner.exchange(kind, payload, send_row, reader)
        sealed = _seal_payload(kind, payload, self.rank)
        if step in self.corrupt_at:
            sealed = (
                [None if lane is None else _flip_byte(lane) for lane in sealed]
                if isinstance(sealed, list)
                else _flip_byte(sealed)
            )
        rank = self.rank
        return self.inner.exchange(
            kind,
            sealed,
            send_row,
            lambda slots: reader(_UnsealingSlots(slots, rank)),
        )
