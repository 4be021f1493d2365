"""Deterministic fault injection for build ranks and serving workers.

The paper targets Beowulf clusters where losing a node mid-build is the
expected failure mode.  This module makes that failure *injectable* and
*observable*, deterministically and on both execution backends, with one
grammar for the two runtimes that can lose a node (DESIGN §9.1):

* :class:`Fault` — one fault, ``kind@<address><fields>``.  The address
  is a build rank ``r<rank>``, keyed by its superstep ``s`` (the count
  of its collectives) and recovery attempt ``a``, or a serving worker
  ``w<worker>``, keyed by its executed-query count ``q`` (per process
  lifetime) and generation ``g``.  :data:`GRAMMAR` says which fields
  each kind requires and allows on each address space.
* :class:`FaultPlan` — an immutable, seedable set of faults.  It hands
  each runtime its own faults (:meth:`FaultPlan.for_rank`,
  :meth:`FaultPlan.for_worker`); each runtime rejects a plan addressed
  to the other (:meth:`FaultPlan.check_space`).
* :class:`FaultyTransport` — a wrapper around any
  :class:`~repro.mpi.comm.Transport` (thread mailboxes or the process
  backend's pipes + shared memory) that fires one rank's faults, so a
  plan runs unchanged under both backends.  While a plan is active
  every payload is *sealed*: pickled, CRC-32 stamped, and verified at
  each reader — corruption cannot travel silently.

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
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi.errors import (
    CorruptPayload,
    DiskFull,
    InjectedFault,
    MPIError,
    RankHung,
)

__all__ = ["GRAMMAR", "Fault", "FaultPlan", "FaultyTransport"]


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

#: Per (kind, address space): the fields a fault requires, then the
#: fields it may add.  A rank fault fires on attempt ``a`` (default 0);
#: a worker fault without ``g`` fires in every generation, so one spec
#: drives sustained chaos.
GRAMMAR: dict[tuple[str, str], tuple[str, str]] = {
    # InjectedFault entering superstep s
    ("crash", "r"): ("s", "a"),
    # the rank's worker SIGKILLs itself (RankDead); under the thread
    # backend, whose ranks cannot be killed, an injected crash
    ("kill", "r"): ("s", "a"),
    # superstep s's payload fails its CRC at every reader
    ("corrupt", "r"): ("s", "a"),
    # superstep s costs x (default 1) more simulated seconds
    ("delay", "r"): ("s", "xa"),
    # the local disk raises DiskFull past b written blocks, once
    ("diskfull", "r"): ("b", "a"),
    # every modelled segment costs x times more (iteration i's only)
    ("slow", "r"): ("x", "ia"),
    # RankHung entering superstep s: the supervisor's verdict,
    # synthesised without a wall-clock stall
    ("hang", "r"): ("s", "a"),
    # the worker SIGKILLs itself entering its q-th query
    ("kill", "w"): ("q", "g"),
    # the worker goes silent for x (default 5) real seconds at query q
    ("hang", "w"): ("q", "xg"),
    # the q-th result blob fails the coordinator's CRC check
    ("corrupt", "w"): ("q", "g"),
}

_DEFAULT_X = {("delay", "r"): 1.0, ("hang", "w"): 5.0}
_SPACES = {"r": "rank", "w": "serving worker"}
#: Spec field letter -> :class:`Fault` attribute, in spec order.
_FIELD = {
    "s": "event", "q": "event", "b": "arg", "x": "arg",
    "i": "iteration", "a": "epoch", "g": "epoch",
}
_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<space>[rw])(?P<index>\d+)"
    + "".join(
        f"(?:{c}(?P<{c}>{'[0-9.]+' if c == 'x' else '[0-9]+'}))?"
        for c in _FIELD
    )
    + "$"
)
#: The ``x`` range :meth:`FaultPlan.random` draws per kind.
_RANDOM_X = {"delay": (0.1, 2.0), "slow": (1.25, 3.0)}
#: The ``b`` range (blocks, upper bound exclusive) it draws a diskfull
#: quota from: a rank of a small seeded-chaos build (1,500 rows, p = 2)
#: writes about 7 blocks, and a quota it never reaches tests nothing.
_RANDOM_BLOCKS = (1, 7)


@dataclass(frozen=True)
class Fault:
    """One fault: ``kind`` at ``index`` of address ``space`` (``"r"`` a
    build rank, ``"w"`` a serving worker), validated against
    :data:`GRAMMAR`."""

    kind: str
    space: str
    index: int
    #: ``s`` superstep / ``q`` executed query the fault fires entering.
    event: int | None = None
    #: ``x`` seconds or factor / ``b`` blocks.
    arg: float | None = None
    #: ``i``: the cube iteration a slowdown is restricted to.
    iteration: int | None = None
    #: ``a`` attempt / ``g`` generation the fault is pinned to.
    epoch: int | None = None

    def __post_init__(self) -> None:
        key = (self.kind, self.space)
        if key not in GRAMMAR:
            raise ValueError(
                f"no {self.kind!r} fault on a "
                f"{_SPACES.get(self.space, repr(self.space))} address; "
                f"known: {', '.join(f'{k}@{s}' for k, s in GRAMMAR)}"
            )
        if self.arg is None and key in _DEFAULT_X:
            object.__setattr__(self, "arg", _DEFAULT_X[key])
        required, allowed = GRAMMAR[key]
        given = self.fields()
        head = f"{self.kind}@{self.space}"
        for c in required:
            if c not in given:
                raise ValueError(f"{head} needs field {c}")
        for c in given:
            if c not in required + allowed:
                raise ValueError(f"{head} takes no field {c}")
        if self.index < 0 or min(given.values(), default=0) < 0:
            raise ValueError(f"{head}: fields must be >= 0")
        if self.kind == "slow" and self.arg <= 0:
            raise ValueError(f"{head}: slow factor must be > 0")

    def fields(self) -> dict[str, float]:
        """The fields this fault sets, by spec letter, in spec order."""
        r = self.space == "r"
        letter = {
            "event": "s" if r else "q",
            "arg": "b" if self.kind == "diskfull" else "x",
            "iteration": "i",
            "epoch": "a" if r else "g",
        }
        found = {
            letter[name]: getattr(self, name)
            for name in letter
            if getattr(self, name) is not None
        }
        return {c: found[c] for c in _FIELD if c in found}

    def describe(self) -> str:
        return f"{self.kind}@{self.space}{self.index}" + "".join(
            f"{c}{v:g}" if c == "x" else f"{c}{v}"
            for c, v in self.fields().items()
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one run.

    The plan is immutable and carries no execution state; per-run state
    (superstep and query counters, disk quotas) lives in the runtimes
    that read it, so the same plan object can drive every attempt of a
    recovery loop and every generation of a serving worker.
    """

    faults: tuple[Fault, ...] = ()

    # -- construction -------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "FaultPlan":
        """Parse the grammar, e.g. ``"crash@r1s5;delay@r0s2x0.5"`` or
        ``"kill@w0q5;hang@w1q3x2.5g0"``."""
        faults: list[Fault] = []
        for raw in re.split(r"[;,]", text):
            raw = raw.strip()
            if not raw:
                continue
            m = _SPEC_RE.match(raw)
            if m is None:
                raise ValueError(
                    f"bad fault spec {raw!r}; expected e.g. crash@r1s5, "
                    "delay@r0s2x0.5, diskfull@r1b40, slow@r0x2i3, "
                    "kill@w0q5g0, hang@w1q3x2.5 (see DESIGN §9.1)"
                )
            given = {c: m.group(c) for c in _FIELD if m.group(c) is not None}
            try:
                fault = Fault(
                    m.group("kind"),
                    m.group("space"),
                    int(m.group("index")),
                    **{
                        _FIELD[c]: float(v) if c == "x" else int(v)
                        for c, v in given.items()
                    },
                )
                # A typed letter the fault does not describe back (q on a
                # rank, b on a delay) names no field of this fault.
                extra = [c for c in given if c not in fault.fields()]
                if extra:
                    raise ValueError(
                        f"{fault.kind}@{fault.space} takes no field {extra[0]}"
                    )
            except ValueError as e:
                raise ValueError(f"bad fault spec {raw!r}: {e}") from None
            faults.append(fault)
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
        """A seeded random plan of rank faults (the chaos-matrix
        generator): each fault draws its kind, rank and attempt, then the
        fields :data:`GRAMMAR` requires (and a delay's ``x``)."""
        unknown = [k for k in kinds if (k, "r") not in GRAMMAR]
        if unknown:
            raise ValueError(f"no rank fault kind {unknown[0]!r}")
        rng = np.random.default_rng(seed)
        faults: list[Fault] = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            rank = int(rng.integers(p))
            attempt = int(rng.integers(attempts))
            required, _allowed = GRAMMAR[kind, "r"]
            event = None
            if "s" in required:
                event = int(rng.integers(max_superstep))
            if "b" in required:
                arg = int(rng.integers(*_RANDOM_BLOCKS))
            elif kind in _RANDOM_X:
                arg = float(rng.uniform(*_RANDOM_X[kind]))
            else:
                arg = None
            faults.append(
                Fault(kind, "r", rank, event, arg, epoch=attempt or None)
            )
        return FaultPlan(tuple(faults))

    # -- queries ------------------------------------------------------------

    def describe(self) -> str:
        return "; ".join(f.describe() for f in self.faults)

    def check_space(self, space: str) -> None:
        """Raise ``ValueError`` unless every fault addresses ``space`` —
        a runtime never drops a fault meant for the other one."""
        foreign = [f.describe() for f in self.faults if f.space != space]
        if foreign:
            raise ValueError(
                f"fault plan {'; '.join(foreign)!r} does not address a "
                f"{_SPACES[space]}; this runtime takes {space}<index> faults"
            )

    def for_rank(self, rank: int, attempt: int) -> list[Fault]:
        """Rank ``rank``'s faults on recovery attempt ``attempt`` (a
        fault without ``a`` fires on attempt 0)."""
        return [
            f
            for f in self.faults
            if f.space == "r" and f.index == rank and (f.epoch or 0) == attempt
        ]

    def for_worker(self, worker: int, generation: int) -> list[Fault]:
        """Worker slot ``worker``'s faults in generation ``generation`` (a
        fault without ``g`` fires in every generation)."""
        return [
            f
            for f in self.faults
            if f.space == "w"
            and f.index == worker
            and f.epoch in (None, generation)
        ]

    # -- installation (called by the engine / worker main) -------------------

    def instrument(
        self, rank: int, attempt: int, transport, clock, disk,
        backend: str = "thread",
    ):
        """Wrap ``transport`` and arm ``disk`` for one rank execution.

        Returns the transport the rank's :class:`~repro.mpi.comm.Comm`
        should use.  Every rank is wrapped whenever a plan is active —
        the sealed wire format must be uniform across ranks — while
        the wrapper only fires this rank's faults.  ``backend`` selects
        the realisation of ``kill``: a real ``SIGKILL`` of the worker
        process under ``"process"``, an injected crash under
        ``"thread"`` (killing a rank thread would kill the host).
        """
        mine = self.for_rank(rank, attempt)
        quota = min(
            (f.arg for f in mine if f.kind == "diskfull"), default=None
        )
        if quota is not None:
            _arm_disk_quota(disk, rank, quota)
        else:
            disk.write_guard = None
        return FaultyTransport(
            rank, transport, clock, mine, hard_kill=(backend == "process")
        )


def firing(faults: Sequence[Fault], event: int) -> dict[str, Fault]:
    """The faults among ``faults`` that fire entering ``event``, by kind."""
    return {f.kind: f for f in faults if f.event == event}


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


def slow_factor(faults: Sequence[Fault], phase: str) -> float:
    """Combined slowdown of one rank's segment marked in ``phase``: the
    product of the ``slow`` factors among ``faults`` that are
    unrestricted or restricted to the iteration ``phase`` is labelled
    with."""
    factor = 1.0
    for f in faults:
        if f.kind == "slow" and (
            f.iteration is None or phase.endswith(f"[{f.iteration}]")
        ):
            factor *= f.arg
    return factor


class FaultyTransport:
    """Transport decorator firing one rank's faults.

    Counts this rank's collectives (the superstep index faults refer to),
    fires its faults before the underlying exchange, and runs the
    seal/verify wire protocol around it.  Wraps both
    :class:`~repro.mpi.comm.ThreadTransport` and the process backend's
    pipe transport — fault semantics are backend-independent.
    """

    def __init__(
        self,
        rank: int,
        inner,
        clock,
        faults: Sequence[Fault] = (),
        hard_kill: bool = False,
    ):
        self.rank = rank
        self.inner = inner
        self.clock = clock
        self.faults = tuple(faults)
        self.hard_kill = hard_kill
        self.superstep = 0

    def exchange(
        self,
        kind: str,
        payload: Any,
        send_row: np.ndarray,
        reader: Callable[[Sequence[Any]], Any],
        root: int = 0,
    ) -> Any:
        step = self.superstep
        self.superstep += 1
        fire = firing(self.faults, step)
        if "kill" in fire:
            if self.hard_kill:
                # Process backend: die for real.  The worker pool sees
                # the process exit and raises RankDead with its cause.
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"rank {self.rank}: injected kill at superstep {step} "
                f"({kind}; thread backend degrades SIGKILL to a crash)",
                rank=self.rank,
            )
        if "crash" in fire:
            raise InjectedFault(
                f"rank {self.rank}: injected crash at superstep {step} "
                f"({kind})",
                rank=self.rank,
            )
        if "hang" in fire:
            # Synthesised supervisor verdict: the straggler is declared
            # hung without a real wall-clock stall, so both backends see
            # the same deterministic transient failure.
            raise RankHung(
                f"rank {self.rank}: injected hang at superstep {step} "
                f"({kind}; synthesised straggler verdict)",
                rank=self.rank,
            )
        if "delay" in fire:
            # Straggle: charge extra simulated seconds to this rank's
            # pending segment (and its phase accrual, so attribution
            # stays consistent) before the superstep commit reads them.
            delay = fire["delay"].arg
            self.clock._pending_segment[self.rank] += delay
            self.clock._phase_accrual[self.rank][
                self.clock._phase[self.rank]
            ] += delay
        phase = self.clock._phase[self.rank]
        factor = slow_factor(self.faults, phase)
        if factor != 1.0:
            # Multiply the segment the BSP commit is about to read;
            # Comm always marks the segment before calling the
            # transport, so the full local work is in pending here.
            extra = (factor - 1.0) * self.clock._pending_segment[self.rank]
            self.clock._pending_segment[self.rank] += extra
            self.clock._phase_accrual[self.rank][phase] += extra
        sealed = _seal_payload(kind, payload, self.rank)
        if "corrupt" in fire:
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
            root,
        )
