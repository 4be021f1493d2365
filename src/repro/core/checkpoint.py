"""Per-rank checkpointing of the parallel cube build (Procedure 1).

The build iterates over dimension partitions ``Di``; each iteration is a
natural consistency point: the partition has been globally sorted, its
``Ti`` pipes executed and its Procedure-3 merge completed, so each rank
holds a finished piece of every view of that partition.  Step 3 charges
those pieces one durable write (the final materialisation); with a
checkpoint directory configured :meth:`RankCheckpoint.save` *is* that
write, so a checkpoint is a seal over the materialised views, not a
second copy of them.

Layout (one sub-directory per rank, mirroring the shared-nothing model —
a rank checkpoints to *its own* local disk)::

    <checkpoint_dir>/rank03/
        manifest.json   {"version": 6}, then one appended JSON line per
                        iteration: {ordinal, dim, rows, seals}, where
                        seals lists {file, head_crc, size} in rank order
        iter000.seal    u64 header length | pickled header (per piece:
        ...             order, rows and CRC-32; the merge report and
                        schedule tree) | pad to 8 | every piece's int64
                        keys | every piece's float64 measures

The pieces are the iteration's merged views and nothing else: the next
iteration derives its ``Di``-root from the merged root view among them.
The file is fsynced and renamed into place, and the rename made durable
by an fsync of the rank directory, *before* the manifest line naming it
is appended, so the manifest never runs ahead of durable data.  The line
carries the CRC-32 of all bytes before the first key (length prefix,
header, pad) and the size of the whole file; the header carries one CRC-32 per piece (its keys,
then its measures).  So each reader verifies exactly what it reads:
:meth:`RankCheckpoint.last_complete` checks sizes and headers and reads
no piece body; a replay reads and checks only the root piece the next
step 1a derives from and hands every other piece on as a
:class:`SealedPiece` reference, which :func:`hand_over` maps into the
finished cube after checking its CRC.  A piece failing its CRC
quarantines its seal (renamed aside, so the chain truncates there) and
raises :class:`~repro.mpi.errors.CheckpointError`.

The manifest is read tolerantly: unparseable lines are skipped (records
are written newline-first, so a torn tail cannot swallow the next
append), a line for ordinal ``k`` supersedes ``k`` and everything after
it (a retry redoing the iteration it crashed in), and any other format
is an empty chain.  A missing, torn or header-damaged seal truncates the
usable chain: :meth:`RankCheckpoint.last_complete` never returns an
ordinal whose predecessors are not all present.  The recovery driver
then agrees a *global* resume point via an ``allreduce(min)`` across
ranks, so every rank skips the same prefix and the collective schedule
stays aligned.

Degraded-mode recovery adds :class:`ReshardPlan`: when a rank is lost
permanently, its checkpoint *directory* survives (the shared-nothing
model's disk outlives the process — disk-attached recovery).  Procedure
3 leaves every view range-partitioned in rank order, so the old ranks
split into contiguous groups with one survivor each, and new rank ``j``
adopts its group's seals by position: each line of its chain in the new
*epoch* directory lists hard links to them (:meth:`RankCheckpoint.adopt`).
Nothing is read, merged or re-saved; a second loss adopts the new
epoch's lines the same way, so multiple failures compose.
"""

from __future__ import annotations

import bisect
import json
import mmap
import os
import pickle
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Collection, Sequence

import numpy as np

from repro.core.viewdata import ViewData
from repro.core.views import View, canonical_view, view_name
from repro.mpi.errors import CheckpointError

if TYPE_CHECKING:
    from repro.mpi.comm import Comm

__all__ = [
    "RankCheckpoint",
    "ReshardPlan",
    "SealedPiece",
    "hand_over",
    "resume_point",
    "share_bounds",
]

_MANIFEST = "manifest.json"
_VERSION = 6  # 5 named one seal per line and carried meters


def _crc(keys: np.ndarray, measure: np.ndarray) -> int:
    """A piece's CRC-32: its keys, then its measures."""
    return zlib.crc32(measure, zlib.crc32(keys))


def _fsync_dir(path: str) -> None:
    """Make the directory's entries (a rename, a new file) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _quarantine(path: str) -> None:
    """Rename a damaged seal aside: its manifest line then names a
    missing file, so the chain truncates before it."""
    try:
        os.replace(path, path + ".quarantined")
    except FileNotFoundError:  # already quarantined
        pass


@dataclass(frozen=True)
class SealedPiece:
    """A replayed view piece left in its seal: the file, the byte offsets
    of its keys and measures, its rows and their CRC-32.  It leaves a
    rank as these few numbers, not as its bytes."""

    path: str
    order: tuple[int, ...]
    rows: int
    keys_at: int
    measure_at: int
    crc: int

    @property
    def view(self) -> View:
        return canonical_view(self.order)

    def read(self) -> ViewData:
        """Read and CRC-check the piece (writable arrays)."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.keys_at)
                keys = np.fromfile(fh, np.int64, self.rows)
                fh.seek(self.measure_at)
                measure = np.fromfile(fh, np.float64, self.rows)
        except OSError:
            raise CheckpointError(
                f"checkpoint file {self.path!r} unreadable"
            ) from None
        return self._checked(keys, measure)

    def _checked(self, keys: np.ndarray, measure: np.ndarray) -> ViewData:
        if (
            keys.shape[0] != self.rows or measure.shape[0] != self.rows
            or _crc(keys, measure) != self.crc
        ):
            _quarantine(self.path)
            raise CheckpointError(
                f"checkpoint file {self.path!r}: piece "
                f"{view_name(self.view)} failed its CRC check"
            )
        return ViewData(self.order, keys, measure)


def _join(parts: Sequence[ViewData]) -> ViewData:
    """One view's pieces from consecutive seals, laid end to end."""
    if len(parts) == 1:
        return parts[0]
    return ViewData(
        parts[0].order,
        np.concatenate([p.keys for p in parts]),
        np.concatenate([p.measure for p in parts]),
    )


def hand_over(rank_views: Sequence[dict[View, Any]]) -> None:
    """Put every tuple of :class:`SealedPiece` among the ranks' views in
    its place: each piece a read-only view over a map of its seal,
    CRC-checked first (one map per seal; a map outlives the file's
    name), and the pieces of an adopted run joined.  Raises
    :class:`CheckpointError` after quarantining a seal that fails."""
    maps: dict[str, mmap.mmap] = {}

    def mapped(piece: SealedPiece) -> ViewData:
        buf = maps.get(piece.path)
        if buf is None:
            try:
                with open(piece.path, "rb") as fh:
                    buf = mmap.mmap(fh.fileno(), 0, prot=mmap.PROT_READ)
            except (OSError, ValueError):
                raise CheckpointError(
                    f"checkpoint file {piece.path!r} unreadable"
                ) from None
            maps[piece.path] = buf
        try:
            keys = np.frombuffer(buf, np.int64, piece.rows, piece.keys_at)
            measure = np.frombuffer(
                buf, np.float64, piece.rows, piece.measure_at
            )
        except ValueError:  # the seal shrank since its header check
            keys = measure = np.empty(0)
        return piece._checked(keys, measure)

    for views in rank_views:
        for v, run in views.items():
            if isinstance(run, tuple):
                views[v] = _join([mapped(piece) for piece in run])


class RankCheckpoint:
    """One rank's checkpoint chain under a shared checkpoint directory."""

    def __init__(self, root: str, rank: int):
        self.rank = rank
        self.dir = os.path.join(root, f"rank{rank:02d}")
        os.makedirs(self.dir, exist_ok=True)
        #: Manifest entries by ordinal: parsed on demand, dropped by save.
        self._entries: list[dict[str, Any]] | None = None

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.dir, _MANIFEST)

    def _read_manifest(self) -> list[dict[str, Any]]:
        """The chain the manifest describes, entry ``k`` at index ``k``."""
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as fh:
                head, *lines = fh.read().splitlines()
            if json.loads(head)["version"] != _VERSION:
                return []
        except (OSError, ValueError, TypeError, KeyError):
            return []  # missing, empty, or not a manifest of this format
        entries: list[dict[str, Any]] = []
        for line in lines:
            try:
                entry = json.loads(line)
                ordinal = entry["ordinal"]
            except (ValueError, TypeError, KeyError):
                continue  # blank separator or torn append
            if not (isinstance(ordinal, int) and 0 <= ordinal <= len(entries)):
                break
            del entries[ordinal:]
            entries.append(entry)
        return entries

    # -- chain state -------------------------------------------------------

    def last_complete(self) -> int:
        """Highest ordinal ``k`` such that the seals of iterations
        ``0..k`` are all present, of their recorded size and with intact
        headers; ``-1`` for an empty/damaged chain.  Damage mid-chain
        truncates (later entries are unusable — the build could not have
        produced them without the earlier state).  No piece body is read:
        each piece is checked where it is read or handed over."""
        self._entries = self._read_manifest()
        for ordinal, entry in enumerate(self._entries):
            try:
                self._open(entry)
            except CheckpointError:
                return ordinal - 1
        return len(self._entries) - 1

    def entry(self, ordinal: int) -> dict[str, Any] | None:
        """The manifest entry for one iteration."""
        if self._entries is None:
            self._entries = self._read_manifest()
        chain = self._entries
        return chain[ordinal] if 0 <= ordinal < len(chain) else None

    # -- save / load -------------------------------------------------------

    def save(self, ordinal: int, dim: int, payload: dict[str, Any]) -> int:
        """Persist one completed iteration; returns the rows written (of
        which the caller charges to its disk meter those the build has not
        already charged as step 3's final materialisation).

        Re-saving an ordinal (a recovery attempt redoing the iteration it
        crashed in) supersedes the entry and everything after it.
        """
        pieces = list(payload["views"].values())
        keys = [np.ascontiguousarray(p.keys) for p in pieces]
        measures = [np.ascontiguousarray(p.measure) for p in pieces]
        meta = {k: payload.get(k) for k in ("report", "tree")}
        meta["pieces"] = [
            (p.order, p.nrows, _crc(k, m))
            for p, k, m in zip(pieces, keys, measures)
        ]
        head = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        # The header CRC covers everything before the first key.
        head = len(head).to_bytes(8, "little") + head + bytes(-len(head) % 8)
        fname = f"iter{ordinal:03d}.seal"
        tmp = os.path.join(self.dir, fname + ".tmp")
        with open(tmp, "wb") as fh:
            for chunk in (head, *keys, *measures):
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
            size = fh.tell()
        os.replace(tmp, os.path.join(self.dir, fname))
        _fsync_dir(self.dir)
        rows = sum(p.nrows for p in pieces)
        seal = {"file": fname, "head_crc": zlib.crc32(head), "size": size}
        self._append_manifest(
            {"ordinal": ordinal, "dim": dim, "rows": rows, "seals": [seal]}
        )
        return rows

    def adopt(self, ordinal: int, sources: Sequence[RankCheckpoint]) -> None:
        """Make iteration ``ordinal`` of the ``sources``' chains (rank
        order) this chain's: hard-link their seals here, make the links
        durable, then append one line listing them.  Nothing is read or
        written but directory entries and the line.  A link already in
        place (a re-run after a crash) is kept."""
        entries = [source.entry(ordinal) for source in sources]
        seals = []
        for source, entry in zip(sources, entries):
            for seal in entry["seals"]:
                name = f"iter{ordinal:03d}.s{len(seals):02d}.seal"
                try:
                    os.link(
                        os.path.join(source.dir, seal["file"]),
                        os.path.join(self.dir, name),
                    )
                except FileExistsError:
                    pass
                seals.append({**seal, "file": name})
        _fsync_dir(self.dir)
        self._append_manifest(
            {
                "ordinal": ordinal,
                "dim": entries[0]["dim"],
                "rows": sum(entry["rows"] for entry in entries),
                "seals": seals,
            }
        )

    def _append_manifest(self, entry: dict[str, Any]) -> None:
        """Append one entry; ordinal 0 starts the manifest afresh."""
        fresh = entry["ordinal"] == 0
        with open(
            self._manifest_path(), "w" if fresh else "a", encoding="utf-8"
        ) as fh:
            if fresh:
                fh.write(json.dumps({"version": _VERSION}))
            fh.write("\n" + json.dumps(entry) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if fresh:
            _fsync_dir(self.dir)
        self._entries = None

    def load(
        self, ordinal: int, read: Collection[View] | None = None
    ) -> tuple[dict[str, Any], int]:
        """Load one iteration's payload; returns ``(payload, rows read)``.

        A view's pieces in the entry's seals, laid end to end, are its
        piece on this rank.  Those of the views in ``read`` (every view
        when ``None``) are read, CRC-checked and joined; every other
        view stays in its seals as a tuple of :class:`SealedPiece`.
        Raises :class:`CheckpointError` on a missing or damaged entry or
        piece — callers resolve the resume point with
        :meth:`last_complete` *before* loading, so a header check only
        fails here on filesystem races."""
        entry = self.entry(ordinal)
        if entry is None:
            raise CheckpointError(
                f"rank {self.rank}: no checkpoint for iteration {ordinal}"
            )
        head, pieces = self._open(entry)
        runs: dict[View, list[SealedPiece]] = {}
        for piece in pieces:
            runs.setdefault(piece.view, []).append(piece)
        views: dict[View, Any] = {}
        rows = 0
        for v, run in runs.items():
            if read is None or v in read:
                views[v] = _join([piece.read() for piece in run])
                rows += views[v].nrows
            else:
                views[v] = tuple(run)
        return {**head, "views": views}, rows

    def _open(
        self, entry: dict[str, Any]
    ) -> tuple[dict[str, Any], list[SealedPiece]]:
        """The first seal's header and every seal's pieces, in order,
        after checking each file's size and header CRC (before anything
        is unpickled)."""
        head: dict[str, Any] = {}
        pieces: list[SealedPiece] = []
        seals = entry.get("seals")
        if not isinstance(seals, list) or not seals:
            raise CheckpointError(f"rank {self.rank}: a line names no seal")
        for seal in seals:
            meta, found = self._open_seal(seal)
            head = head or meta
            pieces += found
        return head, pieces

    def _open_seal(
        self, seal: dict[str, Any]
    ) -> tuple[dict[str, Any], list[SealedPiece]]:
        """One seal's header and pieces."""
        fname = str(seal.get("file", ""))
        path = os.path.join(self.dir, fname)
        try:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                head = fh.read(8)
                length = int.from_bytes(head, "little")
                head += fh.read(min(length + -length % 8, size))
        except OSError:
            raise CheckpointError(
                f"rank {self.rank}: checkpoint file {fname!r} unreadable"
            ) from None
        if size != seal.get("size"):
            raise CheckpointError(
                f"rank {self.rank}: checkpoint file {fname!r} is "
                f"{size} bytes, its manifest line says {seal.get('size')}"
            )
        if zlib.crc32(head) != seal.get("head_crc"):
            raise CheckpointError(
                f"rank {self.rank}: checkpoint file {fname!r} header "
                "failed its CRC check"
            )
        meta = pickle.loads(head[8 : 8 + length])
        specs = meta.pop("pieces")
        start = len(head)
        total = sum(rows for _, rows, _ in specs)
        pieces, lo = [], 0
        for order, rows, crc in specs:
            pieces.append(
                SealedPiece(
                    path, tuple(order), rows, start + 8 * lo,
                    start + 8 * (total + lo), crc,
                )
            )
            lo += rows
        return meta, pieces


# ---------------------------------------------------------------------------
# elastic resume
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReshardPlan:
    """Which old ranks' seals each survivor of a permanent loss adopts.

    After losing ``k`` ranks at width ``old_width``, the build restarts
    at ``new_width = old_width - k``.  The old ranks split into
    contiguous :attr:`groups`, one survivor each, and new rank ``j``
    adopts group ``j``'s chains by position: its chain under
    ``target_root`` (a fresh epoch directory) lists their seals in rank
    order, so every view stays range-partitioned in rank order.

    Reading a dead rank's chain models *disk-attached recovery*: in the
    paper's shared-nothing cluster the node died but its disk did not.
    """

    #: Width the failed epoch ran at.
    old_width: int
    #: Width the next epoch runs at (``old_width - len(dead)``).
    new_width: int
    #: Old-numbering ranks lost permanently this epoch.
    dead: tuple[int, ...]
    #: ``survivors[j]`` = the old rank new rank ``j`` continues.
    survivors: tuple[int, ...]
    #: Checkpoint root of the failed epoch (source chains, dead included).
    source_root: str
    #: Checkpoint root of the new epoch (the adopting chains land here).
    target_root: str

    def __post_init__(self) -> None:
        if self.new_width != self.old_width - len(self.dead):
            raise ValueError(
                f"inconsistent reshard: {self.old_width} -> "
                f"{self.new_width} with {len(self.dead)} dead"
            )
        if len(self.survivors) != self.new_width:
            raise ValueError(
                f"need {self.new_width} survivors, got {len(self.survivors)}"
            )
        if set(self.survivors) & set(self.dead):
            raise ValueError("a rank cannot be both survivor and dead")

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """``groups[j]``: the old ranks whose seals new rank ``j`` adopts,
        in rank order — ``survivors[j]`` and every dead rank between it
        and the next survivor (dead ranks below the first survivor join
        the first)."""
        groups = [[s] for s in self.survivors]
        for r in self.dead:
            groups[max(bisect.bisect(self.survivors, r) - 1, 0)].append(r)
        return tuple(tuple(sorted(group)) for group in groups)

    @staticmethod
    def after_loss(
        width: int, dead: Sequence[int], source_root: str, target_root: str
    ) -> "ReshardPlan":
        """Plan the reshard after losing ``dead`` ranks at ``width``."""
        dead_t = tuple(sorted(set(int(r) for r in dead)))
        for r in dead_t:
            if not 0 <= r < width:
                raise ValueError(f"dead rank {r} outside width {width}")
        survivors = tuple(r for r in range(width) if r not in dead_t)
        return ReshardPlan(
            old_width=width,
            new_width=width - len(dead_t),
            dead=dead_t,
            survivors=survivors,
            source_root=source_root,
            target_root=target_root,
        )


def share_bounds(nrows: int, parts: int, index: int) -> tuple[int, int]:
    """Contiguous ``[lo, hi)`` bounds of share ``index`` of ``nrows`` rows
    split into ``parts`` near-equal pieces — how
    :func:`repro.core.cube.split_even` deals the input to the ranks."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0 <= index < parts:
        raise ValueError(f"share index {index} outside 0..{parts - 1}")
    base, rem = divmod(int(nrows), parts)
    lo = index * base + min(index, rem)
    return lo, lo + base + (1 if index < rem else 0)


def resume_point(
    comm: Comm, root: str | None, reshard: ReshardPlan | None
) -> tuple[RankCheckpoint | None, int]:
    """One rank's checkpoint chain under ``root`` and the resume ordinal
    (``None, -1`` without checkpoints).

    All ranks agree on the last iteration *everyone* completed (min
    across ranks): iterations up to it replay from local disk with zero
    collectives, so the superstep schedule stays aligned.  A degraded
    continuation first adopts, for every ordinal its own chain lacks up
    to that point, the seals of its group of old ranks
    (:attr:`ReshardPlan.groups`)."""
    if root is None:
        return None, -1
    ckpt = RankCheckpoint(root, comm.rank)
    comm.set_phase("recovery")
    last = ckpt.last_complete()
    if reshard is None:
        return ckpt, int(comm.allreduce(last, "min"))
    group = [
        RankCheckpoint(reshard.source_root, r)
        for r in reshard.groups[comm.rank]
    ]
    reach = last
    if ckpt.entry(last + 1) is None:  # a damaged line is not adopted again
        reach = max(last, min(c.last_complete() for c in group))
    resume = int(comm.allreduce(reach, "min"))
    for ordinal in range(last + 1, resume + 1):
        ckpt.adopt(ordinal, group)
    return ckpt, resume
