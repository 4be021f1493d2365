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
        manifest.json   {"version": 5}, then one appended JSON line per
                        save: {ordinal, dim, file, head_crc, size, rows,
                        meters}
        iter000.seal    u64 header length | pickled header (per piece:
        ...             order, rows and CRC-32; rank 0's merge report and
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
model's disk outlives the process — disk-attached recovery), so the
survivors re-partition the dead rank's saved rows among themselves and
continue at reduced width.  Each degrade event starts a fresh *epoch*
directory; :func:`resume_point` re-saves the resharded chains there,
keeping every epoch's chains self-sufficient so multiple failures
compose.
"""

from __future__ import annotations

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
from repro.storage.scan import merge_runs

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
_VERSION = 5  # 4 had one CRC over the whole file and no per-piece CRCs


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


def hand_over(rank_views: Sequence[dict[View, Any]]) -> None:
    """Put every :class:`SealedPiece` among the ranks' views in its place
    as a read-only view over a map of its seal, CRC-checked first (one
    map per seal; a map outlives the file's name).  Raises
    :class:`CheckpointError` after quarantining a seal that fails."""
    maps: dict[str, mmap.mmap] = {}
    for views in rank_views:
        for v, piece in views.items():
            if not isinstance(piece, SealedPiece):
                continue
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
            views[v] = piece._checked(keys, measure)


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
        """The manifest entry for one iteration (meters included)."""
        if self._entries is None:
            self._entries = self._read_manifest()
        chain = self._entries
        return chain[ordinal] if 0 <= ordinal < len(chain) else None

    # -- save / load -------------------------------------------------------

    def save(
        self,
        ordinal: int,
        dim: int,
        payload: dict[str, Any],
        meters: dict[str, Any] | None = None,
    ) -> int:
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
        self._append_manifest(
            {
                "ordinal": ordinal,
                "dim": dim,
                "file": fname,
                "head_crc": zlib.crc32(head),
                "size": size,
                "rows": rows,
                "meters": meters or {},
            }
        )
        return rows

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

        The pieces of the views in ``read`` (every piece when ``None``)
        are read and CRC-checked; every other piece stays in the seal as a
        :class:`SealedPiece`.  Raises :class:`CheckpointError` on a
        missing or damaged entry or piece — callers resolve the resume
        point with :meth:`last_complete` *before* loading, so a header
        check only fails here on filesystem races."""
        entry = self.entry(ordinal)
        if entry is None:
            raise CheckpointError(
                f"rank {self.rank}: no checkpoint for iteration {ordinal}"
            )
        head, pieces = self._open(entry)
        views: dict[View, Any] = {}
        rows = 0
        for piece in pieces:
            if read is None or piece.view in read:
                views[piece.view] = piece.read()
                rows += piece.rows
            else:
                views[piece.view] = piece
        return {**head, "views": views}, rows

    def _open(
        self, entry: dict[str, Any]
    ) -> tuple[dict[str, Any], list[SealedPiece]]:
        """One seal's header and pieces, after checking the file's size
        and the header's CRC (before anything is unpickled)."""
        fname = str(entry.get("file", ""))
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
        if size != entry.get("size"):
            raise CheckpointError(
                f"rank {self.rank}: checkpoint file {fname!r} is "
                f"{size} bytes, its manifest line says {entry.get('size')}"
            )
        if zlib.crc32(head) != entry.get("head_crc"):
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
    """How the survivors of a permanent rank loss re-partition state.

    After losing ``k`` ranks at width ``old_width``, the build restarts
    at ``new_width = old_width - k``.  Every *new* rank ``j`` adopts the
    checkpoint chain of old rank ``survivors[j]`` and additionally takes
    a contiguous 1/new_width share (see :func:`share_bounds`) of every
    dead rank's saved rows.  The merged prefix is re-saved under
    ``target_root`` (a fresh epoch directory), so the new epoch's chains
    are self-sufficient: a second loss reshards from the new epoch
    without ever touching the old one again.

    Reading a dead rank's chain models *disk-attached recovery*: in the
    paper's shared-nothing cluster the node died but its disk did not.
    """

    #: Width the failed epoch ran at.
    old_width: int
    #: Width the next epoch runs at (``old_width - len(dead)``).
    new_width: int
    #: Old-numbering ranks lost permanently this epoch.
    dead: tuple[int, ...]
    #: ``survivors[j]`` = the old rank whose chain new rank ``j`` adopts.
    survivors: tuple[int, ...]
    #: Checkpoint root of the failed epoch (source chains, dead included).
    source_root: str
    #: Checkpoint root of the new epoch (resharded chains land here).
    target_root: str
    #: Optional per-new-rank share weights (length ``new_width``): the
    #: surviving ranks' measured relative speeds, so a fast survivor
    #: adopts a larger slice of the dead ranks' rows.  ``None`` keeps the
    #: uniform 1/new_width split.
    weights: tuple[float, ...] | None = None

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
        if self.weights is not None:
            if len(self.weights) != self.new_width:
                raise ValueError(
                    f"need {self.new_width} share weights, "
                    f"got {len(self.weights)}"
                )
            if any(w <= 0 for w in self.weights):
                raise ValueError("share weights must all be positive")

    @staticmethod
    def after_loss(
        width: int,
        dead: Sequence[int],
        source_root: str,
        target_root: str,
        weights: Sequence[float] | None = None,
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
            weights=tuple(float(w) for w in weights) if weights else None,
        )


def share_bounds(
    nrows: int,
    parts: int,
    index: int,
    weights: Sequence[float] | None = None,
) -> tuple[int, int]:
    """Contiguous ``[lo, hi)`` bounds of share ``index`` of ``nrows`` rows
    split into ``parts`` near-equal pieces — how
    :func:`repro.core.cube.split_even` deals the input to the ranks, and
    how a dead rank's sorted rows are dealt out to the survivors while
    preserving sortedness and key disjointness.

    With ``weights`` (positive per-part speed weights) the cut points
    move to the rounded cumulative weight fractions instead — shares stay
    contiguous, disjoint and covering, but part ``index`` receives
    ``~weights[index]/sum(weights)`` of the rows."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0 <= index < parts:
        raise ValueError(f"share index {index} outside 0..{parts - 1}")
    if weights is None:
        base, rem = divmod(int(nrows), parts)
        lo = index * base + min(index, rem)
        hi = lo + base + (1 if index < rem else 0)
        return lo, hi
    w = np.asarray(weights, dtype=np.float64)
    if w.size != parts:
        raise ValueError(f"need {parts} weights, got {w.size}")
    if (w <= 0).any():
        raise ValueError("share weights must all be positive")
    # Rounded cumulative cuts: monotone (cumsum of positives), last cut
    # pinned to nrows, so shares partition [0, nrows) exactly.
    cuts = np.floor(np.cumsum(w) / w.sum() * int(nrows) + 0.5).astype(
        np.int64
    )
    cuts[-1] = int(nrows)
    lo = 0 if index == 0 else int(cuts[index - 1])
    hi = int(cuts[index])
    return lo, hi


def resume_point(
    comm: Comm, root: str | None, reshard: ReshardPlan | None
) -> tuple[RankCheckpoint | None, int, dict[int, dict]]:
    """One rank's checkpoint chain under ``root``, the resume ordinal and
    the payloads a reshard wrote (``None, -1, {}`` without checkpoints).

    All ranks agree on the last iteration *everyone* completed (min
    across ranks): iterations up to it replay from local disk with zero
    collectives, so the superstep schedule stays aligned.  A degraded
    continuation first folds the dead ranks' chains into this
    (new-numbering) rank's."""
    if root is None:
        return None, -1, {}
    ckpt = RankCheckpoint(root, comm.rank)
    comm.set_phase("recovery")
    if reshard is not None:
        return (ckpt, *_reshard_resume(comm, ckpt, reshard))
    return ckpt, int(comm.allreduce(ckpt.last_complete(), "min")), {}


def _reshard_resume(
    comm: Comm, ckpt: RankCheckpoint, plan: ReshardPlan
) -> tuple[int, dict[int, dict]]:
    """Materialise this rank's resharded checkpoint prefix; return the
    global resume ordinal and the payloads resharded here, by ordinal.

    Every new rank adopts one survivor chain from the failed epoch and a
    contiguous share of each dead rank's chain (the dead node's *disk*
    survived — disk-attached recovery).  The combined payloads are
    re-saved into this epoch's chain, so the next failure (of either
    kind) reshards from *this* epoch without touching the old one, and
    handed to the replay loop, which then need not read them back.
    Idempotent: ordinals already present in the target chain are kept,
    and re-running the prologue reproduces identical payloads (pure
    slicing + deterministic merge).
    """
    own_src = RankCheckpoint(plan.source_root, plan.survivors[comm.rank])
    dead_chains = [RankCheckpoint(plan.source_root, r) for r in plan.dead]
    source_last = min(c.last_complete() for c in (own_src, *dead_chains))
    own_last = ckpt.last_complete()
    resume = int(comm.allreduce(max(own_last, source_last), "min"))
    resharded = {}
    for ordinal in range(own_last + 1, resume + 1):
        resharded[ordinal] = _reshard_iteration(
            comm, ckpt, own_src, dead_chains, plan, ordinal
        )
    return resume, resharded


def _reshard_iteration(
    comm: Comm,
    ckpt: RankCheckpoint,
    own_src: RankCheckpoint,
    dead_chains: list[RankCheckpoint],
    plan: ReshardPlan,
    ordinal: int,
) -> dict:
    """Re-save one iteration: survivor payload + dead-rank shares.

    All reads and the re-save are charged to this rank's disk meter —
    recovering a dead node's state is real I/O, and the simulation pays
    for it.  Reading a dead chain is charged in full (its disk was
    re-attached to this rank for the read), matching the shared-nothing
    model's recovery story.
    """
    payload, rows = own_src.load(ordinal)
    comm.disk.charge_scan(rows)
    comm.disk.work.charge_scan(rows)
    views = dict(payload["views"])
    extra: dict[View, list[ViewData]] = {}
    for chain in dead_chains:
        dead_payload, dead_rows = chain.load(ordinal)
        comm.disk.charge_scan(dead_rows)
        comm.disk.work.charge_scan(dead_rows)
        for v, data in dead_payload["views"].items():
            piece = _share_slice(
                data, comm.rank, plan.new_width, plan.weights
            )
            if piece.nrows:
                extra.setdefault(v, []).append(piece)
    merged = {
        v: _merge_sorted_pieces([data, *extra.get(v, [])])
        for v, data in views.items()
    }
    entry = own_src.entry(ordinal)
    dim = int(entry.get("dim", 0)) if entry else 0
    payload = {**payload, "views": merged}
    comm.disk.charge_store(
        ckpt.save(ordinal, dim, payload, meters={"phase": f"reshard[{dim}]"})
    )
    return payload


def _share_slice(
    data: ViewData,
    index: int,
    parts: int,
    weights: Sequence[float] | None = None,
) -> ViewData:
    """Contiguous share ``index`` of ``parts`` of one sorted piece
    (speed-weighted when the reshard plan carries survivor weights)."""
    lo, hi = share_bounds(data.nrows, parts, index, weights)
    return ViewData(data.order, data.keys[lo:hi], data.measure[lo:hi])


def _merge_sorted_pieces(pieces: list[ViewData]) -> ViewData:
    """Merge sorted, key-disjoint pieces of one view into one sorted piece.

    Pieces of a view held by different ranks after the Procedure-3 merge
    never share a group key (each group lives on exactly one rank), so
    the merge is a pure reorder — no aggregation — and is exact for every
    aggregate function.
    """
    keys, measure = merge_runs([(p.keys, p.measure) for p in pieces])
    return ViewData(pieces[0].order, keys, measure)
