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
        manifest.json   {"version": 4}, then one appended JSON line per
                        save: {ordinal, dim, file, crc, rows, meters}
        iter000.seal    u64 header length | pickled header (piece orders
        ...             and row counts, rank 0's merge report and
                        schedule tree) | pad to 8 | every piece's
                        int64 keys | every piece's float64 measures

The pieces are the iteration's merged views and nothing else: the next
iteration derives its ``Di``-root from the merged root view among them.
Arrays stream to the file as they are under an incremental CRC-32; the
file is fsynced and renamed into place *before* the manifest line naming
it is appended, so the manifest never runs ahead of durable data.  The
manifest is read tolerantly: unparseable lines are skipped (records are
written newline-first, so a torn tail cannot swallow the next append), a
line for ordinal ``k`` supersedes ``k`` and everything after it (a retry
redoing the iteration it crashed in), and any other format is an empty
chain.  A file failing its CRC truncates the usable chain:
:meth:`RankCheckpoint.last_complete` never returns an ordinal whose
predecessors are not all loadable.  The recovery driver then agrees a
*global* resume point via an ``allreduce(min)`` across ranks, so every
rank skips the same prefix and the collective schedule stays aligned.

Degraded-mode recovery adds :class:`ReshardPlan`: when a rank is lost
permanently, its checkpoint *directory* survives (the shared-nothing
model's disk outlives the process — disk-attached recovery), so the
survivors re-partition the dead rank's saved rows among themselves and
continue at reduced width.  Each degrade event starts a fresh *epoch*
directory; the resharded chains are re-saved there, keeping every epoch's
chains self-sufficient so multiple failures compose.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.viewdata import ViewData
from repro.mpi.errors import CheckpointError

__all__ = ["RankCheckpoint", "ReshardPlan", "share_bounds"]

_MANIFEST = "manifest.json"
_VERSION = 4  # 3 could carry a Di-root copy as one more piece


class RankCheckpoint:
    """One rank's checkpoint chain under a shared checkpoint directory."""

    def __init__(self, root: str, rank: int):
        self.rank = rank
        self.dir = os.path.join(root, f"rank{rank:02d}")
        os.makedirs(self.dir, exist_ok=True)
        #: Manifest entries by ordinal: parsed on demand, dropped by save.
        self._entries: list[dict[str, Any]] | None = None
        #: Payloads :meth:`last_complete` verified, handed over by
        #: :meth:`load` so a resume reads and CRCs each file once.
        self._verified: dict[int, dict[str, Any]] = {}

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
        """Highest ordinal ``k`` such that iterations ``0..k`` are all
        present and pass their CRC checks; ``-1`` for an empty/damaged
        chain.  Damage mid-chain truncates (later entries are unusable —
        the build could not have produced them without the earlier state)."""
        self._entries = self._read_manifest()
        self._verified = {}
        for ordinal, entry in enumerate(self._entries):
            try:
                self._verified[ordinal] = self._read_payload(entry)
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
        meta = {k: payload.get(k) for k in ("report", "tree")}
        meta["pieces"] = [(p.order, p.nrows) for p in pieces]
        head = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        fname = f"iter{ordinal:03d}.seal"
        tmp = os.path.join(self.dir, fname + ".tmp")
        crc = 0
        with open(tmp, "wb") as fh:
            for chunk in (
                len(head).to_bytes(8, "little"),
                head,
                bytes(-len(head) % 8),
                *(np.ascontiguousarray(p.keys) for p in pieces),
                *(np.ascontiguousarray(p.measure) for p in pieces),
            ):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, os.path.join(self.dir, fname))
        rows = sum(p.nrows for p in pieces)
        self._append_manifest(
            {
                "ordinal": ordinal,
                "dim": dim,
                "file": fname,
                "crc": crc,
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
        self._entries = None
        self._verified.clear()

    def load(self, ordinal: int) -> tuple[dict[str, Any], int]:
        """Load one iteration's payload; returns ``(payload, rows)``.

        Raises :class:`CheckpointError` on a missing or corrupt entry —
        callers resolve the resume point with :meth:`last_complete`
        *before* loading, so this only fires on filesystem races."""
        entry = self.entry(ordinal)
        if entry is None:
            raise CheckpointError(
                f"rank {self.rank}: no checkpoint for iteration {ordinal}"
            )
        payload = self._verified.pop(ordinal, None)
        if payload is None:
            payload = self._read_payload(entry)
        return payload, int(entry.get("rows", 0))

    def _read_payload(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Read one chain file in a single pass, check its CRC and wrap
        the arrays where they were read (no unpickle copy)."""
        fname = str(entry.get("file", ""))
        try:
            buf = np.fromfile(os.path.join(self.dir, fname), np.uint8)
        except OSError:
            raise CheckpointError(
                f"rank {self.rank}: checkpoint file {fname!r} unreadable"
            ) from None
        if zlib.crc32(buf) != entry.get("crc"):
            raise CheckpointError(
                f"rank {self.rank}: checkpoint file {fname!r} "
                "failed its CRC check"
            )
        start = 8 + int.from_bytes(buf[:8].tobytes(), "little")
        head = pickle.loads(buf[8:start].tobytes())
        start += -start % 8
        specs = head.pop("pieces")
        total = sum(rows for _, rows in specs)
        keys = np.frombuffer(buf, np.int64, total, start)
        measure = np.frombuffer(buf, np.float64, total, start + 8 * total)
        pieces, lo = [], 0
        for order, rows in specs:
            hi = lo + rows
            pieces.append(ViewData(order, keys[lo:hi], measure[lo:hi]))
            lo = hi
        return {**head, "views": {p.view: p for p in pieces}}


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
    split into ``parts`` near-equal pieces — the same arithmetic as
    :func:`repro.core.cube.split_even`, without materialising slices.
    Used to deal a dead rank's sorted rows out to the survivors while
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
