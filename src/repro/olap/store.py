"""Persist a constructed cube to disk and reopen it for querying.

**One layout rule.**  A stored view is one *globally sorted,
key-disjoint run* of packed int64 keys plus the parallel measure, and
the rank boundaries are kept as offsets into it.
:func:`repro.core.viewdata.global_run` is the one place that turns a
cube's rank pieces into that run, and :meth:`CubeStore.save` calls it
once per view: every build, degraded or not, leaves every view
range-partitioned in rank order (the γ-balanced sample-sort merge
guarantees it, and a degraded resume adopts a lost rank's pieces by
position), so the run is the plain concatenation and costs no extra
pass.  A cube whose pieces are not sorted, key-disjoint runs in rank
order under one order is rejected with ``ValueError``, not stored in a
slower layout.

**Format 2**, the one on-disk encoding, writes that run's two columns
as raw contiguous ``.npy`` files::

    <path>/manifest.json          cardinalities, aggregate, p and, per
                                  view, order, rank offsets and fence
    <path>/views/v_<name>.keys.npy
    <path>/views/v_<name>.measure.npy

:meth:`CubeStore.load` rebuilds the distributed cube as zero-copy
slices of the memory-mapped columns at the rank offsets, and
:meth:`CubeStore.save` leaves the cube it wrote holding those same
slices (the seal), while
:meth:`CubeStore.open` hands the serving tier
:class:`~repro.olap.index.SortedView` handles whose fence index (every
Nth key, persisted in the manifest) lets a reader touch only the pages
a query needs.

Stores are rebuildable build artefacts, so there is no migration path:
a manifest written by an older version (format 1, format 3's
dense/sparse blocks, a per-rank view layout, a recorded
attribute-value reorder) is rejected by
:meth:`CubeStore.open` with the command that rebuilds it.

**Generations** (incremental refresh).  A store directory may hold a
*sequence* of immutable snapshots instead of one flat layout::

    <path>/CURRENT                 name of the live generation, e.g.
                                   ``gen-000002`` (atomically swapped)
    <path>/gen-000001/manifest.json + views/ ...
    <path>/gen-000002/...

Each generation is a complete, self-contained format-2 store;
:func:`~repro.olap.refresh.refresh_store` creates the next one by
merging a delta into its predecessor; every delta row lands in every
view, so each generation rewrites every view file.  A
flat store (no ``CURRENT``) is implicitly generation 0 and is never
garbage-collected — the first refresh leaves it in place as the seed
snapshot and writes ``gen-000001`` next to it.  ``CURRENT`` is swapped
with ``os.replace`` (write temp + rename), so a reader either sees the
old pointer or the new one, never a torn state; readers that already
hold a generation open keep serving it (their mmaps pin the inodes)
even after :meth:`CubeStore.gc_generations` unlinks the directory.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
from typing import Sequence

import numpy as np

from repro.config import RunResult
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, global_run
from repro.core.views import View, canonical_view, view_name
from repro.olap.index import DEFAULT_STRIDE, FenceIndex, SortedView
from repro.storage.mmapio import (
    MappedColumn,
    MmapMeter,
    read_npy_mmap,
    write_npy_parts,
)

__all__ = ["CubeStore", "OpenCube"]

_MANIFEST = "manifest.json"
_CURRENT = "CURRENT"
_GEN_PREFIX = "gen-"


def _gen_name(generation: int) -> str:
    return f"{_GEN_PREFIX}{generation:06d}"


def _view_stem(view: View) -> str:
    return "v_" + ("_".join(str(i) for i in view) if view else "all")


def _rank_pieces(
    order: Sequence[int],
    keys: np.ndarray,
    measure: np.ndarray,
    offsets: Sequence[int],
) -> list[ViewData]:
    """A stored run's rank pieces: its slices at the rank offsets."""
    return [
        ViewData(order, keys[int(lo) : int(hi)], measure[int(lo) : int(hi)])
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ]


def _seal_budget(views: int) -> int:
    """How many of a store's ``views`` a save may seal.  Each holds two
    descriptors; the seal leaves room to open the store once beside the
    cube (two per view) and takes at most half of what is left."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY:
        return views
    free = soft - len(os.listdir("/dev/fd")) - 2 * views
    return max(free, 0) // 4


def _zero_metrics(total_rows: int, view_count: int) -> RunResult:
    """Reopened cubes carry no construction cost (it was paid at build)."""
    return RunResult(
        simulated_seconds=0.0,
        host_seconds=0.0,
        output_rows=total_rows,
        view_count=view_count,
        comm_bytes=0,
        disk_blocks=0,
    )


class CubeStore:
    """Directory-backed cube persistence (format 2)."""

    @staticmethod
    def save(
        cube: CubeResult,
        path: str,
        format: int = 2,
        fence_stride: int | None = None,
    ) -> str:
        """Write ``cube`` under ``path`` (created if needed).

        ``format`` must be 2, the only encoding; any other value raises
        ``ValueError``.  Each view's rank pieces stream into its column
        files and then the cube is *sealed*: every view has its heap
        pieces replaced by read-only, zero-copy slices of the mapped
        files — the arrays :meth:`load` returns — so the cube
        is held once, by the store.  A sealed view holds two open file
        descriptors (one per mapped column) until the cube lets go of
        it, as an :meth:`open` store does: 128 for a 64-view cube.  Under
        the ``RLIMIT_NOFILE`` soft limit the seal leaves room to open the
        store once beside the cube, takes at most half of the rest and
        seals the largest views first; the others keep their heap pieces
        (under a limit of 1024 a 256-view cube seals about 120 views, a
        1024-view cube none).
        """
        if format != 2:
            raise ValueError(f"unknown cube store format: {format!r}")
        os.makedirs(path, exist_ok=True)
        stride = int(fence_stride or DEFAULT_STRIDE)
        #: (view, file stem, order, rank offsets) of every view
        sealable: list[tuple[View, str, tuple[int, ...], np.ndarray]] = []

        def write_view(view: View) -> dict:
            """Write one view's files and return its manifest entry."""
            run = global_run([rv[view] for rv in cube.rank_views])
            stem = os.path.join(path, "views", _view_stem(view))
            key_parts = [keys for keys, _ in run.parts]
            write_npy_parts(stem + ".keys.npy", key_parts)
            write_npy_parts(
                stem + ".measure.npy", [measure for _, measure in run.parts]
            )
            sealable.append((view, stem, run.order, run.offsets))
            fence = FenceIndex.over_parts(key_parts, stride)
            return {
                "dims": list(view),
                "name": view_name(view),
                "rows": int(run.offsets[-1]),
                "layout": "sorted",
                "order": list(run.order),
                "rank_offsets": [int(o) for o in run.offsets],
                "fence": fence.to_manifest(),
            }

        manifest = {
            "format": 2,
            "cardinalities": list(cube.cardinalities),
            "agg": cube.agg,
            "p": len(cube.rank_views),
            "fence_stride": stride,
            "views": [write_view(view) for view in cube.views],
        }
        with open(os.path.join(path, _MANIFEST), "w") as fh:
            json.dump(manifest, fh, indent=1)
        # Largest views first, as far as the descriptor budget goes.
        sealable.sort(key=lambda item: -int(item[3][-1]))
        budget = _seal_budget(len(cube.views))
        for view, stem, order, offsets in sealable[:budget]:
            pieces = _rank_pieces(
                order,
                read_npy_mmap(stem + ".keys.npy"),
                read_npy_mmap(stem + ".measure.npy"),
                offsets,
            )
            for rv, piece in zip(cube.rank_views, pieces):
                rv[view] = piece
        return path

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _read_manifest(path: str) -> dict:
        manifest_path = os.path.join(path, _MANIFEST)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"no cube manifest at {manifest_path}")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        unread = None
        if manifest.get("format") != 2:
            unread = f"format {manifest.get('format')!r}"
        elif "reorder" in manifest:
            unread = "an attribute-value reorder"
        else:
            for entry in manifest["views"]:
                if entry.get("layout") != "sorted":
                    unread = (
                        f"view {entry.get('name')} in layout "
                        f"{entry.get('layout')!r}"
                    )
                    break
        if unread is not None:
            # Older versions wrote formats 1 and 3, per-rank view
            # layouts and reorder permutations; none is read any more.
            raise ValueError(
                f"unsupported cube store at {manifest_path}: it holds "
                f"{unread}, which this version does not read.  Stores "
                "are build artefacts: rebuild it with "
                "`python -m repro build ... --out <path>`"
            )
        return manifest

    @staticmethod
    def load(path: str, generation: int | None = None) -> CubeResult:
        """Reopen a saved cube as a :class:`CubeResult`.

        Format-2 pieces are zero-copy slices of the memory-mapped view
        columns at the saved rank offsets: per-rank row counts and
        orders are what was saved, and every view comes back
        range-partitioned in rank order.
        """
        return CubeStore.open(path, generation=generation).cube

    @staticmethod
    def open(path: str, generation: int | None = None) -> "OpenCube":
        """Open a store for serving: mmap-backed cube + sorted views.

        ``path`` may be a flat store or a generational root; by default
        the live generation (``CURRENT``, else the flat layout) is
        opened.  Pass ``generation`` to pin a specific snapshot.
        """
        gen_dir, gen = CubeStore.resolve(path, generation)
        manifest = CubeStore._read_manifest(gen_dir)
        cube = OpenCube(gen_dir, manifest)
        cube.root = path
        cube.generation = gen
        return cube

    @staticmethod
    def exists(path: str) -> bool:
        if os.path.exists(os.path.join(path, _MANIFEST)):
            return True
        try:
            gen_dir, _ = CubeStore.resolve(path)
        except FileNotFoundError:
            return False
        return os.path.exists(os.path.join(gen_dir, _MANIFEST))

    # -- generations -------------------------------------------------------

    @staticmethod
    def resolve(path: str, generation: int | None = None) -> tuple[str, int]:
        """Map a store root to the directory holding one generation.

        Returns ``(manifest_dir, generation)``.  Generation 0 is the
        flat root itself; generation N >= 1 lives in ``gen-NNNNNN``.
        With ``generation=None`` the live generation is chosen: the one
        named by ``CURRENT`` when the pointer file exists, else the
        flat layout (generation 0).
        """
        if generation is None:
            generation = CubeStore.current_generation(path)
        generation = int(generation)
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        gen_dir = (
            path if generation == 0 else os.path.join(path, _gen_name(generation))
        )
        return gen_dir, generation

    @staticmethod
    def current_generation(path: str) -> int:
        """The live generation of a store root (0 for a flat store)."""
        current = os.path.join(path, _CURRENT)
        try:
            with open(current) as fh:
                name = fh.read().strip()
        except FileNotFoundError:
            return 0
        if not name.startswith(_GEN_PREFIX):
            raise ValueError(f"malformed CURRENT pointer at {current}: {name!r}")
        return int(name[len(_GEN_PREFIX):])

    @staticmethod
    def set_current(path: str, generation: int) -> None:
        """Atomically point ``CURRENT`` at ``generation``.

        Written to a temp file, fsynced, then ``os.replace``d — a
        concurrent reader sees either the old pointer or the new one,
        never a torn write.
        """
        generation = int(generation)
        if generation < 1:
            raise ValueError(
                f"CURRENT can only name generation >= 1, got {generation}"
            )
        target = os.path.join(path, _CURRENT)
        tmp = target + f".tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(_gen_name(generation) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    @staticmethod
    def generations(path: str) -> list[int]:
        """All generations present under a store root, ascending.

        Includes 0 when the flat layout exists and every complete
        ``gen-NNNNNN`` directory (one with a manifest inside).
        """
        gens = []
        if os.path.exists(os.path.join(path, _MANIFEST)):
            gens.append(0)
        try:
            names = os.listdir(path)
        except FileNotFoundError:
            return gens
        for name in names:
            if not name.startswith(_GEN_PREFIX):
                continue
            suffix = name[len(_GEN_PREFIX):]
            if not suffix.isdigit():
                continue  # temp dirs of an in-flight refresh
            if os.path.exists(os.path.join(path, name, _MANIFEST)):
                gens.append(int(suffix))
        return sorted(gens)

    @staticmethod
    def gc_generations(
        path: str, keep: Sequence[int] = ()
    ) -> list[int]:
        """Delete superseded generation directories under ``path``.

        Removes every generation strictly below the current one except
        generation 0 (the flat seed layout is never touched) and any
        listed in ``keep`` (e.g. generations a reader still has pinned).
        Never removes generations >= current — a concurrent refresh may
        have created its directory but not yet swapped ``CURRENT``.
        Readers that already mmap'd a removed generation keep working:
        POSIX keeps the inodes alive until their maps close.

        Returns the generations removed, ascending.
        """
        current = CubeStore.current_generation(path)
        protected = {0, current, *(int(g) for g in keep)}
        removed = []
        for gen in CubeStore.generations(path):
            if gen >= current or gen in protected:
                continue
            shutil.rmtree(
                os.path.join(path, _gen_name(gen)), ignore_errors=True
            )
            removed.append(gen)
        return removed


class OpenCube:
    """A read-only handle on one stored cube.

    * :attr:`cube` — the distributed :class:`CubeResult`, its pieces
      mmap-backed slices of the view columns.
    * :attr:`sorted_views` — per-view :class:`SortedView` serving
      handles.
    * :attr:`meter` — mmap read accounting shared by every column.

    Handles are safe to open in many processes at once: each worker of
    the query service opens its own and the OS page cache shares the
    underlying bytes.
    """

    def __init__(self, path: str, manifest: dict):
        self.path = path
        #: Store root and pinned snapshot (set by :meth:`CubeStore.open`;
        #: a directly-constructed handle is its own root at generation 0).
        self.root = path
        self.generation = 0
        self.manifest = manifest
        self.format = int(manifest["format"])
        self.cardinalities = tuple(
            int(c) for c in manifest["cardinalities"]
        )
        self.agg = manifest.get("agg", "sum")
        self.p = int(manifest["p"])
        self.meter = MmapMeter()
        self._cube: CubeResult | None = None
        self._sorted: dict[View, SortedView] | None = None

    # -- sorted serving views ---------------------------------------------

    @property
    def sorted_views(self) -> dict[View, SortedView]:
        if self._sorted is None:
            self._sorted = {}
            for entry in self.manifest["views"]:
                view = canonical_view(entry["dims"])
                stem = os.path.join(self.path, "views", _view_stem(view))
                self._sorted[view] = SortedView(
                    tuple(entry["order"]),
                    MappedColumn(stem + ".keys.npy", self.meter),
                    MappedColumn(stem + ".measure.npy", self.meter),
                    FenceIndex.from_manifest(entry["fence"]),
                )
        return self._sorted

    def view_index(self, view: View) -> FenceIndex:
        """The manifest-persisted fence index of one view."""
        return self.sorted_views[canonical_view(view)].fence

    # -- the distributed cube ---------------------------------------------

    @property
    def cube(self) -> CubeResult:
        if self._cube is not None:
            return self._cube
        rank_views: list[dict[View, ViewData]] = [
            dict() for _ in range(self.p)
        ]
        total_rows = 0
        for entry in self.manifest["views"]:
            view = canonical_view(entry["dims"])
            total_rows += int(entry["rows"])
            sv = self.sorted_views[view]
            # Slices of the shared mapping, not copies.
            pieces = _rank_pieces(
                sv.order, sv._keys.array, sv._measure.array,
                entry["rank_offsets"],
            )
            for rv, piece in zip(rank_views, pieces):
                rv[view] = piece
        self._cube = CubeResult(
            rank_views=rank_views,
            cardinalities=self.cardinalities,
            metrics=_zero_metrics(total_rows, len(self.manifest["views"])),
            agg=self.agg,
        )
        return self._cube

    # -- convenience -------------------------------------------------------

    def query_engine(self, index: bool = True):
        """A query engine over this store's sorted view handles
        (``index=False`` pins every query to the scan path)."""
        from repro.olap.query import QueryEngine

        return QueryEngine(
            self.cube, sorted_views=self.sorted_views, index=index
        )
