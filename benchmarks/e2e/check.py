"""The correctness gate: what counts as a failed operation.

* a build fails when it raises, fails ``audit_cube``, differs from
  ``baselines.reference.reference_view`` on the sampled views, or is not
  bit-identical to the verified build of the same input;
* a query fails when it errors, is shed, times out, or differs from the
  answer of an in-process engine over the same store;
* a refresh fails when it raises or leaves the probe query stale;
* a leaked ``/dev/shm/rp*`` segment or a child process still alive after
  the workload each count as one failed operation.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from repro.baselines.reference import reference_view
from repro.core.audit import audit_cube
from repro.olap import CubeStore

_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "rp"


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        """A failure that is not an attempted operation of its own."""
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)


# -- builds -----------------------------------------------------------------


def cube_fingerprint(cube) -> int:
    """CRC over every rank piece (order, keys, measure) of every view:
    equal fingerprints mean bit-identical distributed cubes."""
    crc = 0
    for view in cube.views:
        for pieces in cube.rank_views:
            piece = pieces[view]
            crc = zlib.crc32(repr((view, tuple(piece.order))).encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(piece.keys).data, crc)
            crc = zlib.crc32(np.ascontiguousarray(piece.measure).data, crc)
    return crc


def sample_views(cube, seed: int, count: int = 6) -> list:
    """The widest view plus a seeded sample of the others."""
    views = cube.views
    widest = max(views, key=len)
    rng = np.random.default_rng((seed, 4))
    rest = [v for v in views if v != widest]
    picks = rng.choice(len(rest), size=min(count - 1, len(rest)), replace=False)
    return [widest] + [rest[int(i)] for i in picks]


def verify_build(cube, relation, cards, seed: int) -> str:
    """Empty string when the build is right, else what is wrong."""
    report = audit_cube(cube, relation=relation)
    if not report.ok:
        return "audit: " + "; ".join(report.issues)
    for view in sample_views(cube, seed):
        expect = reference_view(relation, cards, view, agg=cube.agg)
        if not cube.view_relation(view).same_content(expect):
            return f"view {view} differs from the reference"
    return ""


# -- serving ----------------------------------------------------------------


def same_answer(got, expect) -> bool:
    """Bit-identical relations (same engine code on both sides)."""
    return bool(
        np.array_equal(got.dims, expect.dims)
        and np.array_equal(got.measure, expect.measure)
    )


class ReferenceEngines:
    """In-process engines over the store, one per generation.

    The service garbage-collects superseded generations while it runs, so
    ``pin`` hard-links a freshly published generation (a self-contained
    store) into a directory the benchmark owns; engines are opened from
    there, lazily, once the timed part is over.
    """

    def __init__(self, store_path: str, pin_root: str):
        self.store_path = store_path
        self.pin_root = pin_root
        self.handles: dict[int, object] = {}
        self._engines: dict[int, object] = {}

    def _pin_dir(self, generation: int) -> str:
        return os.path.join(self.pin_root, f"gen-{generation}")

    def pin(self, generation: int) -> None:
        if generation == 0:
            return  # the flat root is never collected
        src, _ = CubeStore.resolve(self.store_path, generation)
        dst = self._pin_dir(generation)
        for root, _, names in os.walk(src):
            target = os.path.join(dst, os.path.relpath(root, src))
            os.makedirs(target, exist_ok=True)
            for name in names:
                os.link(os.path.join(root, name), os.path.join(target, name))

    def engine(self, generation: int):
        if generation not in self._engines:
            if generation == 0:
                handle = CubeStore.open(self.store_path, generation=0)
            else:
                handle = CubeStore.open(self._pin_dir(generation), generation=0)
            self.handles[generation] = handle
            self._engines[generation] = handle.query_engine()
        return self._engines[generation]

    def matches(self, query, got, generations) -> bool:
        """Does ``got`` equal the answer of any one of ``generations``?"""
        return any(
            same_answer(got, self.engine(g).answer(query)) for g in generations
        )


# -- leaks ------------------------------------------------------------------


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(_SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def live_children() -> list[int]:
    """Pids of this process's children that are still running, except the
    multiprocessing resource tracker (it lives until the parent exits)."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{name}/cmdline") as fh:
                cmdline = fh.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) != me or state == "Z":
            continue
        if "resource_tracker" in cmdline:
            continue
        out.append(int(name))
    return out


def sweep(tally: Tally, shm_before: set[str]) -> None:
    """Post-workload sweep: every leak is a failed operation."""
    for name in sorted(shm_segments() - shm_before):
        tally.fail(f"leaked shm segment {name}")
    for pid in live_children():
        tally.fail(f"child process {pid} survived the workload")
