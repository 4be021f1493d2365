"""Elastic degraded-mode recovery tests (PR: robustness tentpole).

The degraded-mode contract: under ``RecoveryPolicy(mode="degrade")`` a
*permanent* rank loss does not abort the build — the culprit rank is
blacklisted, its checkpointed seals are adopted by position (a dead
rank's by the survivor below it), and the build finishes at width
``p - k`` with a cube whose *content* is bit-identical to a clean build
at that width (the per-rank row layout may differ: adopted pieces keep
their original epoch's partition boundaries, so the adopting rank holds
more rows).  Content identity requires an integer-valued measure —
float SUM is not associative, so regrouped partial sums of arbitrary
floats may drift in the last ulp.

Also covered here: the worker pool's failure detection (dead worker vs
straggler), transient-exhaustion promotion to degrade, the ``min_ranks``
floor, checkpoint-chain damage tolerance (torn payloads, manifest tail
garbage), the barrier-timeout env override, and the post-build audit.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core import checkpoint as checkpoint_mod
from repro.core import cube as cube_mod
from repro.core.audit import audit_cube
from repro.core.checkpoint import RankCheckpoint, ReshardPlan, share_bounds
from repro.core.cube import build_data_cube
from repro.core.viewdata import ViewData
from repro.mpi.comm import BARRIER_TIMEOUT_SEC
from repro.mpi.errors import (
    InjectedFault,
    MPIError,
    RankDead,
    RankHung,
    classify_failure,
)
from repro.mpi.faults import FaultPlan
from repro.olap import CubeStore, Query, QueryEngine
from repro.storage.sortkernels import is_sorted_int64
from repro.storage.table import Relation

from .conftest import make_relation

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)

CARDS = (8, 6, 5)
N_ROWS = 1500


@pytest.fixture(scope="module")
def relation():
    """Integer-valued measure: degraded regrouping stays bit-exact."""
    raw = make_relation(N_ROWS, CARDS, seed=17)
    return Relation(raw.dims, np.floor(raw.measure))


def build(relation, backend, p=3, **kw):
    return build_data_cube(
        relation, CARDS, MachineSpec(p=p, backend=backend), CubeConfig(), **kw
    )


def content_fingerprint(cube):
    """Digest of the cube's *global* content, independent of how rows
    are distributed across ranks (degraded builds shard differently)."""
    h = hashlib.sha256()
    for view in cube.views:
        rel = cube.view_relation(view)
        if rel.nrows and rel.width:
            order = np.lexsort(
                tuple(rel.dims[:, j] for j in range(rel.width - 1, -1, -1))
            )
        else:
            order = np.arange(rel.nrows)
        h.update(repr(view).encode())
        h.update(np.ascontiguousarray(rel.dims[order]).tobytes())
        h.update(np.ascontiguousarray(rel.measure[order]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# failure taxonomy
# ---------------------------------------------------------------------------


class TestClassifyFailure:
    def test_permanent(self):
        assert classify_failure(RankDead("x", rank=2)) == ("permanent", 2)
        assert classify_failure(InjectedFault("x", rank=1)) == (
            "permanent",
            1,
        )

    def test_transient(self):
        from repro.mpi.errors import (
            CorruptPayload,
            DiskFull,
            RankFailure,
        )

        assert classify_failure(RankHung("x", rank=0)) == ("transient", 0)
        assert classify_failure(CorruptPayload("x", rank=1)) == (
            "transient",
            1,
        )
        # DiskFull is transient even though the fault injector raises it:
        # a retry rolls a fresh quota.
        assert classify_failure(DiskFull("x", rank=1))[0] == "transient"
        # A bystander aborted by a peer's failure carries no culprit.
        assert classify_failure(RankFailure("x")) == ("transient", None)

    def test_fatal(self):
        from repro.mpi.errors import CollectiveMisuse

        assert classify_failure(KeyboardInterrupt())[0] == "fatal"
        assert classify_failure(SystemExit())[0] == "fatal"
        assert classify_failure(CollectiveMisuse("x"))[0] == "fatal"
        assert classify_failure(ValueError("x"))[0] == "fatal"

    def test_rank_attr_survives_pickling(self):
        import pickle

        err = pickle.loads(pickle.dumps(RankDead("gone", rank=3)))
        assert err.rank == 3
        assert classify_failure(err) == ("permanent", 3)


# ---------------------------------------------------------------------------
# degrade without checkpoints: restart fresh at p - 1
# ---------------------------------------------------------------------------


class TestDegradeFresh:
    def test_operator_interrupt_is_never_banked(self, relation, monkeypatch):
        """KeyboardInterrupt must re-raise before any recovery machinery
        runs — not retried, not degraded, and the failed cluster's meters
        never read (the fake has none to read)."""
        calls = []

        class FakeCluster:
            def __init__(self, *a, **kw):
                calls.append(1)

            def run(self, *a, **kw):
                raise KeyboardInterrupt()

        monkeypatch.setattr("repro.core.cube.Cluster", FakeCluster)
        with pytest.raises(KeyboardInterrupt):
            build(
                relation,
                "thread",
                p=3,
                recovery=RecoveryPolicy(mode="degrade", max_retries=5),
            )
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# degrade with checkpoints: reshard the dead rank's chain
# ---------------------------------------------------------------------------


class TestDegradeReshard:
    def test_resume_matches_clean_content(self, relation, tmp_path):
        clean = build(relation, "thread", p=2)
        res = build(
            relation,
            "thread",
            p=3,
            faults=FaultPlan.parse("crash@r1s22"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
            checkpoint_dir=str(tmp_path),
            audit=True,
        )
        assert res.metrics.final_width == 2
        assert res.metrics.ranks_lost == [1]
        assert res.metrics.audit["ok"]
        assert content_fingerprint(res) == content_fingerprint(clean)
        # The degrade event opened a fresh epoch directory with the
        # survivors' resharded chains.
        epoch = tmp_path / "epoch01"
        assert epoch.is_dir()
        assert sorted(p.name for p in epoch.iterdir()) == [
            "rank00",
            "rank01",
        ]

    def test_resume_is_cheaper_than_fresh_restart(self, relation, tmp_path):
        kw = dict(
            faults=FaultPlan.parse("crash@r1s22"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
        )
        resumed = build(
            relation, "thread", p=3, checkpoint_dir=str(tmp_path), **kw
        )
        restarted = build(relation, "thread", p=3, **kw)
        assert content_fingerprint(resumed) == content_fingerprint(restarted)
        # The resumed build replays checkpointed iterations from disk
        # instead of redoing their collectives, so it finishes sooner.
        assert (
            resumed.metrics.simulated_seconds
            < restarted.metrics.simulated_seconds
        )

    @requires_fork
    def test_sigkill_degrade_process_backend(self, relation, tmp_path):
        """The CI chaos leg: SIGKILL one rank mid-build under the process
        backend; the supervisor reports it dead, the survivors reshard
        its chain, and the cube matches a clean build at p - 1."""
        clean = build(relation, "thread", p=2)
        res = build(
            relation,
            "process",
            p=3,
            faults=FaultPlan.parse("kill@r1s22"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
            checkpoint_dir=str(tmp_path),
            audit=True,
        )
        assert res.metrics.final_width == 2
        assert res.metrics.ranks_lost == [1]
        assert res.metrics.audit["ok"]
        assert content_fingerprint(res) == content_fingerprint(clean)

    def test_kill_degrades_to_crash_on_thread_backend(self, relation):
        # A thread cannot be SIGKILLed without taking the whole test
        # process down, so the thread backend demotes kill@ to a crash.
        res = build(
            relation,
            "thread",
            p=3,
            faults=FaultPlan.parse("kill@r1s6"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
        )
        assert res.metrics.final_width == 2
        assert res.metrics.ranks_lost == [1]

    def test_double_loss_composes(self, relation, tmp_path, monkeypatch):
        """Two permanent losses: two epochs, width 4 -> 3 -> 2."""
        prologue_saves = _saves_in_prologue(monkeypatch)
        clean = build(relation, "thread", p=2)
        res = build(
            relation,
            "thread",
            p=4,
            # The width-3 epoch resumes from checkpoints, so its
            # collective supersteps renumber from 0 — the second fault
            # lands early in the resumed run.
            faults=FaultPlan.parse("crash@r3s22a0;crash@r1s6a1"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
            checkpoint_dir=str(tmp_path),
            audit=True,
        )
        assert res.metrics.final_width == 2
        assert res.metrics.ranks_lost == [3, 1]
        assert res.metrics.audit["ok"]
        assert content_fingerprint(res) == content_fingerprint(clean)
        assert (tmp_path / "epoch01").is_dir()
        assert (tmp_path / "epoch02").is_dir()
        # Every seal an adopted line of epoch02 names (the lines before
        # its own computed ones) is an earlier epoch's inode, and the
        # prologues wrote no seal: adoption only links.
        earlier = {
            os.stat(path).st_ino
            for pattern in ("rank*/*.seal", "epoch01/rank*/*.seal")
            for path in tmp_path.glob(pattern)
        }
        adopted = [
            p for p in _named_seals(tmp_path / "epoch02")
            if p.match("iter*.s*.seal")
        ]
        assert adopted and {os.stat(p).st_ino for p in adopted} <= earlier
        assert prologue_saves == []


def _named_seals(epoch):
    """Every seal file the chains under ``epoch`` name."""
    named = []
    for rank_dir in sorted(epoch.glob("rank*")):
        ckpt = RankCheckpoint(str(epoch), int(rank_dir.name[4:]))
        for ordinal in range(ckpt.last_complete() + 1):
            named += [
                rank_dir / seal["file"] for seal in ckpt.entry(ordinal)["seals"]
            ]
    return named


def _saves_in_prologue(monkeypatch):
    """Record the rows of every seal saved inside a ``resume_point``."""
    inside = threading.local()
    saves = []
    resume_point, save = cube_mod.resume_point, RankCheckpoint.save

    def recording_resume_point(*args):
        inside.on = True
        try:
            return resume_point(*args)
        finally:
            inside.on = False

    def recording_save(self, *args):
        rows = save(self, *args)
        if getattr(inside, "on", False):
            saves.append(rows)
        return rows

    monkeypatch.setattr(cube_mod, "resume_point", recording_resume_point)
    monkeypatch.setattr(RankCheckpoint, "save", recording_save)
    return saves


class TestReshardCrashPoints:
    """Fail new rank 0 after each durable call of its reshard prologue
    (a link, the directory fsync, the manifest append): the retry runs
    the prologue again in the same epoch."""

    @staticmethod
    def _arm(monkeypatch, epoch, fail_after):
        """Make new rank 0's ``fail_after``-th prologue call raise after
        it returns; returns the calls made and, once it fired, how many
        lines were durable and where the chain ended at that moment."""
        target = str(epoch / "rank00")
        state = threading.local()
        calls, fired = [], []
        link, fsync_dir = os.link, checkpoint_mod._fsync_dir
        adopt, append = RankCheckpoint.adopt, RankCheckpoint._append_manifest

        def step(kind, where):
            if fired or not getattr(state, "adopting", False):
                return
            if getattr(state, "appending", False):
                return
            if not str(where).startswith(target):
                return
            calls.append(kind)
            if len(calls) == fail_after:
                chain = RankCheckpoint(str(epoch), 0)
                fired.append((calls.count("append"), chain.last_complete()))
                raise MPIError(f"failed after {kind} #{fail_after}")

        def patched_adopt(self, *args):
            state.adopting = True
            try:
                return adopt(self, *args)
            finally:
                state.adopting = False

        def patched_append(self, entry):
            state.appending = True
            try:
                append(self, entry)
            finally:
                state.appending = False
            step("append", self.dir)

        def patched_link(src, dst):
            link(src, dst)
            step("link", dst)

        def patched_fsync_dir(path):
            fsync_dir(path)
            step("fsync_dir", path)

        monkeypatch.setattr(RankCheckpoint, "adopt", patched_adopt)
        monkeypatch.setattr(RankCheckpoint, "_append_manifest", patched_append)
        monkeypatch.setattr(os, "link", patched_link)
        monkeypatch.setattr(checkpoint_mod, "_fsync_dir", patched_fsync_dir)
        return calls, fired

    @pytest.mark.parametrize("fail_after", range(1, 9))
    def test_prologue_crash_resumes_from_durable_lines(
        self, relation, tmp_path, monkeypatch, fail_after
    ):
        clean = build(relation, "thread", p=2)
        calls, fired = self._arm(monkeypatch, tmp_path / "epoch01", fail_after)
        res = build(
            relation,
            "thread",
            p=3,
            faults=FaultPlan.parse("crash@r1s22"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=1),
            checkpoint_dir=str(tmp_path),
            audit=True,
        )
        # Rank 0 adopts ranks 0 and 1 (two links a line): the crash came
        # on its first prologue, with the chain ending at the last line
        # appended — never ahead of what is durable.
        assert calls == (["link", "link", "fsync_dir", "append"] * 2)[
            :fail_after
        ]
        ((appended, last),) = fired
        assert last == appended - 1
        assert res.metrics.attempts == 3 and res.metrics.final_width == 2
        assert res.metrics.audit["ok"]
        assert content_fingerprint(res) == content_fingerprint(clean)
        # The re-run kept the links it found: every adopted line names
        # the dead epoch's inodes, and no link is left over or doubled.
        rank00 = tmp_path / "epoch01" / "rank00"
        links = sorted(rank00.glob("iter*.s*.seal"))
        named = _named_seals(tmp_path / "epoch01")
        assert [p for p in named if p.match("rank00/iter*.s*.seal")] == links
        sources = {
            os.stat(p).st_ino for p in tmp_path.glob("rank0[01]/*.seal")
        }
        assert links and {os.stat(p).st_ino for p in links} <= sources


def test_corrupt_adopted_piece_is_not_adopted_again(
    relation, tmp_path, monkeypatch
):
    """A piece the dead rank sealed fails its CRC when the driver maps
    it: the adopted link is quarantined and the retry recomputes from
    the chain before it instead of linking the same bytes again."""
    clean = build(relation, "thread", p=2)
    adopt = RankCheckpoint.adopt
    flipped = []

    def flipping_adopt(self, ordinal, sources):
        if not flipped and ordinal == 0 and len(sources) == 2:
            _, pieces = sources[1]._open(sources[1].entry(0))
            piece = max(pieces, key=lambda piece: piece.rows)
            with open(piece.path, "r+b") as fh:
                fh.seek(piece.measure_at)
                byte = fh.read(1)
                fh.seek(piece.measure_at)
                fh.write(bytes([byte[0] ^ 0xFF]))
            flipped.append(piece.path)
        return adopt(self, ordinal, sources)

    monkeypatch.setattr(RankCheckpoint, "adopt", flipping_adopt)
    res = build(
        relation,
        "thread",
        p=3,
        faults=FaultPlan.parse("crash@r1s22"),
        recovery=RecoveryPolicy(mode="degrade", max_retries=1),
        checkpoint_dir=str(tmp_path),
        audit=True,
    )
    assert flipped and res.metrics.attempts == 3
    assert res.metrics.final_width == 2 and res.metrics.audit["ok"]
    assert content_fingerprint(res) == content_fingerprint(clean)
    assert list((tmp_path / "epoch01" / "rank00").glob("*.quarantined"))


# ---------------------------------------------------------------------------
# what a reshard leaves behind is stored and served like any other cube
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def degraded_and_clean(relation, tmp_path_factory):
    """A p=4 build that lost rank 1 after two iterations, and the clean
    p=3 build of the same input.  Rank 0 adopted the dead rank's pieces
    of the finished iterations, so it holds more rows of those views."""
    degraded = build(
        relation,
        "thread",
        p=4,
        faults=FaultPlan.parse("kill@r1s26"),
        recovery=RecoveryPolicy(mode="degrade", max_retries=0),
        checkpoint_dir=str(tmp_path_factory.mktemp("ckpt")),
    )
    assert degraded.metrics.final_width == 3
    return degraded, build(relation, "thread", p=3)


class TestDegradedStore:
    QUERIES = [
        Query(()),
        Query((0,)),
        Query((1, 2)),
        Query((), {0: (3, 3), 1: (2, 2), 2: (1, 1)}),
        Query((), {0: (7, 7), 1: (5, 5)}),
        Query((1,), {0: (2, 5)}),
        Query((2,), {0: (1, 1), 1: (0, 3)}),
        Query((0,), {1: (1, 4), 2: (0, 2)}),
        Query((0, 2), {2: (1, 3)}),
        Query((0, 1), having=(">=", 100.0)),
    ]

    @staticmethod
    def assert_serves_like(engine, clean_engine):
        for query in TestDegradedStore.QUERIES:
            want = clean_engine.explain(query).access_path
            assert engine.explain(query).access_path == want, query
            got, ref = engine.answer(query), clean_engine.answer(query)
            assert np.array_equal(got.dims, ref.dims), query
            assert np.array_equal(got.measure, ref.measure), query

    def test_fixture_views_are_rank_runs(self, degraded_and_clean):
        degraded, clean = degraded_and_clean
        assert all(
            is_sorted_int64(
                np.concatenate(
                    [rv[view].keys for rv in degraded.rank_views]
                )
            )
            for view in degraded.views
        )
        # The adopted pieces leave rank 0 heavier than at a clean p=3.
        assert any(
            degraded.distribution(view)[0] > clean.distribution(view)[0]
            for view in degraded.views
        )
        # Same sort orders, so the clean plans are the plans to expect.
        for view in clean.views:
            assert (
                degraded.rank_views[0][view].order
                == clean.rank_views[0][view].order
            )
        engine = QueryEngine(clean)
        assert {
            engine.explain(query).access_path for query in self.QUERIES
        } >= {"index", "index+sort"}

    def test_store_is_indexed_and_answers_like_clean(
        self, degraded_and_clean, tmp_path
    ):
        degraded, clean = degraded_and_clean
        path = CubeStore.save(degraded, str(tmp_path / "deg"))
        clean_path = CubeStore.save(clean, str(tmp_path / "clean"))
        handle = CubeStore.open(path)
        assert {e["layout"] for e in handle.manifest["views"]} == {"sorted"}
        self.assert_serves_like(
            handle.query_engine(), CubeStore.open(clean_path).query_engine()
        )

    def test_load_keeps_content_and_row_counts(
        self, degraded_and_clean, relation, tmp_path
    ):
        degraded, _ = degraded_and_clean
        path = CubeStore.save(degraded, str(tmp_path / "deg"))
        loaded = CubeStore.load(path)
        for view in degraded.views:
            assert loaded.view_relation(view).same_content(
                degraded.view_relation(view)
            )
            assert np.array_equal(
                loaded.distribution(view), degraded.distribution(view)
            )
        assert audit_cube(loaded, relation=relation).ok

    def test_in_memory_engine_is_indexed(self, degraded_and_clean):
        degraded, clean = degraded_and_clean
        self.assert_serves_like(QueryEngine(degraded), QueryEngine(clean))


# ---------------------------------------------------------------------------
# reshard plan arithmetic
# ---------------------------------------------------------------------------


class TestReshardPlan:
    def test_after_loss(self):
        plan = ReshardPlan.after_loss(4, [1], "src", "dst")
        assert plan.new_width == 3
        assert plan.survivors == (0, 2, 3)
        assert plan.dead == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReshardPlan.after_loss(3, [7], "src", "dst")
        with pytest.raises(ValueError):
            ReshardPlan(3, 2, (0,), (0, 1), "src", "dst")

    @pytest.mark.parametrize(
        "width, dead, groups",
        [
            (4, [1], ((0, 1), (2,), (3,))),
            (4, [0], ((0, 1), (2,), (3,))),
            (4, [3], ((0,), (1,), (2, 3))),
            (5, [0, 2, 3], ((0, 1, 2, 3), (4,))),
        ],
    )
    def test_groups_are_contiguous_with_one_survivor(
        self, width, dead, groups
    ):
        plan = ReshardPlan.after_loss(width, dead, "src", "dst")
        assert plan.groups == groups

    def test_share_bounds_partition(self):
        for nrows in (0, 1, 7, 100):
            for parts in (1, 2, 3, 5):
                spans = [share_bounds(nrows, parts, j) for j in range(parts)]
                # Contiguous, ordered, covers [0, nrows) exactly.
                assert spans[0][0] == 0
                assert spans[-1][1] == nrows
                for (a, b), (c, d) in zip(spans, spans[1:]):
                    assert b == c
                sizes = [b - a for a, b in spans]
                assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# checkpoint-chain damage
# ---------------------------------------------------------------------------


def _seed_chain(root, rank, n=3):
    from repro.core.viewdata import ViewData

    ckpt = RankCheckpoint(str(root), rank)
    for i in range(n):
        vd = ViewData(
            (0,), np.arange(4, dtype=np.int64), np.full(4, float(i))
        )
        ckpt.save(
            i,
            i,
            {
                "views": {(0,): vd},
                "root": vd,
                "root_i": 0,
                "report": None,
                "tree": None,
            },
        )
    return ckpt


class TestChainDamage:
    def test_torn_payload_truncates(self, tmp_path):
        ckpt = _seed_chain(tmp_path, 0)
        path = os.path.join(ckpt.dir, "iter002.seal")
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn write
        assert ckpt.last_complete() == 1

    def test_manifest_tail_garbage_keeps_prefix(self, tmp_path):
        ckpt = _seed_chain(tmp_path, 0)
        with open(ckpt._manifest_path(), "a", encoding="utf-8") as fh:
            fh.write('{"ordinal": 3, "file"...TORN')
        assert ckpt.last_complete() == 2

    def test_manifest_half_line_keeps_prefix(self, tmp_path):
        ckpt = _seed_chain(tmp_path, 0)
        raw = open(ckpt._manifest_path(), "r", encoding="utf-8").read()
        lines = raw.splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        with open(ckpt._manifest_path(), "w", encoding="utf-8") as fh:
            fh.write(torn)
        assert ckpt.last_complete() == 1

    def test_crc_mismatch_mid_chain_truncates(self, tmp_path):
        ckpt = _seed_chain(tmp_path, 0)
        path = os.path.join(ckpt.dir, "iter001.seal")
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        # Damage at ordinal 1 makes ordinal 2 unusable too.
        assert ckpt.last_complete() == 0

    @pytest.mark.parametrize(
        "head",
        [
            '{"version": 3}',  # its seals could carry a Di-root copy
            '{"version": 2}',
            '{"version": 1, "iterations": []}',
            "[3]",
            "",
        ],
    )
    def test_unknown_format_reads_as_empty(self, tmp_path, head):
        """A chain this version did not write means restart, never raise."""
        ckpt = _seed_chain(tmp_path, 0)
        lines = open(ckpt._manifest_path(), encoding="utf-8").read().split("\n")
        with open(ckpt._manifest_path(), "w", encoding="utf-8") as fh:
            fh.write("\n".join([head, *lines[1:]]))
        assert ckpt.last_complete() == -1
        assert ckpt.entry(0) is None

    def test_damaged_chain_resume_end_to_end(self, relation, tmp_path):
        """A damaged tail truncates the resume point; the rebuild replays
        the intact prefix and recomputes the rest, bit-identically."""
        clean = build(relation, "thread", p=2)
        first = build(
            relation, "thread", p=2, checkpoint_dir=str(tmp_path)
        )
        assert content_fingerprint(first) == content_fingerprint(clean)
        # Tear rank 1's newest payload: its last_complete drops, and the
        # allreduce(min) pulls every rank back to the same ordinal.
        ckpt = RankCheckpoint(str(tmp_path), 1)
        last = ckpt.last_complete()
        assert last >= 1
        path = os.path.join(ckpt.dir, f"iter{last:03d}.seal")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        assert ckpt.last_complete() == last - 1
        again = build(
            relation, "thread", p=2, checkpoint_dir=str(tmp_path)
        )
        assert content_fingerprint(again) == content_fingerprint(clean)
        assert ckpt.last_complete() == last  # chain healed by the rebuild


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------


def _exit_quietly(_slot, _generation, _conn, code):
    os._exit(code)


def _sleep_forever(_slot, _generation, _conn):
    time.sleep(60)


def _chatty(_slot, _generation, conn):
    time.sleep(0.2)
    conn.send("hello")
    time.sleep(5)


@requires_fork
class TestSupervisor:
    """Rank supervision: ``WorkerPool.recv``, the SPMD coordinator's
    entry point, over one forked worker."""

    def _pool(self, target, *args, suspect_after=30.0):
        from repro.mpi.pool import WorkerPool

        return WorkerPool(
            1, target, args, suspect_after=suspect_after, label="rank"
        )

    def test_dead_worker_detected_fast(self):
        pool = self._pool(_exit_quietly, 3)
        start = time.monotonic()
        with pytest.raises(RankDead, match="exit code 3"):
            pool.recv(0)
        # Detection is sentinel-fast, nowhere near suspect_after.
        assert time.monotonic() - start < 5.0
        pool.close()

    def test_sigkilled_worker_named(self):
        import signal

        pool = self._pool(_sleep_forever)
        os.kill(pool.procs[0].pid, signal.SIGKILL)
        with pytest.raises(RankDead, match="SIGKILL"):
            pool.recv(0)
        pool.close()

    def test_straggler_flagged_as_hung(self):
        pool = self._pool(_sleep_forever, suspect_after=0.3)
        start = time.monotonic()
        with pytest.raises(RankHung, match="deadline"):
            pool.recv(0)
        assert 0.2 < time.monotonic() - start < 5.0
        pool.kill(0)
        pool.close()

    def test_live_worker_message_delivered(self):
        pool = self._pool(_chatty, suspect_after=10.0)
        assert pool.recv(0) == "hello"
        pool.kill(0)
        pool.close()


# ---------------------------------------------------------------------------
# supervision deadline
# ---------------------------------------------------------------------------


class TestBarrierTimeout:
    def test_cluster_resolves_spec(self):
        from repro.mpi.engine import Cluster

        # Unset, the supervision deadline is the one barrier timeout.
        assert Cluster(MachineSpec(p=2)).suspect_after == BARRIER_TIMEOUT_SEC

    def test_suspect_after_overrides(self):
        from repro.mpi.engine import Cluster

        spec = MachineSpec(p=2, suspect_after=5.0)
        assert Cluster(spec).suspect_after == 5.0


# ---------------------------------------------------------------------------
# post-build audit
# ---------------------------------------------------------------------------


class TestAudit:
    def test_clean_build_passes(self, relation):
        cube = build(relation, "thread", p=2)
        report = audit_cube(cube, relation=relation)
        assert report.ok
        assert {c.name for c in report.checks} == {
            "piece-shape",
            "view-totals",
            "row-monotonicity",
            "rank-run",
        }
        assert "OK" in report.summary()

    def test_tampered_totals_flagged(self, relation):
        cube = build(relation, "thread", p=2)
        view = cube.views[0]
        cube.rank_views[0][view].measure[0] += 1000.0
        report = audit_cube(cube, relation=relation)
        assert not report.ok
        assert any("view-totals" in issue for issue in report.issues)

    def test_duplicate_keys_flagged(self, relation):
        cube = build(relation, "thread", p=2)
        # Give rank 1 a copy of rank 0's piece: every key duplicated.
        dense = max(cube.views, key=lambda v: cube.view_rows(v))
        cube.rank_views[1][dense] = cube.rank_views[0][dense]
        report = audit_cube(cube)
        assert not report.ok
        assert any("rank-run" in issue for issue in report.issues)

    def test_unsorted_piece_flagged(self, relation):
        cube = build(relation, "thread", p=2)
        dense = max(cube.views, key=lambda v: cube.view_rows(v))
        piece = cube.rank_views[0][dense]
        if piece.nrows >= 2:
            piece.keys[:2] = piece.keys[:2][::-1]
        report = audit_cube(cube)
        assert not report.ok
        assert any("rank-run" in issue for issue in report.issues)

    def test_interleaved_pieces_flagged(self, relation):
        """Sorted, key-disjoint pieces that are not in rank order: the
        layout every store and scan reads as one run is broken."""
        cube = build(relation, "thread", p=2)
        dense = max(cube.views, key=lambda v: cube.view_rows(v))
        rv0, rv1 = (rv[dense] for rv in cube.rank_views)
        keys = np.concatenate([rv0.keys, rv1.keys])
        measure = np.concatenate([rv0.measure, rv1.measure])
        for rank, rv in enumerate(cube.rank_views):
            rv[dense] = ViewData(rv0.order, keys[rank::2], measure[rank::2])
        report = audit_cube(cube)
        assert not report.ok
        assert [c.name for c in report.checks if not c.ok] == ["rank-run"]

    def test_count_cube_totals_equal_row_count(self, relation):
        cube = build_data_cube(
            relation,
            CARDS,
            MachineSpec(p=2, backend="thread"),
            CubeConfig(agg="count"),
            audit=True,
        )
        assert cube.metrics.audit["ok"]

    def test_audit_attached_to_metrics(self, relation):
        cube = build(relation, "thread", p=2, audit=True)
        assert cube.metrics.audit["ok"] is True
        assert "audit: OK" in cube.metrics.summary()
