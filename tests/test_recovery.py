"""Checkpointed recovery tests (PR: robustness tentpole).

The recovery contract: a build that loses a rank mid-flight and is
restarted by :class:`RecoveryPolicy` must produce a cube *bit-identical*
to the fault-free build, while its metrics honestly include the wasted
work (``attempts``, ``recovered_seconds``).  With a checkpoint directory
the restart resumes from the last completed dimension iteration instead
of from scratch.  The chaos matrix pins this down for every fault kind
on both backends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import stat
import weakref

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core import checkpoint as checkpoint_mod
from repro.core import cube as cube_mod
from repro.core.checkpoint import RankCheckpoint, SealedPiece, hand_over
from repro.core.cube import build_data_cube
from repro.mpi.errors import (
    CheckpointError,
    CollectiveMisuse,
    CorruptPayload,
    DiskFull,
    InjectedFault,
    MPIError,
    RankFailure,
)
from repro.mpi.faults import FaultPlan
from repro.storage.disk import LocalDisk

from .conftest import make_relation, mmap_of

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)

BACKENDS = ["thread", pytest.param("process", marks=requires_fork)]

CARDS = (8, 6, 5)
N_ROWS = 1500


@pytest.fixture(scope="module")
def relation():
    return make_relation(N_ROWS, CARDS, seed=17)


def build(relation, backend, p=2, **kw):
    return build_data_cube(
        relation, CARDS, MachineSpec(p=p, backend=backend), CubeConfig(), **kw
    )


def fingerprint(cube):
    """Bit-level digest of every rank's piece of every view."""
    h = hashlib.sha256()
    for rv in cube.rank_views:
        for view in sorted(rv, key=lambda v: (len(v), v)):
            vd = rv[view]
            h.update(repr(view).encode())
            h.update(np.ascontiguousarray(vd.keys).tobytes())
            h.update(np.ascontiguousarray(vd.measure).tobytes())
    return h.hexdigest()


class TestRankCheckpoint:
    def _payload(self, tag):
        from repro.core.viewdata import ViewData

        vd = ViewData(
            (0,), np.arange(4, dtype=np.int64), np.full(4, float(tag))
        )
        return {"views": {(0,): vd}, "report": None, "tree": None}

    def test_roundtrip(self, tmp_path):
        ck = RankCheckpoint(str(tmp_path), rank=3)
        assert ck.last_complete() == -1
        rows = ck.save(0, 2, self._payload(1))
        assert rows == 4  # the views' rows and nothing else
        ck.save(1, 1, self._payload(2))
        assert ck.last_complete() == 1
        payload, loaded_rows = ck.load(1)
        assert loaded_rows == 4
        np.testing.assert_array_equal(
            payload["views"][(0,)].measure, np.full(4, 2.0)
        )
        entry = dict(ck.entry(0))
        (seal,) = entry.pop("seals")
        assert entry == {"ordinal": 0, "dim": 2, "rows": 4}
        assert set(seal) == {"file", "head_crc", "size"}
        assert seal["file"] == "iter000.seal"
        np.testing.assert_array_equal(
            payload["views"][(0,)].keys, np.arange(4)
        )
        # A piece not asked for stays in its seal; handed over, it is a
        # read-only map, like an adopted process-backend result.
        payload, loaded_rows = ck.load(1, read=())
        assert loaded_rows == 0
        (piece,) = payload["views"][(0,)]
        assert isinstance(piece, SealedPiece)
        hand_over([payload["views"]])
        mapped = payload["views"][(0,)]
        np.testing.assert_array_equal(mapped.measure, np.full(4, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            mapped.measure[0] = 7.0

    def test_last_complete_reads_headers_load_reads_what_is_asked(
        self, tmp_path, monkeypatch
    ):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        for ordinal in range(3):
            ck.save(ordinal, ordinal, self._payload(ordinal))
        reads = []
        original = SealedPiece.read

        def counting(piece):
            reads.append(os.path.basename(piece.path))
            return original(piece)

        monkeypatch.setattr(SealedPiece, "read", counting)
        fresh = RankCheckpoint(str(tmp_path), rank=0)
        assert fresh.last_complete() == 2
        assert reads == []  # sizes and headers only
        for ordinal in range(3):
            payload, rows = fresh.load(ordinal, read=[(0,)] if ordinal else [])
            piece = payload["views"][(0,)]
            assert rows == (4 if ordinal else 0)
            assert isinstance(piece, tuple) == (ordinal == 0)
        # Only the pieces asked for leave their seals as bytes.
        assert reads == ["iter001.seal", "iter002.seal"]

    def test_seal_rename_is_durable_before_its_manifest_line(
        self, tmp_path, monkeypatch
    ):
        """The seal is fsynced, renamed into place and the rename made
        durable by a directory fsync before the manifest line naming it
        is made durable; the manifest's own creation is made durable too."""
        ck = RankCheckpoint(str(tmp_path), rank=0)
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            st = os.fstat(fd)
            kind = "fsync-dir" if stat.S_ISDIR(st.st_mode) else "fsync"
            events.append((kind, st.st_ino))
            return fsync(fd)

        def recording_replace(src, dst):
            replace(src, dst)
            events.append(("replace", os.stat(dst).st_ino))

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        ck.save(0, 0, self._payload(0))
        ck.save(1, 1, self._payload(1))
        ino = {
            name: os.stat(os.path.join(ck.dir, name)).st_ino
            for name in ("iter000.seal", "iter001.seal", "manifest.json")
        }
        folder = os.stat(ck.dir).st_ino
        manifest = ("fsync", ino["manifest.json"])
        assert events == [
            ("fsync", ino["iter000.seal"]), ("replace", ino["iter000.seal"]),
            ("fsync-dir", folder), manifest, ("fsync-dir", folder),
            ("fsync", ino["iter001.seal"]), ("replace", ino["iter001.seal"]),
            ("fsync-dir", folder), manifest,
        ]

    @pytest.mark.parametrize("damage", ["torn-body", "flipped-header"])
    def test_corrupt_seal_truncates_without_reading_a_piece_body(
        self, tmp_path, monkeypatch, damage
    ):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        for ordinal in range(3):
            ck.save(ordinal, ordinal, self._payload(ordinal))
        _, pieces = ck._open(ck.entry(1))
        body_at = pieces[0].keys_at
        _damage_seal(os.path.join(ck.dir, "iter001.seal"), damage, body_at)
        bytes_read = {}

        class Counting:
            def __init__(self, path, *args, **kw):
                self.name = os.path.basename(path)
                self.fh = open(path, *args, **kw)

            def read(self, n=-1):
                data = self.fh.read(n)
                bytes_read[self.name] = bytes_read.get(self.name, 0) + len(data)
                return data

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        monkeypatch.setattr(checkpoint_mod, "open", Counting, raising=False)
        monkeypatch.setattr(SealedPiece, "read", None)
        assert ck.last_complete() == 0
        seals = {k: v for k, v in bytes_read.items() if k.endswith(".seal")}
        assert set(seals) == {"iter000.seal", "iter001.seal"}
        assert max(seals.values()) <= body_at

    def test_manifest_is_append_only(self, tmp_path):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        sizes = []
        for ordinal in range(3):
            ck.save(ordinal, ordinal, self._payload(ordinal))
            sizes.append(os.path.getsize(ck._manifest_path()))
        head = open(ck._manifest_path(), "rb").read()[: sizes[0]]
        ck.save(1, 1, self._payload(9))  # a re-save appends too
        raw = open(ck._manifest_path(), "rb").read()
        assert raw[: sizes[0]] == head and len(raw) > sizes[2]
        assert json.loads(raw.splitlines()[0]) == {"version": 6}

    def test_resave_truncates_suffix(self, tmp_path):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        for ordinal in range(3):
            ck.save(ordinal, ordinal, self._payload(ordinal))
        ck.save(1, 1, self._payload(9))  # a retry redoing iteration 1
        assert ck.last_complete() == 1
        assert ck.entry(2) is None

    def test_corruption_truncates_chain(self, tmp_path):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        for ordinal in range(3):
            ck.save(ordinal, ordinal, self._payload(ordinal))
        target = os.path.join(ck.dir, "iter001.seal")
        blob = bytearray(open(target, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(target, "wb") as fh:
            fh.write(bytes(blob))
        # Damage mid-chain: only iteration 0 remains usable.
        assert ck.last_complete() == 0
        with pytest.raises(CheckpointError, match="CRC"):
            ck.load(1)

    def test_missing_file(self, tmp_path):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        ck.save(0, 0, self._payload(0))
        os.unlink(os.path.join(ck.dir, "iter000.seal"))
        assert ck.last_complete() == -1
        with pytest.raises(CheckpointError, match="unreadable"):
            ck.load(0)

    def test_ranks_are_isolated(self, tmp_path):
        a = RankCheckpoint(str(tmp_path), rank=0)
        b = RankCheckpoint(str(tmp_path), rank=1)
        a.save(0, 0, self._payload(1))
        assert b.last_complete() == -1


class TestRecoveryPolicy:
    def test_retryable_faults(self):
        policy = RecoveryPolicy()
        assert policy.is_retryable(RankFailure("x"))
        assert policy.is_retryable(InjectedFault("x"))
        assert policy.is_retryable(CorruptPayload("x"))
        assert policy.is_retryable(DiskFull("x"))
        assert policy.is_retryable(MPIError("x"))

    def test_not_retryable(self):
        policy = RecoveryPolicy()
        # A collective-protocol violation is a programming error: the
        # retry would deterministically hit it again.
        assert not policy.is_retryable(CollectiveMisuse("x"))
        assert not policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(KeyboardInterrupt())


class TestRecoveryWithoutCheckpoint:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_then_bit_identical(self, relation, backend):
        base = build(relation, backend)
        res = build(
            relation,
            backend,
            faults=FaultPlan.parse("crash@r1s6"),
            recovery=RecoveryPolicy(max_retries=2),
        )
        assert res.metrics.attempts == 2
        assert fingerprint(res) == fingerprint(base)
        # Honest accounting: the wasted attempt inflates simulated time.
        assert res.metrics.recovered_seconds > 0
        assert (
            res.metrics.simulated_seconds
            > base.metrics.simulated_seconds
        )
        assert "recovered after 1 failed attempt" in res.metrics.summary()
        # The failed attempt's reads are banked with its blocks: retrying
        # from scratch re-reads at least everything a clean build reads.
        m = res.metrics
        assert m.disk_blocks_read + m.disk_blocks_written == m.disk_blocks
        assert m.disk_blocks_read > base.metrics.disk_blocks_read > 0

    def test_a_failed_attempt_banks_the_segment_it_was_entering(
        self, relation
    ):
        """Rank 1 dies at superstep 6: the attempt banks supersteps 0-5
        and the local work every rank did towards superstep 6, as the
        fault-free build's clock prices them."""
        log = build(relation, "thread").metrics.superstep_log
        m = build(
            relation, "thread", faults=FaultPlan.parse("crash@r1s6"),
            recovery=RecoveryPolicy(max_retries=2),
        ).metrics
        done = sum(r.compute_seconds + r.comm_seconds for r in log[:6])
        assert m.recovered_seconds == pytest.approx(
            done + log[6].compute_seconds, rel=1e-12
        )
        assert log[6].compute_seconds > 0

    @requires_fork
    def test_a_failed_attempt_banks_the_same_blocks_on_both_backends(
        self, relation
    ):
        """Each rank of the failed attempt is banked as of the collective
        at which the attempt failed, the segment it was entering included:
        five thread runs bank one number of blocks and seconds, the
        process backend's."""

        def banked(backend):
            m = build(
                relation, backend, p=3, faults=FaultPlan.parse("crash@r1s6"),
                recovery=RecoveryPolicy(max_retries=2),
            ).metrics
            return m.recovered_blocks, m.disk_blocks, m.recovered_seconds

        process = banked("process")
        assert process[0] > 0
        assert {banked("thread") for _ in range(5)} == {process}


class TestRecoveryWithCheckpoint:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_is_bit_identical(self, relation, backend, tmp_path):
        base = build(relation, backend)
        res = build(
            relation,
            backend,
            faults=FaultPlan.parse("crash@r1s22"),
            checkpoint_dir=str(tmp_path),
            recovery=RecoveryPolicy(max_retries=2),
        )
        assert res.metrics.attempts == 2
        assert fingerprint(res) == fingerprint(base)
        # The crashed attempt completed at least one dimension iteration,
        # so the retry resumed from its checkpoint.
        ck = RankCheckpoint(str(tmp_path), rank=0)
        assert ck.last_complete() >= 0

    def test_resume_derives_the_next_root_from_the_sealed_root_view(
        self, relation, tmp_path, charged
    ):
        """A seal holds no Di-root of its own: a build resumed after
        iteration 0 derives step 1a from its piece of the sealed D0-root
        view (then from its piece of the D1-root view it merges), never
        the raw chunk, and ends bit-identical to the build that sealed it.
        The sealed D0-root piece is the only read: the rest of the seal
        is handed over unread, and both root pieces fit the budget and
        stay resident into the next step 1a."""
        first = build(relation, "thread", checkpoint_dir=str(tmp_path))
        for rank in range(2):
            path = RankCheckpoint(str(tmp_path), rank)._manifest_path()
            with open(path, encoding="utf-8") as fh:
                head, ordinal0 = [line for line in fh if line.strip()][:2]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(head + ordinal0)
        charged.clear()
        again = build(relation, "thread", checkpoint_dir=str(tmp_path))
        assert fingerprint(again) == fingerprint(first)
        for rank in range(2):
            pieces = first.rank_views[rank]
            sealed = sum(
                data.nrows for view, data in pieces.items() if 0 in view
            )
            assert 0 < pieces[0, 1, 2].nrows < sealed
            assert charged[rank, "recovery", "r"] == pieces[0, 1, 2].nrows
            assert charged[rank, "partition-sort", "r"] == 0

    def test_checkpoint_io_is_metered(
        self, relation, tmp_path, charged, merge_calls
    ):
        """Every piece of this build stays resident until its merge, so a
        plain build writes each merged piece once, whole, and nothing
        else; a seal is that same self-contained copy.  So the
        checkpointed build writes exactly the plain build's rows and
        blocks, and reads no more."""

        def rows(way):
            return sum(n for (_, _, w), n in charged.items() if w == way)

        plain = build(relation, "thread")
        plain_written, plain_read = rows("w"), rows("r")
        assert plain_written == sum(
            data.nrows
            for _, _, merged, _, _ in merge_calls
            for data in merged.values()
        ) > 0
        charged.clear()
        ckpt = build(relation, "thread", checkpoint_dir=str(tmp_path))
        assert fingerprint(ckpt) == fingerprint(plain)
        assert (rows("w"), rows("r")) == (plain_written, plain_read)
        assert ckpt.metrics.disk_blocks == plain.metrics.disk_blocks
        assert (
            ckpt.metrics.disk_blocks_read == plain.metrics.disk_blocks_read
        )
        # the resume point's allreduce is the one superstep it adds
        assert ckpt.metrics.simulated_seconds > plain.metrics.simulated_seconds

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_replayed_chain_is_handed_over_as_maps_of_its_seals(
        self, relation, backend, tmp_path
    ):
        """A build over a finished chain replays every iteration and
        reads none: its ranks return references, so no result segment is
        written, and the cube's pieces are read-only maps of the seals."""
        first = build(relation, backend, checkpoint_dir=str(tmp_path))
        again = build(relation, backend, checkpoint_dir=str(tmp_path))
        assert fingerprint(again) == fingerprint(first)
        assert again.metrics.shm_pool.get("segments_created", 0) == 0
        for views in again.rank_views:
            for data in views.values():
                assert mmap_of(data.keys) is not None
                assert not data.measure.flags.writeable

    def test_fresh_checkpointed_build_matches(self, relation, tmp_path):
        """A fault-free build with checkpointing produces the same cube
        (checkpoints only add I/O, never change results)."""
        a = build(relation, "thread")
        b = build(relation, "thread", checkpoint_dir=str(tmp_path))
        assert fingerprint(a) == fingerprint(b)


def _file_rows(root, rank):
    """Rows physically in one rank's chain files: after the header every
    row is an int64 key and a float64 measure, and nothing else is there."""
    rank_dir = os.path.join(str(root), f"rank{rank:02d}")
    rows = 0
    for name in os.listdir(rank_dir):
        if name.endswith(".seal"):
            path = os.path.join(rank_dir, name)
            with open(path, "rb") as fh:
                head = int.from_bytes(fh.read(8), "little")
            body = os.path.getsize(path) - (8 + head + -head % 8)
            assert body % 16 == 0
            rows += body // 16
    return rows


class TestWriteOnceAccounting:
    """The model charges exactly the rows the chain physically holds."""

    @pytest.mark.parametrize("partial", [False, True])
    def test_rows_charged_equal_rows_written(
        self, relation, tmp_path, charged, partial
    ):
        """The full cube, and a partial one that selects no ``Di``-root
        (so that no seal holds the source of the next step 1a): sealing
        is the step-3 write and the checkpoint phase adds none."""
        build(
            relation,
            "thread",
            selected=[(0,), (0, 2), (1,), ()] if partial else None,
            checkpoint_dir=str(tmp_path),
        )
        for rank in range(2):
            assert charged[rank, "merge", "w"] == _file_rows(tmp_path, rank) > 0
            assert charged[rank, "checkpoint", "w"] == 0

    def test_rows_charged_equal_rows_resumed(
        self, relation, tmp_path, charged
    ):
        first = build(relation, "thread", checkpoint_dir=str(tmp_path))
        on_disk = [_file_rows(tmp_path, rank) for rank in range(2)]
        charged.clear()
        again = build(relation, "thread", checkpoint_dir=str(tmp_path))
        assert fingerprint(again) == fingerprint(first)
        for rank in range(2):
            # The whole chain replays and no step 1a follows it: every
            # piece is handed over from its seal, unread and unrewritten.
            assert on_disk[rank] > 0
            assert charged[rank, "recovery", "r"] == 0
            assert charged[rank, "recovery", "w"] == 0
            assert charged[rank, "merge", "w"] == 0


def test_numpy_row_counts_do_not_poison_the_manifest(tmp_path):
    """Row counts that are differences of ``searchsorted`` results reach
    the charge hooks as NumPy integers; the counters must stay plain
    numbers all the same, and so must the row count a seal writes into
    its JSON manifest line."""
    disk = LocalDisk(block_size=4)
    disk.charge_scan(np.int64(9))
    disk.charge_store(np.int64(5))
    disk.work.charge_scan(np.int64(9))
    disk.work.charge_sort(np.int64(9), np.int64(3))
    assert {type(v) for v in disk.stats.snapshot().values()} == {int}
    assert type(disk.work.rows_scanned) is type(disk.work.rows_sorted) is int
    assert type(disk.work.seconds) is float
    ck = RankCheckpoint(str(tmp_path), rank=0)
    ck.save(0, 0, TestRankCheckpoint()._payload(1))
    rows = RankCheckpoint(str(tmp_path), rank=0).entry(0)["rows"]
    assert type(rows) is int and rows == 4


def _kill_while_sealing(marker, rank, ordinal, before_dying):
    """A ``RankCheckpoint._append_manifest`` that, the first time ``rank``
    seals ``ordinal``, runs ``before_dying`` in place of the append, notes
    in ``marker`` where the chain then ends, and kills the rank.  The
    marker is a file so that the once-flag survives forked ranks."""
    append = RankCheckpoint._append_manifest

    def patched(self, entry):
        mine = (self.rank, entry["ordinal"]) == (rank, ordinal)
        if not mine or os.path.exists(marker):
            return append(self, entry)
        before_dying(self, entry)
        assert os.path.exists(os.path.join(self.dir, entry["seals"][0]["file"]))
        chain = RankCheckpoint(os.path.dirname(self.dir), rank)
        with open(marker, "w") as fh:
            fh.write(str(chain.last_complete()))
        raise InjectedFault("killed while sealing", rank=rank)

    return patched


def _tear_line(ckpt, entry):
    with open(ckpt._manifest_path(), "a", encoding="utf-8") as fh:
        fh.write("\n" + json.dumps(entry)[:40])


class TestSealCrashPoints:
    """Kill a rank between the two durable steps of a seal: the data
    file is in place, the manifest line naming it missing or torn."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "before_dying",
        [lambda ckpt, entry: None, _tear_line],
        ids=["before-manifest-append", "torn-manifest-line"],
    )
    def test_resume_point_stays_behind(
        self, relation, backend, before_dying, tmp_path, monkeypatch
    ):
        base = build(relation, backend)
        marker = str(tmp_path / "fired")
        monkeypatch.setattr(
            RankCheckpoint,
            "_append_manifest",
            _kill_while_sealing(marker, 1, 1, before_dying),
        )
        res = build(
            relation,
            backend,
            checkpoint_dir=str(tmp_path),
            recovery=RecoveryPolicy(max_retries=2),
        )
        # Killed sealing ordinal 1, the chain still ended at ordinal 0.
        assert open(marker).read() == "0"
        assert res.metrics.attempts == 2
        assert fingerprint(res) == fingerprint(base)
        # The retry appended after the torn line and the chain healed.
        assert RankCheckpoint(str(tmp_path), 1).last_complete() == len(CARDS) - 1


def _damage_seal(path, damage, body_at, at=None):
    """Tear a seal's body off, or flip one byte: in its header, or at
    ``at`` (a piece's bytes)."""
    blob = bytearray(open(path, "rb").read())
    if damage == "torn-body":
        blob = blob[: (body_at + len(blob)) // 2]
    else:
        blob[body_at // 2 if at is None else at] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _keep_ordinals(root, rank, n):
    """Cut one rank's manifest back to its first ``n`` seals."""
    path = RankCheckpoint(str(root), rank)._manifest_path()
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines[: n + 1]))


def _flip_piece(root, rank, ordinal, pick):
    """Flip the first measure byte of the piece ``pick`` chooses among
    one seal's pieces; returns the seal's path."""
    ck = RankCheckpoint(str(root), rank)
    _, pieces = ck._open(ck.entry(ordinal))
    piece = pick(pieces)
    assert piece.rows > 0
    _damage_seal(piece.path, "flip", piece.keys_at, at=piece.measure_at)
    return piece.path


class TestSealCorruption:
    """A damaged seal byte never reaches a caller: a header or size fault
    truncates the chain before the run, a piece fault fails the run where
    the piece is read or handed over, quarantines its seal and takes the
    transient row, so the retry resumes from the ordinal before it."""

    @pytest.fixture
    def failures(self, monkeypatch):
        seen = []
        fail = cube_mod._fail

        def spy(job, att, lane, *args):
            seen.append(type(lane.exc))
            return fail(job, att, lane, *args)

        monkeypatch.setattr(cube_mod, "_fail", spy)
        return seen

    def _retried(self, relation, backend, root, failures, path):
        base = build(relation, backend)
        res = build(
            relation, backend, checkpoint_dir=str(root),
            recovery=RecoveryPolicy(max_retries=2),
        )
        assert fingerprint(res) == fingerprint(base)
        assert res.metrics.attempts == 2
        assert failures == [CheckpointError]
        assert os.path.exists(path + ".quarantined")
        # The retry resumed before the quarantined seal and sealed anew.
        assert RankCheckpoint(str(root), 1).last_complete() == len(CARDS) - 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_handed_over_piece_fails_the_run(
        self, relation, backend, tmp_path, failures
    ):
        """A finished chain replays without a read; the flipped byte in a
        non-root piece is caught when the driver maps it."""
        build(relation, backend, checkpoint_dir=str(tmp_path))
        path = _flip_piece(
            tmp_path, 1, 1,
            lambda pieces: max(pieces[1:], key=lambda piece: piece.rows),
        )
        self._retried(relation, backend, tmp_path, failures, path)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_root_piece_fails_the_replay(
        self, relation, backend, tmp_path, failures
    ):
        """A chain cut back to ordinal 1 replays it and reads its root
        piece for the next step 1a; the flipped byte fails that read."""
        build(relation, backend, checkpoint_dir=str(tmp_path))
        for rank in range(2):
            _keep_ordinals(tmp_path, rank, 2)
        path = _flip_piece(
            tmp_path, 1, 1,
            lambda pieces: next(p for p in pieces if p.view == (1, 2)),
        )
        self._retried(relation, backend, tmp_path, failures, path)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("damage", ["torn-body", "flipped-header"])
    def test_corrupt_seal_header_or_size_truncates_before_the_run(
        self, relation, backend, damage, tmp_path, failures
    ):
        base = build(relation, backend, checkpoint_dir=str(tmp_path))
        ck = RankCheckpoint(str(tmp_path), 1)
        _, pieces = ck._open(ck.entry(1))
        _damage_seal(pieces[0].path, damage, pieces[0].keys_at)
        assert ck.last_complete() == 0
        res = build(
            relation, backend, checkpoint_dir=str(tmp_path),
            recovery=RecoveryPolicy(max_retries=2),
        )
        assert fingerprint(res) == fingerprint(base)
        assert res.metrics.attempts == 1 and failures == []
        assert ck.last_complete() == len(CARDS) - 1


class TestFailedAttemptIsReleased:
    """Both relaunching states, the retry and the degrade, let go of the
    failed attempt's cluster (and with it every rank frame its traceback
    pinned) before the next run starts."""

    def _check_released(self, relation, monkeypatch, **policy):
        from repro.core import cube as cube_mod

        born, alive_at_run = [], []

        class SpyCluster(cube_mod.Cluster):
            def run(self, *args, **kw):
                gc.collect()
                alive_at_run.extend(ref() is not None for ref in born)
                born.append(weakref.ref(self))
                return super().run(*args, **kw)

        monkeypatch.setattr(cube_mod, "Cluster", SpyCluster)
        res = build(
            relation,
            "thread",
            faults=FaultPlan.parse("crash@r1s6"),
            recovery=RecoveryPolicy(**policy),
        )
        assert res.metrics.attempts == 2
        assert alive_at_run == [False]

    def test_retry_runs_without_the_failed_cluster(self, relation, monkeypatch):
        self._check_released(relation, monkeypatch, max_retries=2)

    def test_degrade_runs_without_the_failed_cluster(
        self, relation, monkeypatch
    ):
        self._check_released(
            relation, monkeypatch, mode="degrade", max_retries=0
        )


CHAOS_PLANS = {
    "crash": "crash@r1s9",
    "corrupt": "corrupt@r0s7",
    "delay": "delay@r1s5x0.4",
    "diskfull": "diskfull@r1b4",
}


class TestChaosMatrix:
    """Every fault kind on every backend, with and without checkpoints:
    the build either recovers bit-identically or fails cleanly with the
    originating error — never a hang, never a wrong answer."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", sorted(CHAOS_PLANS))
    def test_recovers_or_fails_cleanly(
        self, relation, fault, backend, tmp_path
    ):
        base = build(relation, backend)
        for ckpt in (None, str(tmp_path)):
            try:
                res = build(
                    relation,
                    backend,
                    faults=FaultPlan.parse(CHAOS_PLANS[fault]),
                    checkpoint_dir=ckpt,
                    recovery=RecoveryPolicy(max_retries=2),
                )
            except (InjectedFault, CorruptPayload, RankFailure) as exc:
                pytest.fail(f"retryable fault not recovered: {exc!r}")
            assert fingerprint(res) == fingerprint(base)
            expected_attempts = 1 if fault == "delay" else 2
            assert res.metrics.attempts == expected_attempts

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diskfull_fires_before_the_last_superstep(
        self, relation, backend, monkeypatch, tmp_path
    ):
        """The chaos cell's quota trips mid-build, with and without
        checkpoints.  A piece left in memory is written after its merge,
        so a quota trips later than when Pipesort wrote every piece; a
        quota that only tripped in the last superstep, or never, would
        leave the cell testing nothing."""
        from repro.core import cube as cube_mod

        steps = []

        class SpyCluster(cube_mod.Cluster):
            def run(self, *args, **kw):
                try:
                    return super().run(*args, **kw)
                finally:
                    steps.append(len(self.clock.log))

        monkeypatch.setattr(cube_mod, "Cluster", SpyCluster)
        for ckpt in (None, tmp_path):
            steps.clear()
            build(
                relation, backend,
                checkpoint_dir=None if ckpt is None else str(ckpt / "clean"),
            )
            build(
                relation, backend,
                faults=FaultPlan.parse(CHAOS_PLANS["diskfull"]),
                checkpoint_dir=None if ckpt is None else str(ckpt / "chaos"),
                recovery=RecoveryPolicy(max_retries=2),
            )
            clean, failed, _ = steps
            assert 0 < failed < clean, (ckpt, failed, clean)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_chaos_plan_runs(self, relation, backend, monkeypatch):
        """A seeded random plan either recovers or surfaces its own
        fault type — exercised end-to-end as the CI chaos job does — and
        every fault of it fires: each fails the attempt it addresses with
        its own error.  Seed 72's plan draws one fault per attempt, a
        disk-full among them, whose quota trips in this build (rank 1
        writes 7 blocks)."""
        from repro.core import cube as cube_mod

        plan = FaultPlan.random(
            seed=72, p=2, n_faults=2, attempts=2,
            kinds=("crash", "corrupt", "diskfull"),
        )
        errors = {
            "crash": InjectedFault, "corrupt": CorruptPayload,
            "diskfull": DiskFull,
        }
        expected = sorted(
            ((f.epoch or 0, errors[f.kind]) for f in plan.faults),
            key=lambda failure: failure[0],
        )
        failures = []
        fail = cube_mod._fail

        def spy(job, att, lane, *args):
            failures.append((att.index - 1, type(lane.exc)))
            return fail(job, att, lane, *args)

        monkeypatch.setattr(cube_mod, "_fail", spy)
        base = build(relation, backend)
        res = None
        try:
            res = build(
                relation,
                backend,
                faults=plan,
                recovery=RecoveryPolicy(max_retries=3),
            )
        except (InjectedFault, CorruptPayload, RankFailure, MPIError):
            pass  # clean failure is acceptable for stacked random faults
        assert failures == expected, plan.describe()
        if res is not None:
            assert fingerprint(res) == fingerprint(base)
