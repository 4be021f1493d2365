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
import weakref

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.checkpoint import RankCheckpoint
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

from .conftest import make_relation

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
        rows = ck.save(0, 2, self._payload(1), meters={"phase": "x"})
        assert rows == 4  # the views' rows and nothing else
        ck.save(1, 1, self._payload(2))
        assert ck.last_complete() == 1
        payload, loaded_rows = ck.load(1)
        assert loaded_rows == 4
        np.testing.assert_array_equal(
            payload["views"][(0,)].measure, np.full(4, 2.0)
        )
        assert ck.entry(0)["meters"] == {"phase": "x"}
        np.testing.assert_array_equal(
            payload["views"][(0,)].keys, np.arange(4)
        )
        # Arrays come back in place over the read buffer, still writable.
        payload["views"][(0,)].measure[0] = 7.0

    def test_last_complete_hands_verified_payloads_to_load(
        self, tmp_path, monkeypatch
    ):
        ck = RankCheckpoint(str(tmp_path), rank=0)
        for ordinal in range(3):
            ck.save(ordinal, ordinal, self._payload(ordinal))
        reads = []
        original = RankCheckpoint._read_payload

        def counting(self, entry):
            reads.append(entry["file"])
            return original(self, entry)

        monkeypatch.setattr(RankCheckpoint, "_read_payload", counting)
        fresh = RankCheckpoint(str(tmp_path), rank=0)
        assert fresh.last_complete() == 2
        for ordinal in range(3):
            payload, _ = fresh.load(ordinal)
            assert payload["views"][(0,)].measure[0] == float(ordinal)
        # A resume reads and CRCs each chain file exactly once.
        assert sorted(reads) == ["iter000.seal", "iter001.seal", "iter002.seal"]

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
        assert json.loads(raw.splitlines()[0]) == {"version": 4}

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

    @requires_fork
    def test_a_failed_attempt_banks_the_same_blocks_on_both_backends(
        self, relation
    ):
        """Each rank of the failed attempt is banked as of the collective
        at which the attempt failed: five thread runs bank one number of
        blocks, the process backend's."""

        def banked(backend):
            m = build(
                relation, backend, p=3, faults=FaultPlan.parse("crash@r1s6"),
                recovery=RecoveryPolicy(max_retries=2),
            ).metrics
            return m.recovered_blocks, m.disk_blocks

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
        The replayed seal is the only read: both root pieces fit the
        budget and stay resident into the next step 1a."""
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
            assert charged[rank, "recovery", "r"] == sealed
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
            # The whole chain replays: read once, nothing rewritten.
            assert charged[rank, "recovery", "r"] == on_disk[rank]
            assert charged[rank, "recovery", "w"] == 0
            assert charged[rank, "merge", "w"] == 0


def test_numpy_row_counts_do_not_poison_the_manifest(tmp_path):
    """Row counts that are differences of ``searchsorted`` results reach
    the charge hooks as NumPy integers; the counters a seal snapshots into
    its JSON manifest line must stay plain numbers all the same."""
    disk = LocalDisk(block_size=4)
    disk.charge_scan(np.int64(9))
    disk.charge_store(np.int64(5))
    disk.work.charge_scan(np.int64(9))
    disk.work.charge_sort(np.int64(9), np.int64(3))
    meters = {"disk": disk.stats.snapshot(), "work_seconds": disk.work.seconds}
    assert {type(v) for v in meters["disk"].values()} == {int}
    assert type(disk.work.rows_scanned) is type(disk.work.rows_sorted) is int
    assert type(disk.work.seconds) is float
    ck = RankCheckpoint(str(tmp_path), rank=0)
    payload = {"views": {}, "report": None, "tree": None}
    ck.save(0, 0, payload, meters=meters)
    assert RankCheckpoint(str(tmp_path), rank=0).entry(0)["meters"] == meters


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
        assert os.path.exists(os.path.join(self.dir, entry["file"]))
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


class TestFailedAttemptIsReleased:
    def test_retry_runs_without_the_failed_cluster(self, relation, monkeypatch):
        from repro.core import cube as cube_mod

        born, alive_at_retry = [], []

        class SpyCluster(cube_mod.Cluster):
            def run(self, *args, **kw):
                gc.collect()
                alive_at_retry.extend(ref() is not None for ref in born)
                born.append(weakref.ref(self))
                return super().run(*args, **kw)

        monkeypatch.setattr(cube_mod, "Cluster", SpyCluster)
        res = build(
            relation,
            "thread",
            faults=FaultPlan.parse("crash@r1s6"),
            recovery=RecoveryPolicy(max_retries=2),
        )
        assert res.metrics.attempts == 2
        # The failed attempt's cluster (and with it every rank frame its
        # traceback pinned) was collectable before the retry started.
        assert alive_at_retry == [False]

    @pytest.mark.parametrize(
        "plan", ["hang@r1s20a0", "hang@r1s20a0;hang@r1s2a1"],
        ids=["primary-wins", "backup-wins"],
    )
    def test_race_lanes_run_without_earlier_clusters(
        self, relation, monkeypatch, tmp_path, plan
    ):
        """A speculative race lets go of the hung attempt before either
        lane starts, and of the primary lane's cluster (a failure's
        traceback, or a result's run) before the backup runs."""
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
            faults=FaultPlan.parse(plan),
            checkpoint_dir=str(tmp_path),
            recovery=RecoveryPolicy(speculate=True),
        )
        assert res.metrics.speculations == 1
        # Primary lane: the hung attempt is gone; backup lane: both are.
        assert alive_at_run == [False, False, False]


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
        its own error.  Seed 72 is the first seed whose plan draws one
        fault per attempt, a disk-full among them, and whose quota trips
        in this build (rank 1 writes 7 blocks; most drawn quotas never
        trip)."""
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
