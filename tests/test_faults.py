"""Fault-injection harness tests (PR: robustness tentpole).

Covers the :mod:`repro.mpi.faults` plan grammar, the
:class:`FaultyTransport` semantics of every fault kind on both execution
backends, the sealed-payload wire contract (CRC surfacing corruption,
metering unchanged), every-rank collective validation, and the orphaned
shared-memory segment sweeper — including a worker SIGKILL'd while its
peers sit inside a collective.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.mpi import backends
from repro.mpi import faults as faults_mod
from repro.mpi import shm
from repro.mpi.engine import run_spmd
from repro.mpi.errors import (
    CollectiveMisuse,
    CorruptPayload,
    DiskFull,
    InjectedFault,
    MPIError,
    RankHung,
)
from repro.mpi.faults import GRAMMAR, Fault, FaultPlan

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)

BACKENDS = ["thread", pytest.param("process", marks=requires_fork)]


@st.composite
def fault_plans(draw):
    """Valid plans over both address spaces, drawn from the grammar
    table: every required field, any subset of the allowed ones."""
    faults = []
    for _ in range(draw(st.integers(1, 4))):
        kind, space = draw(st.sampled_from(sorted(GRAMMAR)))
        required, allowed = GRAMMAR[kind, space]
        letters = required + "".join(c for c in allowed if draw(st.booleans()))
        fields = {
            # x values print exactly under the grammar's %g
            faults_mod._FIELD[c]: draw(st.integers(1, 10**5)) / 100
            if c == "x"
            else draw(st.integers(0, 10**6))
            for c in letters
        }
        faults.append(Fault(kind, space, draw(st.integers(0, 63)), **fields))
    return FaultPlan(tuple(faults))


class TestFaultPlanGrammar:
    def test_parse_all_kinds(self):
        plan = FaultPlan.parse(
            "crash@r1s5; corrupt@r2s3, delay@r0s2x0.5; diskfull@r1b40"
        )
        assert plan.faults == (
            Fault("crash", "r", 1, 5),
            Fault("corrupt", "r", 2, 3),
            Fault("delay", "r", 0, 2, 0.5),
            Fault("diskfull", "r", 1, arg=40),
        )

    def test_parse_attempt_suffix(self):
        plan = FaultPlan.parse("crash@r0s1a2")
        assert plan.faults == (Fault("crash", "r", 0, 1, epoch=2),)
        assert plan.for_rank(0, 2) == [Fault("crash", "r", 0, 1, epoch=2)]
        assert plan.for_rank(0, 0) == []

    def test_defaults(self):
        plan = FaultPlan.parse("crash@r0s1;delay@r0s2;hang@w1q3;kill@w1q4g2")
        crash, delay, hang, kill = plan.faults
        assert delay.arg == 1.0 and hang.arg == 5.0
        # a rank fault without a<attempt> fires on attempt 0 only
        assert plan.for_rank(0, 0) == [crash, delay]
        assert plan.for_rank(0, 1) == []
        # a worker fault without g<generation> fires in every generation
        assert plan.for_worker(1, 0) == [hang]
        assert plan.for_worker(1, 2) == [hang, kill]

    @given(fault_plans())
    def test_describe_roundtrips(self, plan):
        assert FaultPlan.parse(plan.describe()) == plan

    @pytest.mark.parametrize(
        "bad",
        ["", "explode@r0s1", "crash@r0", "diskfull@r0s3", "crash@r0s1z9"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("crash@r1s5x2", "x"),
            ("slow@r0s3x2", "s"),
            ("diskfull@r1s3b40", "s"),
            ("crash@r1s5i2", "i"),
            ("kill@w0q5x3", "x"),
            ("kill@w0q5a1", "a"),
            ("crash@r1q5", "q"),
        ],
    )
    def test_parse_names_a_field_the_kind_does_not_read(self, spec, field):
        with pytest.raises(ValueError, match=f"takes no field {field}$"):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("kind", ["crash", "delay", "diskfull", "slow"])
    def test_rank_kinds_reject_a_worker_address(self, kind):
        with pytest.raises(ValueError, match="serving worker"):
            FaultPlan.parse(f"{kind}@w0q1")

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(seed=42, p=8)
        b = FaultPlan.random(seed=42, p=8)
        c = FaultPlan.random(seed=43, p=8)
        assert a == b
        assert a != c
        assert all(f.space == "r" and f.index < 8 for f in a.faults)

    def test_random_plans_are_stable(self):
        """Seeded chaos tests keep their plans: seeds 0-99 describe as
        they did before the grammar was unified."""
        text = "\n".join(
            FaultPlan.random(seed=s, p=4).describe() for s in range(100)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7f4d2104cfdf3fc617dde6dccb3162987557133052d6f7b27661d6a2ff9aa22d"
        )

    @pytest.mark.parametrize(
        "kind", sorted({k for k, space in GRAMMAR if space == "r"})
    )
    def test_random_draws_the_kind_asked_for(self, kind):
        plan = FaultPlan.random(seed=1, p=4, kinds=(kind,))
        assert [f.kind for f in plan.faults] == [kind, kind]

    def test_random_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="explode"):
            FaultPlan.random(seed=1, p=4, kinds=("crash", "explode"))

    def test_a_build_rejects_worker_faults(self):
        with pytest.raises(ValueError, match="kill@w0q5"):
            run_spmd(
                lambda c: c.rank,
                MachineSpec(p=2, backend="thread"),
                faults=FaultPlan.parse("crash@r0s9; kill@w0q5"),
            )


class TestFaultyTransport:
    """Fault semantics must be identical across backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_raises_injected_fault(self, backend):
        def prog(c):
            c.barrier()
            c.allgather(c.rank)
            return c.rank

        with pytest.raises(InjectedFault, match="rank 1.*superstep 1"):
            run_spmd(
                prog,
                MachineSpec(p=3, backend=backend),
                faults=FaultPlan.parse("crash@r1s1"),
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hang_raises_rank_hung(self, backend):
        def prog(c):
            c.barrier()
            c.barrier()

        with pytest.raises(RankHung, match="rank 1.*superstep 1") as exc:
            run_spmd(
                prog,
                MachineSpec(p=2, backend=backend),
                faults=FaultPlan.parse("hang@r1s1"),
            )
        assert exc.value.rank == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_surfaces_crc_failure(self, backend):
        def prog(c):
            return c.allgather(np.arange(64, dtype=np.int64) + c.rank)

        with pytest.raises(CorruptPayload, match="from rank 1.*CRC"):
            run_spmd(
                prog,
                MachineSpec(p=3, backend=backend),
                faults=FaultPlan.parse("corrupt@r1s0"),
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delay_charges_exact_simulated_seconds(self, backend):
        def prog(c):
            c.barrier()
            c.barrier()

        base = run_spmd(prog, MachineSpec(p=2, backend=backend))
        slow = run_spmd(
            prog,
            MachineSpec(p=2, backend=backend),
            faults=FaultPlan.parse("delay@r1s1x0.75"),
        )
        assert slow.clock.sim_time == pytest.approx(
            base.clock.sim_time + 0.75
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diskfull_trips_on_quota(self, backend):
        def prog(c):
            c.barrier()
            c.disk.charge_store(100_000)
            c.barrier()

        with pytest.raises(DiskFull, match="rank 1.*quota 3"):
            run_spmd(
                prog,
                MachineSpec(p=2, backend=backend),
                faults=FaultPlan.parse("diskfull@r1b3"),
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_attempt_gating(self, backend):
        """A fault bound to attempt 1 must not fire on attempt 0."""

        def prog(c):
            c.barrier()
            return c.rank

        plan = FaultPlan.parse("crash@r0s0a1")
        spec = MachineSpec(p=2, backend=backend)
        ok = run_spmd(prog, spec, faults=plan, attempt=0)
        assert ok.rank_results == [0, 1]
        with pytest.raises(InjectedFault):
            run_spmd(prog, spec, faults=plan, attempt=1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sealing_does_not_change_metering(self, backend):
        """CRC sealing is a wire-format detail: byte rows come from the
        unsealed payloads, so comm_bytes must match the plain run."""

        def prog(c):
            c.allgather(np.arange(500, dtype=np.int64))
            c.alltoall([np.arange(40, dtype=np.float64)] * c.size)
            c.allreduce(float(c.rank))

        spec = MachineSpec(p=3, backend=backend)
        plain = run_spmd(prog, spec)
        sealed = run_spmd(prog, spec, faults=FaultPlan())
        assert sealed.stats.total_bytes == plain.stats.total_bytes
        assert sealed.stats.bytes_by_kind == plain.stats.bytes_by_kind
        assert sealed.clock.sim_time == pytest.approx(plain.clock.sim_time)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sealed_collectives_return_same_values(self, backend):
        def prog(c):
            got = c.allgather(np.full(8, c.rank, dtype=np.int64))
            split = c.scatter(
                [f"to-{k}" for k in range(c.size)] if c.rank == 0 else None
            )
            lanes = c.alltoall(
                [None if k == c.rank else (c.rank, k) for k in range(c.size)]
            )
            return ([int(g[0]) for g in got], split, lanes)

        spec = MachineSpec(p=3, backend=backend)
        plain = run_spmd(prog, spec)
        sealed = run_spmd(prog, spec, faults=FaultPlan())
        assert plain.rank_results == sealed.rank_results

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_alltoall_surfaces_crc_failure(self, backend):
        def prog(c):
            return c.alltoall(
                [np.arange(64, dtype=np.int64) + k for k in range(c.size)]
            )

        with pytest.raises(CorruptPayload, match="from rank 1.*CRC"):
            run_spmd(
                prog,
                MachineSpec(p=3, backend=backend),
                faults=FaultPlan.parse("corrupt@r1s0"),
            )

    def test_an_alltoall_reader_unseals_only_its_own_lanes(self, monkeypatch):
        """Lanes are sealed one by one, so each lane is unpickled once,
        by the rank it is addressed to, not once per reader."""
        sealed, unsealed = [], []
        real_seal, real_unseal = faults_mod._seal, faults_mod._unseal

        def seal(payload, source):
            out = real_seal(payload, source)
            sealed.append(len(out.data))
            return out

        def unseal(slot, reader_rank):
            if slot is not None:
                unsealed.append(len(slot.data))
            return real_unseal(slot, reader_rank)

        monkeypatch.setattr(faults_mod, "_seal", seal)
        monkeypatch.setattr(faults_mod, "_unseal", unseal)

        def prog(c):
            return c.alltoall(
                [np.arange(512, dtype=np.int64) + k for k in range(c.size)]
            )

        run_spmd(prog, MachineSpec(p=3, backend="thread"), faults=FaultPlan())
        assert len(sealed) == len(unsealed) == 9
        assert sum(unsealed) == sum(sealed)


class TestCollectiveValidation:
    """Satellite: misuse diagnostics carry rank + phase, and length
    checks run on *every* rank, not just the root."""

    def test_scatter_wrong_length_nonroot(self):
        def prog(c):
            c.set_phase("shuffle")
            # Rank 1 passes a wrong-length list even though it is not
            # the root — must be rejected locally, before the exchange.
            values = [0] * (c.size + 1) if c.rank == 1 else None
            if c.rank == 0:
                values = [0] * c.size
            return c.scatter(values, root=0)

        with pytest.raises(
            CollectiveMisuse, match=r"rank 1 \[phase shuffle\].*scatter"
        ):
            run_spmd(prog, MachineSpec(p=3, backend="thread"))

    def test_scatter_root_none(self):
        def prog(c):
            return c.scatter(None, root=0)

        with pytest.raises(CollectiveMisuse, match=r"rank 0 \[phase"):
            run_spmd(prog, MachineSpec(p=2, backend="thread"))

    def test_alltoall_wrong_lane_count(self):
        def prog(c):
            c.set_phase("partition")
            lanes = [None] * (c.size - 1) if c.rank == 2 else [None] * c.size
            return c.alltoall(lanes)

        with pytest.raises(
            CollectiveMisuse, match=r"rank 2 \[phase partition\].*lanes"
        ):
            run_spmd(prog, MachineSpec(p=3, backend="thread"))

    def test_allreduce_bad_op(self):
        def prog(c):
            return c.allreduce(1.0, op="median")

        with pytest.raises(CollectiveMisuse, match=r"rank \d \[phase"):
            run_spmd(prog, MachineSpec(p=2, backend="thread"))


class TestOrphanSweep:
    """Satellite: stale segments from dead creators are reclaimed."""

    def test_dead_pid_segment_swept_live_kept(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=lambda: None)
        proc.start()
        proc.join()
        dead_pid = proc.pid
        dead_name = f"rp{dead_pid}x{'0a' * 4}"
        live_name = f"rp{os.getpid()}x{'0b' * 4}"
        for name in (dead_name, live_name):
            with open(os.path.join("/dev/shm", name), "wb") as fh:
                fh.write(b"\0" * 16)
        try:
            swept = shm.sweep_orphans()
            assert dead_name in swept
            assert not os.path.exists(os.path.join("/dev/shm", dead_name))
            assert os.path.exists(os.path.join("/dev/shm", live_name))
        finally:
            for name in (dead_name, live_name):
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except FileNotFoundError:
                    pass

    def test_targeted_sweep_ignores_other_dead_pids(self):
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=lambda: None) for _ in range(2)]
        for proc in procs:
            proc.start()
            proc.join()
        names = [f"rp{proc.pid}x{'0c' * 4}" for proc in procs]
        for name in names:
            with open(os.path.join("/dev/shm", name), "wb") as fh:
                fh.write(b"\0" * 16)
        try:
            swept = shm.sweep_orphans(pids=[procs[0].pid])
            assert names[0] in swept
            assert os.path.exists(os.path.join("/dev/shm", names[1]))
        finally:
            for name in names:
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except FileNotFoundError:
                    pass

    def test_segment_names_carry_creator_pid(self):
        name, fd = shm._create_segment()
        os.close(fd)
        try:
            m = shm._SEGMENT_RE.match(name)
            assert m is not None
            assert int(m.group(1)) == os.getpid()
        finally:
            shm.unlink(name)


def _sigkill_prog(c, path):
    big = np.arange(shm.SHM_MIN_BYTES // 8 + 7, dtype=np.int64)
    c.allgather(big)
    if c.rank == 1:
        # Leave a segment behind, then die without cleanup: what a
        # SIGKILL does to a rank writing its result.
        name, _ = shm._create_segment()
        with open(path, "w") as fh:
            fh.write(f"{os.getpid()} {name}")
        os.kill(os.getpid(), signal.SIGKILL)
    c.allgather(big)  # peers block here; rank 1 never arrives
    return c.rank


@requires_fork
class TestSigkillMidCollective:
    """Satellite: a SIGKILL'd worker must not wedge its peers or leak
    its shared-memory segments, and the failure must name the rank."""

    def test_peers_unblock_segments_swept(self, tmp_path):
        path = str(tmp_path / "victim")
        with pytest.raises(MPIError, match="rank 1 worker process died"):
            run_spmd(
                _sigkill_prog, MachineSpec(p=3, backend="process"), args=(path,)
            )
        pid_text, seg = open(path).read().split()
        assert not os.path.exists(os.path.join("/dev/shm", seg))
        leftovers = [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(f"rp{pid_text}x")
        ]
        assert leftovers == []


def _sigkill_mid_deliver_prog(c):
    lanes = [np.full(1 << 20, c.rank, dtype=np.int64) for _ in range(c.size)]
    c.alltoall(lanes)  # rank 1 dies with its 16 MB deliver in flight
    c.allgather(np.array([c.rank]))  # peers block here; rank 1 is gone
    return c.rank


@requires_fork
class TestSigkillMidLease:
    """Chaos cell for the pipe transport: a rank SIGKILLed while the
    coordinator is sending it a multi-MB deliver must not wedge the
    coordinator or its peers, and no segment may outlive the run."""

    def test_no_leaked_segments(self, tmp_path, monkeypatch):
        path = str(tmp_path / "victim")
        real = backends._ProcessTransport._recv

        def die_before_reading(self):
            if self.rank == 1:
                with open(path, "w") as fh:
                    fh.write(str(os.getpid()))
                time.sleep(0.3)  # the coordinator blocks mid-deliver
                os.kill(os.getpid(), signal.SIGKILL)
            return real(self)

        monkeypatch.setattr(
            backends._ProcessTransport, "_recv", die_before_reading
        )
        before = _orphans()
        with pytest.raises(MPIError, match="rank 1 worker process died"):
            run_spmd(
                _sigkill_mid_deliver_prog, MachineSpec(p=3, backend="process")
            )
        pid_text = open(path).read().strip()
        leaked = _orphans() - before
        assert not leaked, f"leaked segments: {sorted(leaked)}"
        assert not [
            n for n in os.listdir("/dev/shm") if n.startswith(f"rp{pid_text}x")
        ]


def _orphans() -> set[str]:
    """Segments whose creator is dead, whatever else runs on the host."""
    return {
        n
        for n in os.listdir("/dev/shm")
        if (m := shm._SEGMENT_RE.match(n))
        and not shm._pid_alive(int(m.group(1)))
    }
