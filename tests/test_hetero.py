"""Heterogeneity-aware partitioning and hang recovery.

Covers the rank speed model (clamped shares, apportionment, blending,
serialisation), speed-weighted pivots and share bounds, the ``slow@`` /
``hang@`` fault grammar and deterministic metering under both backends,
the supervisor's ``suspect_after`` deadline boundary, and a hung rank's
retry on the process backend (its thread-backend legs are rows of
``tests/test_transitions.py``).
"""

from __future__ import annotations

import tempfile
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.checkpoint import share_bounds
from repro.core.cube import build_data_cube
from repro.core.sample_sort import _select_pivots, relative_imbalance
from repro.mpi.engine import Cluster
from repro.mpi.errors import RankHung
from repro.mpi.faults import FaultPlan
from repro.mpi.speed import HeteroState, RankSpeedModel, clamped_shares
from repro.mpi.stats import throughput_rates
from repro.storage.table import Relation

from .conftest import make_relation
from .test_degraded import content_fingerprint, requires_fork

CARDS = (8, 6, 5)


@pytest.fixture(scope="module")
def relation():
    raw = make_relation(1500, CARDS, seed=17)
    # Integer-valued measures so regrouped rows aggregate bit-exactly
    # regardless of partition layout (float summation order differs).
    return Relation(raw.dims, np.floor(raw.measure))


def build(relation, backend, p=3, *, hetero=False, **kw):
    return build_data_cube(
        relation, CARDS, MachineSpec(p=p, backend=backend),
        CubeConfig(hetero=hetero), **kw,
    )


# ---------------------------------------------------------------------------
# speed model
# ---------------------------------------------------------------------------


class TestClampedShares:
    def test_uniform_speeds_give_uniform_shares(self):
        shares = clamped_shares(np.ones(4))
        assert np.allclose(shares, 0.25)

    def test_shares_sum_to_one_and_respect_bounds(self):
        for speeds in ([0.2, 1.0, 1.0, 1.8], [0.01, 1, 1, 1], [5, 1, 1, 1]):
            shares = clamped_shares(np.asarray(speeds, dtype=float))
            assert shares.sum() == pytest.approx(1.0)
            p = len(speeds)
            assert (shares >= 0.5 / p - 1e-9).all()
            assert (shares <= 2.0 / p + 1e-9).all()

    def test_faster_rank_gets_larger_share(self):
        shares = clamped_shares(np.asarray([0.5, 1.0, 1.5, 1.0]))
        assert shares[0] < shares[1] < shares[2]

    def test_single_rank(self):
        assert clamped_shares(np.asarray([3.0])) == pytest.approx([1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one rank"):
            clamped_shares(np.ones(0))


class TestRankSpeedModel:
    def test_from_rates_normalises_to_mean_one(self):
        m = RankSpeedModel.from_rates([10.0, 20.0, 30.0])
        assert np.mean(m.speeds) == pytest.approx(1.0)
        assert m.speeds[0] < m.speeds[1] < m.speeds[2]

    def test_counts_apportion_exactly(self):
        m = RankSpeedModel.from_rates([0.5, 1.0, 1.0, 1.5])
        for total in (0, 1, 97, 4000):
            counts = m.counts(total)
            assert counts.sum() == total
        counts = m.counts(7000)
        # Slow rank gets the clamped smaller piece, fast the larger.
        assert counts[0] < counts[1] <= counts[3]

    def test_counts_deterministic(self):
        m = RankSpeedModel.from_rates([1.0, 1.0, 1.0])
        assert list(m.counts(100)) == list(m.counts(100))

    def test_restrict_drops_lost_rank(self):
        m = RankSpeedModel.from_rates([0.5, 1.0, 1.5, 1.0])
        r = m.restrict([0, 2, 3])
        assert r.p == 3
        assert np.mean(r.speeds) == pytest.approx(1.0)
        # Relative ordering of the survivors is preserved.
        assert r.speeds[0] < r.speeds[2] < r.speeds[1]

    def test_blend_moves_toward_new_rates(self):
        m = RankSpeedModel.from_rates([1.0, 1.0])
        b = m.blend([0.5, 1.5], alpha=0.5)
        assert b.speeds[0] < 1.0 < b.speeds[1]

    def test_dict_round_trip(self):
        m = RankSpeedModel.from_rates([0.7, 1.3])
        d = m.to_dict()
        r = RankSpeedModel.from_dict(d)
        assert r == m
        assert d["shares"] == pytest.approx(list(m.shares))

    def test_uniform(self):
        m = RankSpeedModel.uniform(5)
        assert m.shares == pytest.approx((0.2,) * 5)


class TestThroughputRates:
    def test_rates_proportional_to_rows_over_busy(self):
        rates = throughput_rates([100, 100], [1.0, 2.0])
        assert rates[0] == pytest.approx(2 * rates[1])

    def test_idle_rank_gets_mean_of_valid(self):
        rates = throughput_rates([100, 0, 100], [1.0, 0.0, 1.0])
        assert rates[1] == pytest.approx((rates[0] + rates[2]) / 2)

    def test_all_invalid_falls_back_to_ones(self):
        assert throughput_rates([0, 0], [0.0, 0.0]) == pytest.approx([1, 1])


class TestHeteroState:
    def test_observe_builds_then_blends(self):
        st = HeteroState(2)
        first = st.observe([(100, 2.0), (100, 1.0)])
        assert first.speeds[0] < first.speeds[1]
        # A contradicting second sample moves the model but, blended,
        # does not fully flip to the new snapshot.
        second = st.observe([(100, 1.0), (100, 2.0)])
        snapshot = RankSpeedModel.from_rates([100 / 1.0, 100 / 2.0])
        assert second.speeds[0] > first.speeds[0]
        assert second.speeds[0] < snapshot.speeds[0]

    def test_close_probe_needs_an_open_probe(self):
        """An unopened probe would sample the whole run; it raises."""
        with pytest.raises(RuntimeError, match="rank 1 without an open_probe"):
            HeteroState(2).close_probe(SimpleNamespace(rank=1))


# ---------------------------------------------------------------------------
# weighted pivots, imbalance, share bounds
# ---------------------------------------------------------------------------


class TestWeightedSelection:
    def test_uniform_shares_reduce_to_legacy_pivots(self):
        p, rho = 4, 2
        pool = np.sort(np.random.default_rng(0).integers(0, 1000, p * p))
        legacy = _select_pivots(pool, p, rho, None)
        uniform = _select_pivots(pool, p, rho, np.full(p, 1 / p))
        assert np.array_equal(legacy, uniform)

    def test_weighted_pivots_shift_toward_small_share(self):
        p = 4
        pool = np.arange(p * p, dtype=np.int64)
        skew = _select_pivots(pool, p, 0, np.asarray([0.1, 0.3, 0.3, 0.3]))
        flat = _select_pivots(pool, p, 0, np.full(p, 0.25))
        assert skew[0] < flat[0]

    def test_relative_imbalance_uniform_formula(self):
        sizes = np.asarray([90, 100, 110])
        assert relative_imbalance(sizes) == pytest.approx(10 / 100)

    def test_relative_imbalance_zero_at_exact_targets(self):
        sizes = np.asarray([50, 100, 150])
        assert relative_imbalance(sizes, sizes.copy()) == 0.0
        # The same layout is heavily imbalanced vs uniform targets.
        assert relative_imbalance(sizes) == pytest.approx(0.5)


class TestWeightedShareBounds:
    def test_uniform_path_unchanged(self):
        # The input deal keeps its layout (remainder on the lowest-index
        # shares); a degraded resume no longer cuts weighted shares.
        assert share_bounds(10, 3, 0) == (0, 4)
        assert [share_bounds(10, 3, j) for j in (1, 2)] == [(4, 7), (7, 10)]


# ---------------------------------------------------------------------------
# fault grammar + metering
# ---------------------------------------------------------------------------


class TestFaultGrammar:
    def test_parse_slow(self):
        plan = FaultPlan.parse("slow@r0x2")
        (f,) = plan.faults
        assert (f.kind, f.index, f.arg, f.iteration) == ("slow", 0, 2.0, None)

    def test_parse_slow_with_iteration_and_attempt(self):
        (f,) = FaultPlan.parse("slow@r2x1.5i3a1").faults
        assert (f.index, f.arg, f.iteration, f.epoch) == (2, 1.5, 3, 1)

    def test_parse_hang(self):
        (f,) = FaultPlan.parse("hang@r1s5").faults
        assert (f.kind, f.index, f.event) == ("hang", 1, 5)

    def test_describe_round_trips(self):
        spec = "slow@r0x2;hang@r1s5a1;slow@r2x1.5i3"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.describe()).faults == plan.faults

    def test_slow_requires_factor(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("slow@r0")

    def test_hang_requires_superstep(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("hang@r1")


class TestSlowMetering:
    def _slow_run(self, relation, backend):
        return build(
            relation, backend, faults=FaultPlan.parse("slow@r0x2"),
            recovery=RecoveryPolicy(max_retries=0), audit=True,
        )

    def test_slow_doubles_the_victims_busy_time(self, relation):
        # Against the same rank of an unslowed run: ranks do unequal merge
        # work (the last one never owns an overlap), so a peer is no
        # yardstick for the victim.
        base = build(relation, "thread").metrics.rank_busy_seconds
        cube = self._slow_run(relation, "thread")
        busy = cube.metrics.rank_busy_seconds
        # Every segment is stretched, the one after the last collective
        # (the final iteration's write-back) included: exactly 2x on the
        # modelled clock.
        assert busy[0] / base[0] == pytest.approx(2.0, rel=1e-9)
        assert busy[1:] == pytest.approx(base[1:])
        assert cube.metrics.audit["ok"]

    @pytest.mark.parametrize(
        "plan, factor",
        [("slow@r0x3", 3.0), ("slow@r0x3i2", 3.0), ("slow@r0x3i1", 1.0),
         ("slow@r1x3", 1.0), ("slow@r0x3a1", 1.0)],
    )
    def test_tail_segment_is_stretched_under_the_phase_filter(
        self, plan, factor
    ):
        # The work after the last collective (the final iteration's
        # write-back) never passes through a transport.
        cluster = Cluster(
            MachineSpec(p=2, backend="thread"), faults=FaultPlan.parse(plan)
        )
        cluster.clock.set_phase(0, "merge[2]")
        cluster.disks[0].charge_store(1000)
        unslowed = cluster.clock.modelled_seconds(
            cluster.disks[0].stats.blocks_total, 0.0
        )
        assert unslowed > 0
        assert cluster.tail_segment(0) == pytest.approx(factor * unslowed)

    def test_slow_is_deterministic(self, relation):
        a = self._slow_run(relation, "thread").metrics.simulated_seconds
        b = self._slow_run(relation, "thread").metrics.simulated_seconds
        assert a == b

    def test_slow_does_not_change_content(self, relation):
        clean = build(relation, "thread", audit=True)
        slow = self._slow_run(relation, "thread")
        assert content_fingerprint(slow) == content_fingerprint(clean)

    @requires_fork
    def test_slow_metering_matches_across_backends(self, relation):
        thread = self._slow_run(relation, "thread").metrics
        proc = self._slow_run(relation, "process").metrics
        assert proc.simulated_seconds == pytest.approx(
            thread.simulated_seconds, rel=1e-9
        )
        assert proc.rank_busy_seconds == pytest.approx(
            thread.rank_busy_seconds, rel=1e-9
        )


# ---------------------------------------------------------------------------
# supervisor deadline boundary
# ---------------------------------------------------------------------------


def _silent(_slot, _generation, _conn):
    time.sleep(60)


def _send_late(_slot, _generation, conn):
    time.sleep(0.2)
    conn.send(("step", "payload"))
    time.sleep(60)


@requires_fork
class TestSupervisorDeadlineBoundary:
    """``WorkerPool.recv`` over a real pipe, with its deadline read off an
    injected clock: recv reads it once before each wait."""

    def _pool(self, target, ticks):
        from repro.mpi.pool import WorkerPool

        it = iter(ticks)
        return WorkerPool(
            1, target, suspect_after=60.0, label="rank",
            now=lambda: next(it),
        )

    def test_exactly_at_deadline_declares_hung(self):
        # The clock reads 60.0: exactly at the deadline must already
        # count as hung (the zero-length wait finds nothing buffered).
        pool = self._pool(_silent, [60.0])
        try:
            with pytest.raises(RankHung) as err:
                pool.recv(0, deadline=60.0)
            assert err.value.rank == 0
        finally:
            pool.kill(0)
            pool.close()

    def test_just_under_deadline_still_delivers(self):
        # The first reading lands epsilon under the deadline -> one more
        # wait runs (the clock then leaves 10 s) and the message, sent
        # 0.2 s after the fork, is delivered, not dropped.
        pool = self._pool(_send_late, [60.0 - 1e-6, 50.0])
        try:
            assert pool.recv(0, deadline=60.0) == ("step", "payload")
        finally:
            pool.kill(0)
            pool.close()


# ---------------------------------------------------------------------------
# hetero end-to-end + hang recovery
# ---------------------------------------------------------------------------


class TestHeteroBuild:
    def test_same_content_as_uniform(self, relation):
        clean = build(relation, "thread", audit=True)
        hetero = build(relation, "thread", hetero=True, audit=True)
        assert content_fingerprint(hetero) == content_fingerprint(clean)
        assert hetero.metrics.audit["ok"]
        m = hetero.metrics.speed_model
        assert m is not None
        assert len(m["speeds"]) == 3
        assert np.mean(m["speeds"]) == pytest.approx(1.0)
        assert len(hetero.metrics.rank_busy_seconds) == 3

    def test_homogeneous_ranks_measure_equal_shares(self, relation):
        """The probe times step 1a alone, against the work the model
        charged for it: ranks of one speed get one share, however unequal
        their root pieces and however unequal the merge work of the
        iteration before (its step-3 write sits in the segment the probe
        must not see)."""
        m = build(relation, "thread", p=4, hetero=True).metrics.speed_model
        assert m["shares"] == pytest.approx([0.25] * 4, abs=1e-3)

    def test_uniform_build_publishes_no_model(self, relation):
        assert build(relation, "thread").metrics.speed_model is None

    @requires_fork
    def test_process_backend_same_content(self, relation):
        clean = build(relation, "thread", audit=True)
        hetero = build(relation, "process", hetero=True, audit=True)
        assert content_fingerprint(hetero) == content_fingerprint(clean)
        assert hetero.metrics.speed_model is not None


class TestHangRecovery:
    @requires_fork
    def test_hang_retries_on_process_backend(self, relation):
        """A RankHung raised in a forked rank is an ordinary transient
        failure: one full-width retry resumes from the checkpoints."""
        clean = build(relation, "thread", audit=True)
        with tempfile.TemporaryDirectory() as ck:
            cube = build(
                relation, "process", hetero=True,
                faults=FaultPlan.parse("hang@r1s20a0"), checkpoint_dir=ck,
                recovery=RecoveryPolicy(), audit=True,
            )
        m = cube.metrics
        assert m.attempts == 2
        assert m.final_width == 3
        assert m.audit["ok"]
        assert content_fingerprint(cube) == content_fingerprint(clean)
