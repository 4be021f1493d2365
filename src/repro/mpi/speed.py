"""Per-rank throughput modelling for heterogeneity-aware partitioning.

The paper's sample sort targets *uniform* h-relation shares: every rank
receives ``N/p`` rows, which is optimal only when all p ranks are equally
fast.  On mixed-speed hosts (or degraded width-(p-k) runs resharded onto
survivors) the superstep ends when the *slowest* rank finishes, so the
right target is work proportional to measured speed — the partitioning
strategy of Cérin et al. for sorting on heterogeneous clusters.

:class:`RankSpeedModel` is the published model: relative per-rank speeds
(normalised to mean 1) plus the *clamped* share vector derived from
them.  The clamp keeps any single rank's share inside
``[SHARE_FLOOR/p, SHARE_CEIL/p]`` = ``[1/(2p), 2/p]``, so a mis-measured
or briefly-idle rank can neither starve nor drown; :func:`clamped_shares`
solves for the unique scaling of the raw proportional shares whose
clipped sum is 1 (monotone in the scale factor, found by bisection).

:class:`HeteroState` is the per-run tracker: each cube iteration's
partitioning phase observes fresh ``(work, busy-seconds)`` samples from
every rank (allgathered, so all ranks derive an identical model) and
blends them into the running model with an exponential moving average
of weight :data:`BLEND`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mpi.stats import throughput_rates

__all__ = [
    "BLEND", "SHARE_CEIL", "SHARE_FLOOR", "HeteroState", "RankSpeedModel",
    "clamped_shares",
]

_EPS = 1e-12

#: No rank receives less than ``SHARE_FLOOR/p`` of the rows...
SHARE_FLOOR = 0.5
#: ...nor more than ``SHARE_CEIL/p``.
SHARE_CEIL = 2.0
#: EMA weight of each fresh throughput observation when the speed model
#: is updated between cube iterations (1.0 would trust the latest probe
#: alone).
BLEND = 0.5


def clamped_shares(speeds: Sequence[float]) -> np.ndarray:
    """Shares proportional to ``speeds``, clipped to
    ``[SHARE_FLOOR/p, SHARE_CEIL/p]``.

    Solves ``sum_j clip(t * s_j / sum(s), SHARE_FLOOR/p, SHARE_CEIL/p)
    == 1`` for the scale ``t`` by bisection (the sum is continuous and
    nondecreasing in ``t``, ranging from ``SHARE_FLOOR`` to
    ``SHARE_CEIL``, and ``SHARE_FLOOR <= 1 <= SHARE_CEIL`` guarantees a
    solution).  Deterministic, and exactly uniform for equal speeds.
    """
    s = np.maximum(np.asarray(speeds, dtype=np.float64), _EPS)
    p = s.size
    if p == 0:
        raise ValueError("clamped_shares needs at least one rank")
    if p == 1:
        return np.ones(1)
    lo, hi = SHARE_FLOOR / p, SHARE_CEIL / p
    base = s / s.sum()

    def total(t: float) -> float:
        return float(np.clip(t * base, lo, hi).sum())

    t_lo, t_hi = 0.0, 1.0
    while total(t_hi) < 1.0:
        t_hi *= 2.0
    for _ in range(64):
        mid = 0.5 * (t_lo + t_hi)
        if total(mid) < 1.0:
            t_lo = mid
        else:
            t_hi = mid
    out = np.clip(t_hi * base, lo, hi)
    return out / out.sum()


@dataclass(frozen=True)
class RankSpeedModel:
    """Relative per-rank speeds and the clamped share targets they imply.

    ``speeds`` are normalised to mean 1 (a homogeneous cluster is all
    ones); any rank's share of the data is clamped to
    ``[SHARE_FLOOR/p, SHARE_CEIL/p]``.
    """

    speeds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.speeds:
            raise ValueError("RankSpeedModel needs at least one rank")

    # -- construction -------------------------------------------------------

    @staticmethod
    def uniform(p: int) -> "RankSpeedModel":
        return RankSpeedModel((1.0,) * p)

    @staticmethod
    def from_rates(rates: Sequence[float]) -> "RankSpeedModel":
        """Normalise raw rows/sec rates to a mean-1 speed vector."""
        r = np.maximum(np.asarray(rates, dtype=np.float64), _EPS)
        speeds = r / r.mean()
        return RankSpeedModel(tuple(float(x) for x in speeds))

    # -- derived quantities -------------------------------------------------

    @property
    def p(self) -> int:
        return len(self.speeds)

    @property
    def shares(self) -> tuple[float, ...]:
        """Clamped fraction of the data each rank should receive."""
        return tuple(float(x) for x in clamped_shares(self.speeds))

    def counts(self, total: int) -> np.ndarray:
        """Integer row targets summing exactly to ``total``
        (largest-remainder apportionment; ties broken by rank index)."""
        shares = np.asarray(self.shares, dtype=np.float64)
        raw = shares * int(total)
        base = np.floor(raw).astype(np.int64)
        rem = int(total) - int(base.sum())
        if rem > 0:
            order = np.argsort(-(raw - base), kind="stable")
            base[order[:rem]] += 1
        return base

    # -- evolution ----------------------------------------------------------

    def blend(
        self, rates: Sequence[float], alpha: float
    ) -> "RankSpeedModel":
        """EMA-blend fresh measured rates into the model
        (``alpha`` = weight of the new observation)."""
        fresh = np.asarray(RankSpeedModel.from_rates(rates).speeds)
        mixed = alpha * fresh + (1.0 - alpha) * np.asarray(self.speeds)
        return RankSpeedModel.from_rates(mixed)

    def restrict(self, indices: Sequence[int]) -> "RankSpeedModel":
        """The model induced on a surviving subset of ranks (renormalised
        and re-clamped at the new width) — the prior for degraded
        width-(p-k) resharding."""
        picked = [self.speeds[i] for i in indices]
        if not picked:
            raise ValueError("restrict() needs at least one surviving rank")
        return RankSpeedModel.from_rates(picked)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "speeds": list(self.speeds),
            "shares": list(self.shares),
            "floor": SHARE_FLOOR,
            "ceil": SHARE_CEIL,
        }

    @staticmethod
    def from_dict(data: dict) -> "RankSpeedModel":
        return RankSpeedModel(tuple(float(x) for x in data["speeds"]))


class HeteroState:
    """Mutable per-run tracker threading the speed model through a build.

    Owned by each rank's program; every rank feeds it the *same*
    allgathered samples, so the models (and hence the pivot targets) stay
    identical across ranks without further coordination.
    """

    def __init__(self, p: int, prior: RankSpeedModel | None = None):
        self.p = p
        self.model = prior
        self._probe: tuple[float, float] | None = None

    def open_probe(self, comm) -> None:
        """Start timing this rank's local work.

        The barrier closes the open segment first: it still holds the
        tail of the previous iteration (its step-3 write), which the
        sample must not see.
        """
        comm.barrier()
        self._probe = (_charged_work(comm), comm.clock.rank_busy[comm.rank])

    def close_probe(self, comm) -> tuple[float, float]:
        """This rank's ``(work, busy_seconds)`` sample since
        :meth:`open_probe`; call right after a collective, whose superstep
        commit has folded the timed segment into ``rank_busy``.

        ``work`` is what the cost model charged for the bracket, in
        seconds at nominal speed, not its row count: ranks time inputs of
        different sizes, and a block-rounded read plus an ``n log n`` sort
        is not linear in rows.
        """
        if self._probe is None:
            raise RuntimeError(
                f"close_probe on rank {comm.rank} without an open_probe: "
                "the sample would cover the whole run"
            )
        (work0, busy0), self._probe = self._probe, None
        return (
            _charged_work(comm) - work0,
            float(comm.clock.rank_busy[comm.rank] - busy0),
        )

    def observe(
        self, samples: Sequence[tuple[float, float]]
    ) -> RankSpeedModel:
        """Fold one round of per-rank ``(work, busy_seconds)`` samples
        into the model and return the updated model."""
        work = np.asarray([s[0] for s in samples], dtype=np.float64)
        busy = np.asarray([s[1] for s in samples], dtype=np.float64)
        rates = throughput_rates(work, busy)
        if self.model is None:
            self.model = RankSpeedModel.from_rates(rates)
        else:
            self.model = self.model.blend(rates, BLEND)
        return self.model


def _charged_work(comm) -> float:
    """Modelled seconds of local work charged to this rank so far, priced
    by the clock exactly as it prices a superstep segment."""
    return comm.clock.modelled_seconds(
        comm.disk.stats.blocks_total, comm.disk.work.seconds
    )
