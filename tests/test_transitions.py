"""The recovery driver's transition table, one test per row.

``repro.core.cube.TRANSITIONS`` maps the row ``_classify`` names for a
failed run to the state that handles it.  Each row below is a real build
under a deterministic fault plan: the test records the rows the driver
dispatched on (by wrapping the table it dispatches through) and checks
the outcome those transitions promise — the error raised, or the
attempt record folded into the metrics.  The cube of a recovered build
is compared with a clean build at its final width.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core import cube as cube_mod
from repro.core.cube import build_data_cube
from repro.mpi.errors import InjectedFault, MPIError
from repro.mpi.faults import FaultPlan
from repro.storage.table import Relation

from .conftest import make_relation

CARDS = (8, 6, 5)


@pytest.fixture(scope="module")
def relation():
    """Integer-valued measure: a degraded regrouping stays bit-exact."""
    raw = make_relation(1500, CARDS, seed=17)
    return Relation(raw.dims, np.floor(raw.measure))


def build(relation, p=3, hetero=False, **kw):
    spec = MachineSpec(p=p, backend="thread")
    return build_data_cube(
        relation, CARDS, spec, CubeConfig(hetero=hetero), **kw
    )


def content(cube):
    """Digest of the cube's global content, whatever its rank layout."""
    h = hashlib.sha256()
    for view in cube.views:
        rel = cube.view_relation(view)
        order = np.lexsort(rel.dims.T[::-1]) if rel.width else slice(None)
        h.update(repr(view).encode())
        h.update(np.ascontiguousarray(rel.dims[order]).tobytes())
        h.update(np.ascontiguousarray(rel.measure[order]).tobytes())
    return h.hexdigest()


def _raise_in_merge(exc):
    """A rank program that fails in its first merge with ``exc``."""

    def merge_partitions(*args, **kw):
        raise exc

    return merge_partitions


@dataclass(frozen=True)
class Row:
    #: Fault plan of the build (``None``: none).
    plan: str | None
    #: RecoveryPolicy fields (``None``: no policy).
    policy: dict | None
    #: Rows the driver dispatches on, in order.
    events: tuple[str, ...]
    #: The error the build raises (type, message pattern), or None.
    raises: tuple[type, str] | None = None
    #: Metrics of the finished build.
    metrics: dict = field(default_factory=dict)
    checkpoints: bool = False
    hetero: bool = False
    #: ``merge_partitions`` replacement that fails the first merge.
    merge_raises: BaseException | None = None


ROWS = {
    "fatal": Row(
        plan="crash@r1s6", policy=None, events=("fatal",),
        raises=(InjectedFault, "injected crash"),
    ),
    "not-retryable": Row(
        plan=None, policy=dict(max_retries=5), events=("fatal",),
        raises=(ValueError, "a programming error"),
        merge_raises=ValueError("a programming error"),
    ),
    "transient-retry": Row(
        plan="crash@r1s6", policy=dict(max_retries=2),
        events=("transient",),
        metrics=dict(attempts=2, final_width=3, transient_retries=1),
    ),
    "streak-exhausted": Row(
        plan="crash@r1s6a0;crash@r1s6a1;crash@r1s6a2",
        policy=dict(mode="restart", max_retries=2),
        events=("transient", "transient", "exhausted"),
        raises=(InjectedFault, "injected crash"),
    ),
    "streak-exhausted-degrades": Row(
        # The repeat offender is blacklisted; the promoting failure is not
        # counted as a consumed retry.
        plan="corrupt@r1s6a0;corrupt@r1s6a1",
        policy=dict(mode="degrade", max_retries=1),
        events=("transient", "lost"),
        metrics=dict(
            attempts=3, final_width=2, ranks_lost=[1], transient_retries=1
        ),
    ),
    "permanent-degrades": Row(
        plan="crash@r1s6", policy=dict(mode="degrade", max_retries=0),
        events=("lost",),
        metrics=dict(
            attempts=2, final_width=2, ranks_lost=[1], transient_retries=0
        ),
    ),
    "below-min-ranks": Row(
        plan="crash@r1s6a0;crash@r1s6a1",
        policy=dict(mode="degrade", max_retries=0, min_ranks=3),
        events=("floor",),
        raises=(MPIError, "min_ranks"),
    ),
    "race-won-by-primary": Row(
        # The straggler recovered: the full-width retry wins and the
        # width-(p-1) clone's duplicate is discarded exactly once.
        plan="hang@r1s20a0", policy=dict(speculate=True),
        events=("straggler",), checkpoints=True, hetero=True,
        metrics=dict(
            attempts=3, final_width=3, ranks_lost=[], speculations=1,
            speculation_discards=1, transient_retries=0,
        ),
    ),
    "race-won-by-backup": Row(
        plan="hang@r1s20a0;hang@r1s2a1", policy=dict(speculate=True),
        events=("straggler",), checkpoints=True, hetero=True,
        metrics=dict(
            attempts=3, final_width=2, ranks_lost=[1], speculations=1,
            speculation_discards=0, transient_retries=0,
        ),
    ),
    "race-double-failure": Row(
        # Both lanes crash: the primary's failure takes the ordinary
        # transition, within the retry budget, and the build recovers.
        plan="hang@r1s20a0;crash@r0s2a1;crash@r0s2a1001",
        policy=dict(speculate=True, max_retries=2),
        events=("straggler", "transient"), checkpoints=True,
        metrics=dict(
            attempts=4, final_width=3, ranks_lost=[], speculations=1,
            speculation_discards=0, transient_retries=1,
        ),
    ),
    "no-checkpoint-root-no-race": Row(
        # Nothing to clone: the hang is a plain transient retry.
        plan="hang@r1s20a0", policy=dict(speculate=True),
        events=("transient",), hetero=True,
        metrics=dict(
            attempts=2, final_width=3, speculations=0, transient_retries=1
        ),
    ),
}


@pytest.fixture
def dispatched(monkeypatch):
    """The rows the driver dispatches on, in order."""
    events = []

    def recording(event, state):
        def record(*args):
            events.append(event)
            return state(*args)

        return record

    monkeypatch.setattr(
        cube_mod,
        "TRANSITIONS",
        {e: recording(e, s) for e, s in cube_mod.TRANSITIONS.items()},
    )
    return events


@pytest.mark.parametrize("name", sorted(ROWS))
def test_transition_row(name, relation, dispatched, monkeypatch, tmp_path):
    row = ROWS[name]
    if row.merge_raises is not None:
        monkeypatch.setattr(
            cube_mod, "merge_partitions", _raise_in_merge(row.merge_raises)
        )
    kw = dict(
        faults=None if row.plan is None else FaultPlan.parse(row.plan),
        recovery=None if row.policy is None else RecoveryPolicy(**row.policy),
        checkpoint_dir=str(tmp_path) if row.checkpoints else None,
        hetero=row.hetero,
    )
    if row.raises is not None:
        kind, pattern = row.raises
        with pytest.raises(kind, match=pattern):
            build(relation, **kw)
        assert dispatched == list(row.events)
        return
    cube = build(relation, audit=True, **kw)
    assert dispatched == list(row.events)
    m = cube.metrics
    assert {k: getattr(m, k) for k in row.metrics} == row.metrics
    assert m.audit["ok"]
    assert m.recovered_seconds > 0
    assert m.simulated_seconds > m.recovered_seconds
    clean = build(relation, p=m.final_width)
    assert content(cube) == content(clean)
    if m.speculations:
        assert f"speculated {m.speculations} race(s)" in m.summary()


def test_every_row_is_tested():
    """Each table row is some row's first or later transition."""
    reached = {e for row in ROWS.values() for e in row.events}
    assert reached == set(cube_mod.TRANSITIONS)
