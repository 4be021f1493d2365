"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import mmap
import os
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.config import MachineSpec
from repro.core import cube as cube_mod
from repro.mpi.comm import Comm
from repro.storage.disk import DiskStats
from repro.storage.table import Relation

# The cube pipeline spawns threads; generous deadlines keep hypothesis
# from flagging scheduler noise as slow tests.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def small_spec() -> MachineSpec:
    """A 4-rank machine with tight memory to exercise external paths."""
    return MachineSpec(p=4, memory_budget=1 << 12, block_size=1 << 6)


def make_relation(
    n: int,
    cards: tuple[int, ...],
    seed: int = 0,
    alphas: tuple[float, ...] | None = None,
) -> Relation:
    """Random relation with the given cardinalities (test helper)."""
    from repro.data.generator import DatasetSpec, generate_dataset

    if alphas is None:
        alphas = (0.0,) * len(cards)
    return generate_dataset(
        DatasetSpec(n=n, cardinalities=cards, alphas=alphas, seed=seed)
    )


@pytest.fixture
def charged(monkeypatch):
    """Rows the model charges, keyed ``(rank, phase kind, "r"|"w")``.

    Thread backend only: every rank is a thread, so the phase a charge
    falls in is the one its thread set last."""
    here = threading.local()
    rows = Counter()
    set_phase = Comm.set_phase

    def tracking_set_phase(self, phase):
        here.key = (self.rank, phase.split("[")[0])
        return set_phase(self, phase)

    def tracking(direction, original):
        def charge(self, n, block_size):
            key = getattr(here, "key", None)
            if key is not None:
                rows[key + (direction,)] += n
            return original(self, n, block_size)

        return charge

    monkeypatch.setattr(Comm, "set_phase", tracking_set_phase)
    monkeypatch.setattr(
        DiskStats, "charge_read", tracking("r", DiskStats.charge_read)
    )
    monkeypatch.setattr(
        DiskStats, "charge_write", tracking("w", DiskStats.charge_write)
    )
    return rows


@pytest.fixture
def merge_calls(monkeypatch):
    """Every ``merge_partitions`` call ``build_data_cube`` makes, as
    ``(rank, pieces in, pieces out, report, rows the call sorted)``.

    The merge consumes its input dict, so the pieces going in are taken
    before the call."""
    calls = []
    real = cube_mod.merge_partitions

    def spy(comm, local_views, *args, **kw):
        sorted_before = comm.disk.work.rows_sorted
        pieces_in = dict(local_views)
        merged, report = real(comm, local_views, *args, **kw)
        calls.append((
            comm.rank, pieces_in, merged, report,
            comm.disk.work.rows_sorted - sorted_before,
        ))
        return merged, report

    monkeypatch.setattr(cube_mod, "merge_partitions", spy)
    return calls


def mmap_of(arr):
    """The ``mmap`` an array's bytes live in, or None."""
    base = arr
    while base is not None and not isinstance(base, mmap.mmap):
        if isinstance(base, memoryview):
            base = base.obj
        else:
            base = getattr(base, "base", None)
    return base


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))
