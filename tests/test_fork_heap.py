"""A forked child must not start with the parent's freed heap.

``fork`` copies the parent's page tables, so a child's resident set
starts at the parent's — including allocator pages the parent has
freed but glibc still holds.  Both fork sites (a ``QueryService``
worker, first start and respawn, and a process-backend rank) call
:func:`repro.mpi.shm.release_heap` first; these tests fragment the
parent's heap and read the children's ``RssAnon`` from ``/proc``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.config import MachineSpec
from repro.mpi import shm
from repro.mpi.engine import run_spmd
from repro.olap import CubeStore, Query, QueryService
from repro.olap.servebench import synthetic_serving_cube

pytestmark = pytest.mark.skipif(
    shm._MALLOC_TRIM is None or not os.path.exists("/proc/self/status"),
    reason="needs Linux /proc and glibc malloc_trim",
)

CARDS = (12, 8, 5, 3)

#: Heap-sized pieces: every one is under glibc's 128 KB mmap threshold,
#: so freeing one leaves a hole in the arena instead of unmapping it.
_SIZES_KB = (16, 40, 72, 104)


def rss_anon_kb(pid="self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    raise AssertionError("no RssAnon line")  # pragma: no cover


def fragment(total_mb: int = 200):
    """Allocate ~``total_mb`` of mixed-size arrays, free every other one.

    Returns the survivors (keep them alive), the freed bytes in kB and
    the parent's ``RssAnon`` with the holes still resident.
    """
    arrays, total, i = [], 0, 0
    while total < total_mb << 20:
        n = _SIZES_KB[i % len(_SIZES_KB)] << 10
        arrays.append(np.ones(n // 8))
        total += n
        i += 1
    freed = sum(a.nbytes for a in arrays[::2]) >> 10
    kept = arrays[1::2]
    del arrays
    return kept, freed, rss_anon_kb()


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    cube = synthetic_serving_cube(500, CARDS, p=2, seed=3)
    path = str(tmp_path_factory.mktemp("forkheap") / "cube.d")
    CubeStore.save(cube, path)
    return path


def worker_pid(service) -> int:
    return service._sup.slots[0].pid


def test_service_worker_and_respawn_start_below_the_freed_heap(store_path):
    kept, freed, parent = fragment()
    service = QueryService(store_path, workers=1, byte_budget=None)
    try:
        service.answer(Query(group_by=(0,)), timeout=60)
        first = worker_pid(service)
        assert rss_anon_kb(first) <= parent - freed // 2

        kept2, freed2, parent2 = fragment()
        os.kill(first, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while worker_pid(service) == first and time.monotonic() < deadline:
            service.poll()
            time.sleep(0.02)
        service.answer(Query(group_by=(1,)), timeout=60)
        second = worker_pid(service)
        assert second != first
        assert rss_anon_kb(second) <= parent2 - freed2 // 2
    finally:
        service.close()
    del kept, kept2


def _rss_at_entry(comm):
    return rss_anon_kb()


def test_process_rank_starts_below_the_freed_heap():
    kept, freed, parent = fragment()
    res = run_spmd(_rss_at_entry, MachineSpec(p=2, backend="process"))
    for rss in res.rank_results:
        assert rss <= parent - freed // 2
    del kept
