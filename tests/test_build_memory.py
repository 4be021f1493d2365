"""What a build holds: its heap peak against the cube it keeps.

A rank keeps nothing of a ``Di`` iteration but its merged views, and
Procedure 3 frees each local piece it merges away as soon as the merged
piece exists, so a build's Python heap peaks not far above its final
cube.  On the serving cardinalities (100k rows, p = 2, thread backend)
the ``tracemalloc`` peak is 1.26x the cube's bytes.  The same build with
a merge that kept every merged-away piece and each iteration's
temporaries alive until the next iteration measured 1.71x, twice over
(this test's inputs; Linux x86-64, Python 3.11, NumPy 2.4), so this
gate fails there.

A retried build frees its failed attempt before the retry runs, with
the cycle collector off: the thread backend clears and drops every
peer rank's error, whose traceback would otherwise pin that rank's
frames and view pieces in a reference cycle.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc

import repro
from repro.config import MachineSpec
from repro.core.cube import build_data_cube

from .conftest import make_relation

SERVE_CARDS = (64, 32, 32, 16, 8, 4)


def test_build_peak_stays_near_the_cube():
    relation = make_relation(100_000, SERVE_CARDS, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        cube = build_data_cube(
            relation, SERVE_CARDS, MachineSpec(p=2, backend="thread")
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(piece.nbytes for rv in cube.rank_views for piece in rv.values())
    assert peak / held <= 1.45, (peak, held)


_RETRY_PEAK = """
import gc, tempfile, tracemalloc
from repro import MachineSpec, generate_dataset, paper_preset
from repro.config import RecoveryPolicy
from repro.core.cube import build_data_cube
from repro.mpi.faults import FaultPlan

gc.disable()
spec = paper_preset(n=20_000, alpha=0.0, seed=1001)
relation = generate_dataset(spec)

def peak_over_cube(fault):
    with tempfile.TemporaryDirectory() as root:
        tracemalloc.start()
        cube = build_data_cube(
            relation, spec.cardinalities, MachineSpec(p=4),
            checkpoint_dir=root, faults=FaultPlan.parse(fault),
            recovery=RecoveryPolicy(max_retries=2),
        )
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    held = sum(piece.nbytes for rv in cube.rank_views for piece in rv.values())
    return cube.metrics.attempts, peak / held

print(*peak_over_cube("crash@r1s40"), *peak_over_cube("crash@r1s40a5"))
"""


def test_a_retry_does_not_run_beside_its_failed_attempt():
    """``crash@r1s40`` fails the first attempt; ``crash@r1s40a5`` arms
    the same fault plan (so every payload is sealed the same way) but
    never fires.  In a child with ``gc.disable()`` (Linux x86-64,
    Python 3.11, NumPy 2.4) the crash build peaked at 1.80x its cube and
    the armed build at 1.37x while the failed attempt stayed alive until
    a cycle collection and every reader unpickled all lanes of an
    alltoall; both now peak at 1.13-1.14x."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_RETRY_PEAK)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    attempts, crash, armed_attempts, armed = done.stdout.split()
    assert (int(attempts), int(armed_attempts)) == (2, 1)
    assert float(crash) <= 1.25, done.stdout
    assert float(crash) <= 1.05 * float(armed), done.stdout
