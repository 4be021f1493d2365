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
"""

from __future__ import annotations

import gc
import tracemalloc

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
