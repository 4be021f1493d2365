"""Import hygiene: the runtime needs NumPy and nothing heavier.

SciPy is a test-only dependency (the assignment oracle).  A fresh
interpreter imports every package, runs a process-backend build, saves it
and answers a query through a one-worker ``QueryService``; no ``scipy``
module may be loaded by then, lazily or otherwise.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SCRIPT = textwrap.dedent(
    """
    import os, sys
    import numpy as np
    import repro, repro.core, repro.olap, repro.mpi, repro.storage
    import repro.bench
    from repro.config import CubeConfig, MachineSpec
    from repro.core.cube import build_data_cube
    from repro.olap import CubeStore, Query, QueryService
    from repro.storage.table import Relation

    cards = (6, 4, 3)
    rng = np.random.default_rng(1)
    dims = np.stack([rng.integers(0, c, 400) for c in cards], axis=1)
    relation = Relation(dims, rng.random(400))
    spec = MachineSpec(p=2, backend="process")
    cube = build_data_cube(relation, cards, spec, CubeConfig())
    path = os.path.join(sys.argv[1], "cube.d")
    CubeStore.save(cube, path)
    with QueryService(path, workers=1) as service:
        assert len(service.answer(Query(group_by=(0,)), timeout=60)) == 6
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
)


def test_runtime_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
