"""A format-2 save seals the cube: its pieces become the store's files.

After :meth:`CubeStore.save` the cube's pieces of every view (a degraded
build's too) are read-only slices of the mapped column files (the arrays
:meth:`CubeStore.load` returns), so a saved cube is held once, by the
store.  Saving over a store never rewrites a file a reader has mapped.
"""

from __future__ import annotations

import gc
import hashlib
import mmap
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.config import CubeConfig, MachineSpec, RecoveryPolicy
from repro.core.audit import audit_cube
from repro.core.cube import build_data_cube
from repro.mpi.faults import FaultPlan
from repro.olap import CubeStore, Query, QueryEngine
from repro.storage.mmapio import write_npy_parts
from repro.storage.table import Relation

from .conftest import make_relation

CARDS = (8, 6, 5, 4)
QUERIES = [
    Query(()),
    Query((0,)),
    Query((1, 3)),
    Query((), {0: (3, 3), 1: (2, 2), 2: (1, 1), 3: (0, 0)}),
    Query((2,), {0: (1, 5)}),
    Query((0, 3), {1: (0, 2)}),
    Query((0, 1, 2), having=(">=", 2.0)),
]


@pytest.fixture
def relation():
    """Integer-valued measure, so a degraded build stays bit-exact."""
    raw = make_relation(3000, CARDS, seed=5)
    return Relation(raw.dims, np.floor(raw.measure))


def build(relation, p=3, **kw):
    spec = MachineSpec(p=p, backend="thread")
    return build_data_cube(relation, CARDS, spec, CubeConfig(), **kw)


def fingerprint(cube) -> str:
    """Digest of every rank's piece of every view, order included."""
    h = hashlib.sha256()
    for rank, rank_views in enumerate(cube.rank_views):
        for view in cube.views:
            piece = rank_views[view]
            h.update(repr((rank, view, piece.order)).encode())
            h.update(piece.keys.tobytes())
            h.update(piece.measure.tobytes())
    return h.hexdigest()


def mapped(array: np.ndarray) -> bool:
    """True when ``array`` reads straight from a memory-mapped file."""
    base = array
    while base is not None and not isinstance(base, mmap.mmap):
        base = getattr(base, "base", None)
    return base is not None


def pieces(cube):
    return [(rank, view, rv[view]) for rank, rv in enumerate(cube.rank_views)
            for view in cube.views]


def answers(cube):
    engine = QueryEngine(cube)
    return [engine.answer(query) for query in QUERIES]


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestSeal:
    def test_pieces_become_read_only_slices_of_the_store(
        self, relation, tmp_path
    ):
        cube = build(relation)
        before = fingerprint(cube)
        path = CubeStore.save(cube, str(tmp_path / "store"))
        for _, _, piece in pieces(cube):
            for column in (piece.keys, piece.measure):
                assert not column.flags.writeable
                assert mapped(column)
        assert fingerprint(cube) == before
        assert fingerprint(CubeStore.load(path)) == before

    def test_sealed_cube_answers_and_audits_as_before(
        self, relation, tmp_path
    ):
        cube = build(relation)
        want = answers(cube)
        assert audit_cube(cube, relation=relation).ok
        CubeStore.save(cube, str(tmp_path / "store"))
        assert audit_cube(cube, relation=relation).ok
        for query, got, ref in zip(QUERIES, answers(cube), want):
            assert np.array_equal(got.dims, ref.dims), query
            assert got.measure.tobytes() == ref.measure.tobytes(), query

    def test_degraded_views_are_sealed_like_any_other(
        self, relation, tmp_path
    ):
        cube = build(
            relation,
            p=4,
            faults=FaultPlan.parse("kill@r1s26"),
            recovery=RecoveryPolicy(mode="degrade", max_retries=0),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert cube.metrics.final_width == 3
        assert audit_cube(cube, relation=relation).ok
        before = fingerprint(cube)
        CubeStore.save(cube, str(tmp_path / "store"))
        for _, _, now in pieces(cube):
            assert mapped(now.keys) and mapped(now.measure)
        assert fingerprint(cube) == before

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    def test_two_descriptors_per_sealed_view_released_with_the_cube(
        self, relation, tmp_path
    ):
        cube = build(relation)
        gc.collect()
        baseline = open_fds()
        CubeStore.save(cube, str(tmp_path / "store"))
        assert open_fds() == baseline + 2 * cube.view_count
        del cube
        gc.collect()
        assert open_fds() == baseline


def test_parts_of_another_dtype_are_refused(tmp_path):
    with pytest.raises(ValueError, match="does not match"):
        write_npy_parts(
            str(tmp_path / "col.npy"),
            [np.arange(3, dtype=np.int64), np.arange(2, dtype=np.int32)],
        )
    assert not os.listdir(tmp_path)


def child_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def run_child(script: str, *args: str) -> None:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    assert done.stdout.strip() == "ok"


_RESAVE = """
import filecmp, hashlib, os, sys
import numpy as np
from repro import DatasetSpec, MachineSpec, build_data_cube, generate_dataset
from repro.olap import CubeStore

root = sys.argv[1]
cards = (8, 6, 5, 4)

def build(n):
    spec = DatasetSpec(n=n, cardinalities=cards, alphas=(0.0,) * 4, seed=n)
    return build_data_cube(generate_dataset(spec), cards, MachineSpec(p=3))

def fingerprint(cube):
    h = hashlib.sha256()
    for rank_views in cube.rank_views:
        for view in cube.views:
            h.update(rank_views[view].keys.tobytes())
            h.update(rank_views[view].measure.tobytes())
    return h.hexdigest()

first, second, third = (os.path.join(root, name) for name in "PQR")
big = build(3000)
CubeStore.save(big, first)
reader = CubeStore.open(first).cube
want = fingerprint(reader)
CubeStore.save(build(500), first)   # a smaller cube over a mapped store
assert fingerprint(reader) == want == fingerprint(big)

CubeStore.save(big, second)         # sealed onto `second` ...
CubeStore.save(big, second)         # ... and saved again over itself
CubeStore.save(big, third)
assert fingerprint(big) == want
names = sorted(os.listdir(os.path.join(second, "views")))
assert names == sorted(os.listdir(os.path.join(third, "views")))
_, diff, errors = filecmp.cmpfiles(
    os.path.join(second, "views"), os.path.join(third, "views"), names,
    shallow=False,
)
assert not diff and not errors, (diff, errors)
assert filecmp.cmp(
    os.path.join(second, "manifest.json"),
    os.path.join(third, "manifest.json"), shallow=False,
)
print("ok")
"""


def test_saving_over_a_mapped_store_keeps_readers_bytes(tmp_path):
    """Run in a child: at a version that rewrote column files in place,
    reading the old handle after the second save dies with SIGBUS."""
    run_child(_RESAVE, str(tmp_path))


_LOW_LIMIT = """
import filecmp, hashlib, mmap, os, resource, sys
from repro import DatasetSpec, MachineSpec, build_data_cube, generate_dataset
from repro.olap import CubeStore

root = sys.argv[1]
cards = (8, 6, 5, 4, 3, 2)
spec = DatasetSpec(n=4000, cardinalities=cards, alphas=(0.0,) * 6, seed=3)
cube = build_data_cube(generate_dataset(spec), cards, MachineSpec(p=2))

def fingerprint(cube):
    h = hashlib.sha256()
    for rank_views in cube.rank_views:
        for view in cube.views:
            h.update(rank_views[view].keys.tobytes())
            h.update(rank_views[view].measure.tobytes())
    return h.hexdigest()

def sealed(view):
    base = cube.rank_views[0][view].keys
    while base is not None and not isinstance(base, mmap.mmap):
        base = getattr(base, "base", None)
    return base is not None

want = fingerprint(cube)
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
in_use = len(os.listdir("/dev/fd"))
# room to open the 64-view store once (128) and 64 more: the seal takes
# half of those, 16 views
views = cube.view_count
resource.setrlimit(resource.RLIMIT_NOFILE, (in_use + 3 * views, hard))
CubeStore.save(cube, os.path.join(root, "low"))
reopened = CubeStore.load(os.path.join(root, "low"))
assert fingerprint(reopened) == want
del reopened
resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

done = [view for view in cube.views if sealed(view)]
kept = [view for view in cube.views if not sealed(view)]
assert views // 4 - 2 <= len(done) <= views // 4, (len(done), len(kept))
rows = lambda view: sum(rv[view].nrows for rv in cube.rank_views)
assert min(map(rows, done)) >= max(map(rows, kept))   # largest first
assert fingerprint(cube) == want

CubeStore.save(cube, os.path.join(root, "high"))
names = sorted(os.listdir(os.path.join(root, "low", "views")))
_, diff, errors = filecmp.cmpfiles(
    os.path.join(root, "low", "views"), os.path.join(root, "high", "views"),
    names, shallow=False,
)
assert not diff and not errors, (diff, errors)
assert filecmp.cmp(
    os.path.join(root, "low", "manifest.json"),
    os.path.join(root, "high", "manifest.json"), shallow=False,
)
assert fingerprint(CubeStore.load(os.path.join(root, "high"))) == want
print("ok")
"""


@pytest.mark.skipif(
    not os.path.isdir("/dev/fd"), reason="counts open descriptors in /dev/fd"
)
def test_seal_stops_at_the_descriptor_budget(tmp_path):
    """Under a low descriptor limit a save still writes the whole store
    and leaves room to open it: the largest views are sealed, the rest
    keep heap pieces."""
    run_child(_LOW_LIMIT, str(tmp_path))
