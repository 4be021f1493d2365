"""Differential test of Pipesort's in-tree assignment solver against SciPy.

``repro.core.pipesort._linear_sum_assignment`` must make SciPy's choices,
ties included: among equal optima a different matching is a different
schedule tree, and a different tree is a different build.  SciPy is the
oracle here and a test-only dependency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipesort
from repro.core.estimate import estimate_view_sizes
from repro.core.partitions import partition_root, partition_views
from repro.core.pipesort import _linear_sum_assignment, build_schedule_tree
from repro.core.views import all_views
from repro.data.generator import generate_dataset, paper_preset

scipy_optimize = pytest.importorskip("scipy.optimize")

shapes = st.tuples(st.integers(0, 30), st.integers(0, 30))


@st.composite
def small_integers(draw):
    """Entries in 0..3: most optima are tied."""
    r, c = draw(shapes)
    values = st.lists(st.integers(0, 3), min_size=r * c, max_size=r * c)
    return np.array(draw(values), dtype=np.float64).reshape(r, c)


@st.composite
def all_zero(draw):
    return np.zeros(draw(shapes))


@st.composite
def clipped_savings(draw):
    """The matcher's pattern: ``max(base[i] - scan[j], 0)`` on the allowed
    pairs, zero elsewhere."""
    r, c = draw(shapes)
    base = draw(st.lists(st.integers(0, 12), min_size=r, max_size=r))
    scan = draw(st.lists(st.integers(0, 12), min_size=c, max_size=c))
    allowed = draw(st.lists(st.booleans(), min_size=r * c, max_size=r * c))
    out = np.zeros((r, c))
    for i in range(r):
        for j in range(c):
            if allowed[i * c + j]:
                out[i, j] = max(base[i] - scan[j], 0) * 1.5
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(small_integers(), all_zero(), clipped_savings()),
    st.booleans(),
)
def test_matches_scipy(matrix, maximize):
    for cost in (matrix, matrix.T):
        want = scipy_optimize.linear_sum_assignment(cost, maximize=maximize)
        got = _linear_sum_assignment(cost, maximize=maximize)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize(
    "cost, maximize",
    [
        ([[1.0, np.nan]], False),
        ([[1.0, -np.inf]], False),
        ([[1.0, np.inf]], True),
    ],
)
def test_invalid_entries_raise(cost, maximize):
    with pytest.raises(ValueError, match="invalid numeric entries"):
        _linear_sum_assignment(cost, maximize=maximize)


def test_infeasible_raises():
    with pytest.raises(ValueError, match="infeasible"):
        _linear_sum_assignment([[np.inf, 1.0], [np.inf, 2.0]])


def _tree_shape(tree):
    return {
        v: (n.mode, n.parent, n.order, tuple(n.children))
        for v, n in tree.nodes.items()
    }


def _all_trees():
    """Every full lattice and every ``Di``-partition tree for d <= 8, under
    FM and Cardenas estimates from one seeded P8 relation."""
    spec = paper_preset(20_000, alpha=0.8, seed=29)
    dims = generate_dataset(spec).dims
    trees = []
    for d in range(1, 9):
        for method in ("fm", "analytic"):
            est = estimate_view_sizes(
                dims[:, :d], spec.cardinalities[:d], all_views(d),
                total_rows=4 * spec.n, method=method,
            )
            trees.append(
                build_schedule_tree(all_views(d), tuple(range(d)), est)
            )
            for i in range(d):
                trees.append(
                    build_schedule_tree(
                        partition_views(i, d), partition_root(i, d), est
                    )
                )
    return [_tree_shape(t) for t in trees]


def _wide_trees():
    """The ``D0``-partition trees at d = 9 and 10 (levels of up to 70 and
    126 views), under FM estimates from a uniform |Di| = 32 relation as
    Figure 10 builds them."""
    trees = []
    for d in (9, 10):
        dims = np.random.default_rng(d).integers(0, 32, (5_000, d))
        est = estimate_view_sizes(
            dims, (32,) * d, partition_views(0, d), total_rows=100_000,
            method="fm",
        )
        trees.append(
            build_schedule_tree(
                partition_views(0, d), partition_root(0, d), est
            )
        )
    return [_tree_shape(t) for t in trees]


@pytest.mark.parametrize("trees", [_all_trees, _wide_trees])
def test_schedule_trees_match_scipy(monkeypatch, trees):
    ours = trees()
    monkeypatch.setattr(
        pipesort, "_linear_sum_assignment",
        scipy_optimize.linear_sum_assignment,
    )
    assert ours == trees()
