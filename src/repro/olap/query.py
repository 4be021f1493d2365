"""Group-by queries answered from materialised views.

A :class:`Query` asks for an aggregate grouped by some dimensions with
optional per-dimension range filters.  The :class:`QueryPlanner` picks the
cheapest materialised view that *covers* the query — it must contain every
group-by dimension and every filtered dimension, and the smallest such
view (fewest rows) costs the least to scan (Harinarayan-Rajaraman-Ullman's
classic view-selection argument, which the paper's partial cubes feed).
Among equal-sized candidates the planner prefers the view whose *sort
order* gives the query the best access path (see below).

:class:`QueryEngine` executes the plan either on the gathered cube or in
parallel on the virtual cluster.  The gathered path has two lanes:

* **index** — when the chosen view's sort order makes the query's
  filtered dimensions a key prefix, the filters collapse to one
  ``searchsorted`` range over the packed keys (fence-index narrowed for
  store-backed views) and the group-by aggregates on the already-sorted
  slice: no decode, no argsort (:mod:`repro.olap.index`).
* **scan** — the original decode-filter-sort fallback for queries the
  order cannot help.

``explain()`` reports which lane a query takes.  The parallel path is
the payoff of the paper's γ balance contract: every view is spread
evenly across the ranks' disks, so a parallel scan costs ``rows/p`` —
a deliberately unbalanced cube answers the same query slower, which
``benchmarks/bench_query_latency.py`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.config import MachineSpec
from repro.core.cube import CubeResult
from repro.core.viewdata import codec_for_order, global_run
from repro.core.views import View, canonical_view, view_name
from repro.mpi.engine import run_spmd
from repro.olap.index import (
    AccessPlan,
    SortedView,
    aggregate_slice,
    classify_access,
    key_bounds,
)
from repro.storage.codec import KeyCodec
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import stable_order
from repro.storage.table import Relation

__all__ = ["Query", "QueryEngine", "QueryPlan", "QueryPlanner"]


_HAVING_OPS = {
    ">=": np.greater_equal,
    "<=": np.less_equal,
    ">": np.greater,
    "<": np.less,
}


class _FrozenFilters(dict):
    """An immutable, hashable filter mapping (dim -> (lo, hi)).

    Built from dim-sorted items so iteration order, repr, equality and
    the hash are all canonical; a :class:`Query` holding one is a valid
    dict/set key (the result-cache keys on the query object directly).
    """

    def __hash__(self) -> int:  # items are already dim-sorted
        return hash(tuple(self.items()))

    def _immutable(self, *args, **kwargs):
        raise TypeError("Query filters are immutable")

    __setitem__ = _immutable
    __delitem__ = _immutable
    clear = _immutable
    pop = _immutable
    popitem = _immutable
    setdefault = _immutable
    update = _immutable

    def __reduce__(self):
        return (_rebuild_filters, (tuple(self.items()),))


def _rebuild_filters(items) -> "_FrozenFilters":
    ff = _FrozenFilters()
    dict.update(ff, items)
    return ff


@dataclass(frozen=True)
class Query:
    """``SELECT <group_by>, AGG(measure) WHERE <filters> GROUP BY ...
    HAVING AGG(measure) <op> <threshold>``.

    ``filters`` maps a dimension index to an inclusive ``(lo, hi)`` code
    range (a single value filters as ``(v, v)``).  ``having`` is an
    optional ``(op, threshold)`` applied to each group's aggregate — the
    iceberg-query form, e.g. ``(">=", 1000.0)``.

    Instances are hashable (filters normalise to an immutable dim-sorted
    mapping), so a query can key a cache or a set directly.
    """

    group_by: View
    filters: Mapping[int, tuple[int, int]] = field(default_factory=dict)
    having: tuple[str, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_by", canonical_view(self.group_by))
        norm = []
        for dim, bounds in dict(self.filters).items():
            if isinstance(bounds, (int, np.integer)):
                bounds = (int(bounds), int(bounds))
            lo, hi = int(bounds[0]), int(bounds[1])
            if lo > hi:
                raise ValueError(
                    f"filter on dim {dim}: lo {lo} > hi {hi}"
                )
            norm.append((int(dim), (lo, hi)))
        object.__setattr__(
            self, "filters", _rebuild_filters(sorted(norm))
        )
        if self.having is not None:
            op, threshold = self.having
            if op not in _HAVING_OPS:
                raise ValueError(
                    f"having op must be one of {sorted(_HAVING_OPS)}, "
                    f"got {op!r}"
                )
            object.__setattr__(self, "having", (op, float(threshold)))

    @property
    def required_dims(self) -> View:
        """Dimensions the answering view must contain."""
        return canonical_view(tuple(self.group_by) + tuple(self.filters))

    def describe(self) -> str:
        parts = [f"GROUP BY {view_name(self.group_by)}"]
        if self.filters:
            conds = ", ".join(
                f"D{dim} in [{lo},{hi}]"
                for dim, (lo, hi) in sorted(self.filters.items())
            )
            parts.append(f"WHERE {conds}")
        if self.having is not None:
            parts.append(f"HAVING agg {self.having[0]} {self.having[1]:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class QueryPlan:
    """A chosen materialised view, its scan cost, and the access path."""

    query: Query
    view: View
    scan_rows: int
    #: ``"index"`` | ``"index+sort"`` | ``"scan"``.
    access_path: str = "scan"
    #: The view's sort order, when one is known to the planner.
    order: tuple[int, ...] | None = None
    #: Structural classification backing ``access_path``.
    access: AccessPlan | None = field(default=None, compare=False)

    def describe(self) -> str:
        return (
            f"{self.query.describe()}  <-  {self.access_path} view "
            f"{view_name(self.view)} ({self.scan_rows:,} rows)"
        )


#: Preference rank of each access path at equal view size.
_PATH_RANK = {"index": 0, "index+sort": 1, "scan": 2}


class QueryPlanner:
    """Smallest-covering-view selection over the materialised set.

    ``view_orders`` (optional) maps views to their sort orders; with it
    the planner breaks row-count ties toward the view whose order gives
    the cheapest access path, and every plan carries its classification.
    Per-view dimension bitmasks are precomputed once, so each ``plan``
    call is a constant-space mask test per view.
    """

    def __init__(
        self,
        view_rows: Mapping[View, int],
        view_orders: Mapping[View, Sequence[int]] | None = None,
    ):
        self.view_rows = {
            canonical_view(v): int(n) for v, n in view_rows.items()
        }
        self.view_orders: dict[View, tuple[int, ...]] = {}
        for v, order in (view_orders or {}).items():
            self.view_orders[canonical_view(v)] = tuple(
                int(i) for i in order
            )
        self._masks = {
            view: self._bitmask(view) for view in self.view_rows
        }

    @staticmethod
    def _bitmask(dims: Sequence[int]) -> int:
        mask = 0
        for dim in dims:
            mask |= 1 << int(dim)
        return mask

    def _classify(self, view: View, query: Query) -> tuple[str, AccessPlan | None]:
        order = self.view_orders.get(view)
        if order is None:
            return "scan", None
        access = classify_access(order, query.group_by, query.filters)
        return access.kind, access

    def plan(self, query: Query) -> QueryPlan:
        need = self._bitmask(query.required_dims)
        best: View | None = None
        best_rows = -1
        for view, rows in self.view_rows.items():
            if need & ~self._masks[view]:
                continue
            if best is None or rows < best_rows:
                best, best_rows = view, rows
        if best is None:
            raise LookupError(
                f"no materialised view covers {view_name(query.required_dims)}"
                " (partial cube without this ancestor?)"
            )
        # Tie-break among equal-sized candidates: the order-compatible
        # view (cheapest access path), then the lexicographically first.
        ties = [
            view
            for view, rows in self.view_rows.items()
            if rows == best_rows and not (need & ~self._masks[view])
        ]
        best_key = None
        chosen, chosen_kind, chosen_access = best, "scan", None
        for view in ties:
            kind, access = self._classify(view, query)
            key = (_PATH_RANK[kind], view)
            if best_key is None or key < best_key:
                best_key = key
                chosen, chosen_kind, chosen_access = view, kind, access
        return QueryPlan(
            query=query,
            view=chosen,
            scan_rows=best_rows,
            access_path=chosen_kind,
            order=self.view_orders.get(chosen),
            access=chosen_access,
        )


def _filter_mask(
    dims: np.ndarray, view: View, filters: Mapping[int, tuple[int, int]]
) -> np.ndarray:
    mask = np.ones(dims.shape[0], dtype=bool)
    col_of = {dim: pos for pos, dim in enumerate(view)}
    for dim, (lo, hi) in filters.items():
        col = dims[:, col_of[dim]]
        mask &= (col >= lo) & (col <= hi)
    return mask


def _apply_having(
    keys: np.ndarray,
    measure: np.ndarray,
    having: tuple[str, float] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Filter aggregated groups by the HAVING predicate (iceberg form).

    Applied after full aggregation, so it is only valid on completely
    combined groups — all engine paths satisfy that.
    """
    if having is None:
        return keys, measure
    op, threshold = having
    mask = _HAVING_OPS[op](measure, threshold)
    return keys[mask], measure[mask]


def _aggregate(
    dims: np.ndarray,
    measure: np.ndarray,
    view: View,
    group_by: View,
    cards: Sequence[int],
    agg: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate filtered view rows onto the group-by dims (packed keys)."""
    col_of = {dim: pos for pos, dim in enumerate(view)}
    cols = [col_of[dim] for dim in group_by]
    codec = KeyCodec([cards[dim] for dim in group_by])
    keys = (
        codec.pack(dims[:, cols])
        if cols
        else np.zeros(dims.shape[0], dtype=np.int64)
    )
    order = stable_order(keys)
    return aggregate_sorted_keys(keys[order], measure[order], agg)


class QueryEngine:
    """Answer queries from a built :class:`~repro.core.cube.CubeResult`.

    ``sorted_views`` (usually from :meth:`repro.olap.store.CubeStore.
    open`) supplies mmap-backed sorted view handles for the index path;
    without them the engine builds an in-memory handle per view on first
    use with :func:`~repro.core.viewdata.global_run` — the rule the
    store saves by: the rank pieces laid end to end, ``ValueError`` for
    a cube whose pieces are not sorted key-disjoint runs in rank order
    under one order.
    ``index=False`` pins every query to the scan path — the A/B lever
    the serving benchmark uses.
    """

    def __init__(
        self,
        cube: CubeResult,
        sorted_views: Mapping[View, SortedView] | None = None,
        index: bool = True,
    ):
        self.cube = cube
        #: Sorted handles by view: the store's, else built on first use.
        self._views: dict[View, SortedView] = dict(sorted_views or {})
        view_orders = {
            view: (
                self._views[view].order
                if view in self._views
                else cube.rank_views[0][view].order
            )
            for view in cube.views
        }
        self.planner = QueryPlanner(
            {view: cube.view_rows(view) for view in cube.views},
            view_orders if index else None,
        )

    # -- sorted-view access ------------------------------------------------

    def _sorted_view(self, view: View) -> SortedView:
        """A sorted handle for ``view``: the store's mmap handle when
        open, else an in-memory one built on first use."""
        sv = self._views.get(view)
        if sv is None:
            run = global_run([rv[view] for rv in self.cube.rank_views])
            sv = self._views[view] = SortedView(
                run.order, run.keys, run.measure
            )
        return sv

    def explain(self, query: Query) -> QueryPlan:
        """The chosen view plus the access path the engine will take."""
        return self.planner.plan(query)

    # -- gathered execution ------------------------------------------------

    def answer(self, query: Query) -> Relation:
        """Gathered (single-host) execution; returns canonical columns."""
        plan = self.explain(query)
        cards = self.cube.cardinalities
        if plan.access_path != "scan" and plan.access is not None:
            sv = self._sorted_view(plan.view)
            lo_key, hi_key = key_bounds(
                sv.order, cards, plan.access, query.filters
            )
            start, stop = sv.range(lo_key, hi_key)
            keys, measure = sv.read(start, stop)
            out_keys, out_measure = aggregate_slice(
                keys, measure, sv.order, cards, plan.access,
                query.group_by, self.cube.agg,
            )
        else:
            rel = self.cube.view_relation(plan.view)
            mask = _filter_mask(rel.dims, plan.view, query.filters)
            out_keys, out_measure = _aggregate(
                rel.dims[mask],
                rel.measure[mask],
                plan.view,
                query.group_by,
                cards,
                self.cube.agg,
            )
        out_keys, out_measure = _apply_having(
            out_keys, out_measure, query.having
        )
        codec = KeyCodec([cards[dim] for dim in query.group_by])
        return Relation(codec.unpack(out_keys), out_measure)

    # -- parallel execution ------------------------------------------------

    def answer_parallel(
        self, query: Query, spec: MachineSpec | None = None
    ) -> tuple[Relation, float]:
        """Execute the plan across the virtual cluster.

        Each rank scans its local piece of the chosen view (charging disk
        and modelled CPU), partial aggregates travel to rank 0 in one
        gather, and rank 0 combines.  Returns the result plus the
        *simulated* latency — which is bounded below by the largest
        per-rank piece of the view, i.e. by the γ balance the construction
        paid for.
        """
        plan = self.planner.plan(query)
        spec = spec or MachineSpec(p=len(self.cube.rank_views))
        if spec.p != len(self.cube.rank_views):
            raise ValueError(
                f"cube is distributed over {len(self.cube.rank_views)} "
                f"ranks but spec has p={spec.p}"
            )
        cube, cards, agg = self.cube, self.cube.cardinalities, self.cube.agg
        group_by, filters, view = query.group_by, query.filters, plan.view
        # One codec per distinct rank order, derived once up front —
        # the rank closures share them instead of re-deriving per rank
        # per query.
        codecs = {
            rv[view].order: codec_for_order(rv[view].order, cards)
            for rv in cube.rank_views
        }

        def rank_program(comm):
            data = cube.rank_views[comm.rank][view]
            comm.set_phase("query-scan")
            comm.disk.charge_scan(data.nrows)
            comm.disk.work.charge_scan(data.nrows)
            dims_local = codecs[data.order].unpack(data.keys)
            col_of = {dim: pos for pos, dim in enumerate(data.order)}
            canon_cols = [col_of[dim] for dim in view]
            dims_local = dims_local[:, canon_cols] if canon_cols else dims_local
            mask = _filter_mask(dims_local, view, filters)
            keys, measure = _aggregate(
                dims_local[mask], data.measure[mask], view, group_by,
                cards, agg,
            )
            comm.set_phase("query-gather")
            parts = comm.gather((keys, measure), root=0)
            if comm.rank != 0:
                return None
            all_keys = np.concatenate([k for k, _ in parts])
            all_measure = np.concatenate([m for _, m in parts])
            order = stable_order(all_keys)
            return aggregate_sorted_keys(
                all_keys[order], all_measure[order], agg
            )

        result = run_spmd(rank_program, spec)
        keys, measure = result.rank_results[0]
        keys, measure = _apply_having(keys, measure, query.having)
        codec = KeyCodec([cards[dim] for dim in group_by])
        return (
            Relation(codec.unpack(keys), measure),
            result.simulated_seconds,
        )
