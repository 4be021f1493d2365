"""OLAP query layer over a constructed data cube.

The paper's point of building the cube is "the fast execution of
subsequent OLAP queries": a GROUP-BY becomes a lookup in the smallest
materialised view that covers it.  This package supplies that downstream
surface:

* :mod:`repro.olap.query` — query objects, the view-selection planner
  (smallest covering view), and a query engine that answers group-bys
  either from the gathered cube or *in parallel* across the virtual
  cluster, which makes the paper's balance argument measurable: each
  view's per-rank distribution bounds parallel scan latency.
* :mod:`repro.olap.index` — fence indexes over the stored sorted views
  and the access-path classifier that turns prefix-compatible filters
  into one ``searchsorted`` key range (no decode, no argsort).
* :mod:`repro.olap.store` — persist a built cube to disk and reopen it;
  every view is stored as one globally sorted run of memory-mapped key
  and measure columns the index path serves from.
* :mod:`repro.olap.cache` — the byte-budgeted, admission-controlled
  result cache the service keys by (store generation, query), so a
  refresh can never serve a stale hit.
* :mod:`repro.olap.refresh` — incremental maintenance: fold an
  insert-only delta into a stored cube as a new immutable generation
  (:func:`refresh_store`) instead of rebuilding from scratch, with a
  non-blocking atomic ``CURRENT`` swap live readers pick up between
  queries.
* :mod:`repro.olap.service` — a supervised pool of store-backed worker
  processes over the pooled shared-memory data plane, with retries,
  deadlines, load shedding, and a poison-query circuit breaker.
* :mod:`repro.olap.supervise` — the serving failure surface
  (:class:`QueryTimeout`, :class:`ServiceOverloaded`,
  :class:`PoisonQuery`) and the posture that bounds it
  (:class:`ServicePolicy`); the workers run on
  :class:`repro.mpi.pool.WorkerPool`.
"""

from repro.olap.cache import ResultCache
from repro.olap.index import AccessPlan, FenceIndex, SortedView
from repro.olap.query import Query, QueryEngine, QueryPlan, QueryPlanner
from repro.olap.refresh import RefreshReport, refresh_cube, refresh_store
from repro.olap.service import QueryService
from repro.olap.store import CubeStore, OpenCube
from repro.olap.supervise import (
    PoisonQuery,
    QueryTimeout,
    ServiceOverloaded,
    ServicePolicy,
)

__all__ = [
    "AccessPlan",
    "CubeStore",
    "FenceIndex",
    "OpenCube",
    "PoisonQuery",
    "Query",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "QueryService",
    "QueryTimeout",
    "RefreshReport",
    "ResultCache",
    "ServiceOverloaded",
    "ServicePolicy",
    "SortedView",
    "refresh_cube",
    "refresh_store",
]
