"""Measure algebra shared by the aggregation kernels and the merge phase.

The distributive aggregate functions of the paper's setting (SUM, COUNT,
MIN, MAX) are the ones a ROLAP cube can compute by merging partial
aggregates; COUNT merges by addition.  Scalar combination is needed at the
few places (boundary agglomeration) where two already-aggregated rows for
the same key meet.
"""

from __future__ import annotations

import numpy as np

from repro.storage.table import Relation

__all__ = [
    "SUPPORTED_AGGS",
    "INSERT_MAINTAINABLE_AGGS",
    "combine_scalar",
    "prepare_measure",
    "require_insert_maintainable",
]

SUPPORTED_AGGS = ("sum", "count", "min", "max")

#: Aggregates a cube can maintain under *insert-only* deltas by
#: combining partial aggregates (the distributive functions).  AVG-style
#: algebraic aggregates would need auxiliary columns (sum + count), and
#: holistic ones (MEDIAN, DISTINCT) can't be maintained at all — both
#: must be rebuilt, never refreshed.
INSERT_MAINTAINABLE_AGGS = ("sum", "count", "min", "max")


def require_insert_maintainable(agg: str, context: str = "refresh") -> str:
    """Reject aggregates that cannot absorb a delta by combination.

    Every refresh entry point calls this before touching any state, so a
    non-maintainable aggregate fails loudly instead of silently writing
    wrong totals.  Returns ``agg`` unchanged when it is maintainable.
    """
    if agg not in INSERT_MAINTAINABLE_AGGS:
        raise ValueError(
            f"{context} requires an insert-maintainable aggregate "
            f"(one of {INSERT_MAINTAINABLE_AGGS}); got {agg!r}. "
            "AVG-style or custom aggregates without a combine rule "
            "cannot fold deltas into existing partials - rebuild the "
            "cube from the full input instead."
        )
    return agg


def prepare_measure(relation: Relation, agg: str) -> tuple[Relation, str]:
    """Normalise COUNT into SUM-of-ones at ingestion.

    COUNT is only a row count at the *first* aggregation; every
    re-aggregation (pipeline steps, merges) must add the partial counts.
    Swapping the measure for 1.0 and aggregating with SUM gives exactly
    that semantics everywhere downstream.
    """
    if agg == "count":
        return (
            Relation(relation.dims, np.ones(relation.nrows, dtype=np.float64)),
            "sum",
        )
    if agg not in SUPPORTED_AGGS:
        raise ValueError(f"unsupported aggregate: {agg!r}")
    return relation, agg


def combine_scalar(a: float, b: float, agg: str) -> float:
    """Combine two partial aggregates of the same key."""
    if agg in ("sum", "count"):
        return a + b
    if agg == "min":
        return min(a, b)
    if agg == "max":
        return max(a, b)
    raise ValueError(f"unsupported aggregate: {agg!r}")
