"""Post-build integrity audit of a constructed data cube.

Recovery — and especially *degraded-mode* recovery, whose survivors adopt
a dead rank's checkpointed pieces mid-build — must never be taken on
faith: :func:`audit_cube` re-derives invariants every correct
cube satisfies and reports which hold.  The checks are pure reads over
the finished cube (no simulation state), so the audit can run after any
build, clean or recovered:

``piece-shape``
    Every view has a piece on every rank, each piece's order covers its
    view, and its keys lie inside the view's key space.  A view that
    fails here is left out of the other checks, so a malformed cube
    gives a failed check rather than an error.
``view-totals``
    Every SUM view aggregates *all* raw rows, so its measure total equals
    the raw relation's measure total.  COUNT cubes are stored as SUM over
    a ones-measure (see :mod:`repro.core.aggregate`), so the same check
    verifies per-view COUNT totals equal the raw row count.  Skipped for
    MIN/MAX cubes, whose totals are not invariant across group sizes.
``row-monotonicity``
    Dropping a dimension can only merge groups: a child view (one fewer
    dimension) never has more rows than its parent, and no view has more
    rows than the raw relation.
``rank-run``
    A view's rank pieces share one sort order and, laid end to end in
    rank order, their packed keys are strictly increasing: Procedure 3
    leaves each view range-partitioned in rank order with every group
    key on exactly one rank, a degraded resume adopts a lost rank's
    pieces by position, and every store, scan and refresh reads the
    concatenation as one sorted run.  A duplicate key, an unsorted piece
    or pieces that interleave across ranks fail here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.views import view_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cube import CubeResult
    from repro.storage.table import Relation

__all__ = ["AuditCheck", "AuditReport", "audit_cube"]

#: Relative tolerance for measure-total comparisons.  Degraded builds
#: re-group float partial sums, so exact equality only holds for
#: integer-valued measures; for general floats this bounds the allowed
#: associativity drift.
_REL_TOL = 1e-9


@dataclass
class AuditCheck:
    """Outcome of one audit invariant."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class AuditReport:
    """All audit outcomes for one cube."""

    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def issues(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        """JSON-friendly summary (stored on ``RunResult.audit``)."""
        return {
            "ok": self.ok,
            "checks": {c.name: c.ok for c in self.checks},
            "issues": self.issues,
        }

    def summary(self) -> str:
        if self.ok:
            return f"audit: OK ({len(self.checks)} checks)"
        return "audit: FAILED (" + "; ".join(self.issues) + ")"


def audit_cube(
    cube: "CubeResult", relation: "Relation | None" = None
) -> AuditReport:
    """Run every integrity check against ``cube``.

    ``relation`` is the raw input (measure already prepared — for COUNT
    cubes a ones column); when given, view totals are checked against the
    raw total and row counts against the raw row count.  Without it the
    totals check compares views against each other (the finest view
    stands in for the raw total).
    """
    report = AuditReport()
    views, misshapen = _well_formed(cube)
    report.checks.append(_check("piece-shape", misshapen))
    rows = {v: sum(rv[v].nrows for rv in cube.rank_views) for v in views}

    # -- view totals ------------------------------------------------------
    if cube.agg == "sum":
        totals = {
            v: float(
                sum(float(rv[v].measure.sum()) for rv in cube.rank_views)
            )
            for v in views
        }
        if relation is not None:
            expected = float(np.asarray(relation.measure).sum())
        else:
            expected = totals[max(views, key=len)] if views else 0.0
        scale = max(abs(expected), 1.0)
        report.checks.append(_check("view-totals", [
            f"{view_name(v)}={totals[v]!r} (expected {expected!r})"
            for v in views
            if abs(totals[v] - expected) > _REL_TOL * scale
        ]))
    else:
        report.checks.append(
            AuditCheck(
                "view-totals",
                True,
                f"skipped: totals are not invariant under {cube.agg!r}",
            )
        )

    # -- row-count monotonicity up the lattice ----------------------------
    viewset = set(views)
    bad = []
    for parent in views:
        for drop in range(len(parent)):
            child = parent[:drop] + parent[drop + 1:]
            if child in viewset and rows[child] > rows[parent]:
                bad.append(
                    f"{view_name(child)} has {rows[child]} rows > parent "
                    f"{view_name(parent)} with {rows[parent]}"
                )
    if relation is not None:
        nraw = int(relation.nrows)
        bad.extend(
            f"{view_name(v)} has {rows[v]} rows > {nraw} raw rows"
            for v in views
            if rows[v] > nraw
        )
    report.checks.append(_check("row-monotonicity", bad))

    # -- the rank pieces laid end to end are one strictly increasing run --
    bad = []
    for v in views:
        pieces = [rv[v] for rv in cube.rank_views]
        keys = np.concatenate([piece.keys for piece in pieces])
        if len({piece.order for piece in pieces}) > 1:
            bad.append(f"{view_name(v)}'s rank pieces disagree on the order")
        elif not (keys[1:] > keys[:-1]).all():
            bad.append(
                f"{view_name(v)}'s rank pieces in rank order are not "
                "strictly increasing"
            )
    report.checks.append(_check("rank-run", bad))
    return report


def _check(name: str, bad: list[str]) -> AuditCheck:
    """One invariant's outcome: it holds when ``bad`` is empty."""
    return AuditCheck(
        name, not bad, "; ".join(bad[:4]) + ("..." if len(bad) > 4 else "")
    )


def _well_formed(cube: "CubeResult") -> tuple[list, list[str]]:
    """The views every rank holds a well-formed piece of (the ones the
    other checks read), and what is wrong with each of the rest."""
    d = len(cube.cardinalities)
    every = sorted(
        {v for rv in cube.rank_views for v in rv}, key=lambda v: (len(v), v)
    )
    good, bad = [], []
    for view in every:
        problem = _shape_problem(cube, view, d)
        if problem:
            bad.append(f"{view_name(view)} {problem}")
        else:
            good.append(view)
    return good, bad


def _shape_problem(cube: "CubeResult", view, d: int) -> str:
    if tuple(sorted(set(view))) != tuple(view) or any(x >= d for x in view):
        return "is not a view of this cube"
    space = 1
    for dim in view:
        space *= cube.cardinalities[dim]
    for j, rv in enumerate(cube.rank_views):
        data = rv.get(view)
        if data is None:
            return f"is missing on rank {j}"
        if set(data.order) != set(view):
            return f"has a rank {j} order {data.order} that does not cover it"
        if data.nrows and (data.keys.min() < 0 or data.keys.max() >= space):
            return f"has rank {j} keys outside its key space {space}"
    return ""

