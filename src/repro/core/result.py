"""The constructed data cube: per-rank view pieces plus run metering,
as :func:`repro.core.cube.build_data_cube` returns it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.config import RunResult
from repro.core.viewdata import ViewData
from repro.core.views import View, canonical_view
from repro.storage.table import Relation

if TYPE_CHECKING:
    from repro.core.merge import MergeReport
    from repro.core.pipesort import ScheduleTree

__all__ = ["CubeResult"]


@dataclass
class CubeResult:
    """A constructed (full or partial) data cube plus run metering."""

    #: Per-rank view pieces: ``rank_views[j][view]`` is rank ``j``'s slice.
    rank_views: list[dict[View, ViewData]]
    #: Global dimension cardinalities (schedule-tree index space).
    cardinalities: tuple[int, ...]
    #: Run metrics (simulated seconds, traffic, disk blocks, phases).
    metrics: RunResult
    #: Per-partition merge reports from every rank (rank 0's copy).
    merge_reports: list[MergeReport] = field(default_factory=list)
    #: Schedule trees used, one per partition (rank 0's copy).
    schedule_trees: list[ScheduleTree] = field(default_factory=list)
    #: The internal aggregate the stored measures carry ("sum" for COUNT
    #: cubes — see repro.core.aggregate.prepare_measure).
    agg: str = "sum"

    @property
    def views(self) -> list[View]:
        """All materialised view identifiers."""
        return sorted(self.rank_views[0], key=lambda v: (len(v), v))

    @property
    def view_count(self) -> int:
        return len(self.rank_views[0])

    def view_rows(self, view: View) -> int:
        """Total rows of one view across all ranks."""
        view = canonical_view(view)
        return sum(rv[view].nrows for rv in self.rank_views)

    def total_rows(self) -> int:
        """Total cube size in rows (the paper's headline output metric)."""
        return sum(self.view_rows(v) for v in self.rank_views[0])

    def view_relation(self, view: View) -> Relation:
        """Gather one view into a single relation (canonical column order)."""
        view = canonical_view(view)
        parts = [
            rv[view].to_relation(self.cardinalities) for rv in self.rank_views
        ]
        return Relation.concat(parts)

    def distribution(self, view: View) -> np.ndarray:
        """Per-rank row counts of a view (balance inspection)."""
        view = canonical_view(view)
        return np.array([rv[view].nrows for rv in self.rank_views])

    def describe(self) -> str:
        lines = [
            f"data cube: {self.view_count} views, {self.total_rows()} rows, "
            f"p={len(self.rank_views)}",
            f"  simulated time : {self.metrics.simulated_seconds:.2f} s",
            f"  communication  : {self.metrics.comm_bytes / 1e6:.2f} MB",
            f"  disk transfers : {self.metrics.disk_blocks} blocks "
            f"({self.metrics.disk_blocks_read} read + "
            f"{self.metrics.disk_blocks_written} written)",
        ]
        return "\n".join(lines)
