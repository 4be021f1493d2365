"""Query-result caching for warehouse front-ends.

A dashboard re-issues the same group-bys constantly; caching their
results is the standard tier above any OLAP engine.
:class:`~repro.olap.service.QueryService` keys its cache on the
:class:`~repro.olap.query.Query` itself (hashable since its filters
normalise to an immutable mapping) *plus the store generation that
answered it* — cubes are immutable once built, but an incremental
refresh (:func:`~repro.olap.refresh.refresh_store`) publishes a new
generation of the same logical cube, and a result computed against
generation N must never satisfy a query against generation N+1.
Keying by ``(generation, query)`` makes stale hits structurally
impossible without any flush coordination; superseded generations'
entries simply age out of the LRU.

Eviction is *byte-budgeted*: every entry is charged its actual array
payload and the cache evicts least-recently-used entries until it fits
the budget, so a thousand point lookups and three giant roll-ups are
costed honestly against the same memory.  An **admission threshold**
keeps any single result larger than :data:`ADMIT_FRACTION` of the
budget out entirely — one huge slice scan must not flush the whole
working set of small hot results (the classic scan-resistance rule).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.storage.table import Relation

__all__ = ["ADMIT_FRACTION", "CacheStats", "ResultCache", "result_nbytes"]

#: The largest share of the byte budget one result may take.
ADMIT_FRACTION = 0.25


def result_nbytes(result: Relation) -> int:
    """The array payload of one cached result, in bytes."""
    return int(result.dims.nbytes) + int(result.measure.nbytes)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Results denied admission (larger than the admit threshold).
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Byte-budgeted LRU with admission control.

    ``byte_budget`` bounds the total payload bytes held.  A value larger
    than ``ADMIT_FRACTION * byte_budget`` is never admitted — it would
    evict many small entries to cache one result that is cheap to
    recompute relative to its footprint.
    """

    def __init__(self, byte_budget: int):
        if byte_budget < 1:
            raise ValueError(
                f"byte_budget must be >= 1, got {byte_budget}"
            )
        self.byte_budget = byte_budget
        self.stats = CacheStats()
        self.bytes_held = 0
        self._entries: OrderedDict[Hashable, tuple[object, int]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """The cached value or ``None`` (counts a hit/miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def put(self, key: Hashable, value, nbytes: int) -> bool:
        """Insert (or refresh) an entry; returns False when denied
        admission.  Evicts LRU entries until the budget holds."""
        nbytes = int(nbytes)
        if nbytes > self.byte_budget * ADMIT_FRACTION:
            self.stats.rejected += 1
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes_held -= old[1]
        self._entries[key] = (value, nbytes)
        self.bytes_held += nbytes
        # Admission caps an entry at ADMIT_FRACTION < 1 of the budget,
        # so eviction stops before it reaches the new entry.
        while self.bytes_held > self.byte_budget:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self.bytes_held -= evicted_bytes
            self.stats.evictions += 1
        return True

    def snapshot(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes_held": self.bytes_held,
            "byte_budget": self.byte_budget,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "rejected": self.stats.rejected,
            "hit_rate": self.stats.hit_rate,
        }
