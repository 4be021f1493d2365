"""Shared-nothing storage substrate: relations, key codecs, per-rank local
disks with block-transfer accounting, external-memory sort and sorted-run
aggregation.

This package is the stand-in for the per-node IDE disks and the
external-memory kernel routines (linear scan, external sort) that the paper
builds on (Vitter's two-level I/O model).
"""

from repro.storage.codec import KeyCodec
from repro.storage.disk import DiskStats, LocalDisk
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import is_sorted_int64, sort_pairs, stable_order
from repro.storage.table import Relation

__all__ = [
    "KeyCodec",
    "DiskStats",
    "LocalDisk",
    "Relation",
    "aggregate_sorted_keys",
    "external_sort",
    "is_sorted_int64",
    "sort_pairs",
    "stable_order",
]
