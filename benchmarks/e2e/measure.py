"""Small measuring helpers shared by the workload drivers."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from check import Tally, shm_segments, sweep


@dataclass
class Outcome:
    """What one run of one workload measured."""

    tally: Tally
    #: End-to-end metric name -> value (always from untraced operations).
    e2e: dict[str, float] = field(default_factory=dict)
    #: Per-layer metric name -> value (whatever this run could observe).
    layers: dict[str, float] = field(default_factory=dict)
    #: Free-form facts for the run record (sizes, sample counts).
    notes: dict = field(default_factory=dict)
    shm_before: set = field(default_factory=set)
    calib_start: float = 0.0

    @classmethod
    def start(cls) -> "Outcome":
        """Open a run: note the shm segments that exist and how fast the
        host is before anything is measured."""
        return cls(Tally(), shm_before=shm_segments(), calib_start=calib_sort_s())

    def finish(self) -> "Outcome":
        """Close a run: host speed again, the leak sweep, peak memory."""
        calib_end = calib_sort_s()
        self.notes["calib_sort_s"] = (self.calib_start, calib_end)
        self.layers["bench.calib_sort_s"] = (self.calib_start + calib_end) / 2
        sweep(self.tally, self.shm_before)
        self.e2e["peak_rss_mb"] = peak_rss_mb()
        return self


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def put(into: dict, name: str, samples, reduce=median, scale: float = 1.0) -> None:
    """``into[name] = reduce(samples) * scale`` when there are samples; a
    metric nothing was measured for stays absent, so ``run.py`` can tell
    it from a measured 0."""
    if len(samples):
        into[name] = reduce(samples) * scale


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def call(tracer, name: str, fn, *args, **kwargs):
    """Call into a layer, under a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.wrap(name, fn)(*args, **kwargs)


def dir_stats(path: str) -> tuple[int, int]:
    """``(bytes, files)`` under ``path``."""
    size = files = 0
    for root, _, names in os.walk(path):
        for name in names:
            size += os.path.getsize(os.path.join(root, name))
            files += 1
    return size, files


def calib_sort_s() -> float:
    """Seconds to ``np.sort`` a fixed 2 M-element int64 array: a yardstick
    for how fast the host is right now, to explain drift between runs."""
    arr = np.random.default_rng(12345).integers(0, 1 << 62, size=2_000_000)
    np.sort(arr)  # first touch of the output pages is not the host's speed
    return timed(np.sort, arr)[0]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB
