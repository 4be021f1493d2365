"""Spans recorded from the benchmark's side of each layer boundary.

``Tracer.install()`` replaces the public functions and methods listed in
``FUNCTION_TARGETS`` / ``METHOD_TARGETS`` with timing wrappers, in every
loaded ``repro`` module that looks the name up (``from x import f`` binds
``f`` in the importer, so the importer is where it must be patched).
Spans stay in memory until ``dump``.  Nothing under ``src/`` changes and
nothing is recorded unless a tracer is installed, so end-to-end numbers
are always taken without it.

Ranks of the thread backend run as threads of this process and are
traced; ranks of the process backend and service workers are forked
children whose spans die with them, so for those the traced run relies on
what ``RunResult`` / ``stats()`` expose (see README.md).

(The file is ``tracing.py``, not ``trace.py``: the benchmark directory is
``sys.path[0]`` when ``run.py`` runs, and ``trace`` is a stdlib module.)
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (span name, defining module, function name)
FUNCTION_TARGETS = (
    ("core.partition_sort", "repro.core.sample_sort", "adaptive_sample_sort"),
    ("core.partition_sort", "repro.core.sample_sort", "batched_sample_sort"),
    ("core.pipesort_plan", "repro.core.estimate", "estimate_view_sizes"),
    ("core.pipesort_plan", "repro.core.pipesort", "build_schedule_tree"),
    ("core.pipesort_exec", "repro.core.pipesort", "execute_schedule"),
    ("core.merge", "repro.core.merge", "merge_partitions"),
    ("storage.sort", "repro.storage.sortkernels", "sort_pairs"),
    ("storage.aggregate", "repro.storage.scan", "aggregate_sorted_keys"),
    ("storage.aggregate", "repro.storage.scan", "merge_sorted"),
)

#: (span name, defining module, class name, method names)
METHOD_TARGETS = (
    ("core.checkpoint_save", "repro.core.checkpoint", "RankCheckpoint", ("save",)),
    ("core.checkpoint_load", "repro.core.checkpoint", "RankCheckpoint", ("load",)),
    ("storage.codec_remap", "repro.storage.codec", "KeyCodec", ("remap",)),
    (
        "mpi.collective",
        "repro.mpi.comm",
        "Comm",
        ("alltoall", "allgather", "bcast", "barrier", "gather", "scatter", "allreduce"),
    ),
)

#: Spans whose first array argument's length is recorded as ``count``.
_COUNT_ROWS = {"storage.sort"}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: [id, name, start, end, parent id, rank, run id, count, error]
        self.spans: list[list] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span per call."""
        spans = self.spans
        local = self._local
        ids = self._ids
        count_rows = name in _COUNT_ROWS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            # A Comm as receiver or first argument tells this thread's
            # rank; later spans of the thread inherit it.
            rank = getattr(args[0], "rank", None) if args else None
            if isinstance(rank, int) and hasattr(args[0], "size"):
                local.rank = rank
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                count = len(args[0]) if count_rows and args else 0
                spans.append(
                    [span_id, name, start, end, parent,
                     getattr(local, "rank", -1), self.run_id, count, error]
                )

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target where it is looked up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, modname, attr in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, modname, clsname, methods in METHOD_TARGETS:
            cls = getattr(importlib.import_module(modname), clsname)
            for method in methods:
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def totals(self, run_ids=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (span
        minus its direct children) and summed counts."""
        chosen = [
            s for s in self.spans if run_ids is None or s[6] in run_ids
        ]
        child_time: dict[int, float] = defaultdict(float)
        for s in chosen:
            child_time[s[4]] += s[3] - s[2]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "count": 0}
        )
        for s in chosen:
            dur = s[3] - s[2]
            row = out[s[1]]
            row["calls"] += 1
            row["seconds"] += dur
            row["self_seconds"] += dur - child_time.get(s[0], 0.0)
            row["count"] += s[7]
        return dict(out)

    def resume_seconds(self, run_id: int) -> float:
        """Wall seconds from the injected crash surfacing (the first span
        that ended in an exception) to the retry's first new superstep
        (the first collective after the last checkpoint load)."""
        spans = [s for s in self.spans if s[6] == run_id]
        crashed = [s[3] for s in spans if s[8]]
        loads = [s[3] for s in spans if s[1] == "core.checkpoint_load"]
        if not crashed or not loads:
            return 0.0
        crash_at, loaded_at = min(crashed), max(loads)
        after = [
            s[2] for s in spans
            if s[1] == "mpi.collective" and s[2] >= loaded_at
        ]
        return (min(after) - crash_at) if after else 0.0

    def dump(self, path: str, extra: dict | None = None) -> None:
        fields = ["id", "name", "start", "end", "parent", "rank", "run_id",
                  "count", "error"]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": fields,
                    "totals": self.totals(),
                    "spans": self.spans,
                    **(extra or {}),
                },
                fh,
            )
