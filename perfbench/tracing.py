"""In-memory timing shims around the public calls of each layer.

The traced run patches the functions listed in :data:`SHIMS` with
wrappers that record one span per call: ``(name, start, end, parent)``.
Nothing inside ``src/`` changes; the shims are installed only around the
operations a workload chooses to trace, so the same run also measures
untraced operations and reports the tracing overhead.

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  Spans are recorded from one thread: the in-process
workloads (query, ingest, recovery) are single-threaded callers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.chebyshev.grid import ChebSurface
from repro.core.system import PDRServer
from repro.histogram.density_histogram import DensityHistogram
from repro.index.tree import TPRTree
from repro.methods import fr as fr_module
from repro.methods.fr import FRMethod
from repro.methods.pa import PAMethod
from repro.motion.table import ObjectTable
from repro.reliability import recovery as recovery_module
from repro.reliability.recovery import ReliabilityManager
from repro.storage import snapshot as snapshot_module

_LISTENER_HOOKS = ("on_insert", "on_delete", "on_insert_batch", "on_delete_batch", "on_advance")

# (owner, attribute, span name).  Module-level functions are patched in the
# namespace their caller looks them up in.
SHIMS = [
    (PDRServer, "report_batch", "core.report_batch"),
    (PDRServer, "advance_to", "core.advance"),
    (PDRServer, "query", "core.query"),
    (PDRServer, "evaluate", "core.evaluate"),
    (PDRServer, "apply_logged_record", "reliability.replay"),
    (ReliabilityManager, "log_report_batch", "reliability.wal"),
    (ReliabilityManager, "log_advance", "reliability.wal"),
    (ObjectTable, "report_batch", "motion.table"),
    (ObjectTable, "report", "motion.table"),
    (ObjectTable, "advance_to", "motion.table"),
    *[(TPRTree, hook, "index.update") for hook in _LISTENER_HOOKS],
    *[(DensityHistogram, hook, "histogram.update") for hook in _LISTENER_HOOKS],
    *[(PAMethod, hook, "methods.pa_update") for hook in _LISTENER_HOOKS + ("on_report_batch",)],
    (fr_module, "filter_query", "histogram.filter"),
    (TPRTree, "range_positions_batch", "index.fetch"),
    (fr_module, "refine_bands", "sweep.refine"),
    (FRMethod, "query", "methods.fr"),
    (PAMethod, "query", "methods.pa"),
    (ChebSurface, "dense_regions", "chebyshev.bnb"),
    (recovery_module, "_load_best_checkpoint", "reliability.checkpoint_load"),
    (snapshot_module, "restore_server_state", "reliability.checkpoint_load"),
    (recovery_module, "audit_server", "reliability.audit"),
]

# Listener hooks running under WAL replay are billed to the replay metrics.
_REPLAY_NAMES = {
    "index.update": "index.replay",
    "histogram.update": "histogram.replay",
    "methods.pa_update": "methods.pa_replay",
}


class SpanRecorder:
    """Keeps spans in memory; :meth:`traced` installs the shims."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent_index]
        self._stack: List[int] = []
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in SHIMS]
        self._shims = [
            self._wrap(name, original) for (_, _, name), (_, _, original)
            in zip(SHIMS, self._originals)
        ]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return shim

    @contextmanager
    def traced(self):
        """Install every shim for the duration of the block."""
        for (owner, attr, _), shim in zip(self._originals, self._shims):
            setattr(owner, attr, shim)
        try:
            yield
        finally:
            for owner, attr, original in self._originals:
                setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int = 0, until: Optional[int] = None) -> Dict[str, float]:
        """Seconds of self time per layer for spans recorded in ``[since, until)``."""
        spans = self.spans[since:until]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= since:
                child_time[parent - since] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            if name in _REPLAY_NAMES and self._under(since + i, "reliability.replay"):
                name = _REPLAY_NAMES[name]
            totals[name] += (end - start) - child_time[i]
        return totals

    def inclusive_times(self, since: int = 0) -> Dict[str, float]:
        """Seconds per span name, children included (outermost spans only
        when a name nests under itself)."""
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans[since:], start=since):
            if parent < 0 or not self._under(i, name):
                totals[name] += end - start
        return totals

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                fh,
            )
