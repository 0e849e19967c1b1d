"""FR — the exact filtering-refinement PDR method (Section 5).

Evaluation proceeds in two steps:

1. **Filter** (Algorithm 1): classify every histogram cell as accepted
   (provably dense in full), rejected (provably nowhere dense) or candidate,
   using the conservative/expansive neighborhood counts.
2. **Refine** (Algorithms 2-3): fetch the objects that can influence the
   candidate cells with timestamped range queries on the TPR-tree (paying
   simulated I/O through the buffer pool), then plane-sweep them into the
   exact dense sub-rectangles.

The union of accepted cells and refined rectangles is the exact PDR answer.

Refinement pipeline — the only one, for snapshot queries here and interval
queries in :mod:`repro.methods.interval`: candidate cells are fused into
per-row **bands** of maximal strips, every band rectangle is fetched in one
``range_positions_batch`` call on the index, and the fused bands are swept
by the vectorised kernel in :mod:`repro.sweep.band_sweep` — optionally
fanned across a process pool (``REPRO_REFINE_WORKERS``; band tasks are
picklable snapshot arrays).  The emitted rectangles are bit-identical to
refining each strip sequentially with
:func:`~repro.sweep.plane_sweep.refine_cell` (see the kernel module
docstring for the argument).  The paper's one-range-query-per-cell loop
lives in ``tests/fr_oracle.py`` as the equivalence oracle.

Index contract: FR needs ``range_positions_batch(rects, qts,
charge_io=True)`` (per-rect position arrays; ``qts`` a scalar or one value
per rect), a monotone ``epoch`` bumped on every mutation, and a ``buffer``
(a :class:`~repro.storage.buffer.BufferPool` or ``None``).  The TPR-tree
and the B^x-tree both implement it.

Result reuse: per-band maximum active counts are cached per
``(tree epoch, histogram epoch, qt, l)``.  A later query over the same
snapshot with a *higher* density threshold skips — without fetching or
sweeping — every band whose strips are covered by the cached strips and
whose cached maximum is below the new threshold (no l-square centred in the
band can ever hold more objects than the band's maximum active count; this
is the ρ-monotonic containment rule).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..core.regions import RegionSet
from ..histogram.density_histogram import DensityHistogram
from ..histogram.filter import filter_query
from ..index.tree import TPRTree
from ..sweep.band_sweep import (
    BandTask,
    merge_band_results,
    refine_bands,
    _refine_bands_worker,
)
from ..sweep.plane_sweep import _THRESHOLD_EPS
from ..telemetry import TELEMETRY
from ..telemetry import instruments as tm

__all__ = ["FRMethod"]

# Keep this many (tree epoch, histogram epoch, qt, l) snapshot keys of
# per-band maxima around for the ρ-monotonic skip rule.
_BAND_CACHE_KEYS = 8

# Process pool shared by every FRMethod in the process; sized lazily to the
# last requested worker count (queries are read-only, so one pool serves all
# instances).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def _refine_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS != workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            # Spawned workers import the package fresh: no inherited locks
            # from the (possibly threaded) serving process.
            import multiprocessing

            _POOL = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")
            )
            _POOL_WORKERS = workers
        return _POOL


class FRMethod:
    """Exact PDR evaluation over a density histogram and a moving-object index.

    ``tree`` is any index meeting the contract in the module docstring —
    the TPR-tree by default, the B^x-tree as the drop-in alternative.

    ``refine_workers`` fans band sweeps across a process pool (0 = inline;
    defaults to ``REPRO_REFINE_WORKERS``).
    """

    def __init__(
        self,
        histogram: DensityHistogram,
        tree: TPRTree,
        faults=None,
        refine_workers: Optional[int] = None,
    ) -> None:
        if histogram is None or tree is None:
            raise InvalidParameterError("FR needs both a histogram and an index")
        self.histogram = histogram
        self.tree = tree
        if refine_workers is None:
            try:
                refine_workers = int(os.environ.get("REPRO_REFINE_WORKERS", "0"))
            except ValueError:
                refine_workers = 0
        self.refine_workers = max(0, refine_workers)
        self.faults = faults
        # (tree epoch, histogram epoch, qt, l) -> {row j: (x1s, x2s, max_active)}
        self._band_cache: "OrderedDict[tuple, Dict[int, tuple]]" = OrderedDict()
        self._band_cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # band planning
    # ------------------------------------------------------------------
    def _plan_rows(self, candidate: np.ndarray) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Fuse a candidate mask into per-row strips.

        Returns ``(row j, strips_x1, strips_x2)`` for every row with at
        least one candidate cell; strips are the maximal runs of adjacent
        candidate columns, with world extents matching
        :meth:`DensityHistogram.cell_rect` bit for bit.
        """
        hist = self.histogram
        lx = hist.cell_edge
        ly = hist.cell_edge_y
        x0 = hist.domain.x1
        y0 = hist.domain.y1
        out: List[Tuple[int, np.ndarray, np.ndarray]] = []
        # candidate is indexed [i, j] = (column, row).
        for j in np.flatnonzero(candidate.any(axis=0)):
            cols = np.flatnonzero(candidate[:, j])
            breaks = np.flatnonzero(np.diff(cols) > 1)
            run_starts = cols[np.concatenate([[0], breaks + 1])]
            run_ends = cols[np.concatenate([breaks, [cols.size - 1]])]
            # Same float expressions as cell_rect: x1 = x0 + i*lx, x2 = x1 + lx.
            x1s = x0 + run_starts * lx
            x2s = (x0 + run_ends * lx) + lx
            out.append((int(j), x1s.astype(float), x2s.astype(float)))
        return out

    def _row_bounds(self, j: int) -> Tuple[float, float]:
        hist = self.histogram
        y1 = hist.domain.y1 + j * hist.cell_edge_y
        return y1, y1 + hist.cell_edge_y

    def _fetch_bands(
        self, bands: List[Tuple[int, np.ndarray, np.ndarray]], qts, l: float
    ) -> Tuple[List[BandTask], int]:
        """Fetch every band's objects in one index call; build sweep tasks.

        ``bands`` are ``(row j, strips_x1, strips_x2)`` as planned by
        :meth:`_plan_rows`; ``qts`` is the query timestamp, or one per band.
        Each band is fetched over its strips' ``l/2`` expansion.  Returns the
        tasks (in band order) and the number of objects the index returned.
        """
        half = l / 2.0
        domain = self.histogram.domain
        row_bounds = [self._row_bounds(j) for j, _, _ in bands]
        fetch_rects = [
            Rect(float(x1s[0]) - half, y1 - half, float(x2s[-1]) + half, y2 + half)
            for (_, x1s, x2s), (y1, y2) in zip(bands, row_bounds)
        ]
        fetched = (
            self.tree.range_positions_batch(fetch_rects, qts) if fetch_rects else []
        )
        objects = 0
        tasks: List[BandTask] = []
        for (_, x1s, x2s), (y1, y2), (px, py) in zip(bands, row_bounds, fetched):
            objects += int(px.size)
            # Objects outside the domain do not count toward density — the
            # same convention the histogram maintains (see DensityHistogram).
            inside = (
                (px >= domain.x1)
                & (px < domain.x2)
                & (py >= domain.y1)
                & (py < domain.y2)
            )
            tasks.append(BandTask(y1, y2, x1s, x2s, px[inside], py[inside]))
        return tasks, objects

    def _accepted_bounds(self, filtered) -> np.ndarray:
        """Accepted-cell rectangles as a bounds array (cell_rect floats)."""
        ai, aj = np.nonzero(filtered.accepted)
        if ai.size == 0:
            return np.empty((0, 4), dtype=float)
        hist = self.histogram
        x1 = hist.domain.x1 + ai * hist.cell_edge
        y1 = hist.domain.y1 + aj * hist.cell_edge_y
        return np.column_stack([x1, y1, x1 + hist.cell_edge, y1 + hist.cell_edge_y])

    # ------------------------------------------------------------------
    # ρ-monotonic band cache
    # ------------------------------------------------------------------
    def _cache_key(self, query: SnapshotPDRQuery) -> tuple:
        return (
            self.tree.epoch, self.histogram._epoch, float(query.qt), float(query.l)
        )

    @staticmethod
    def _strips_covered(
        x1s: np.ndarray, x2s: np.ndarray, cx1: np.ndarray, cx2: np.ndarray
    ) -> bool:
        """True when every [x1, x2) strip lies inside some cached strip."""
        idx = np.searchsorted(cx1, x1s, side="right") - 1
        if (idx < 0).any():
            return False
        return bool((x1s >= cx1[idx]).all() and (x2s <= cx2[idx]).all())

    def _skippable_rows(
        self, key: tuple, rows, threshold: float
    ) -> set:
        """Rows whose cached band maximum proves the refinement empty."""
        with self._band_cache_lock:
            cached = self._band_cache.get(key)
            if cached is None:
                return set()
            skippable = set()
            for j, x1s, x2s in rows:
                entry = cached.get(j)
                if entry is None:
                    continue
                cx1, cx2, m_b = entry
                if m_b < threshold and self._strips_covered(x1s, x2s, cx1, cx2):
                    skippable.add(j)
            return skippable

    def _remember_rows(self, key: tuple, entries: Dict[int, tuple]) -> None:
        if not entries:
            return
        with self._band_cache_lock:
            bucket = self._band_cache.get(key)
            if bucket is None:
                bucket = {}
                self._band_cache[key] = bucket
                while len(self._band_cache) > _BAND_CACHE_KEYS:
                    self._band_cache.popitem(last=False)
            else:
                self._band_cache.move_to_end(key)
            bucket.update(entries)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: SnapshotPDRQuery, deadline=None) -> QueryResult:
        """Exact PDR answer; stats include filter counters and charged I/O.

        ``deadline`` (a :class:`repro.reliability.deadline.Deadline`) is
        checked cooperatively before each band refinement and again between
        the fetch and the sweep — refinement is where FR's cost lives —
        raising :class:`~repro.core.errors.DeadlineExceededError` so the
        degradation ladder can fall back to a cheaper method.
        """
        buffer = self.tree.buffer
        io_before = buffer.stats.misses if buffer is not None else 0
        hits_before = self.histogram.cache_hits
        misses_before = self.histogram.cache_misses
        start = time.perf_counter()

        tracer = TELEMETRY.tracer
        filtered = filter_query(self.histogram, query)
        filter_seconds = time.perf_counter() - start
        # Each measured stage float is both accumulated below and recorded
        # as a trace leaf, so trace-derived totals equal stats.extra exactly.
        tracer.record_span("filter", filter_seconds)

        threshold = query.min_count - _THRESHOLD_EPS

        # --- fuse: candidate mask -> per-row strip bands -------------------
        stage = time.perf_counter()
        rows = self._plan_rows(filtered.candidate)
        for _ in rows:
            if self.faults is not None:
                self.faults.hit("fr.refine")
            if deadline is not None:
                deadline.check("fr.refine")
        cache_key = self._cache_key(query)
        skippable = self._skippable_rows(cache_key, rows, threshold)
        kept = [r for r in rows if r[0] not in skippable]
        fuse_seconds = time.perf_counter() - stage
        tracer.record_span(
            "fuse", fuse_seconds, bands=len(rows), skipped=len(skippable)
        )

        # --- fetch: one batched index call for every band ------------------
        stage = time.perf_counter()
        tasks, objects_examined = self._fetch_bands(kept, float(query.qt), query.l)
        fetch_seconds = time.perf_counter() - stage
        tracer.record_span("fetch", fetch_seconds, objects=objects_examined)
        if deadline is not None:
            deadline.check("fr.refine")

        # --- sweep: vectorised band kernel, inline or pooled ---------------
        stage = time.perf_counter()
        workers = self.refine_workers
        if workers > 0 and len(tasks) > 1:
            n_chunks = min(workers, len(tasks))
            sizes = [
                len(tasks) // n_chunks + (1 if k < len(tasks) % n_chunks else 0)
                for k in range(n_chunks)
            ]
            offsets, pos = [], 0
            payloads = []
            for size in sizes:
                offsets.append(pos)
                payloads.append(
                    (
                        [tuple(t) for t in tasks[pos : pos + size]],
                        query.l,
                        query.min_count,
                    )
                )
                pos += size
            pool = _refine_pool(workers)
            chunks = list(pool.map(_refine_bands_worker, payloads))
            swept = merge_band_results(chunks, offsets)
        else:
            swept = refine_bands(tasks, query.l, query.min_count)
        sweep_seconds = time.perf_counter() - stage
        tracer.record_span(
            "sweep", sweep_seconds, rects=int(swept.bounds.shape[0]),
            segments=swept.segments, pairs=swept.pairs,
        )

        # --- merge: accepted cells + refined rects, cache band maxima ------
        stage = time.perf_counter()
        self._remember_rows(
            cache_key,
            {
                j: (x1s, x2s, int(m_b))
                for (j, x1s, x2s), m_b in zip(kept, swept.max_active)
            },
        )
        bounds = np.concatenate([self._accepted_bounds(filtered), swept.bounds])
        # Accepted cells, candidate strips and per-strip sweep emissions are
        # pairwise disjoint by construction: the O(n) area fast path applies.
        regions = RegionSet.from_bounds(bounds, disjoint=True)
        merge_seconds = time.perf_counter() - stage
        tracer.record_span("merge", merge_seconds, rects=len(regions))

        tm.REFINE_BANDS.labels("swept").inc(len(kept))
        tm.REFINE_BANDS.labels("skipped").inc(len(skippable))
        tm.REFINE_POOL_WORKERS.set(float(workers))
        for band_stage, dt in (
            ("fuse", fuse_seconds),
            ("fetch", fetch_seconds),
            ("sweep", sweep_seconds),
            ("merge", merge_seconds),
        ):
            tm.REFINE_BAND_SECONDS.labels(band_stage).observe(dt)

        cpu = time.perf_counter() - start
        io_count = (buffer.stats.misses - io_before) if buffer is not None else 0
        io_seconds = (
            io_count * buffer.io_seconds_per_miss if buffer is not None else 0.0
        )
        stats = QueryStats(
            method="fr",
            cpu_seconds=cpu,
            io_count=io_count,
            io_seconds=io_seconds,
            accepted_cells=filtered.accepted_count,
            rejected_cells=filtered.rejected_count,
            candidate_cells=filtered.candidate_count,
            objects_examined=objects_examined,
        )
        stats.extra["filter_seconds"] = filter_seconds
        stats.extra["fuse_seconds"] = fuse_seconds
        stats.extra["fetch_seconds"] = fetch_seconds
        stats.extra["sweep_seconds"] = sweep_seconds
        stats.extra["merge_seconds"] = merge_seconds
        stats.extra["refine_bands"] = float(len(kept))
        stats.extra["refine_bands_skipped"] = float(len(skippable))
        stats.extra["refine_segments"] = float(swept.segments)
        stats.extra["refine_pairs"] = float(swept.pairs)
        stats.extra["refine_workers"] = float(workers)
        stats.extra["cache_hits"] = float(self.histogram.cache_hits - hits_before)
        stats.extra["cache_misses"] = float(
            self.histogram.cache_misses - misses_before
        )
        return QueryResult(regions=regions, stats=stats, query=query)
