"""Interval PDR queries (Definition 5).

An interval query ``(rho, l, [qt1, qt2])`` is the union of the snapshot
answers across the integer timestamps of the interval.  Any snapshot
evaluator (FR, PA, DH, brute force) can be lifted via
:func:`evaluate_interval`; statistics are summed across the constituent
snapshots.

:func:`evaluate_interval_fr` is the optimised exact evaluator.  It
classifies cells once for the whole interval
(:mod:`repro.histogram.interval_filter`) so a cell that is wholly dense at
*any* timestamp is emitted without refinement, and the remaining candidate
cells are swept only at the timestamps where they individually need it.
The per-(cell, timestamp) refinements are then executed as one batch
through the same fetch step as snapshot FR
(:meth:`~repro.methods.fr.FRMethod._fetch_bands`): every (timestamp, row)
band of fused candidate strips is fetched in a *single*
``range_positions_batch`` call — on the TPR-tree one shared traversal, where
adjacent timestamps touch nearly identical pages, so each page is read and
charged once for the whole interval instead of once per snapshot — and all
bands are swept together by the vectorised kernel in
:mod:`repro.sweep.band_sweep`.  Combined with the histogram's
epoch-keyed per-timestamp prefix-sum memoisation, an interval query no
longer recomputes each snapshot from scratch.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from ..core.geometry import Rect
from ..core.query import (
    IntervalPDRQuery,
    QueryResult,
    QueryStats,
    SnapshotPDRQuery,
)
from ..core.regions import RegionSet
from ..histogram.interval_filter import filter_query_interval
from ..sweep.band_sweep import refine_bands

__all__ = ["evaluate_interval", "evaluate_interval_fr"]

SnapshotEvaluator = Callable[[SnapshotPDRQuery], QueryResult]


def evaluate_interval(
    evaluate_snapshot: SnapshotEvaluator, query: IntervalPDRQuery
) -> QueryResult:
    """Union of snapshot answers over ``[qt1, qt2]`` with merged statistics."""
    regions = RegionSet()
    stats = QueryStats()
    for snapshot in query.snapshots():
        result = evaluate_snapshot(snapshot)
        regions = regions.union(result.regions)
        stats = stats.merged_with(result.stats)
    stats.method = (stats.method or "snapshot") + "-interval"
    return QueryResult(regions=regions, stats=stats, query=None)


def evaluate_interval_fr(fr_method, query: IntervalPDRQuery) -> QueryResult:
    """Exact interval answer with interval-level filtering (see module doc).

    ``fr_method`` is an :class:`~repro.methods.fr.FRMethod`; its histogram
    and index are used directly.
    """
    histogram = fr_method.histogram
    buffer = fr_method.tree.buffer
    io_before = buffer.stats.misses if buffer is not None else 0
    start = time.perf_counter()

    filtered = filter_query_interval(histogram, query)
    regions: List[Rect] = list(filtered.accepted_region())
    min_count = query.rho * query.l * query.l

    # Fuse each timestamp's pending candidate cells into per-row strips,
    # fetch every (timestamp, row) band in one batched index call, and
    # sweep them all in one kernel pass.
    m = histogram.m
    pending_at: Dict[int, np.ndarray] = {}
    for (i, j), timestamps in filtered.candidate_times.items():
        for qt in timestamps:
            mask = pending_at.get(qt)
            if mask is None:
                mask = np.zeros((m, m), dtype=bool)
                pending_at[qt] = mask
            mask[i, j] = True
    bands = []
    band_qts: List[float] = []
    for qt in sorted(pending_at):
        rows = fr_method._plan_rows(pending_at[qt])
        bands.extend(rows)
        band_qts.extend([float(qt)] * len(rows))
    tasks, objects_examined = fr_method._fetch_bands(
        bands, np.asarray(band_qts), query.l
    )
    swept = refine_bands(tasks, query.l, min_count)
    regions.extend(Rect(row[0], row[1], row[2], row[3]) for row in swept.bounds)

    cpu = time.perf_counter() - start
    io_count = (buffer.stats.misses - io_before) if buffer is not None else 0
    stats = QueryStats(
        method="fr-interval-optimized",
        cpu_seconds=cpu,
        io_count=io_count,
        io_seconds=io_count * buffer.io_seconds_per_miss if buffer is not None else 0.0,
        accepted_cells=filtered.accepted_count,
        rejected_cells=filtered.rejected_count,
        candidate_cells=filtered.candidate_count,
        objects_examined=objects_examined,
    )
    stats.extra["refinement_snapshots"] = float(filtered.refinement_snapshots())
    return QueryResult(regions=RegionSet(regions), stats=stats, query=None)
