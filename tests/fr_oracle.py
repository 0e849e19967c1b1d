"""Per-cell reference for FR refinement.

:class:`~repro.methods.fr.FRMethod` refines through the band pipeline:
candidate cells are fused into per-row strips, every band is fetched in one
``range_positions_batch`` call and swept by the vectorised kernel.  This
module keeps the loop of the paper (Section 5.3, Algorithms 2-3) that the
pipeline replaced — one timestamped range query on each candidate cell's
``l/2`` expansion, then one plane sweep of that cell — as the oracle the
pipeline is compared against.

The two decompositions legitimately differ: a dense run crossing a cell
seam is one fused rectangle in the pipeline and two here.  Compare answers
as point sets, with ``RegionSet.symmetric_difference_area(...) == 0.0``.
"""

from __future__ import annotations

import numpy as np

from repro.core.query import QueryResult, QueryStats, SnapshotPDRQuery
from repro.core.regions import RegionSet
from repro.histogram.density_histogram import DensityHistogram
from repro.histogram.filter import filter_query
from repro.sweep.plane_sweep import refine_cell


def per_cell_fr(
    histogram: DensityHistogram, tree, query: SnapshotPDRQuery
) -> QueryResult:
    """The exact answer, refined one candidate cell at a time.

    ``tree`` is any index with ``range_query(rect, qt)``.  Stats carry the
    filter counters and the number of objects fetched; I/O is left to the
    caller (read the index buffer pool's miss counter around the call).
    """
    filtered = filter_query(histogram, query)
    regions = list(filtered.accepted_region())
    half = query.l / 2.0
    domain = histogram.domain
    objects_examined = 0
    for i, j in zip(*np.nonzero(filtered.candidate)):
        cell = histogram.cell_rect(int(i), int(j))
        motions = tree.range_query(cell.expanded(half), query.qt)
        objects_examined += len(motions)
        # Objects outside the domain do not count toward density.
        positions = [
            (x, y)
            for (x, y) in (m.position_at(query.qt) for m in motions)
            if domain.contains_point(x, y)
        ]
        regions.extend(refine_cell(positions, cell, query.l, query.min_count))
    stats = QueryStats(
        method="fr-per-cell",
        accepted_cells=filtered.accepted_count,
        rejected_cells=filtered.rejected_count,
        candidate_cells=filtered.candidate_count,
        objects_examined=objects_examined,
    )
    return QueryResult(regions=RegionSet(regions), stats=stats, query=query)
