"""Plane-sweep refinement (Section 5.3, Algorithms 2-3).

Given a rectangle ``cell`` to refine and the positions of every object that
can influence a point in the cell (i.e. all objects within the ``l/2``
expansion of the cell), the sweep finds the exact dense sub-rectangles.

The point density is piecewise constant: by the half-open square semantics,
an object at ``ox`` belongs to the l-square centred at ``cx`` iff
``cx ∈ [ox - l/2, ox + l/2)`` (dually for y).  So along X the set ``L_x`` of
objects inside the *l-band* only changes at the finitely many *stopping
events* ``ox ± l/2`` (Lemma 1); within ``L_x``, the set ``L_y`` inside the
sliding l-square only changes at events ``oy ± l/2`` (Lemma 2).  Sweeping
both axes therefore yields the exact answer as a union of half-open
rectangles ``[x_i, x_{i+1}) x [y_j, y_{j+1})``.

The same routine doubles as the library's brute-force oracle when handed the
whole domain and every object (see :mod:`repro.baselines.bruteforce`).

:func:`dense_segments_1d` and :func:`refine_cell` are vectorised: the 1-D
sweep is a sort + cumsum over event arrays and the X-driver keeps its active
band in a boolean mask advanced by two sorted pointers, so per-object work
happens in numpy instead of per-event Python.  The original event-loop
renderings live in ``tests/sweep_oracle.py`` as oracles — the property
suite in ``tests/test_perf_paths.py`` holds each pair bit-identical (both
process the exact same float event coordinates, so equality is ``==`` on
every emitted bound, not approximate).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.geometry import Rect
from ..core.regions import RegionSet

__all__ = [
    "refine_cell",
    "sweep_y_counts",
    "dense_segments_1d",
]

# Dense test: integer count vs float rho*l^2 — nudge so equality means dense.
_THRESHOLD_EPS = 1e-9


def dense_segments_1d(
    coords: np.ndarray,
    half: float,
    lo: float,
    hi: float,
    min_count: float,
) -> List[Tuple[float, float]]:
    """Dense half-open segments of a 1-D sweep over ``[lo, hi)``.

    ``coords`` are object coordinates on the swept axis; a centre ``c`` covers
    an object at ``o`` iff ``c ∈ [o - half, o + half)``.  Returns the merged
    half-open segments where the cover count is at least ``min_count``.

    This is Algorithm 3 (SweepY) in isolation, reused by the X-sweep driver
    below and by the baselines.  Events are processed as arrays — unique
    coordinates, per-coordinate net deltas, a running cumsum — instead of a
    Python event loop; ``tests/sweep_oracle.py`` keeps the loop, and the two
    are bit-identical (same event floats, same comparisons).
    """
    if hi <= lo:
        return []
    threshold = min_count - _THRESHOLD_EPS
    if len(coords) == 0:
        return [(lo, hi)] if 0 >= threshold else []
    coords = np.asarray(coords, dtype=float)
    enters = coords - half
    exits = coords + half
    # Count already active at the left boundary.
    count0 = int(np.count_nonzero((enters <= lo) & (exits > lo)))
    # Events strictly inside (lo, hi): +1 at enter, -1 at exit.
    enters_in = enters[(lo < enters) & (enters < hi)]
    exits_in = exits[(lo < exits) & (exits < hi)]
    if enters_in.size == 0 and exits_in.size == 0:
        return [(lo, hi)] if count0 >= threshold else []
    events = np.concatenate([enters_in, exits_in])
    deltas = np.concatenate(
        [
            np.ones(enters_in.size, dtype=np.int64),
            -np.ones(exits_in.size, dtype=np.int64),
        ]
    )
    # Net count change per distinct coordinate, then the running count on
    # each segment between consecutive edges.
    uniq, inverse = np.unique(events, return_inverse=True)
    net = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(net, inverse, deltas)
    edges = np.concatenate([[lo], uniq, [hi]])
    counts = np.concatenate([[count0], count0 + np.cumsum(net)])
    dense = counts >= threshold
    # Maximal dense runs: consecutive dense segments share an edge exactly
    # (the same float), which is precisely what merge_touching_intervals
    # merges in the reference; edges are strictly increasing so no
    # zero-width segments arise.
    flips = np.diff(np.concatenate([[False], dense, [False]]).astype(np.int8))
    starts = np.flatnonzero(flips == 1)
    ends = np.flatnonzero(flips == -1)
    return [(float(edges[s]), float(edges[e])) for s, e in zip(starts, ends)]


def sweep_y_counts(
    ys: Sequence[float], half: float, lo: float, hi: float, min_count: float
) -> List[Tuple[float, float]]:
    """Alias of :func:`dense_segments_1d` matching the paper's SweepY naming."""
    return dense_segments_1d(np.asarray(list(ys), dtype=float), half, lo, hi, min_count)


def refine_cell(
    positions: Sequence[Tuple[float, float]],
    cell: Rect,
    l: float,
    min_count: float,
) -> RegionSet:
    """Exact dense regions inside ``cell`` (Algorithm 2, RefineQuery).

    Args:
        positions: ``(x, y)`` of every object within the ``l/2`` expansion of
            ``cell`` at query time (a superset is harmless — objects that
            cannot influence the cell never enter any band).
        cell: the half-open rectangle to refine.
        l: neighborhood edge length.
        min_count: objects required for density (``rho * l**2``).

    Returns:
        The exact dense region inside ``cell`` as half-open rectangles.

    The active l-band is a boolean mask advanced by two pointers over the
    enter- and exit-sorted orders (the reference rebuilt a Python set and a
    heap per segment); the per-segment Y-sweep runs on ``ys[mask]`` in one
    numpy pass.  ``tests/sweep_oracle.py`` keeps the original rendering;
    outputs are bit-identical.
    """
    if l <= 0:
        raise InvalidParameterError(f"l must be positive, got {l}")
    if cell.is_empty():
        return RegionSet()
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    if not positions:
        return RegionSet([cell]) if 0 >= threshold else RegionSet()

    pos = np.asarray(positions, dtype=float)
    xs = pos[:, 0]
    ys = pos[:, 1]

    # Only objects whose y-range can overlap the cell's l-band matter (the
    # band spans the cell height plus l/2 on each side).  This is a cheap
    # superset filter; exactness comes from the y-sweep.
    keep = (ys - half < cell.y2 + half) & (ys + half > cell.y1 - half)
    xs, ys = xs[keep], ys[keep]
    enters = xs - half
    exits = xs + half

    # X breakpoints: cell edges plus every stopping event strictly inside.
    edges = np.unique(
        np.concatenate(
            [
                np.array([cell.x1, cell.x2], dtype=float),
                enters[(cell.x1 < enters) & (enters < cell.x2)],
                exits[(cell.x1 < exits) & (exits < cell.x2)],
            ]
        )
    )

    n = xs.size
    order_enter = np.argsort(enters, kind="stable")
    order_exit = np.argsort(exits, kind="stable")
    sorted_enters = enters[order_enter]
    sorted_exits = exits[order_exit]
    active = np.zeros(n, dtype=bool)
    active_count = 0
    enter_ptr = exit_ptr = 0

    out: List[Rect] = []
    for seg_idx in range(edges.size - 1):
        x_lo = float(edges[seg_idx])
        x_hi = float(edges[seg_idx + 1])
        # Admit objects whose band interval has started (enter <= x_lo) and
        # has not already ended; then expire every interval that has.
        while enter_ptr < n and sorted_enters[enter_ptr] <= x_lo:
            obj = order_enter[enter_ptr]
            enter_ptr += 1
            if exits[obj] > x_lo:
                active[obj] = True
                active_count += 1
        while exit_ptr < n and sorted_exits[exit_ptr] <= x_lo:
            obj = order_exit[exit_ptr]
            exit_ptr += 1
            if active[obj]:
                active[obj] = False
                active_count -= 1
        if active_count == 0:
            if 0 >= threshold:
                out.append(Rect(x_lo, cell.y1, x_hi, cell.y2))
            continue
        if active_count < threshold:
            continue  # the whole band holds fewer objects than any square needs
        band_ys = ys[active]
        for y_lo, y_hi in dense_segments_1d(band_ys, half, cell.y1, cell.y2, min_count):
            out.append(Rect(x_lo, y_lo, x_hi, y_hi))
    return RegionSet(out)
