"""Event-loop references for the vectorised sweeps.

:func:`repro.sweep.plane_sweep.dense_segments_1d` and
:func:`~repro.sweep.plane_sweep.refine_cell` process event arrays in numpy.
This module keeps the original renderings they replaced — a Python event
loop for the 1-D sweep (Algorithm 3) and a set-and-heap X-driver for the
plane sweep (Algorithm 2) — as the oracles they are compared against.  Both
pairs see the same float event coordinates, so the fast paths must match
with ``==`` on every emitted bound (``RegionSet`` has no ``__eq__``:
compare ``.rects``).  ``benchmarks/perf_gate.py`` also times
:func:`refine_cell_reference` for its ``sweep_speedup`` ratio.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect, merge_touching_intervals
from repro.core.regions import RegionSet
from repro.sweep.plane_sweep import _THRESHOLD_EPS


def dense_segments_1d_reference(
    coords: np.ndarray,
    half: float,
    lo: float,
    hi: float,
    min_count: float,
) -> List[Tuple[float, float]]:
    """The original event-loop sweep, kept as the equivalence oracle."""
    if hi <= lo:
        return []
    threshold = min_count - _THRESHOLD_EPS
    if len(coords) == 0:
        return [(lo, hi)] if 0 >= threshold else []
    coords = np.asarray(coords, dtype=float)
    enters = coords - half
    exits = coords + half
    # Count already active at the left boundary.
    count = int(np.count_nonzero((enters <= lo) & (exits > lo)))
    # Event list strictly inside (lo, hi): +1 at enter, -1 at exit.
    events: List[Tuple[float, int]] = []
    for e in enters:
        if lo < e < hi:
            events.append((float(e), +1))
    for e in exits:
        if lo < e < hi:
            events.append((float(e), -1))
    events.sort()
    segments: List[Tuple[float, float]] = []
    prev = lo
    idx = 0
    n = len(events)
    while idx <= n:
        if idx == n:
            nxt = hi
        else:
            nxt = events[idx][0]
        if nxt > prev and count >= threshold:
            segments.append((prev, nxt))
        if idx == n:
            break
        # Apply every event at this coordinate before moving on.
        here = nxt
        while idx < n and events[idx][0] == here:
            count += events[idx][1]
            idx += 1
        prev = here
    return merge_touching_intervals(segments)


def refine_cell_reference(
    positions: Sequence[Tuple[float, float]],
    cell: Rect,
    l: float,
    min_count: float,
) -> RegionSet:
    """The original set-and-heap X-driver, kept as the equivalence oracle."""
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
    enters = xs - half
    exits = xs + half

    # Only objects whose y-range can overlap the cell's l-band matter (the
    # band spans the cell height plus l/2 on each side).  This is a cheap
    # superset filter; exactness comes from the y-sweep.
    keep = (ys - half < cell.y2 + half) & (ys + half > cell.y1 - half)
    xs, ys, enters, exits = xs[keep], ys[keep], enters[keep], exits[keep]

    # X breakpoints: cell edges plus every stopping event strictly inside.
    breaks = {cell.x1, cell.x2}
    for e in enters:
        if cell.x1 < e < cell.x2:
            breaks.add(float(e))
    for e in exits:
        if cell.x1 < e < cell.x2:
            breaks.add(float(e))
    xs_breaks = sorted(breaks)

    order_by_enter = np.argsort(enters, kind="stable")
    n = len(xs)
    add_ptr = 0
    active_exit_heap: List[Tuple[float, int]] = []  # (exit, object index)
    active = set()

    out: List[Rect] = []
    for seg_idx in range(len(xs_breaks) - 1):
        x_lo = xs_breaks[seg_idx]
        x_hi = xs_breaks[seg_idx + 1]
        # Admit objects whose band interval has started (enter <= x_lo).
        while add_ptr < n and enters[order_by_enter[add_ptr]] <= x_lo:
            obj = int(order_by_enter[add_ptr])
            add_ptr += 1
            if exits[obj] > x_lo:
                active.add(obj)
                heapq.heappush(active_exit_heap, (float(exits[obj]), obj))
        # Expire objects whose interval has ended (exit <= x_lo).
        while active_exit_heap and active_exit_heap[0][0] <= x_lo:
            _, obj = heapq.heappop(active_exit_heap)
            active.discard(obj)
        if not active:
            if 0 >= threshold:
                out.append(Rect(x_lo, cell.y1, x_hi, cell.y2))
            continue
        if len(active) < threshold:
            continue  # the whole band holds fewer objects than any square needs
        band_ys = ys[list(active)]
        for y_lo, y_hi in dense_segments_1d_reference(
            band_ys, half, cell.y1, cell.y2, min_count
        ):
            out.append(Rect(x_lo, y_lo, x_hi, y_hi))
    return RegionSet(out)
