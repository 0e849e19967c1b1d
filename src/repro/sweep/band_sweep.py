"""Band-fused, vectorised refinement kernel (the fast path behind FR).

:func:`repro.sweep.plane_sweep.refine_cell` refines one rectangle at a time:
an X-sweep over that rectangle's stopping events with a 1-D Y-sweep per
segment.  When a query classifies thousands of candidate cells, most of them
share an *l-band*: every cell in histogram row ``j`` sweeps the same y-range
``[y1_j, y2_j)`` against (a superset of) the same objects.  This module
refines an entire batch of such **bands** in one pass:

* cells in a row are fused into maximal horizontal **strips**; a band is one
  row's worth of strips plus the objects fetched for the row's expanded
  rectangle (one TPR range fetch per band instead of one per cell);
* the X-breakpoints of every strip come from a single sorted/unique event
  array per band.  A band's kept objects are sorted by x once; their enter
  (``x - l/2``) and exit (``x + l/2``) events then both ascend in that
  order, so the objects active at a segment's left edge ``x`` — those with
  ``enter <= x < exit`` — are one contiguous **run**
  ``[#{exit <= x}, #{enter <= x})``, found by two ``searchsorted`` calls.
  Its length is the segment's active count; no (segments x objects) array
  is ever built;
* the per-segment Y-sweeps of *all* bands run as one flat segmented
  sort+cumsum.  Each object plays one of three **y roles** against its
  band ``[y1, y2)``: *edge* (an enter or exit strictly inside ``(y1, y2)``:
  it makes events), *full* (active at ``y1`` with no event inside: it only
  adds 1 to the segment's starting count) or *none* (it contributes
  nothing).  Starting counts are prefix-sum differences over a segment's
  run; only edge objects' events enter the sweep, and since each object's
  events sit together in x order, a run of objects is a run of events.
  One integer sort of ``(segment, coordinate rank, enter?)`` keys orders
  every segment's events; net deltas per distinct coordinate, running
  counts and dense-run extraction then operate on the concatenated arrays.

Bit-exactness.  Each strip's breakpoint set equals ``refine_cell``'s
(:func:`numpy.unique` of the same float events restricted to the same strict
interior).  Subtracting ``l/2`` is monotone in floating point, so the
x-sorted enters and exits are the sorted arrays ``refine_cell`` walks, and
the run ``{enter <= x < exit}`` is exactly the pointer walk's active set:
``|{enter <= x}| - |{exit <= x}|`` counts it because ``exit >= enter`` for
every object.  The y roles are :func:`dense_segments_1d`'s own comparisons
(``enter <= lo < exit`` for the starting count, ``lo < e < hi`` for an
event) made once per object instead of once per (segment, object) pair, and
that routine depends only on the multiset of active y's.  Coordinate ranks
come from :func:`numpy.unique` of the event floats, so sorting by rank is
sorting by coordinate, and every emitted bound is one of those floats.
Fetching a whole band's objects is harmless for any strip in it: an object
outside a strip's ``l/2`` expansion contributes no breakpoint strictly
inside the strip and is never active there.  The property suite in
``tests/test_perf_paths.py`` holds the kernel bit-identical — every emitted
bound compared with ``==`` — to sequential per-strip :func:`refine_cell`
calls, on random floats and on a lattice where events tie with band and
strip edges.

Chunk invariance.  Every step is local to one band (phase A) or one segment
(phase B) — the coordinate ranks span the batch, but only order events —
so refining bands in chunks, e.g. across a worker pool, and concatenating
the outputs is elementwise identical to one inline call.
:func:`merge_band_results` is that concatenation.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

import numpy as np

from .plane_sweep import _THRESHOLD_EPS

__all__ = [
    "BandTask",
    "BandBatchResult",
    "refine_bands",
    "merge_band_results",
]

_EMPTY_I = np.empty(0, dtype=np.int64)


class BandTask(NamedTuple):
    """One l-band to refine: a row of fused strips plus its fetched objects.

    ``strips_x1``/``strips_x2`` are the half-open x-extents of the row's
    maximal candidate runs (ascending, pairwise disjoint); ``y1``/``y2`` the
    row's y-extent; ``xs``/``ys`` the positions (already domain-filtered) of
    every object fetched for the band's ``l/2`` expansion.  All arrays are
    plain float64 ndarrays, so a task pickles cheaply into a worker process.
    """

    y1: float
    y2: float
    strips_x1: np.ndarray
    strips_x2: np.ndarray
    xs: np.ndarray
    ys: np.ndarray


class BandBatchResult(NamedTuple):
    """Refinement output for a batch of bands.

    ``bounds`` is the ``(R, 4)`` array of dense rectangles in canonical
    emission order (band-major, strip-major, segment-minor, y ascending) —
    exactly the order sequential per-strip :func:`refine_cell` calls emit.
    ``task_of_rect`` maps each rectangle to its originating task index.
    ``max_active`` is each band's maximum active-band count over all sweep
    segments (the ρ-monotonic skip bound: no l-square centred in the band's
    strips can ever hold more than this many objects).  ``segments`` counts
    X-segments examined across the batch; ``pairs`` counts the (segment,
    edge object) pairs handed to the Y-sweep — the sweep's real work.
    """

    bounds: np.ndarray
    task_of_rect: np.ndarray
    max_active: np.ndarray
    segments: int
    pairs: int


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size, dtype=np.int64)
    if counts.size > 1:
        np.cumsum(counts[:-1], out=out[1:])
    return out


def _prefix_count(values: np.ndarray) -> np.ndarray:
    """``out[k]`` = sum of ``values[:k]`` (so a run ``[a, b)`` sums to
    ``out[b] - out[a]``)."""
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def refine_bands(
    tasks: Sequence[BandTask], l: float, min_count: float
) -> BandBatchResult:
    """Refine every band in ``tasks``; see the module docstring for the math."""
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    n_tasks = len(tasks)
    max_active = np.zeros(n_tasks, dtype=np.int64)
    if n_tasks == 0:
        return BandBatchResult(
            np.empty((0, 4), dtype=float), _EMPTY_I.copy(), max_active, 0, 0
        )

    # ---------------- phase A: per-band X-sweep segments ----------------
    # Sweep-eligible segments (active count may clear the threshold), each
    # with the run of objects active on it:
    seg_x_lo: List[np.ndarray] = []
    seg_x_hi: List[np.ndarray] = []
    seg_y1: List[np.ndarray] = []
    seg_y2: List[np.ndarray] = []
    seg_gid: List[np.ndarray] = []  # global segment ids (emission order keys)
    seg_task: List[np.ndarray] = []
    seg_run_lo: List[np.ndarray] = []
    seg_run_hi: List[np.ndarray] = []
    # The kept objects of those segments' bands, x-ordered per band and
    # concatenated (runs index into this), and their band's y-extent:
    obj_ys: List[np.ndarray] = []
    obj_y1: List[float] = []
    obj_y2: List[float] = []
    obj_count: List[int] = []
    # Empty segments emitted full-height (only when the threshold is <= 0):
    full_x_lo: List[np.ndarray] = []
    full_x_hi: List[np.ndarray] = []
    full_y1: List[np.ndarray] = []
    full_y2: List[np.ndarray] = []
    full_gid: List[np.ndarray] = []
    full_task: List[np.ndarray] = []

    gid_base = 0
    obj_base = 0
    for t_idx, task in enumerate(tasks):
        x1s = np.asarray(task.strips_x1, dtype=float)
        x2s = np.asarray(task.strips_x2, dtype=float)
        n_strips = x1s.size
        if n_strips == 0:
            continue
        xs = np.asarray(task.xs, dtype=float)
        ys = np.asarray(task.ys, dtype=float)
        # Same superset filter as refine_cell: only objects whose y-range can
        # overlap the band matter (band y-extent is shared by every strip).
        keep = (ys - half < task.y2 + half) & (ys + half > task.y1 - half)
        order = np.argsort(xs[keep], kind="stable")
        xs = xs[keep][order]
        ys = ys[keep][order]
        enters = xs - half
        exits = xs + half
        events = np.unique(np.concatenate([enters, exits]))
        # Breakpoints strictly inside each strip: (x1, x2) ∩ events.
        lo_idx = np.searchsorted(events, x1s, side="right")
        hi_idx = np.searchsorted(events, x2s, side="left")
        inner = hi_idx - lo_idx
        nseg = inner + 1
        total = int(nseg.sum())
        strip_of = np.repeat(np.arange(n_strips), nseg)
        within = np.arange(total, dtype=np.int64) - _exclusive_cumsum(nseg)[strip_of]
        if events.size:
            ev_idx = lo_idx[strip_of] + within
            x_lo = np.where(
                within == 0, x1s[strip_of], events[np.maximum(ev_idx - 1, 0)]
            )
            x_hi = np.where(
                within == inner[strip_of],
                x2s[strip_of],
                events[np.minimum(ev_idx, events.size - 1)],
            )
        else:
            x_lo = x1s[strip_of]
            x_hi = x2s[strip_of]
        # Enters and exits both ascend in x order, so the objects active at
        # a left edge x (enter <= x < exit) are the run
        # [#{exit <= x}, #{enter <= x}); its length is the active count.
        run_lo = np.searchsorted(exits, x_lo, side="right")
        run_hi = np.searchsorted(enters, x_lo, side="right")
        cnt = run_hi - run_lo
        if cnt.size:
            max_active[t_idx] = int(cnt.max())
        gids = gid_base + np.arange(total, dtype=np.int64)
        gid_base += total

        empty = cnt == 0
        if threshold <= 0 and bool(empty.any()):
            e = np.flatnonzero(empty)
            full_x_lo.append(x_lo[e])
            full_x_hi.append(x_hi[e])
            full_y1.append(np.full(e.size, task.y1))
            full_y2.append(np.full(e.size, task.y2))
            full_gid.append(gids[e])
            full_task.append(np.full(e.size, t_idx, dtype=np.int64))

        eligible = np.flatnonzero((~empty) & (cnt >= threshold))
        if eligible.size == 0:
            continue
        seg_x_lo.append(x_lo[eligible])
        seg_x_hi.append(x_hi[eligible])
        seg_y1.append(np.full(eligible.size, task.y1))
        seg_y2.append(np.full(eligible.size, task.y2))
        seg_gid.append(gids[eligible])
        seg_task.append(np.full(eligible.size, t_idx, dtype=np.int64))
        seg_run_lo.append(obj_base + run_lo[eligible])
        seg_run_hi.append(obj_base + run_hi[eligible])
        obj_ys.append(ys)
        obj_y1.append(task.y1)
        obj_y2.append(task.y2)
        obj_count.append(ys.size)
        obj_base += ys.size

    segments_total = gid_base
    n_pairs = 0

    # ---------------- phase B: flat segmented Y-sweep ----------------
    if seg_x_lo:
        sx_lo = np.concatenate(seg_x_lo)
        sx_hi = np.concatenate(seg_x_hi)
        sy1 = np.concatenate(seg_y1)
        sy2 = np.concatenate(seg_y2)
        sgid = np.concatenate(seg_gid)
        stask = np.concatenate(seg_task)
        run_lo = np.concatenate(seg_run_lo)
        run_hi = np.concatenate(seg_run_hi)
        n_eseg = sx_lo.size
        ys = np.concatenate(obj_ys)
        oy1 = np.repeat(np.asarray(obj_y1, dtype=float), obj_count)
        oy2 = np.repeat(np.asarray(obj_y2, dtype=float), obj_count)
        # Y roles: dense_segments_1d's comparisons, made once per object.
        # count0 counts the run's objects active at the band's low edge
        # (enter <= lo < exit); an "edge" object has an enter or an exit
        # strictly inside (lo, hi) and is the only kind that makes events.
        y_enters = ys - half
        y_exits = ys + half
        at_lo = (y_enters <= oy1) & (y_exits > oy1)
        in_enter = (oy1 < y_enters) & (y_enters < oy2)
        in_exit = (oy1 < y_exits) & (y_exits < oy2)
        at_lo_prefix = _prefix_count(at_lo)
        count0 = at_lo_prefix[run_hi] - at_lo_prefix[run_lo]
        edge_prefix = _prefix_count(in_enter | in_exit)
        n_pairs = int((edge_prefix[run_hi] - edge_prefix[run_lo]).sum())
        # Every object's in-band events (enter, then exit) in object order:
        # a segment's run of objects is a run of events.  Each event is coded
        # 2 * (rank of its coordinate) + (1 at an enter, 0 at an exit), so
        # one integer sort of segment * span + code orders every segment's
        # events by coordinate, exactly as sorting the floats would.
        has_event = np.column_stack([in_enter, in_exit]).ravel()
        picked = np.flatnonzero(has_event)
        coords, rank = np.unique(
            np.column_stack([y_enters, y_exits]).ravel()[picked], return_inverse=True
        )
        code = 2 * rank + 1 - (picked & 1)
        ev_start = _prefix_count(in_enter.astype(np.int64) + in_exit)
        ev_lo = ev_start[run_lo]
        ev_len = ev_start[run_hi] - ev_lo
        ev_pick = np.arange(int(ev_len.sum()), dtype=np.int64) + np.repeat(
            ev_lo - _exclusive_cumsum(ev_len), ev_len
        )
        keys = np.sort(
            code[ev_pick]
            + np.repeat(np.arange(n_eseg, dtype=np.int64) * (2 * coords.size), ev_len)
        )
        # Distinct (segment, coordinate) groups and their net deltas — the
        # per-segment analogue of np.unique + np.add.at.
        group = keys >> 1
        new_group = np.ones(group.size, dtype=bool)
        new_group[1:] = group[1:] != group[:-1]
        first = np.flatnonzero(new_group)
        group_end = np.append(first[1:], group.size)
        enter_prefix = _prefix_count(keys & 1)
        net = 2 * (enter_prefix[group_end] - enter_prefix[first]) - (group_end - first)
        u_seg, u_rank = np.divmod(group[first], coords.size)
        u_coord = coords[u_rank]
        # Each segment's net change over all its events, per object.
        obj_net_prefix = _prefix_count(in_enter.astype(np.int64) - in_exit)
        closing = count0 + obj_net_prefix[run_hi] - obj_net_prefix[run_lo]

        # One "position" per sweep interval: each segment opens with
        # [lo, u1) at count0, then one [u_k, u_k+1) per distinct coordinate
        # (the last ends at hi).  Every count is one cumsum of steps: the
        # opening step resets to count0, the others add the net delta.
        m_per_seg = np.bincount(u_seg, minlength=n_eseg)
        opens = np.arange(n_eseg, dtype=np.int64) + _exclusive_cumsum(m_per_seg)
        n_pos = n_eseg + u_seg.size
        closes = np.append(opens[1:], n_pos) - 1
        u_pos = np.arange(u_seg.size, dtype=np.int64) + u_seg + 1
        steps = np.empty(n_pos, dtype=np.int64)
        steps[u_pos] = net
        steps[opens] = count0 - np.append(0, closing[:-1])
        counts_pos = np.cumsum(steps)
        left_pos = np.empty(n_pos, dtype=float)
        left_pos[opens] = sy1
        left_pos[u_pos] = u_coord
        right_pos = np.empty(n_pos, dtype=float)
        right_pos[:-1] = left_pos[1:]
        right_pos[closes] = sy2
        dense = counts_pos >= threshold
        # Maximal dense runs within each segment (adjacent intervals share an
        # edge float exactly, which is what dense_segments_1d merges).
        breaks_before = np.ones(n_pos, dtype=bool)
        breaks_before[1:] = ~dense[:-1]
        breaks_before[opens] = True
        breaks_after = np.ones(n_pos, dtype=bool)
        breaks_after[:-1] = ~dense[1:]
        breaks_after[closes] = True
        s_idx = np.flatnonzero(dense & breaks_before)
        e_idx = np.flatnonzero(dense & breaks_after)
        run_seg = np.searchsorted(opens, s_idx, side="right") - 1
        sweep_bounds = np.column_stack(
            [sx_lo[run_seg], left_pos[s_idx], sx_hi[run_seg], right_pos[e_idx]]
        )
        sweep_gid = sgid[run_seg]
        sweep_task = stask[run_seg]
    else:
        sweep_bounds = np.empty((0, 4), dtype=float)
        sweep_gid = _EMPTY_I
        sweep_task = _EMPTY_I

    # ---------------- phase C: merge with full-height emissions ----------------
    if full_x_lo:
        fb = np.column_stack(
            [
                np.concatenate(full_x_lo),
                np.concatenate(full_y1),
                np.concatenate(full_x_hi),
                np.concatenate(full_y2),
            ]
        )
        all_bounds = np.concatenate([sweep_bounds, fb])
        all_gid = np.concatenate([sweep_gid, np.concatenate(full_gid)])
        all_task = np.concatenate([sweep_task, np.concatenate(full_task)])
    else:
        all_bounds = sweep_bounds
        all_gid = sweep_gid
        all_task = sweep_task
    if all_gid.size:
        # Canonical emission order: segment-major (which encodes band and
        # strip order), y ascending within a segment.
        order = np.lexsort((all_bounds[:, 1], all_gid))
        all_bounds = all_bounds[order]
        all_task = all_task[order]
    return BandBatchResult(
        all_bounds, all_task, max_active, segments_total, n_pairs
    )


def merge_band_results(
    chunks: Sequence[BandBatchResult], chunk_task_offsets: Sequence[int]
) -> BandBatchResult:
    """Concatenate per-chunk results back into whole-batch order.

    ``chunk_task_offsets[k]`` is the index of chunk ``k``'s first task in the
    original task list.  Because every kernel step is band- or segment-local,
    this merge is elementwise identical to refining the whole batch inline.
    """
    if not chunks:
        return BandBatchResult(
            np.empty((0, 4), dtype=float), _EMPTY_I.copy(), _EMPTY_I.copy(), 0, 0
        )
    bounds = np.concatenate([c.bounds for c in chunks])
    task_of_rect = np.concatenate(
        [c.task_of_rect + off for c, off in zip(chunks, chunk_task_offsets)]
    )
    max_active = np.concatenate([c.max_active for c in chunks])
    segments = sum(c.segments for c in chunks)
    pairs = sum(c.pairs for c in chunks)
    return BandBatchResult(bounds, task_of_rect, max_active, segments, pairs)


def _refine_bands_worker(payload):
    """Top-level pool entry point (must be picklable by name)."""
    tasks, l, min_count = payload
    return refine_bands([BandTask(*t) for t in tasks], l, min_count)
