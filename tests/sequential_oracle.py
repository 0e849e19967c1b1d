"""Sequential reference for the batch ingest engine.

Every update reaches the maintained structures as a wave through
:meth:`~repro.motion.table.ObjectTable.report_batch`.  This module keeps
the one-update-at-a-time kernels the engine replaced — the density
histogram scatter and the Chebyshev delta application of Section 5.1 /
Algorithms 4-5, each for a single motion — as the oracle the engine is
compared against bit for bit.

:class:`SequentialOracle` owns its own :class:`DensityHistogram` and
:class:`PAMethod` but never calls their update hooks: each report is a
delete of the previous motion followed by an insert of the new one,
applied through the scalar kernels below, in report order.  Only the
clock advance (a ring-buffer relabel, not an update kernel) goes through
the structures' own ``on_advance``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.chebyshev.delta import delta_coefficients_batch
from repro.core.config import SystemConfig
from repro.histogram.density_histogram import DensityHistogram
from repro.methods.pa import PAMethod
from repro.motion.model import Motion


# ----------------------------------------------------------------------
# density histogram: one motion at a time
# ----------------------------------------------------------------------
def _covered_times(hist: DensityHistogram, t_from: int, t_to: int) -> np.ndarray:
    """Timestamps in both the window and ``[t_from, t_to]``."""
    lo = max(t_from, hist.tnow)
    hi = min(t_to, hist.tnow + hist.horizon)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    return np.arange(lo, hi + 1, dtype=np.int64)


def histogram_scatter(
    hist: DensityHistogram, motion: Motion, t_from: int, t_to: int, sign: int
) -> None:
    """Move the counter of the cell ``motion`` occupies at every covered
    timestamp by ``sign``."""
    ts = _covered_times(hist, t_from, t_to)
    if ts.size == 0:
        return
    xs, ys = motion.positions_at(ts)
    dom = hist.domain
    ix = np.floor((xs - dom.x1) / hist.cell_edge).astype(np.int64)
    iy = np.floor((ys - dom.y1) / hist.cell_edge_y).astype(np.int64)
    inside = (ix >= 0) & (ix < hist.m) & (iy >= 0) & (iy < hist.m)
    ts, ix, iy = ts[inside], ix[inside], iy[inside]
    np.add.at(hist._counts, (ts % (hist.horizon + 1), ix, iy), sign)


# ----------------------------------------------------------------------
# PA coefficients: one motion at a time
# ----------------------------------------------------------------------
def pa_update_rects(
    pa: PAMethod, motion: Motion, t_from: int, t_to: int
) -> Optional[Tuple[np.ndarray, ...]]:
    """The (slot, tile, normalized-rect) pairs one update touches.

    Returns ``(slots, ci, cj, rx1, rx2, ry1, ry2)`` arrays, or ``None``
    when the update covers nothing inside the window and domain.
    """
    lo = max(t_from, pa.tnow)
    hi = min(t_to, pa.tnow + pa.horizon)
    if hi < lo:
        return None
    ts = np.arange(lo, hi + 1, dtype=np.int64)
    xs, ys = motion.positions_at(ts)
    half = pa.l / 2.0
    dom = pa.spec.domain
    # The influence square at each covered timestamp, clipped to the domain;
    # timestamps where the object itself is outside the domain contribute
    # nothing.
    sx1 = np.maximum(xs - half, dom.x1)
    sx2 = np.minimum(xs + half, dom.x2)
    sy1 = np.maximum(ys - half, dom.y1)
    sy2 = np.minimum(ys + half, dom.y2)
    in_domain = (xs >= dom.x1) & (xs < dom.x2) & (ys >= dom.y1) & (ys < dom.y2)
    nonempty = (sx2 > sx1) & (sy2 > sy1) & in_domain
    if not nonempty.any():
        return None
    ts, sx1, sx2, sy1, sy2 = (
        ts[nonempty], sx1[nonempty], sx2[nonempty], sy1[nonempty], sy2[nonempty]
    )
    cw = pa.spec.cell_width
    ch = pa.spec.cell_height
    g = pa.spec.g
    tiny = 1e-12
    ci0 = np.clip(((sx1 - dom.x1) / cw).astype(np.int64), 0, g - 1)
    ci1 = np.clip(((sx2 - dom.x1) / cw - tiny).astype(np.int64), 0, g - 1)
    cj0 = np.clip(((sy1 - dom.y1) / ch).astype(np.int64), 0, g - 1)
    cj1 = np.clip(((sy2 - dom.y1) / ch - tiny).astype(np.int64), 0, g - 1)

    # Expand the variable-size tile spans by looping over the (tiny) span
    # offsets.
    parts = []
    for di in range(int((ci1 - ci0).max()) + 1):
        for dj in range(int((cj1 - cj0).max()) + 1):
            ci = ci0 + di
            cj = cj0 + dj
            mask = (ci <= ci1) & (cj <= cj1)
            if not mask.any():
                continue
            ci_m, cj_m = ci[mask], cj[mask]
            tile_x1 = dom.x1 + ci_m * cw
            tile_y1 = dom.y1 + cj_m * ch
            ox1 = np.maximum(sx1[mask], tile_x1)
            ox2 = np.minimum(sx2[mask], tile_x1 + cw)
            oy1 = np.maximum(sy1[mask], tile_y1)
            oy2 = np.minimum(sy2[mask], tile_y1 + ch)
            # Overlap rectangles normalised to the tile frame [-1, 1].
            parts.append(
                (
                    ts[mask] % (pa.horizon + 1),
                    ci_m,
                    cj_m,
                    2.0 * (ox1 - tile_x1) / cw - 1.0,
                    2.0 * (ox2 - tile_x1) / cw - 1.0,
                    2.0 * (oy1 - tile_y1) / ch - 1.0,
                    2.0 * (oy2 - tile_y1) / ch - 1.0,
                )
            )
    return tuple(np.concatenate(column) for column in zip(*parts))


def pa_apply(pa: PAMethod, motion: Motion, t_from: int, t_to: int, sign: float) -> None:
    """Add (``sign`` = +1) or subtract (-1) one motion's delta coefficients."""
    rects = pa_update_rects(pa, motion, t_from, t_to)
    if rects is None:
        return
    slots, ci, cj, rx1, rx2, ry1, ry2 = rects
    deltas = delta_coefficients_batch(
        pa.spec.k, rx1, rx2, ry1, ry2, height=sign / (pa.l * pa.l)
    )
    np.add.at(pa._coeffs, (slots, ci, cj), deltas)


# ----------------------------------------------------------------------
# the oracle server
# ----------------------------------------------------------------------
class SequentialOracle:
    """Histogram and PA state built one update at a time, in report order."""

    def __init__(self, config: SystemConfig, tnow: int = 0) -> None:
        self.tnow = tnow
        self.motions: Dict[int, Motion] = {}
        self.histogram = DensityHistogram(
            config.domain, m=config.histogram_cells, horizon=config.horizon, tnow=tnow
        )
        self.pa = PAMethod(
            config.domain,
            l=config.l,
            horizon=config.horizon,
            g=config.polynomial_grid,
            k=config.polynomial_degree,
            md=config.evaluation_grid,
            tnow=tnow,
        )

    def _delete(self, motion: Motion) -> None:
        t_to = motion.t_ref + self.histogram.horizon
        histogram_scatter(self.histogram, motion, motion.t_ref, t_to, -1)
        pa_apply(self.pa, motion, motion.t_ref, t_to, -1.0)

    def _insert(self, motion: Motion) -> None:
        t_to = self.tnow + self.histogram.horizon
        histogram_scatter(self.histogram, motion, self.tnow, t_to, +1)
        pa_apply(self.pa, motion, self.tnow, t_to, +1.0)

    def report(self, oid: int, x: float, y: float, vx: float, vy: float) -> None:
        old = self.motions.get(oid)
        if old is not None:
            self._delete(old)
        motion = Motion(oid, self.tnow, x, y, vx, vy)
        self.motions[oid] = motion
        self._insert(motion)

    def retire(self, oid: int) -> None:
        self._delete(self.motions.pop(oid))

    def advance_to(self, tnow: int) -> None:
        if tnow > self.tnow:
            self.tnow = tnow
            self.histogram.on_advance(tnow)
            self.pa.on_advance(tnow)

    def apply_record(self, record: dict) -> None:
        """Apply one WAL record (the shape ``PDRServer`` logs)."""
        op = record["op"]
        if op == "report":
            self.report(
                int(record["oid"]),
                float(record["x"]),
                float(record["y"]),
                float(record["vx"]),
                float(record["vy"]),
            )
        elif op == "retire":
            self.retire(int(record["oid"]))
        elif op == "advance":
            self.advance_to(int(record["t"]))

    def mismatches(self, server) -> list:
        """Names of the arrays where ``server`` differs from the oracle
        (compared with ``np.array_equal``: bit for bit)."""
        pairs = {
            "histogram counts": (server.histogram._counts, self.histogram._counts),
            "histogram slot labels": (server.histogram._slot_time, self.histogram._slot_time),
            "PA coefficients": (server.pa._coeffs, self.pa._coeffs),
            "PA slot labels": (server.pa._slot_time, self.pa._slot_time),
        }
        out = [name for name, (a, b) in pairs.items() if not np.array_equal(a, b)]
        if server.tnow != self.tnow:
            out.append(f"clock {server.tnow} != {self.tnow}")
        return out
