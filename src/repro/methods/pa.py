"""PA — the polynomial-approximation PDR method (Section 6).

For every timestamp in the maintained window ``[t_now, t_now + H]`` the
method keeps a ``g x g`` grid of total-degree-``k`` Chebyshev expansions of
the point-density surface.  Each object insertion (deletion) adds
(subtracts) the closed-form delta coefficients of the object's indicator
square at every covered timestamp — Algorithm 4/5 — vectorised here over
the whole trajectory in one numpy pass.  Queries run branch-and-bound on
the per-tile expansions (Section 6.3) and never touch the objects
themselves, which is why PA's query cost is independent of the dataset size.

Unlike FR, PA fixes the neighborhood edge ``l`` at construction time (the
delta squares are baked into the coefficients); querying with a different
``l`` raises.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

import numpy as np

from ..chebyshev.delta import delta_coefficients_batch
from ..chebyshev.grid import ChebSurface, GridSpec
from ..core.errors import HorizonError, InvalidParameterError
from ..core.geometry import Rect
from ..core.query import QueryResult, QueryStats, SnapshotPDRQuery
from ..motion.model import Motion
from ..motion.updates import DeleteUpdate, InsertUpdate, ReportPair, UpdateListener
from ..telemetry import TELEMETRY

__all__ = ["PAMethod"]


class PAMethod(UpdateListener):
    """On-line Chebyshev density maintenance plus B&B query evaluation."""

    def __init__(
        self,
        domain: Rect,
        l: float,
        horizon: int,
        g: int = 20,
        k: int = 5,
        md: int = 512,
        tnow: int = 0,
        faults=None,
    ) -> None:
        if l <= 0:
            raise InvalidParameterError(f"l must be positive, got {l}")
        if horizon < 0:
            raise InvalidParameterError(f"horizon must be >= 0, got {horizon}")
        self.faults = faults
        self.spec = GridSpec(domain, g, k)
        self.l = l
        self.horizon = horizon
        self.md = md
        self._tnow = tnow
        self._slots = horizon + 1
        self._coeffs = np.zeros((self._slots, g, g, k + 1, k + 1))
        self._slot_time = np.zeros(self._slots, dtype=np.int64)
        for t in range(tnow, tnow + self._slots):
            self._slot_time[t % self._slots] = t

    # ------------------------------------------------------------------
    # time window (mirrors DensityHistogram's ring buffer)
    # ------------------------------------------------------------------
    @property
    def tnow(self) -> int:
        return self._tnow

    @property
    def window(self) -> Tuple[int, int]:
        return (self._tnow, self._tnow + self.horizon)

    def memory_bytes(self) -> int:
        """The paper's figure: ``H g^2 (k+1)(k+2)/2`` 8-byte coefficients."""
        return self.spec.coefficients_memory_bytes(self.horizon)

    def on_advance(self, tnow: int) -> None:
        if tnow < self._tnow:
            raise InvalidParameterError(f"clock moved backwards to {tnow}")
        steps = tnow - self._tnow
        if steps == 0:
            return
        if steps >= self._slots:
            self._coeffs[:] = 0.0
            ts = np.arange(tnow, tnow + self._slots, dtype=np.int64)
            self._slot_time[ts % self._slots] = ts
        else:
            # Expired slots are all distinct (steps < _slots): reset and
            # relabel them in two vectorised writes, mirroring the density
            # histogram's ring-buffer advance.
            t_old = np.arange(self._tnow, tnow, dtype=np.int64)
            slots = t_old % self._slots
            self._coeffs[slots] = 0.0
            self._slot_time[slots] = t_old + self._slots
        self._tnow = tnow

    # ------------------------------------------------------------------
    # update stream (Algorithms 4 and 5)
    # ------------------------------------------------------------------
    def on_insert(self, update: InsertUpdate) -> None:
        self.on_insert_batch([update])

    def on_delete(self, update: DeleteUpdate) -> None:
        self.on_delete_batch([update])

    def on_insert_batch(self, updates: Sequence[InsertUpdate]) -> None:
        self._apply_batch([(u.motion, u.tnow, +1.0) for u in updates])

    def on_delete_batch(self, updates: Sequence[DeleteUpdate]) -> None:
        self._apply_batch(
            [(u.motion, u.motion.t_ref, -1.0) for u in updates]
        )

    def on_report_batch(self, pairs: Sequence[ReportPair]) -> None:
        # Coefficient accumulation is float addition, which is not
        # associative: to stay bit-identical to one-at-a-time updates the
        # wave must apply delete_i, insert_i, delete_{i+1}, ... in the
        # exact per-report interleaving — hence this override instead of
        # the default all-deletes-then-all-inserts split.
        jobs = []
        for delete, insert in pairs:
            if delete is not None:
                jobs.append((delete.motion, delete.motion.t_ref, -1.0))
            jobs.append((insert.motion, insert.tnow, +1.0))
        self._apply_batch(jobs)

    # Rectangles per delta/scatter flush.  Large enough that the per-call
    # trig/einsum overhead amortises away, small enough that the
    # intermediate (M, k+1, k+1) arrays stay cache-resident instead of
    # spilling — one unbounded pass over a big wave is *slower* than
    # applying its updates one at a time.
    _BATCH_RECTS = 16384

    def _apply_batch(
        self, jobs: Sequence[Tuple[Motion, int, float]]
    ) -> None:
        """Apply ``(motion, t_from, sign)`` updates in whole-wave numpy passes.

        Each job covers ``[t_from, t_from + horizon]`` intersected with the
        window; at every covered timestamp the object's influence square
        (edge ``l``, clipped to the domain) is split into one rectangle per
        overlapped tile, and the closed-form delta coefficients of each
        rectangle are added to that ``(slot, tile)`` expansion.  The
        expansion runs over the entire wave at once and comes out in job
        order.  Within one job every rectangle hits a distinct
        ``(slot, tile)`` coefficient cell (distinct timestamps map to
        distinct slots, distinct tiles to distinct cells), so the only
        accumulation order that matters per cell is *across* jobs; keeping
        job order makes the result bit-identical to applying the jobs one
        at a time, however a run of updates is cut into waves.
        """
        n = len(jobs)
        if n == 0:
            return
        t_ref = np.array([job[0].t_ref for job in jobs], dtype=float)
        x0 = np.array([job[0].x for job in jobs])
        y0 = np.array([job[0].y for job in jobs])
        vx = np.array([job[0].vx for job in jobs])
        vy = np.array([job[0].vy for job in jobs])
        t_from = np.array([job[1] for job in jobs], dtype=np.int64)
        sign = np.array([job[2] for job in jobs])

        # (n, slots) trajectory grid — elementwise the same ``x + dt*vx``
        # Motion.positions_at computes.
        ts = np.arange(self._tnow, self._tnow + self._slots, dtype=np.int64)
        dt = ts.astype(float)[None, :] - t_ref[:, None]
        xs = x0[:, None] + dt * vx[:, None]
        ys = y0[:, None] + dt * vy[:, None]
        covered = (ts[None, :] >= np.maximum(t_from, self._tnow)[:, None]) & (
            ts[None, :]
            <= np.minimum(t_from + self.horizon, self._tnow + self.horizon)[:, None]
        )
        dom = self.spec.domain
        half = self.l / 2.0
        sx1 = np.maximum(xs - half, dom.x1)
        sx2 = np.minimum(xs + half, dom.x2)
        sy1 = np.maximum(ys - half, dom.y1)
        sy2 = np.minimum(ys + half, dom.y2)
        in_domain = (
            (xs >= dom.x1) & (xs < dom.x2) & (ys >= dom.y1) & (ys < dom.y2)
        )
        nonempty = covered & (sx2 > sx1) & (sy2 > sy1) & in_domain
        if not nonempty.any():
            return
        job_idx, t_idx = np.nonzero(nonempty)
        ts_f = ts[t_idx]
        sx1, sx2, sy1, sy2 = (
            sx1[nonempty],
            sx2[nonempty],
            sy1[nonempty],
            sy2[nonempty],
        )

        cw = self.spec.cell_width
        ch = self.spec.cell_height
        g = self.spec.g
        tiny = 1e-12
        ci0 = np.clip(((sx1 - dom.x1) / cw).astype(np.int64), 0, g - 1)
        ci1 = np.clip(((sx2 - dom.x1) / cw - tiny).astype(np.int64), 0, g - 1)
        cj0 = np.clip(((sy1 - dom.y1) / ch).astype(np.int64), 0, g - 1)
        cj1 = np.clip(((sy2 - dom.y1) / ch - tiny).astype(np.int64), 0, g - 1)

        # Expand variable-size tile spans into flat (job, timestamp, tile)
        # rectangles in one repeat pass.  ``job_idx`` from np.nonzero is
        # row-major, so the expansion comes out job-major with no sort;
        # the tile visit order within one job is immaterial because a
        # job's rectangles all hit distinct coefficient cells.
        ci_span = ci1 - ci0 + 1
        cj_span = cj1 - cj0 + 1
        counts = ci_span * cj_span
        rect_of = np.repeat(np.arange(counts.shape[0]), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        offset = np.arange(rect_of.shape[0]) - starts[rect_of]
        span = cj_span[rect_of]
        di = offset // span
        dj = offset - di * span
        ci = ci0[rect_of] + di
        cj = cj0[rect_of] + dj
        tile_x1 = dom.x1 + ci * cw
        tile_y1 = dom.y1 + cj * ch
        ox1 = np.maximum(sx1[rect_of], tile_x1)
        ox2 = np.minimum(sx2[rect_of], tile_x1 + cw)
        oy1 = np.maximum(sy1[rect_of], tile_y1)
        oy2 = np.minimum(sy2[rect_of], tile_y1 + ch)
        slots = ts_f[rect_of] % self._slots
        rx1 = 2.0 * (ox1 - tile_x1) / cw - 1.0
        rx2 = 2.0 * (ox2 - tile_x1) / cw - 1.0
        ry1 = 2.0 * (oy1 - tile_y1) / ch - 1.0
        ry2 = 2.0 * (oy2 - tile_y1) / ch - 1.0
        heights = sign[job_idx[rect_of]] / (self.l * self.l)

        # Scatter through a flat 1-D view: np.add.at on linear indices is
        # several times faster than the equivalent N-D fancy index, and the
        # element addition order (rect order, then the 36 distinct
        # coefficient positions within a rect) is unchanged.
        kk = self.spec.k + 1
        base = ((slots * g + ci) * g + cj) * (kk * kk)
        offsets = np.arange(kk * kk, dtype=np.int64)
        flat = self._coeffs.reshape(-1)
        total = slots.shape[0]
        for start in range(0, total, self._BATCH_RECTS):
            end = min(start + self._BATCH_RECTS, total)
            deltas = delta_coefficients_batch(
                self.spec.k,
                rx1[start:end],
                rx2[start:end],
                ry1[start:end],
                ry2[start:end],
                height=heights[start:end],
            )
            idx = (base[start:end, None] + offsets[None, :]).reshape(-1)
            np.add.at(flat, idx, deltas.reshape(-1))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict:
        """Raw state for snapshotting (see :mod:`repro.storage.snapshot`)."""
        return {
            "coeffs": self._coeffs.copy(),
            "slot_time": self._slot_time.copy(),
            "tnow": np.int64(self._tnow),
        }

    def load_state_arrays(self, state: dict) -> None:
        """Restore state produced by :meth:`state_arrays` (shapes must match)."""
        coeffs = np.asarray(state["coeffs"], dtype=float)
        if coeffs.shape != self._coeffs.shape:
            raise InvalidParameterError(
                f"snapshot shape {coeffs.shape} does not match PA state "
                f"{self._coeffs.shape}"
            )
        # Contiguity matters: the batched scatter writes through a flat
        # reshape(-1) view, which only aliases contiguous storage.
        self._coeffs = np.ascontiguousarray(coeffs)
        self._slot_time = np.asarray(state["slot_time"], dtype=np.int64)
        self._tnow = int(state["tnow"])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def surface_at(self, qt: int) -> ChebSurface:
        """The approximated density surface for ``qt`` (shares storage)."""
        if not (self._tnow <= qt <= self._tnow + self.horizon):
            raise HorizonError(
                f"timestamp {qt} outside maintained window {self.window}"
            )
        slot = qt % self._slots
        if self._slot_time[slot] != qt:  # pragma: no cover - internal invariant
            raise HorizonError(f"ring-buffer slot for {qt} not materialised")
        return ChebSurface(self.spec, self._coeffs[slot])

    def query(self, query: SnapshotPDRQuery, deadline=None) -> QueryResult:
        """Approximate PDR answer by branch-and-bound (Section 6.3).

        The deadline is checked once at entry: a single B&B pass is cheap
        and all-or-nothing, so there is no useful intermediate point at
        which to abandon it.
        """
        if abs(query.l - self.l) > 1e-9:
            raise InvalidParameterError(
                f"PA was built for l={self.l}; query asked l={query.l} "
                "(the approximate method fixes l, see Section 6)"
            )
        if self.faults is not None:
            self.faults.hit("pa.query")
        if deadline is not None:
            deadline.check("pa.query")
        start = time.perf_counter()
        surface = self.surface_at(query.qt)
        regions, bnb = surface.dense_regions(query.rho, md=self.md)
        cpu = time.perf_counter() - start
        TELEMETRY.tracer.record_span("bnb", cpu, nodes=bnb.nodes_visited)
        stats = QueryStats(method="pa", cpu_seconds=cpu, bnb_nodes=bnb.nodes_visited)
        stats.extra["bnb_accepted"] = float(bnb.accepted_by_bound)
        stats.extra["bnb_pruned"] = float(bnb.pruned_by_bound)
        stats.extra["bnb_leaves"] = float(bnb.resolved_at_leaf)
        return QueryResult(regions=regions, stats=stats, query=query)
