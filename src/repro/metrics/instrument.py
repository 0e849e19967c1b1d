"""Instrumentation wrappers for update-cost measurement (Figure 9(b)).

A :class:`TimedListener` decorates any
:class:`~repro.motion.updates.UpdateListener` and accumulates the CPU spent
in its update hooks into an
:class:`~repro.metrics.cost.UpdateCostTimer`, so the harness can report the
per-update maintenance cost of the density histogram and the polynomial
approximation separately while both consume the same update stream.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..motion.updates import (
    DeleteUpdate,
    InsertUpdate,
    ReportPair,
    UpdateListener,
)
from .cost import UpdateCostTimer

__all__ = ["TimedListener"]


class TimedListener(UpdateListener):
    """Forwards the update stream to ``inner``, timing its update hooks.

    The table dispatches only batch hooks (and ``on_advance``); they
    forward as batches — routing them through the per-object defaults
    here would silently undo the batching of whatever sits inside the
    wrapper — and charge the timer once per contained update, so
    per-update averages do not depend on how updates were cut into waves.
    """

    def __init__(self, inner: UpdateListener, timer: UpdateCostTimer = None) -> None:
        self.inner = inner
        self.timer = timer if timer is not None else UpdateCostTimer()

    def on_insert_batch(self, updates: Sequence[InsertUpdate]) -> None:
        start = time.perf_counter()
        self.inner.on_insert_batch(updates)
        self.timer.record(time.perf_counter() - start, updates=len(updates))

    def on_delete_batch(self, updates: Sequence[DeleteUpdate]) -> None:
        start = time.perf_counter()
        self.inner.on_delete_batch(updates)
        self.timer.record(time.perf_counter() - start, updates=len(updates))

    def on_report_batch(self, pairs: Sequence[ReportPair]) -> None:
        start = time.perf_counter()
        self.inner.on_report_batch(pairs)
        updates = sum(1 for d, _ in pairs if d is not None) + len(pairs)
        self.timer.record(time.perf_counter() - start, updates=updates)

    def on_advance(self, tnow: int) -> None:
        # Clock advances are bookkeeping, not per-update maintenance cost.
        self.inner.on_advance(tnow)
