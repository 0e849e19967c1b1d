"""Location-update protocol (Section 5.1 of the paper).

Objects communicate with the server through two update kinds:

* an **insertion update** ``(t_now, x, y, vx, vy)`` registers a movement that
  starts at ``(x, y)`` with the given velocity at time ``t_now``;
* a **deletion update** ``(t1, t_now, x1, y1, vx, vy)`` retracts, effective at
  ``t_now``, a movement previously registered at time ``t1``.

A position report from an already-known object therefore expands into a
deletion of its previous motion followed by an insertion of the new one.
Every maintained structure (density histograms, Chebyshev coefficients, the
TPR-tree) subscribes to the same stream through :class:`UpdateListener`.
The stream is delivered in waves: live reports, WAL replay and replica
apply all reach the structures as runs of delete+insert pairs in report
order.  Histogram counters are integers and the Chebyshev deltas are
additive, so a wave leaves exactly the state the same updates would leave
one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

from ..core.errors import ListenerFanoutError
from .model import Motion

__all__ = [
    "InsertUpdate",
    "DeleteUpdate",
    "Update",
    "ReportPair",
    "UpdateListener",
    "dispatch",
]


@dataclass(frozen=True)
class InsertUpdate:
    """Registers ``motion`` with the server at time ``tnow`` (= motion.t_ref)."""

    tnow: int
    motion: Motion


@dataclass(frozen=True)
class DeleteUpdate:
    """Retracts ``motion`` (registered at ``motion.t_ref``) effective at ``tnow``."""

    tnow: int
    motion: Motion


Update = Union[InsertUpdate, DeleteUpdate]

# One report of a wave: the retraction of the object's previous motion (or
# ``None`` for a first report) paired with the insertion of the new one.
ReportPair = Tuple[Optional[DeleteUpdate], InsertUpdate]


class UpdateListener:
    """Interface for structures maintained against the update stream.

    :class:`~repro.motion.table.ObjectTable` dispatches only the batch
    hooks and :meth:`on_advance`: a report wave arrives through
    :meth:`on_report_batch` (a single report is a wave of one) and a
    retirement through :meth:`on_delete_batch`.  The per-object hooks are
    the fallback for listeners that only implement them (the Bx-tree, the
    PDR monitor): the batch defaults loop over them, so such a listener
    still sees every update exactly once, in order.  Defaults are no-ops,
    so a listener may observe only inserts, only deletes, or only clock
    advances.
    """

    def on_insert(self, update: InsertUpdate) -> None:  # noqa: B027 - optional hook
        """Called for each insertion update."""

    def on_delete(self, update: DeleteUpdate) -> None:  # noqa: B027 - optional hook
        """Called for each deletion update."""

    def on_advance(self, tnow: int) -> None:  # noqa: B027 - optional hook
        """Called when the server clock moves forward to ``tnow``."""

    def on_insert_batch(self, updates: Sequence[InsertUpdate]) -> None:
        """Called with a wave of insertions; default is the per-object loop."""
        for update in updates:
            self.on_insert(update)

    def on_delete_batch(self, updates: Sequence[DeleteUpdate]) -> None:
        """Called with a wave of deletions; default is the per-object loop."""
        for update in updates:
            self.on_delete(update)

    def on_report_batch(self, pairs: Sequence[ReportPair]) -> None:
        """Called with a whole report wave (each oid at most once per wave).

        The default retracts every superseded motion, then registers every
        new one — a wave-atomic rendering of Section 5.1's delete+insert
        protocol.  Listeners whose state is order-sensitive at float
        precision (the PA coefficients) override this to keep the exact
        per-report interleaving.
        """
        deletes = [d for d, _ in pairs if d is not None]
        if deletes:
            self.on_delete_batch(deletes)
        self.on_insert_batch([i for _, i in pairs])


def dispatch(listeners: Iterable[UpdateListener], hook: str, payload) -> None:
    """Notify every listener, even if some of them fail.

    The maintained structures must never diverge from each other merely
    because one listener raised: every listener is invoked, failures are
    collected, and a single :class:`ListenerFanoutError` is raised at the
    end.  :class:`BaseException` subclasses (simulated crashes, Ctrl-C)
    propagate immediately — a dead process notifies nobody.
    """
    failures = []
    for listener in listeners:
        try:
            getattr(listener, hook)(payload)
        except Exception as exc:  # noqa: BLE001 - collected and re-raised below
            failures.append((listener, exc))
    if failures:
        names = ", ".join(
            f"{type(listener).__name__}: {exc}" for listener, exc in failures
        )
        raise ListenerFanoutError(
            f"{len(failures)} listener(s) failed during {hook} ({names})",
            failures=failures,
        )
