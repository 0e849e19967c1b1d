"""Per-object reference of the recovery audit.

:func:`repro.reliability.recovery.audit_server` counts the live in-domain
objects at every timestamp of the window with one numpy pass per
timestamp.  This is the straightforward form it replaced: one
:meth:`Motion.position_at` and one :meth:`Rect.contains_point` per object
per timestamp.  Both must return the same violation list, string for
string (``tests/test_recovery.py::test_audit_matches_the_per_object_oracle``).
"""

from __future__ import annotations

from typing import List

from repro.core.errors import IndexError_


def audit_violations_reference(server) -> List[str]:
    """The violation list of the per-object audit, in audit order."""
    violations: List[str] = []
    try:
        server.tree.validate()
    except IndexError_ as exc:
        violations.append(f"tpr-tree: {exc}")
    if len(server.tree) != len(server.table):
        violations.append(
            f"tree holds {len(server.tree)} objects, table holds {len(server.table)}"
        )
    tnow = server.table.tnow
    if server.histogram.tnow != tnow:
        violations.append(
            f"histogram clock {server.histogram.tnow} != table clock {tnow}"
        )
    if server.pa.tnow != tnow:
        violations.append(f"PA clock {server.pa.tnow} != table clock {tnow}")
    horizon = server.config.horizon
    domain = server.config.domain
    for qt in range(tnow, tnow + horizon + 1):
        expected = 0
        for motion in server.table.motions():
            if not (motion.t_ref <= qt <= motion.t_ref + horizon):
                continue
            x, y = motion.position_at(qt)
            if domain.contains_point(x, y):
                expected += 1
        observed = server.histogram.total_at(qt)
        if observed != expected:
            violations.append(
                f"histogram total {observed} at t={qt} != {expected} live in-domain objects"
            )
    return violations
