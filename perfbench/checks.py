"""Correctness checks.  Each returns a list of failure strings (empty: pass).

They run outside the timed regions; a non-empty list fails the command.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.regions import RegionSet
from repro.metrics.accuracy import accuracy

# PA error envelope of EXPERIMENTS.md Figure 8(a,b): the paper claims
# errors below 10 %; the measured worst case over the l=30 sweep is
# r_fp 6.2 % and r_fn 10.3 %.  Checked on the mean over a run's queries.
PA_MAX_FP = 0.10
PA_MAX_FN = 0.15


def fr_matches_bruteforce(pairs: Iterable[Tuple[str, RegionSet, RegionSet]]) -> List[str]:
    """``(label, fr, bruteforce)`` answers must cover the same area exactly."""
    failures = []
    for label, fr, exact in pairs:
        diff = fr.symmetric_difference_area(exact)
        if diff != 0.0:
            failures.append(f"FR != bruteforce at {label}: symmetric difference {diff:.6g}")
    return failures


def pa_within_envelope(pairs: Sequence[Tuple[RegionSet, RegionSet]]) -> Tuple[List[str], float, float]:
    """Mean PA ``r_fp`` / ``r_fn`` against FR over ``(fr, pa)`` pairs whose
    exact answer is non-empty; returns ``(failures, mean_fp, mean_fn)``."""
    reports = [accuracy(fr, pa) for fr, pa in pairs if fr.area() > 0.0]
    if not reports:
        return ["no query with a non-empty exact answer to check PA against"], 0.0, 0.0
    fp = float(np.mean([r.r_fp for r in reports]))
    fn = float(np.mean([r.r_fn for r in reports]))
    failures = []
    if not fp <= PA_MAX_FP:
        failures.append(f"PA mean r_fp {fp:.4f} above the Fig. 8 envelope {PA_MAX_FP}")
    if not fn <= PA_MAX_FN:
        failures.append(f"PA mean r_fn {fn:.4f} above the Fig. 8 envelope {PA_MAX_FN}")
    return failures, fp, fn


def server_state(server) -> dict:
    """The state recovery must reproduce bit for bit."""
    return {
        "pa_coeffs": server.pa._coeffs.copy(),
        "histogram": server.histogram._counts.copy(),
        "motions": {
            m.oid: (m.t_ref, m.x, m.y, m.vx, m.vy) for m in server.table.motions()
        },
        "tnow": server.tnow,
    }


def recovered_identical(live: dict, recovered_server) -> List[str]:
    """Recovered server vs the live state captured before the crash."""
    failures = []
    got = server_state(recovered_server)
    if got["tnow"] != live["tnow"]:
        failures.append(f"recovered clock {got['tnow']} != live {live['tnow']}")
    if not np.array_equal(got["pa_coeffs"], live["pa_coeffs"]):
        failures.append("recovered PA coefficients differ from the live server")
    if not np.array_equal(got["histogram"], live["histogram"]):
        failures.append("recovered histogram counts differ from the live server")
    if got["motions"] != live["motions"]:
        failures.append("recovered motion set differs from the live server")
    try:
        recovered_server.tree.validate()
    except Exception as exc:  # any structural defect is a failed check
        failures.append(f"recovered TPR-tree invalid: {exc}")
    return failures


def no_acked_write_loss(acked: Sequence[Tuple[int, tuple]], logged: dict) -> List[str]:
    """Every acknowledged ``(lsn, (oid, x, y, vx, vy))`` report must be in
    the WAL at its LSN with the same payload."""
    lost = [lsn for lsn, report in acked if logged.get(lsn) != report]
    if lost:
        return [f"{len(lost)} acknowledged report(s) missing from the WAL (first lsn {lost[0]})"]
    return []


def sheds_carry_retry_after(errors: Sequence[dict]) -> List[str]:
    retryable = ("shed", "draining", "too_many_inflight", "staleness", "read_only")
    bad = [e for e in errors if e.get("error") in retryable and "retry_after" not in e]
    if bad:
        return [f"{len(bad)} shed/refusal frame(s) without retry_after"]
    return []
