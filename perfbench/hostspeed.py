"""Reference-host time: the timings in the JSON line, taken out of the
host's own speed.

On a shared host the CPU speed a process gets changes by up to ~1.5x from
one minute to the next (other tenants on the same cores, clock
frequency), and every timing moves with it: ten runs of metro-ingest on
one unchanged tree read from 624 to 1089 reports/s.  A fixed CPU kernel
timed around each measured operation tracks that speed: over six runs
whose ingest rate moved between 591 and 874 reports/s, rate × kernel time
stayed within 4.4 %.

:class:`HostSpeed` turns an operation's wall time into the time it would
take on the *nominal host*, one where the kernel takes :data:`NOMINAL_S`
(about what a 2-vCPU Xeon VM gives in its fast phases).  The wall-clock
figures are the reference-host ones times the factor :meth:`note` prints.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

NOMINAL_S = 0.010
KERNEL_ITEMS = 20_000
# Operations timed with HostSpeed.time also sample the kernel this often
# while they run: the host's speed changes within a multi-second recovery.
SAMPLE_EVERY_S = 0.5


def kernel_seconds() -> float:
    """Seconds of one fixed mix of interpreter work (building and reading a
    dict of tuples) and numpy work (sorting a float array).  The cyclic
    collector is off meanwhile: otherwise the tuples would trigger
    collections whose cost depends on the program's heap, not the host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(KERNEL_ITEMS):
            table[i] = (i * 0.5, i * 1.5)
        sum(v[0] for v in table.values())
        a = np.arange(float(KERNEL_ITEMS))
        for _ in range(20):
            a = np.sort(a * 1.0001)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Times measured operations in reference-host seconds.

    Short operations are bracketed: ``mark()``, the operation(s), then
    ``wall * scale()``.  Long ones go through :meth:`time`, which also
    samples the kernel inside the operation.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._before = 0.0

    def mark(self) -> None:
        self._before = kernel_seconds()

    def scale(self) -> float:
        """Nominal over the mean kernel time of the last ``mark()`` and now;
        wall seconds × scale = reference-host seconds."""
        after = kernel_seconds()
        self.samples += [self._before, after]
        return NOMINAL_S / ((self._before + after) / 2)

    def time(self, fn: Callable, *args) -> Tuple[object, float]:
        """``(fn(*args), reference-host seconds of the call)``.  A SIGALRM
        timer runs the kernel every :data:`SAMPLE_EVERY_S` during the call;
        the time those samples took is taken off the call's wall time."""
        inside: List[float] = []
        previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(kernel_seconds()))
        before = kernel_seconds()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start  # after any sample still pending
            signal.signal(signal.SIGALRM, previous)
        kernels = [before, *inside, kernel_seconds()]
        self.samples += kernels
        return result, (wall - sum(inside)) * NOMINAL_S / statistics.fmean(kernels)

    def note(self) -> str:
        kernel = statistics.median(self.samples)
        return (
            f"host speed: kernel median {1000 * kernel:.2f} ms over {len(self.samples)} "
            f"samples, nominal {1000 * NOMINAL_S:.0f} ms; JSON times are reference-host "
            f"times, wall-clock ≈ {kernel / NOMINAL_S:.2f} × them"
        )
