"""Seeded metro worlds: the report stream the benchmark feeds, and the
warmed server it feeds it into.

The load generator is ``synthetic_metro`` plus ``TripSimulator``, recorded
through :class:`Recorder`, a stand-in table with the three calls the
simulator makes (``tnow``, ``advance_to``, ``report``).  The program under
test only ever sees the recorded reports, through its public entry points.

The simulator starts every object at an intersection at t=0, so its first
~60 ticks are a ramp (no reports for ~13 ticks, then a surge) before the
per-tick waves settle at ~n/33 reports.  Replaying that ramp into the
server would cost ~20 s per world, most of it in ticks the workloads never
measure.  The warmed world is instead the *population at tick
``warmup``*: every object's latest report extrapolated along its own
linear motion to that tick, loaded as one wave.  Queries in
``[tnow, tnow + W]`` see the same object positions either way; the waves
that follow are the simulator's steady-state ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.system import PDRServer
from repro.datagen.network import synthetic_metro
from repro.datagen.trips import TripSimulator
from repro.reliability.recovery import ReliabilityConfig

Report = Tuple[int, float, float, float, float]


@dataclass(frozen=True)
class Scale:
    """World size: objects, road-network lattice and warm-up ticks."""

    objects: int
    network_grid: int
    warmup: int = 60


# The paper's CH10K dataset on the default 40x40 metro lattice.
CH10K = Scale(objects=10_000, network_grid=40)
# Seconds-scale world for the benchmark's own self-test.
TOY = Scale(objects=3000, network_grid=20)


class Recorder:
    """Stand-in object table: records each tick's wave of reports."""

    def __init__(self) -> None:
        self.tnow = 0
        self.waves: Dict[int, List[Report]] = {0: []}

    def advance_to(self, tnow: int) -> None:
        self.tnow = tnow
        self.waves[tnow] = []

    def report(self, oid: int, x: float, y: float, vx: float, vy: float) -> None:
        self.waves[self.tnow].append((int(oid), float(x), float(y), float(vx), float(vy)))


class MetroStream:
    """The seeded report stream of one metro world.

    ``population`` is the warm-up snapshot (one report per object at tick
    ``t0``); :meth:`wave` returns the reports of a later tick, simulating
    lazily so a fast program never runs out of stream.
    """

    def __init__(self, seed: int, scale: Scale, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        self.scale = scale
        domain = self.config.domain
        network = synthetic_metro(domain, grid_n=scale.network_grid, seed=seed)
        self._sim = TripSimulator(
            network,
            n_objects=scale.objects,
            update_interval=self.config.max_update_interval,
            seed=seed,
        )
        self._rec = Recorder()
        self._sim.initialize(self._rec)
        self._sim.run_until(self._rec, scale.warmup)
        self.t0 = scale.warmup
        latest: Dict[int, Tuple[int, Report]] = {}
        for t in range(self.t0 + 1):
            for report in self._rec.waves.pop(t):
                latest[report[0]] = (t, report)
        # Largest floats still inside the half-open domain [x1, x2).
        x_hi = math.nextafter(domain.x2, domain.x1)
        y_hi = math.nextafter(domain.y2, domain.y1)
        self.population: List[Report] = []
        for oid in sorted(latest):
            t, (_, x, y, vx, vy) = latest[oid]
            dt = self.t0 - t
            self.population.append((
                oid,
                min(max(x + vx * dt, domain.x1), x_hi),
                min(max(y + vy * dt, domain.y1), y_hi),
                vx,
                vy,
            ))

    def wave(self, t: int) -> List[Report]:
        """The reports of tick ``t`` (> ``t0``), in simulator order."""
        if t > self._rec.tnow:
            self._sim.run_until(self._rec, t)
        return self._rec.waves[t]


def build_world(
    stream: MetroStream, state_dir: Optional[str] = None
) -> Tuple[PDRServer, int]:
    """Empty server -> warmed world; returns ``(server, rejected_reports)``.

    With ``state_dir`` the server is durable: WAL with one fsync per wave,
    no periodic checkpoints (the paper-default ``SystemConfig`` either way).
    """
    reliability = None
    if state_dir is not None:
        reliability = ReliabilityConfig(state_dir=state_dir, fsync=True, checkpoint_interval=0)
    server = PDRServer(
        stream.config,
        expected_objects=stream.scale.objects,
        tnow=stream.t0,
        reliability=reliability,
    )
    results = server.report_batch(stream.population)
    return server, sum(1 for r in results if r is None)
