"""Micro-benchmarks of the core operations behind the figures.

These use pytest-benchmark's timing loop on individual operations (one
query, one location update, one refinement sweep, one band-kernel batch),
mostly against the shared warm medium world, complementing the
figure-level tables with per-op numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.geometry import Rect
from repro.core.system import PDRServer
from repro.histogram.answers import dh_optimistic
from repro.storage.snapshot import read_snapshot, restore_server_state, save_server
from repro.sweep.band_sweep import BandTask, refine_bands
from repro.sweep.plane_sweep import refine_cell


@pytest.fixture(scope="module")
def query(medium_world):
    server = medium_world.server
    return server.make_query(qt=server.tnow + 10, varrho=2.0)


def test_bench_pa_query(medium_world, query, benchmark):
    server = medium_world.server
    result = benchmark.pedantic(
        server.pa.query, args=(query,), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.stats.method == "pa"


def test_bench_dh_filter_query(medium_world, query, benchmark):
    server = medium_world.server
    result = benchmark.pedantic(
        dh_optimistic, args=(server.histogram, query), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result.stats.method == "dh-optimistic"


def test_bench_fr_query(medium_world, query, benchmark):
    server = medium_world.server
    result = benchmark.pedantic(
        server.evaluate, args=("fr", query), rounds=1, iterations=1
    )
    assert result.stats.method == "fr"


def test_bench_location_update(medium_world, benchmark):
    """One full report: delete + insert across histogram, PA and TPR-tree."""
    server = medium_world.server
    oid = 999_999_999
    gen = np.random.default_rng(0)
    server.report(oid, 500.0, 500.0, 0.5, 0.5)  # ensure delete path runs

    def one_report():
        x, y = gen.uniform(100, 900, size=2)
        server.report(oid, float(x), float(y), 0.5, -0.5)

    benchmark.pedantic(one_report, rounds=20, iterations=1)
    server.table.retire(oid)  # leave the shared world unchanged


def test_bench_tpr_range_query(medium_world, benchmark):
    server = medium_world.server
    rect = Rect(450.0, 450.0, 550.0, 550.0)

    def run():
        return server.tree.range_query(rect, server.tnow, charge_io=False)

    hits = benchmark.pedantic(run, rounds=10, iterations=1)
    assert isinstance(hits, list)


def test_bench_refine_cell_sweep(benchmark):
    """The plane-sweep refinement on a dense synthetic candidate cell."""
    gen = np.random.default_rng(1)
    positions = [tuple(gen.uniform(0, 40, size=2)) for _ in range(400)]
    cell = Rect(10.0, 10.0, 30.0, 30.0)

    region = benchmark.pedantic(
        refine_cell, args=(positions, cell, 10.0, 12.0), rounds=5, iterations=1
    )
    assert region.bounding_box() is None or cell.contains_rect(
        region.bounding_box()
    )


def test_bench_refine_bands(benchmark):
    """The band kernel FR runs: three strips of one dense, skewed band."""
    gen = np.random.default_rng(2)
    hot = gen.normal((25.0, 15.0), 4.0, size=(400, 2))
    cold = gen.uniform((-5.0, 5.0), (65.0, 25.0), size=(300, 2))
    xs, ys = np.concatenate([hot, cold]).T
    task = BandTask(
        10.0, 20.0, np.array([0.0, 20.0, 45.0]), np.array([15.0, 35.0, 60.0]), xs, ys
    )
    l, min_count = 10.0, 30.0

    result = benchmark.pedantic(
        refine_bands, args=([task], l, min_count), rounds=5, iterations=1
    )
    per_strip = [
        (r.x1, r.y1, r.x2, r.y2)
        for x1, x2 in zip(task.strips_x1, task.strips_x2)
        for r in refine_cell(
            list(zip(xs, ys)), Rect(x1, task.y1, x2, task.y2), l, min_count
        )
    ]
    assert per_strip and [tuple(row) for row in result.bounds] == per_strip


def test_bench_restore_server_state(tmp_path, benchmark):
    """Restore a 10K-motion snapshot: table, DH and PA arrays, and the
    TPR-tree STR-packed in one pass."""
    config = SystemConfig(
        domain=Rect(0.0, 0.0, 100.0, 100.0),
        max_update_interval=6,
        prediction_window=6,
        l=10.0,
        histogram_cells=20,
        polynomial_grid=5,
        polynomial_degree=4,
        evaluation_grid=128,
    )
    gen = np.random.default_rng(3)
    pos = gen.uniform(1.0, 99.0, size=(10_000, 2))
    vel = gen.uniform(-0.3, 0.3, size=(10_000, 2))
    source = PDRServer(config, expected_objects=10_000)
    source.report_batch(
        [(oid, *map(float, p), *map(float, v)) for oid, (p, v) in enumerate(zip(pos, vel))]
    )
    save_server(source, tmp_path / "world.npz")
    state = read_snapshot(tmp_path / "world.npz")

    def fresh_server():
        server = PDRServer(state.config, expected_objects=10_000, tnow=state.tnow)
        return (server, state), {}

    benchmark.pedantic(restore_server_state, setup=fresh_server, rounds=3, iterations=1)
    restored = PDRServer(state.config, expected_objects=10_000, tnow=state.tnow)
    restore_server_state(restored, state)
    oids = sorted(m.oid for m in restored.tree.all_motions())
    assert oids == sorted(m.oid for m in state.motions) == list(range(10_000))
    restored.tree.validate()
