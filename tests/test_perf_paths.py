"""Equivalence suites for the fast paths.

Families of properties:

* the vectorised 1-D sweep and X-driver are **bit-identical** to the
  reference event-loop implementations (same floats, ``==`` on every bound);
* the band-fused refinement kernel, the batched tree traversal and the
  process-pool fan-out are bit-identical to the sequential per-strip path
  (and to each other across worker counts and chunkings), and FR over
  either index answers exactly like the per-cell oracle (``fr_oracle``);
* a :meth:`PDRServer.report_batch` wave leaves every maintained structure —
  histogram counters, PA coefficients, tree contents, WAL — in exactly the
  state the one-update-at-a-time oracle kernels (``sequential_oracle``)
  produce, and recovery from the group-committed WAL reproduces it
  bit-for-bit;
* the timestamp-keyed caches return the same arrays as cold computation and
  invalidate on every mutation epoch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PDRServer
from repro.core.geometry import Rect
from repro.histogram.density_histogram import DensityHistogram
from repro.histogram.filter import filter_query
from repro.index.tree import TPRTree
from repro.methods.fr import FRMethod
from repro.motion.model import Motion
from repro.reliability.recovery import UpdateLog
from repro.reliability.validation import ReliabilityConfig
from repro.sweep.band_sweep import BandTask, merge_band_results, refine_bands
from repro.sweep.plane_sweep import _THRESHOLD_EPS, dense_segments_1d, refine_cell

from .conftest import bx_mirror, populate_clustered, small_system_config
from .fr_oracle import per_cell_fr
from .sequential_oracle import SequentialOracle
from .sweep_oracle import dense_segments_1d_reference, refine_cell_reference

finite = st.floats(
    min_value=-50.0, max_value=150.0, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# vectorised sweep == reference sweep, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    coords=st.lists(finite, min_size=0, max_size=40),
    half=st.floats(min_value=0.05, max_value=20.0),
    bounds=st.tuples(finite, finite),
    min_count=st.floats(min_value=0.0, max_value=12.0),
    duplicate=st.booleans(),
)
def test_dense_segments_matches_reference(coords, half, bounds, min_count, duplicate):
    if duplicate and len(coords) >= 2:
        coords[1] = coords[0]  # exercise exact event ties
    lo, hi = min(bounds), max(bounds)
    arr = np.asarray(coords, dtype=float)
    fast = dense_segments_1d(arr, half, lo, hi, min_count)
    ref = dense_segments_1d_reference(arr, half, lo, hi, min_count)
    assert fast == ref  # tuple float equality: bit-identical bounds


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(finite, finite), min_size=0, max_size=50),
    l=st.floats(min_value=0.5, max_value=30.0),
    min_count=st.floats(min_value=0.0, max_value=8.0),
    duplicate=st.booleans(),
)
def test_refine_cell_matches_reference(points, l, min_count, duplicate):
    if duplicate and len(points) >= 2:
        points[1] = points[0]
    cell = Rect(10.0, 5.0, 90.0, 85.0)
    fast = refine_cell(points, cell, l, min_count)
    ref = refine_cell_reference(points, cell, l, min_count)
    assert list(fast) == list(ref)


def test_sweep_edge_cases_match_reference():
    for coords, half, lo, hi, mc in [
        ([], 1.0, 0.0, 10.0, 0.0),
        ([], 1.0, 0.0, 10.0, 1.0),
        ([5.0], 1.0, 10.0, 10.0, 0.0),  # empty span
        ([5.0, 5.0, 5.0], 2.0, 0.0, 10.0, 3.0),  # all ties
        ([0.0, 10.0], 5.0, 0.0, 10.0, 1.0),  # events at the boundary
    ]:
        arr = np.asarray(coords, dtype=float)
        assert dense_segments_1d(arr, half, lo, hi, mc) == (
            dense_segments_1d_reference(arr, half, lo, hi, mc)
        )


# ----------------------------------------------------------------------
# band-fused refinement == per-cell refinement, bit for bit
# ----------------------------------------------------------------------
def _random_band_case(seed):
    """Random fused bands plus the sequential per-strip oracle's answer."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    l = float(rng.uniform(0.5, 8.0))
    half = l / 2.0
    rho = float(rng.choice([0.0, 0.05, 0.2, 1.0, 3.0]))
    min_count = rho * l * l
    xs = rng.uniform(-5, 25, n)
    ys = rng.uniform(-5, 25, n)
    tasks = []
    oracle = []
    for _ in range(int(rng.integers(1, 4))):
        y1 = float(rng.uniform(0, 18))
        y2 = y1 + float(rng.uniform(0.5, 4.0))
        n_strips = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0, 20, 2 * n_strips))
        sx1 = cuts[0::2]
        sx2 = np.maximum(cuts[1::2], cuts[0::2] + 0.1)
        # one fused fetch per band: everything inside the expanded band rect
        fy1, fy2 = y1 - half, y2 + half
        keep = (
            (xs >= sx1.min() - half)
            & (xs <= sx2.max() + half)
            & (ys >= fy1)
            & (ys <= fy2)
        )
        tasks.append(BandTask(y1, y2, sx1, sx2, xs[keep], ys[keep]))
        # the oracle fetches and refines strip by strip, like the old path
        for x1, x2 in zip(sx1, sx2):
            strip = (xs >= x1 - half) & (xs <= x2 + half) & (ys >= fy1) & (ys <= fy2)
            positions = list(zip(xs[strip], ys[strip]))
            for r in refine_cell(positions, Rect(x1, y1, x2, y2), l, min_count):
                oracle.append((r.x1, r.y1, r.x2, r.y2))
    return tasks, l, min_count, oracle


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_band_kernel_matches_per_strip_oracle(seed):
    tasks, l, min_count, oracle = _random_band_case(seed)
    result = refine_bands(tasks, l, min_count)
    assert [tuple(row) for row in result.bounds] == oracle


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_chunks=st.integers(1, 3))
def test_band_kernel_chunking_is_invariant(seed, n_chunks):
    """Splitting tasks across pool chunks never changes a single float."""
    tasks, l, min_count, _ = _random_band_case(seed)
    whole = refine_bands(tasks, l, min_count)
    sizes = [
        len(tasks) // n_chunks + (1 if i < len(tasks) % n_chunks else 0)
        for i in range(n_chunks)
    ]
    chunks, offsets, start = [], [], 0
    for size in sizes:
        chunks.append(refine_bands(tasks[start : start + size], l, min_count))
        offsets.append(start)
        start += size
    merged = merge_band_results(chunks, offsets)
    assert np.array_equal(merged.bounds, whole.bounds)
    assert np.array_equal(merged.task_of_rect, whole.task_of_rect)
    assert np.array_equal(merged.max_active, whole.max_active)
    assert merged.pairs == whole.pairs


@st.composite
def _lattice_band_case(draw):
    """Bands whose every coordinate is a multiple of ``l/4``.

    Object events (``± l/2``), band edges and strip edges share the lattice,
    so y events land exactly on ``y1``/``y2``, x events on strip edges, and
    positions repeat — the ties the y roles and the x-order runs rest on.
    Clusters of up to 20 stacked or near-stacked objects reach
    ``min_count = rho * l**2`` for rho up to 2.
    """
    l = draw(st.sampled_from([1.0, 2.0, 3.0]))
    q = l / 4.0
    rho = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
    step = st.integers(0, 32)
    cells = draw(st.lists(st.tuples(step, step), max_size=30))
    for cx, cy, size in draw(
        st.lists(st.tuples(step, step, st.integers(1, 20)), max_size=3)
    ):
        jitter = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        cells += [
            (cx + dx, cy + dy)
            for dx, dy in draw(st.lists(jitter, min_size=size, max_size=size))
        ]
    xs = q * np.array([c[0] for c in cells], dtype=float)
    ys = q * np.array([c[1] for c in cells], dtype=float)
    half = l / 2.0
    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        y1 = q * draw(st.integers(0, 28))
        y2 = y1 + q * draw(st.integers(1, 8))
        cuts = sorted(draw(st.sets(st.integers(0, 32), min_size=2, max_size=6)))
        cuts = cuts[: len(cuts) // 2 * 2]
        sx1 = q * np.array(cuts[0::2], dtype=float)
        sx2 = q * np.array(cuts[1::2], dtype=float)
        keep = (
            (xs >= sx1.min() - half)
            & (xs <= sx2.max() + half)
            & (ys >= y1 - half)
            & (ys <= y2 + half)
        )
        tasks.append(BandTask(y1, y2, sx1, sx2, xs[keep], ys[keep]))
    return tasks, l, rho * l * l


def _per_strip_oracle(tasks, l, min_count):
    """Sequential ``refine_cell`` per strip, plus per band the largest
    active count over all X-segments and the (segment, object) pairs whose
    object has a y event strictly inside the band, over segments the sweep
    visits — every count taken directly, object by object."""
    half = l / 2.0
    threshold = min_count - _THRESHOLD_EPS
    rects, max_active, pairs = [], [], 0
    for t in tasks:
        xs, ys = np.asarray(t.xs), np.asarray(t.ys)
        positions = list(zip(xs, ys))
        keep = (ys - half < t.y2 + half) & (ys + half > t.y1 - half)
        enters, exits = xs[keep] - half, xs[keep] + half
        y_enters, y_exits = ys[keep] - half, ys[keep] + half
        has_y_event = ((t.y1 < y_enters) & (y_enters < t.y2)) | (
            (t.y1 < y_exits) & (y_exits < t.y2)
        )
        best = 0
        for x1, x2 in zip(t.strips_x1, t.strips_x2):
            for r in refine_cell(positions, Rect(x1, t.y1, x2, t.y2), l, min_count):
                rects.append((r.x1, r.y1, r.x2, r.y2))
            inside = [e for e in np.concatenate([enters, exits]) if x1 < e < x2]
            for x_lo in sorted({float(x1), *map(float, inside)}):
                active = (enters <= x_lo) & (x_lo < exits)
                count = int(active.sum())
                best = max(best, count)
                if count > 0 and count >= threshold:
                    pairs += int((active & has_y_event).sum())
        max_active.append(best)
    return rects, max_active, pairs


@settings(max_examples=300, deadline=None)
@given(case=_lattice_band_case())
def test_band_kernel_matches_oracle_on_lattice_ties(case):
    tasks, l, min_count = case
    result = refine_bands(tasks, l, min_count)
    rects, max_active, pairs = _per_strip_oracle(tasks, l, min_count)
    assert [tuple(row) for row in result.bounds] == rects
    assert result.max_active.tolist() == max_active
    assert result.pairs == pairs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_batch_traversal_matches_sequential(seed):
    """One shared traversal answers every rect exactly like N traversals."""
    rng = np.random.default_rng(seed)
    tree = TPRTree(horizon=10.0)
    for oid in range(int(rng.integers(1, 150))):
        tree.insert(
            Motion(
                oid, 0,
                float(rng.uniform(0, 100)), float(rng.uniform(0, 100)),
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
            )
        )
    rects, qts = [], []
    for _ in range(int(rng.integers(1, 10))):
        x1, y1 = rng.uniform(0, 90, 2)
        rects.append(
            Rect(float(x1), float(y1),
                 float(x1 + rng.uniform(1, 30)), float(y1 + rng.uniform(1, 30)))
        )
        qts.append(float(rng.integers(0, 5)))
    positions = tree.range_positions_batch(rects, np.asarray(qts))
    for rect, qt, (px, py) in zip(rects, qts, positions):
        sequential = tree.range_query(rect, qt)
        sx = np.array([m.position_at(qt)[0] for m in sequential])
        sy = np.array([m.position_at(qt)[1] for m in sequential])
        assert np.array_equal(sx, px) and np.array_equal(sy, py)


@pytest.fixture(scope="module")
def fr_world():
    server = PDRServer(small_system_config(), expected_objects=200)
    populate_clustered(server, 150, seed=5)
    return server


@pytest.fixture(scope="module")
def fr_indexes(fr_world):
    """Both indexes FR refines through, over the same motions."""
    return {"tpr": fr_world.tree, "bx": bx_mirror(fr_world)}


def _region_tuples(result):
    return [(r.x1, r.y1, r.x2, r.y2) for r in result.regions]


@pytest.mark.parametrize("index", ["tpr", "bx"])
def test_banded_fr_matches_per_cell_fr(fr_world, fr_indexes, index):
    server = fr_world
    tree = fr_indexes[index]
    qt = server.tnow + 1
    banded = FRMethod(server.histogram, tree)
    for varrho in (0.8, 1.2, 2.0, 3.5):
        query = server.make_query(qt=qt, varrho=varrho)
        a = banded.query(query)
        b = per_cell_fr(server.histogram, tree, query)
        # Same region *union*, exactly: the raster in _combine_area breaks
        # on the rect edges themselves, so zero symmetric difference means
        # identical point sets — the decompositions legitimately differ
        # (a dense run crossing a cell seam is one fused rect, not two).
        assert a.regions.symmetric_difference_area(b.regions) == 0.0
        assert a.regions.area() == pytest.approx(b.regions.area(), rel=0, abs=1e-9)
        assert a.stats.accepted_cells == b.stats.accepted_cells
        assert a.stats.candidate_cells == b.stats.candidate_cells


def test_refine_worker_counts_are_invariant(fr_world):
    server = fr_world
    qt = server.tnow + 1
    query = server.make_query(qt=qt, varrho=1.2)
    baseline = FRMethod(server.histogram, server.tree, refine_workers=0).query(query)
    assert baseline.stats.extra["refine_workers"] == 0.0
    for workers in (1, 2):
        result = FRMethod(
            server.histogram, server.tree, refine_workers=workers
        ).query(query)
        assert _region_tuples(result) == _region_tuples(baseline)
        assert result.stats.extra["refine_workers"] == float(workers)


def test_fused_rows_dedup_adjacent_cells(fr_world):
    """Adjacent candidate cells fuse into one strip: one fetch per band row,
    no duplicated or overlapping refinement output at the seam."""
    server = fr_world
    query = server.make_query(qt=server.tnow + 1, varrho=1.2)
    result = FRMethod(server.histogram, server.tree).query(query)
    extra = result.stats.extra
    assert extra["refine_bands"] + extra["refine_bands_skipped"] < (
        result.stats.candidate_cells
    ), "fusion must fetch fewer bands than there are candidate cells"
    rects = _region_tuples(result)
    assert len(rects) == len(set(rects)), "fused strips must not emit duplicates"
    # the answer is disjoint by construction; area() takes the O(n) path
    assert result.regions.area() == pytest.approx(
        sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in rects)
    )


@pytest.mark.parametrize("index", ["tpr", "bx"])
def test_rho_monotonic_band_skip_reuses_prior_sweeps(fr_world, fr_indexes, index):
    """Raising varrho on the same snapshot skips bands whose cached max
    active count already rules them out — without changing the answer."""
    server = fr_world
    tree = fr_indexes[index]
    qt = server.tnow + 1
    fr = FRMethod(server.histogram, tree)
    skipped = 0.0
    for varrho in (1.2, 1.5, 2.0, 3.0):
        query = server.make_query(qt=qt, varrho=varrho)
        result = fr.query(query)
        skipped += result.stats.extra["refine_bands_skipped"]
        fresh = FRMethod(server.histogram, tree).query(query)
        assert _region_tuples(result) == _region_tuples(fresh)
    assert skipped > 0, "ascending varrho must hit the band-skip cache"


@pytest.mark.parametrize("index", ["tpr", "bx"])
def test_band_cache_forgets_index_insert(index):
    """An insert that reaches the index but not the histogram must still
    invalidate the band cache: its key carries the index epoch."""
    server = PDRServer(small_system_config(), expected_objects=200)
    populate_clustered(server, 150, seed=5)
    tree = server.tree if index == "tpr" else bx_mirror(server)
    qt = server.tnow + 1
    fr = FRMethod(server.histogram, tree)
    fr.query(server.make_query(qt=qt, varrho=1.5))
    high = server.make_query(qt=qt, varrho=3.0)
    # A row the cache would skip at the higher threshold ...
    rows = fr._plan_rows(filter_query(server.histogram, high).candidate)
    skippable = fr._skippable_rows(
        fr._cache_key(high), rows, high.min_count - _THRESHOLD_EPS
    )
    assert skippable, "the world must leave a skippable band"
    j, x1s, x2s = next(r for r in rows if r[0] in skippable)
    y1, y2 = fr._row_bounds(j)
    x, y = float(x1s[0] + x2s[0]) / 2.0, (y1 + y2) / 2.0
    # ... turns dense once enough objects stack up at one of its points.
    for k in range(int(np.ceil(high.min_count))):
        tree.insert(Motion(10_000 + k, server.tnow, x, y, 0.0, 0.0))
    cached = fr.query(high)
    fresh = FRMethod(server.histogram, tree).query(high)
    assert _region_tuples(cached) == _region_tuples(fresh)
    assert any(r.contains_point(x, y) for r in fresh.regions)


# ----------------------------------------------------------------------
# batched ingest == sequential ingest, structure by structure
# ----------------------------------------------------------------------
def _wave(rng, n, oid_base=0, domain=100.0):
    return [
        (
            oid_base + i,
            float(rng.uniform(1.0, domain - 1.0)),
            float(rng.uniform(1.0, domain - 1.0)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-0.5, 0.5)),
        )
        for i in range(n)
    ]


def _drive(server, waves, batched):
    for advance, wave, retired in waves:
        if advance:
            server.advance_to(server.tnow + advance)
        for oid in retired:
            server.retire(oid)
        if batched:
            server.report_batch(wave)
        else:
            for report in wave:
                server.report(*report)


def _tree_contents(server):
    return sorted(
        (m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in server.tree.all_motions()
    )


@pytest.fixture
def report_waves():
    """``(advance, wave, retired)`` steps: re-reports, a repeated oid in
    one wave, retirements and a multi-tick advance."""
    rng = np.random.default_rng(42)
    first = _wave(rng, 40)
    rereport = _wave(rng, 40)
    # A duplicate oid inside one batch forces the wave-splitting path.
    rereport.append((7, 50.0, 50.0, 0.1, 0.1))
    later = _wave(rng, 30, oid_base=20)
    return [(0, first, []), (0, rereport, []), (2, later, [3, 11])]


def test_report_batch_states_bit_identical(report_waves):
    """The engine, fed waves or single reports, against the one-update-at-
    a-time oracle kernels."""
    oracle = SequentialOracle(small_system_config())
    _drive(oracle, report_waves, batched=False)
    single = PDRServer(small_system_config(), expected_objects=200)
    batched = PDRServer(small_system_config(), expected_objects=200)
    _drive(single, report_waves, batched=False)
    _drive(batched, report_waves, batched=True)

    # Histogram counters are integers and the PA deltas are added in
    # report order, so equality is bitwise, slot labels included.
    assert oracle.mismatches(single) == []
    assert oracle.mismatches(batched) == []
    # The tree's contract is its contents plus structural invariants; the
    # Z-order bulk insert may shape the tree differently.
    batched.tree.validate()
    expected = sorted(
        (m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in oracle.motions.values()
    )
    assert _tree_contents(single) == _tree_contents(batched) == expected
    # Queries agree as answer sets.
    for method in ("fr", "pa", "dh-optimistic", "bruteforce"):
        a = single.query(method, qt=single.tnow + 1, rho=0.05)
        b = batched.query(method, qt=batched.tnow + 1, rho=0.05)
        assert set(a.regions) == set(b.regions)


_coord = st.floats(min_value=1.0, max_value=99.0, allow_nan=False)
_speed = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_step = st.tuples(
    st.integers(0, 15),  # advance; > H = 12 expires the whole window
    st.lists(st.tuples(st.integers(0, 11), _coord, _coord, _speed, _speed), max_size=12),
    st.lists(st.integers(0, 11), max_size=3),  # retire candidates
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=6))
def test_engine_matches_sequential_oracle(steps):
    """Random waves over a small oid pool (so re-reports and repeated oids
    within a wave are common), interleaved with retires and advances."""
    config = small_system_config()
    oracle = SequentialOracle(config)
    server = PDRServer(config, expected_objects=16)
    for advance, wave, retire in steps:
        if advance:
            server.advance_to(server.tnow + advance)
            oracle.advance_to(oracle.tnow + advance)
        for oid in dict.fromkeys(retire):
            if oid in oracle.motions:
                server.retire(oid)
                oracle.retire(oid)
        server.report_batch(wave)
        for report in wave:
            oracle.report(*report)
        assert oracle.mismatches(server) == []
    assert sorted(m.oid for m in server.tree.all_motions()) == sorted(oracle.motions)


def test_report_batch_results_align_with_input(report_waves):
    server = PDRServer(small_system_config(), expected_objects=200)
    wave = report_waves[0][1]
    results = server.report_batch(wave)
    assert len(results) == len(wave)
    for (oid, x, y, _vx, _vy), motion in zip(wave, results):
        assert motion is not None
        assert (motion.oid, motion.x, motion.y) == (oid, x, y)


def test_report_batch_rejects_like_sequential():
    config = small_system_config()
    sequential = PDRServer(config, expected_objects=50)
    batched = PDRServer(config, expected_objects=50)
    wave = [
        (0, 10.0, 10.0, 0.0, 0.0),
        (1, -5.0, 10.0, 0.0, 0.0),  # out of domain: rejected
        (2, 20.0, 20.0, float("nan"), 0.0),  # malformed: rejected
        (3, 30.0, 30.0, 0.1, 0.1),
    ]
    seq_results = [sequential.report(*r) for r in wave]
    batch_results = batched.report_batch(wave)
    assert [m is None for m in seq_results] == [m is None for m in batch_results]
    assert sequential.dead_letters.total == batched.dead_letters.total == 2
    assert dict(sequential.dead_letters.counts) == dict(batched.dead_letters.counts)
    assert np.array_equal(sequential.histogram._counts, batched.histogram._counts)


def test_report_batch_wal_recovery_bit_identical(tmp_path, report_waves):
    state_dir = str(tmp_path / "state")
    live = PDRServer(
        small_system_config(),
        expected_objects=200,
        reliability=ReliabilityConfig(state_dir=state_dir),
    )
    _drive(live, report_waves, batched=True)
    live.close()

    recovered = PDRServer.recover(state_dir)
    try:
        assert recovered.tnow == live.tnow
        assert len(recovered.table) == len(live.table)
        assert np.array_equal(recovered.histogram._counts, live.histogram._counts)
        # Replay cuts the log into its own waves (runs of reports between
        # advances and retires); the floats match only because any cut of
        # the same update sequence is bit-identical.
        assert np.array_equal(recovered.pa._coeffs, live.pa._coeffs)
        assert _tree_contents(recovered) == _tree_contents(live)
    finally:
        recovered.close()


def test_update_log_group_commit_bytes_identical(tmp_path):
    records = [
        {"op": "report", "t": 0, "oid": i, "x": 1.5 * i, "y": 2.0, "vx": 0.1, "vy": -0.2, "lsn": i + 1}
        for i in range(5)
    ]
    one_path = str(tmp_path / "one.jsonl")
    many_path = str(tmp_path / "many.jsonl")
    one = UpdateLog(one_path, fsync=False)
    for record in records:
        one.append(dict(record))
    one.close()
    many = UpdateLog(many_path, fsync=False)
    many.append_many([dict(r) for r in records])
    many.close()
    with open(one_path, "rb") as fh:
        sequential_bytes = fh.read()
    with open(many_path, "rb") as fh:
        batched_bytes = fh.read()
    assert sequential_bytes == batched_bytes
    assert UpdateLog.read_records(many_path) == records


def test_timed_listener_forwards_batches():
    """The server wraps histogram/PA in TimedListener; if the wrapper fell
    back to per-object forwarding, batching would silently vanish and the
    per-update counts would drift from the sequential path."""

    class Recorder:
        def __init__(self):
            self.calls = []

        def on_report_batch(self, pairs):
            self.calls.append(("report_batch", len(pairs)))

        def on_insert(self, update):  # pragma: no cover - must not be hit
            raise AssertionError("batch was unbatched")

        def on_insert_batch(self, updates):
            self.calls.append(("insert_batch", len(updates)))

        def on_delete_batch(self, updates):
            self.calls.append(("delete_batch", len(updates)))

        def on_delete(self, update):  # pragma: no cover - must not be hit
            raise AssertionError("batch was unbatched")

        def on_advance(self, tnow):
            pass

    from repro.metrics.instrument import TimedListener
    from repro.motion.model import Motion
    from repro.motion.updates import DeleteUpdate, InsertUpdate

    inner = Recorder()
    timed = TimedListener(inner)
    inserts = [InsertUpdate(0, Motion(i, 0, 1.0 * i, 2.0, 0.0, 0.0)) for i in range(4)]
    deletes = [DeleteUpdate(1, u.motion) for u in inserts[:2]]
    timed.on_insert_batch(inserts)
    timed.on_delete_batch(deletes)
    timed.on_report_batch([(deletes[0], inserts[0]), (None, inserts[1])])
    assert inner.calls == [
        ("insert_batch", 4),
        ("delete_batch", 2),
        ("report_batch", 2),
    ]
    # One delete + two inserts in the report wave, plus 4 + 2 before it.
    assert timed.timer.updates == 4 + 2 + 3


# ----------------------------------------------------------------------
# timestamp-keyed caches
# ----------------------------------------------------------------------
def test_prefix_cache_hits_and_invalidates(populated_server):
    server = populated_server
    hist = server.histogram
    qt = server.tnow + 1
    cold = hist.prefix_sums(qt).copy()
    misses0 = hist.cache_misses
    again = hist.prefix_sums(qt)
    assert hist.cache_misses == misses0  # pure hit
    assert np.array_equal(cold, again)
    # Any counter mutation invalidates via the epoch counter.
    server.report(9999, 50.0, 50.0, 0.0, 0.0)
    refreshed = hist.prefix_sums(qt)
    assert hist.cache_misses == misses0 + 1
    expected = np.zeros((hist.m + 1, hist.m + 1), dtype=np.int64)
    expected[1:, 1:] = (
        hist.counts_at(qt).astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    )
    assert np.array_equal(refreshed, expected)


def test_block_sums_at_matches_cold_computation(populated_server):
    hist = populated_server.histogram
    qt = populated_server.tnow
    for radius in (0, 1, 2):
        cached = hist.block_sums_at(qt, radius)
        cold = DensityHistogram.block_sums(hist.prefix_sums(qt), radius)
        assert np.array_equal(cached, cold)
    hits0 = hist.cache_hits
    hist.block_sums_at(qt, 1)
    assert hist.cache_hits == hits0 + 1


def test_cache_invalidates_on_advance(populated_server):
    server = populated_server
    hist = server.histogram
    qt = server.tnow + 2
    hist.block_sums_at(qt, 1)
    server.advance_to(server.tnow + 1)
    misses0 = hist.cache_misses
    hist.block_sums_at(qt, 1)
    assert hist.cache_misses > misses0  # advance wiped the cache


def test_fr_stage_timings_and_cache_counters(populated_server):
    server = populated_server
    qt = server.tnow + 1
    first = server.query("fr", qt=qt, rho=0.05)
    extra = first.stats.extra
    stage_keys = (
        "filter_seconds",
        "fuse_seconds",
        "fetch_seconds",
        "sweep_seconds",
        "merge_seconds",
    )
    for key in stage_keys:
        assert key in extra and extra[key] >= 0.0
    # every recorded span is also accumulated: stages nest inside the query
    assert sum(extra[key] for key in stage_keys) <= first.stats.cpu_seconds
    assert extra["cache_misses"] >= 1.0  # cold caches
    second = server.query("fr", qt=qt, rho=0.05)
    assert second.stats.extra["cache_hits"] >= 1.0  # warm caches
    assert set(first.regions) == set(second.regions)
    report = server.reliability_report()
    assert report["query_cache_hits"] >= 1
    assert report["histogram_cache"]["hits"] >= 1
    assert set(report["query_stage_seconds"]) == {
        "filter",
        "fuse",
        "fetch",
        "sweep",
        "merge",
    }


def test_monitor_events_carry_cache_hits(populated_server):
    from repro.methods.monitor import PDRMonitor

    server = populated_server
    monitor = PDRMonitor(server, offset=1, method="fr", rho=0.05)
    first = monitor.poll()
    second = monitor.poll()  # no update in between: the filter hits cache
    assert first.cache_misses >= 1
    assert second.cache_hits >= 1
