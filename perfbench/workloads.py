"""The three benchmark workloads.

Each ``run_*`` function takes the seeded :class:`~metro.MetroStream`, the
measured seconds, the trace flag and a scratch directory inside the
checkout, and returns an :class:`Outcome`.  The JSON metrics share one
vocabulary across workloads (see :data:`END_TO_END`); ``named`` carries
the same numbers under the workload's own names (``fr_p50_ms``,
``ingest_reports_per_s``, ...) for the human-readable report.  Every time
in them is a reference-host time (see :mod:`hostspeed`).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import checks
from hostspeed import HostSpeed
from metro import MetroStream, build_world
from tracing import SpanRecorder
from repro.core.errors import ReproError
from repro.core.system import PDRServer

# name -> unit.  Every workload reports every one of these (tracing off).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "primary_p50_ms": "ms",
    "primary_tail_ms": "ms",
    "secondary_p50_ms": "ms",
    "secondary_tail_ms": "ms",
}

# name -> unit.  Every workload reports every one of these (tracing on);
# a layer the workload does not exercise reports 0.
PER_LAYER = {
    "core.validate_ms": "ms",
    "reliability.wal_ms": "ms",
    "reliability.fsyncs_per_tick": "count",
    "reliability.wal_bytes_per_report": "B",
    "motion.table_self_ms": "ms",
    "index.update_ms": "ms",
    "histogram.update_ms": "ms",
    "methods.pa_update_ms": "ms",
    "reliability.checkpoint_load_s": "s",
    "reliability.replay_s": "s",
    "reliability.replay_records_per_s": "1/s",
    "reliability.audit_s": "s",
    "index.replay_s": "s",
    "histogram.replay_s": "s",
    "methods.pa_replay_s": "s",
    "histogram.filter_ms": "ms",
    "index.fetch_ms": "ms",
    "sweep.refine_ms": "ms",
    "methods.fr_self_ms": "ms",
    "chebyshev.bnb_ms": "ms",
    "methods.pa_self_ms": "ms",
    "core.query_overhead_ms": "ms",
    "histogram.decided_ratio": "ratio",
    "histogram.cache_hit_ratio": "ratio",
    "index.objects_per_fr": "count",
    "storage.buffer_misses_per_fr": "count",
    "storage.buffer_hit_ratio": "ratio",
    "sweep.segments_per_fr": "count",
    "methods.fr_bands_per_query": "count",
    "methods.fr_bands_skipped_ratio": "ratio",
    "chebyshev.bnb_nodes_per_pa": "count",
    "chebyshev.bnb_decided_ratio": "ratio",
    "serving.report_overhead_ms": "ms",
    "serving.query_overhead_ms": "ms",
    "serving.report_backend_ms": "ms",
    "serving.query_backend_ms": "ms",
    "serving.query_response_bytes": "B",
    "serving.generator_late_ms": "ms",
    "telemetry.trace_overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

VARRHOS = (1.0, 2.0, 3.0, 4.0, 5.0)  # Table 1's relative thresholds
# Percentile of the JSON tail metrics.  A 20 s run makes ~50 FR and PA
# queries or ~45 ticks; p75 is the highest percentile that leaves about ten
# samples beyond it.  The p90s are printed beside it by name.
TAIL_PCT = 75
SETUP_REPEATS = 3  # worlds built per run; setup_s is their median
# Sampled per run for the (slow, rasterising) answer checks: FR answers
# re-derived by the full-plane sweep, and FR/PA pairs for the PA envelope.
BRUTEFORCE_SAMPLE = 1
ACCURACY_SAMPLE = 3
# Every run makes at least this many FR/PA pairs (ingest ticks); the count
# metrics are taken over exactly these first ones, so they repeat exactly
# for a seed however long the run is.
COUNT_PAIRS = 10
COUNT_TICKS = 4
RECOVERY_TAIL_TICKS = 2  # WAL tail the metro-ingest recovery replays
RECOVERIES = 2  # recoveries of that tail per run


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _layer_ms(times: Dict[str, float], name: str, ops: int) -> float:
    return 1000.0 * times.get(name, 0.0) / ops if ops else 0.0


def _unattributed_pct(wall: float, attributed: float) -> float:
    return 100.0 * (wall - attributed) / wall if wall > 0 else 0.0


# ----------------------------------------------------------------------
# metro-query
# ----------------------------------------------------------------------
def run_metro_query(stream: MetroStream, seconds: float, trace: bool, rng, workdir: str) -> Outcome:
    """Static warmed world; one closed-loop caller alternating FR and PA.

    Pair ``k`` asks FR, then PA, at relative threshold ``VARRHOS[k % 5]``
    and one query time ``tnow + offsets[k % (W + 1)]``, where ``offsets``
    is a seeded permutation of ``0..W``: query times are uniform over the
    window and do not repeat within a run, so no FR query reuses another's
    cached band maxima or prefix sums.
    """
    out = Outcome()
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        server = None  # let the previous world go before building the next
        gc.collect()
        (server, rejected), seconds_ref = host.time(build_world, stream)
        setups.append(seconds_ref)
        out.attempted += len(stream.population)
        out.failed += rejected
    window = stream.config.prediction_window
    offsets = rng.permutation(window + 1)
    # Untimed first pair: lazy per-process set-up, not query cost.
    server.query("fr", qt=server.tnow, varrho=VARRHOS[0])
    server.query("pa", qt=server.tnow, varrho=VARRHOS[0])

    recorder = SpanRecorder() if trace else None
    fr_ms, pa_ms, pairs = [], [], []
    pair_s = {True: [], False: []}  # traced? -> pair wall seconds
    fr_stats, pa_stats = [], []
    io_before = (server.buffer.stats.hits, server.buffer.stats.misses)
    traced_pairs = 0
    busy = 0.0  # wall seconds: the run's length
    ref_busy = 0.0
    k = 0
    while busy < seconds or k < COUNT_PAIRS:
        varrho = VARRHOS[k % len(VARRHOS)]
        qt = int(server.tnow + offsets[k % len(offsets)])
        traced = trace and k % 2 == 1
        answers, walls = {}, {}
        host.mark()
        with recorder.traced() if traced else nullcontext():
            for method in ("fr", "pa"):
                out.attempted += 1
                start = time.perf_counter()
                try:
                    answers[method] = server.query(method, qt=qt, varrho=varrho)
                except ReproError as exc:
                    out.failed += 1
                    out.notes.append(f"{method} query failed: {exc}")
                finally:
                    walls[method] = time.perf_counter() - start
        scale = host.scale()
        for method, sink in (("fr", fr_ms), ("pa", pa_ms)):
            if method in answers:
                sink.append(1000.0 * walls[method] * scale)
        pair_time = sum(walls.values())
        busy += pair_time
        ref_busy += pair_time * scale
        pair_s[traced].append(pair_time)
        traced_pairs += traced
        if len(answers) == 2:
            pairs.append((f"qt={qt} varrho={varrho}", answers["fr"], answers["pa"]))
            if k < COUNT_PAIRS:
                fr_stats.append(answers["fr"].stats)
                pa_stats.append(answers["pa"].stats)
        if k == COUNT_PAIRS - 1:
            io_after = (server.buffer.stats.hits, server.buffer.stats.misses)
        k += 1
    peak_rss = peak_rss_mb()

    # --- correctness (untimed) -------------------------------------------
    exact = []
    for i in rng.choice(len(pairs), size=min(BRUTEFORCE_SAMPLE, len(pairs)), replace=False):
        label, fr, _ = pairs[int(i)]
        bf = server.evaluate("bruteforce", fr.query)
        exact.append((label, fr.regions, bf.regions))
    out.failures += checks.fr_matches_bruteforce(exact)
    sample = rng.choice(len(pairs), size=min(ACCURACY_SAMPLE, len(pairs)), replace=False)
    env_failures, mean_fp, mean_fn = checks.pa_within_envelope(
        [(pairs[int(i)][1].regions, pairs[int(i)][2].regions) for i in sample]
    )
    out.failures += env_failures
    out.notes.append(
        f"checked: FR == bruteforce at {', '.join(label for label, _, _ in exact)}; "
        f"PA mean r_fp {mean_fp:.4f}, r_fn {mean_fn:.4f} over {len(sample)} queries"
    )

    n_queries = len(fr_ms) + len(pa_ms)
    fr50, fr_tail, pa50, pa_tail = (
        pct(fr_ms, 50), pct(fr_ms, TAIL_PCT), pct(pa_ms, 50), pct(pa_ms, TAIL_PCT))
    throughput = n_queries / ref_busy
    out.named = {
        "setup_s": (float(np.median(setups)), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "error_rate": (out.failed / out.attempted, "ratio"),
        "queries_per_s": (throughput, "1/s"),
        "fr_p50_ms": (fr50, "ms"),
        f"fr_p{TAIL_PCT}_ms": (fr_tail, "ms"),
        "fr_p90_ms": (pct(fr_ms, 90), "ms"),
        "pa_p50_ms": (pa50, "ms"),
        f"pa_p{TAIL_PCT}_ms": (pa_tail, "ms"),
        "pa_p90_ms": (pct(pa_ms, 90), "ms"),
    }
    out.notes.append(f"samples: {len(fr_ms)} FR, {len(pa_ms)} PA queries")
    out.notes.append(host.note())
    if not trace:
        out.metrics = {
            "setup_s": out.named["setup_s"][0],
            "peak_rss_mb": out.named["peak_rss_mb"][0],
            "throughput_per_s": throughput,
            "primary_p50_ms": fr50,
            "primary_tail_ms": fr_tail,
            "secondary_p50_ms": pa50,
            "secondary_tail_ms": pa_tail,
        }
        return out

    # --- per-layer (traced pairs only) ------------------------------------
    selft = recorder.self_times()
    incl = recorder.inclusive_times()
    n = traced_pairs  # one FR and one PA query per traced pair
    layers = {
        "histogram.filter_ms": _layer_ms(incl, "histogram.filter", n),
        "index.fetch_ms": _layer_ms(incl, "index.fetch", n),
        "sweep.refine_ms": _layer_ms(incl, "sweep.refine", n),
        "methods.fr_self_ms": _layer_ms(selft, "methods.fr", n),
        "chebyshev.bnb_ms": _layer_ms(incl, "chebyshev.bnb", n),
        "methods.pa_self_ms": _layer_ms(selft, "methods.pa", n),
        "core.query_overhead_ms": _layer_ms(selft, "core.query", 2 * n),
    }
    attributed = (
        sum(ms for name, ms in layers.items() if name != "core.query_overhead_ms") * n
        + layers["core.query_overhead_ms"] * 2 * n
    ) / 1000.0
    cells = stream.config.histogram_cells ** 2
    hits = sum(s.extra.get("cache_hits", 0.0) for s in fr_stats)
    lookups = hits + sum(s.extra.get("cache_misses", 0.0) for s in fr_stats)
    swept = sum(s.extra.get("refine_bands", 0.0) for s in fr_stats)
    skipped = sum(s.extra.get("refine_bands_skipped", 0.0) for s in fr_stats)
    nodes = sum(s.bnb_nodes for s in pa_stats)
    decided = sum(s.extra.get("bnb_accepted", 0.0) + s.extra.get("bnb_pruned", 0.0) for s in pa_stats)
    buf_hits, buf_misses = io_after[0] - io_before[0], io_after[1] - io_before[1]
    layers.update({
        "histogram.decided_ratio": float(np.mean(
            [(s.accepted_cells + s.rejected_cells) / cells for s in fr_stats])),
        "histogram.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "index.objects_per_fr": float(np.mean([s.objects_examined for s in fr_stats])),
        "storage.buffer_misses_per_fr": float(np.mean([s.io_count for s in fr_stats])),
        "storage.buffer_hit_ratio": (
            buf_hits / (buf_hits + buf_misses) if buf_hits + buf_misses else 0.0),
        "sweep.segments_per_fr": float(np.mean(
            [s.extra.get("refine_segments", 0.0) for s in fr_stats])),
        "methods.fr_bands_per_query": swept / len(fr_stats),
        "methods.fr_bands_skipped_ratio": skipped / (swept + skipped) if swept + skipped else 0.0,
        "chebyshev.bnb_nodes_per_pa": nodes / len(pa_stats),
        "chebyshev.bnb_decided_ratio": decided / nodes if nodes else 0.0,
        "telemetry.trace_overhead_pct": 100.0 * (
            float(np.mean(pair_s[True])) / float(np.mean(pair_s[False])) - 1.0),
        "trace.unattributed_pct": _unattributed_pct(sum(pair_s[True]), attributed),
    })
    out.metrics = _per_layer(layers)
    recorder.write(os.path.join(workdir, "spans.json"))
    return out


def _per_layer(values: Dict[str, float]) -> Dict[str, float]:
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


# ----------------------------------------------------------------------
# metro-ingest
# ----------------------------------------------------------------------
def _wal_bytes(state_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(state_dir, name))
        for name in os.listdir(state_dir)
        if name.startswith("wal-") and name.endswith(".jsonl")
    )


def run_metro_ingest(stream: MetroStream, seconds: float, trace: bool, rng, workdir: str) -> Outcome:
    """Durable world; one closed-loop feeder replays per-tick waves
    (``advance_to`` + ``report_batch``), then the server is dropped and
    recovered from checkpoint + WAL tail.

    The benchmark checkpoints (untimed) ``RECOVERY_TAIL_TICKS`` ticks
    before the end, so every run recovers a tail of the same length
    whatever the ingest speed.
    """
    out = Outcome()
    host = HostSpeed()
    setups = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.close()
            server = None
            gc.collect()
        state_dir = _fresh_dir(os.path.join(workdir, f"ingest-{i}"))
        (server, rejected), seconds_ref = host.time(build_world, stream, state_dir)
        setups.append(seconds_ref)
        out.attempted += len(stream.population)
        out.failed += rejected
    server.checkpoint()

    recorder = SpanRecorder() if trace else None
    tick_ms: List[float] = []
    tick_rates: List[float] = []  # reports per second of each tick
    per_report_s = {True: [0.0, 0], False: [0.0, 0]}  # traced? -> [wall seconds, reports]
    counted = []  # (fsyncs, WAL bytes, reports) of the first COUNT_TICKS ticks
    state = {"busy": 0.0, "reports": 0, "t": server.tnow, "traced_ticks": 0}

    def feed_tick() -> None:
        t = state["t"] + 1
        wave = stream.wave(t)  # generated outside the timed call
        traced = trace and len(tick_ms) % 2 == 1
        wal = server._manager._wal
        fsync0, bytes0 = wal.fsync_calls, _wal_bytes(state_dir)
        host.mark()
        with recorder.traced() if traced else nullcontext():
            start = time.perf_counter()
            server.advance_to(t)
            results = server.report_batch(wave)
            elapsed = time.perf_counter() - start
        ref_elapsed = elapsed * host.scale()
        out.attempted += len(wave) + 1
        out.failed += sum(1 for r in results if r is None)
        if len(tick_ms) < COUNT_TICKS:
            counted.append((wal.fsync_calls - fsync0, _wal_bytes(state_dir) - bytes0, len(wave)))
        tick_ms.append(1000.0 * ref_elapsed)
        tick_rates.append(len(wave) / ref_elapsed)
        per_report_s[traced][0] += elapsed
        per_report_s[traced][1] += len(wave)
        state["traced_ticks"] += traced
        state["busy"] += elapsed
        state["reports"] += len(wave)
        state["t"] = t

    while state["busy"] < seconds or len(tick_ms) < COUNT_TICKS:
        feed_tick()
    server.checkpoint()
    tail_from = server.wal_lsn
    for _ in range(RECOVERY_TAIL_TICKS):
        feed_tick()
    tail_records = server.wal_lsn - tail_from
    live = checks.server_state(server)
    server.close()  # dropped: no final checkpoint

    recovery_s = []
    mark = recorder.mark() if trace else 0
    for i in range(RECOVERIES):
        with recorder.traced() if trace and i == 0 else nullcontext():
            recovered, seconds_ref = host.time(PDRServer.recover, state_dir)
            recovery_s.append(seconds_ref)
        out.failures += checks.recovered_identical(live, recovered)
        recovered.close()
    out.notes.append(
        f"checked: {RECOVERIES} recoveries of a {tail_records}-record WAL tail "
        "bit-identical to the live server; TPR-tree valid"
    )

    rate = pct(tick_rates, 50)
    tick50, tick_tail = pct(tick_ms, 50), pct(tick_ms, TAIL_PCT)
    rec50, rec_max = float(np.median(recovery_s)), max(recovery_s)
    out.named = {
        "setup_s": (float(np.median(setups)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_rate": (out.failed / out.attempted, "ratio"),
        "ingest_reports_per_s": (rate, "1/s"),
        "tick_p50_ms": (tick50, "ms"),
        f"tick_p{TAIL_PCT}_ms": (tick_tail, "ms"),
        "tick_p90_ms": (pct(tick_ms, 90), "ms"),
        "recovery_s": (rec50, "s"),
    }
    out.notes.append(
        f"samples: {len(tick_ms)} ticks, {state['reports']} reports; "
        f"recovery {', '.join(f'{s:.3f}' for s in recovery_s)} s"
    )
    out.notes.append(host.note())
    if not trace:
        out.metrics = {
            "setup_s": out.named["setup_s"][0],
            "peak_rss_mb": out.named["peak_rss_mb"][0],
            "throughput_per_s": rate,
            "primary_p50_ms": tick50,
            "primary_tail_ms": tick_tail,
            "secondary_p50_ms": 1000.0 * rec50,
            "secondary_tail_ms": 1000.0 * rec_max,
        }
        return out

    traced_ticks = state["traced_ticks"]
    selft = recorder.self_times(0, mark)
    tick_layers = {
        "core.validate_ms": _layer_ms(selft, "core.report_batch", traced_ticks),
        "reliability.wal_ms": _layer_ms(selft, "reliability.wal", traced_ticks),
        "motion.table_self_ms": _layer_ms(selft, "motion.table", traced_ticks),
        "index.update_ms": _layer_ms(selft, "index.update", traced_ticks),
        "histogram.update_ms": _layer_ms(selft, "histogram.update", traced_ticks),
        "methods.pa_update_ms": _layer_ms(selft, "methods.pa_update", traced_ticks),
    }
    rec_self = recorder.self_times(mark)
    rec_incl = recorder.inclusive_times(mark)
    replay_s = rec_incl.get("reliability.replay", 0.0)
    traced_s = per_report_s[True][0]
    layers = dict(tick_layers)
    layers.update({
        "reliability.fsyncs_per_tick": sum(c[0] for c in counted) / len(counted),
        "reliability.wal_bytes_per_report": (
            sum(c[1] for c in counted) / sum(c[2] for c in counted)),
        "reliability.checkpoint_load_s": rec_incl.get("reliability.checkpoint_load", 0.0),
        "reliability.replay_s": replay_s,
        "reliability.replay_records_per_s": tail_records / replay_s if replay_s else 0.0,
        "reliability.audit_s": rec_incl.get("reliability.audit", 0.0),
        "index.replay_s": rec_self.get("index.replay", 0.0),
        "histogram.replay_s": rec_self.get("histogram.replay", 0.0),
        "methods.pa_replay_s": rec_self.get("methods.pa_replay", 0.0),
        "telemetry.trace_overhead_pct": 100.0 * (
            (per_report_s[True][0] / per_report_s[True][1])
            / (per_report_s[False][0] / per_report_s[False][1]) - 1.0),
        "trace.unattributed_pct": _unattributed_pct(
            traced_s, sum(tick_layers.values()) * traced_ticks / 1000.0),
    })
    out.metrics = _per_layer(layers)
    recorder.write(os.path.join(workdir, "spans.json"))
    return out
