"""The ``metro-serve`` workload: the warmed world served by a real
``repro serve`` child process, driven over two TCP connections.

Connection 1 sends single ``report`` ops from the continuing metro stream
(plus ``advance`` at each tick boundary) on an open-loop schedule whose
rate climbs a short ladder.  Connection 2 sends FR/PA queries on a fixed
open-loop schedule the whole time.  Each op's latency runs from its due
time, so a stall also charges the ops queued behind it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import checks
from metro import MetroStream, build_world
from workloads import VARRHOS, Outcome, _per_layer, pct
from repro.reliability.recovery import records_from_lsn
from repro.serving.protocol import LENGTH_PREFIX, decode_frame, encode_frame, make_trace_envelope

# Report rates (reports/s) of the ladder.  The first rung is the reference
# mix (20 reports/s beside the query stream) and gets REFERENCE_SHARE of
# the run; the others split the rest.  WARMUP_S of reports at the
# reference rate go first and are not measured: the child's first seconds
# after boot are slower.
LADDER = (20.0, 60.0, 120.0, 180.0, 240.0)
REFERENCE_SHARE = 0.4
WARMUP_S = 1.0
QUERY_RATE = 1.0  # queries/s on connection 2
QUERY_MIX = ("fr", "pa", "pa", "pa")  # a quarter of the queries are FR
REPORT_P99_LIMIT_MS = 1000.0  # the report latency objective of the ladder
ABORT_LATE_MS = 2 * REPORT_P99_LIMIT_MS  # backlog at which a rung gives up
# Queries start this far after the reports so the two schedules never
# fall due at the same instant (a tie would decide the report tail).
QUERY_PHASE_S = 0.0137
MAX_REGIONS = 2000  # answer rectangles per response frame
BOOT_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0


class Connection:
    """One blocking client connection speaking the length-prefixed protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _recv_exact(self, n: int) -> bytes:
        chunks, got = [], 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def call(self, message: dict) -> Tuple[dict, int]:
        """Send one request; return ``(response, response frame bytes)``."""
        self.sock.sendall(encode_frame(message))
        (length,) = LENGTH_PREFIX.unpack(self._recv_exact(LENGTH_PREFIX.size))
        return decode_frame(self._recv_exact(length)), LENGTH_PREFIX.size + length

    def close(self) -> None:
        self.sock.close()


def _boot(state_dir: str, log_path: str) -> Tuple[subprocess.Popen, int]:
    """Start ``repro serve`` over ``state_dir``; return once it prints its port."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--state-dir", state_dir,
             "--replicas", "0", "--fsync", "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, env=env,
        )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline().decode().strip()
            if line.startswith("port="):
                return proc, int(line.split("=", 1)[1])
            if not line and proc.poll() is not None:
                break
        elif proc.poll() is not None:
            break
    _stop(proc)
    raise RuntimeError(f"repro serve did not report its port (see {log_path})")


def _stop(proc: subprocess.Popen) -> Optional[int]:
    """SIGTERM (graceful drain), then SIGKILL; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def rate_at_slo(rungs: List[dict], limit_ms: float = REPORT_P99_LIMIT_MS) -> float:
    """Report rate at which p99 crosses ``limit_ms``, interpolated linearly
    between the last rung that meets the objective and the first that does
    not.  A rung with unsent (backlogged) reports misses it regardless."""
    def p99(rung):
        return max(rung["p99_ms"], ABORT_LATE_MS) if rung["unsent"] else rung["p99_ms"]

    first_miss = next((i for i, r in enumerate(rungs) if p99(r) > limit_ms or r["unsent"]), None)
    if first_miss is None:  # beyond the ladder: extrapolate from the top rung
        top = rungs[-1]
        return top["rate"] * limit_ms / max(p99(top), 1e-9)
    if first_miss == 0:  # below the ladder: scale the first rung down
        return rungs[0]["rate"] * limit_ms / p99(rungs[0])
    lo, hi = rungs[first_miss - 1], rungs[first_miss]
    span = p99(hi) - p99(lo)
    frac = (limit_ms - p99(lo)) / span if span > 0 else 1.0
    return lo["rate"] + (hi["rate"] - lo["rate"]) * frac


class _Writer:
    """Connection 1: the report stream, one rung of the ladder at a time."""

    def __init__(self, conn: Connection, stream: MetroStream, tnow: int, trace: bool) -> None:
        self.conn, self.stream, self.trace = conn, stream, trace
        self.tick, self.cursor = tnow, 0
        self.wave: List[tuple] = []
        self.rungs: List[dict] = []
        self.acked: List[Tuple[int, tuple]] = []
        self.errors: List[dict] = []
        self.late_ms: List[float] = []
        self.samples: List[dict] = []  # traced runs: client latency vs dispatch span
        self.spans: List[dict] = []
        self.attempted = self.failed = 0
        self.op_id = 0

    def _next_report(self) -> tuple:
        while self.cursor >= len(self.wave):
            self.tick += 1
            self.wave, self.cursor = self.stream.wave(self.tick), 0
            self._send({"op": "advance", "to": self.tick})
        report = self.wave[self.cursor]
        self.cursor += 1
        return report

    def _send(self, message: dict, traced: bool = False) -> Tuple[Optional[dict], float, float]:
        self.op_id += 1
        message["id"] = self.op_id
        if traced:
            message["trace"] = make_trace_envelope(f"w{self.op_id}")
        self.attempted += 1
        sent = time.perf_counter()
        try:
            response, _ = self.conn.call(message)
        except (OSError, ConnectionError) as exc:
            self.failed += 1
            self.errors.append({"error": "transport", "message": str(exc)})
            return None, sent, time.perf_counter()
        done = time.perf_counter()
        if not response.get("ok") or response.get("accepted") is False:
            self.failed += 1
            self.errors.append(response)
            return None, sent, done
        return response, sent, done

    def run_rung(self, rate: float, start: float, end: float) -> None:
        """Send reports due at ``start + k / rate`` until ``end``.  Ops that
        fall more than ``ABORT_LATE_MS`` behind mean a growing backlog: the
        rest of the rung is skipped and counted unsent."""
        latencies: List[float] = []
        unsent = 0
        free_at = due = start
        k = 0
        while due < end:
            now = time.perf_counter()
            if now - due > ABORT_LATE_MS / 1000.0:
                unsent = int(np.ceil((end - due) * rate))
                break
            if now < due:
                time.sleep(due - now)
            report = self._next_report()
            traced = self.trace and k % 2 == 1
            response, sent, done = self._send(
                {"op": "report", "oid": report[0], "x": report[1], "y": report[2],
                 "vx": report[3], "vy": report[4]}, traced)
            self.late_ms.append(1000.0 * max(0.0, sent - max(due, free_at)))
            free_at = done
            if response is not None:
                latencies.append(1000.0 * (done - due))
                self.acked.append((int(response["lsn"]), report))
                if self.trace:
                    self.samples.append({
                        "rung": len(self.rungs), "traced": traced,
                        "client_ms": 1000.0 * (done - sent),
                        "backend_ms": 1000.0 * response.get("trace", {}).get(
                            "duration_seconds", 0.0),
                    })
                    if traced and "trace" in response:
                        self.spans.append(response["trace"])
            k += 1
            due = start + k / rate
        self.rungs.append({
            "rate": rate,
            "sent": len(latencies),
            "unsent": unsent,
            "p50_ms": pct(latencies, 50),
            "p99_ms": pct(latencies, 99),
        })


class _Reader(threading.Thread):
    """Connection 2: FR/PA queries at QUERY_RATE from ``start`` to ``end``."""

    def __init__(self, conn: Connection, offsets: List[int], start: float, end: float,
                 trace: bool) -> None:
        super().__init__(daemon=True)
        self.conn, self.offsets, self.start_t, self.end_t, self.trace = (
            conn, offsets, start, end, trace)
        self.latencies: Dict[str, List[float]] = {"fr": [], "pa": []}
        self.late_ms: List[float] = []
        self.samples: List[dict] = []
        self.spans: List[dict] = []
        self.errors: List[dict] = []
        self.attempted = self.failed = 0
        self.crash: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # re-raised by the joining thread
            self.crash = exc

    def _loop(self) -> None:
        free_at = self.start_t
        for j, offset in enumerate(self.offsets):
            due = self.start_t + QUERY_PHASE_S + j / QUERY_RATE
            if due >= self.end_t:
                break
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            method = QUERY_MIX[j % len(QUERY_MIX)]
            message = {"op": "query", "id": j, "method": method,
                       "varrho": VARRHOS[j % len(VARRHOS)], "qt_offset": offset,
                       "max_regions": MAX_REGIONS}
            traced = self.trace and j % 2 == 1
            if traced:
                message["trace"] = make_trace_envelope(f"q{j}")
            self.attempted += 1
            sent = time.perf_counter()
            try:
                response, nbytes = self.conn.call(message)
            except (OSError, ConnectionError) as exc:
                self.failed += 1
                self.errors.append({"error": "transport", "message": str(exc)})
                free_at = time.perf_counter()
                continue
            done = time.perf_counter()
            self.late_ms.append(1000.0 * max(0.0, sent - max(due, free_at)))
            free_at = done
            if not response.get("ok") or response.get("degraded"):
                self.failed += 1
                self.errors.append(response)
                continue
            self.latencies[method].append(1000.0 * (done - due))
            if traced:
                self.samples.append({
                    "client_ms": 1000.0 * (done - sent),
                    "backend_ms": 1000.0 * response.get("trace", {}).get("duration_seconds", 0.0),
                    "bytes": nbytes,
                })
                if "trace" in response:
                    self.spans.append(response["trace"])


def run_metro_serve(stream: MetroStream, seconds: float, trace: bool, rng, workdir: str) -> Outcome:
    out = Outcome()
    state_dir = os.path.join(workdir, "serve-state")
    start = time.perf_counter()
    server, rejected = build_world(stream, state_dir)
    server.checkpoint()
    checkpoint_lsn, tnow = server.wal_lsn, server.tnow
    server.close()
    del server
    proc, port = _boot(state_dir, os.path.join(workdir, "serve.log"))
    setup_s = time.perf_counter() - start
    out.attempted += len(stream.population)
    out.failed += rejected
    try:
        writer_conn, reader_conn = Connection(port), Connection(port)
        offsets = [int(o) for o in rng.integers(
            0, stream.config.prediction_window + 1, size=int(seconds * QUERY_RATE) + 1)]
        writer = _Writer(writer_conn, stream, tnow, trace)
        # Untimed first FR and PA: lazy per-process set-up, not query cost.
        for method in ("fr", "pa"):
            reader_conn.call({"op": "query", "id": 0, "method": method,
                              "varrho": VARRHOS[0], "max_regions": MAX_REGIONS})
        warm = time.perf_counter()
        writer.run_rung(LADDER[0], warm, warm + WARMUP_S)
        writer.rungs.pop()
        t0 = time.perf_counter() + 0.05
        reader = _Reader(reader_conn, offsets, t0, t0 + seconds, trace)
        reader.start()
        durations = [seconds * REFERENCE_SHARE] + [
            seconds * (1.0 - REFERENCE_SHARE) / (len(LADDER) - 1)] * (len(LADDER) - 1)
        rung_start = t0
        for rate, duration in zip(LADDER, durations):
            writer.run_rung(rate, rung_start, rung_start + duration)
            rung_start += duration
        reader.join(timeout=120.0)
        if reader.is_alive():
            raise RuntimeError("query connection did not finish")
        if reader.crash is not None:
            raise reader.crash
        health, _ = writer_conn.call({"op": "health", "id": -1})
        peak_rss = _peak_rss_mb(proc.pid)
        writer_conn.close()
        reader_conn.close()
    finally:
        code = _stop(proc)
    if code != 0:
        out.failures.append(f"repro serve exited {code} after SIGTERM (expected a clean drain)")

    # --- correctness (untimed) -------------------------------------------
    logged = {
        int(r["lsn"]): (int(r["oid"]), float(r["x"]), float(r["y"]), float(r["vx"]), float(r["vy"]))
        for r in records_from_lsn(state_dir, checkpoint_lsn) if r.get("op") == "report"
    }
    out.failures += checks.no_acked_write_loss(writer.acked, logged)
    out.failures += checks.sheds_carry_retry_after(writer.errors + reader.errors)
    acked_lsn = max((lsn for lsn, _ in writer.acked), default=checkpoint_lsn)
    if int(health["lsn"]) < acked_lsn:
        out.failures.append(f"served lsn {health['lsn']} behind acked lsn {acked_lsn}")
    out.notes.append(
        f"checked: {len(writer.acked)} acked reports all in the WAL at their LSN; "
        f"{len(writer.errors) + len(reader.errors)} error frames"
    )
    out.attempted += writer.attempted + reader.attempted
    out.failed += writer.failed + reader.failed

    reference = writer.rungs[0]
    queries = reader.latencies["fr"] + reader.latencies["pa"]
    rate = rate_at_slo(writer.rungs)
    out.named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "error_rate": (out.failed / out.attempted, "ratio"),
        "report_rate_at_slo": (rate, "1/s"),
        "report_p50_ms": (reference["p50_ms"], "ms"),
        "report_p99_ms": (reference["p99_ms"], "ms"),
        "query_p50_ms": (pct(queries, 50), "ms"),
        "query_p90_ms": (pct(queries, 90), "ms"),
    }
    for rung in writer.rungs:
        out.notes.append(
            f"rung {rung['rate']:g} reports/s: sent {rung['sent']} unsent {rung['unsent']} "
            f"p50 {rung['p50_ms']:.1f} ms p99 {rung['p99_ms']:.1f} ms"
        )
    out.notes.append(
        f"samples: {len(reader.latencies['fr'])} FR, {len(reader.latencies['pa'])} PA queries; "
        f"report p99 objective {REPORT_P99_LIMIT_MS:g} ms"
    )
    if not trace:
        out.metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "throughput_per_s": rate,
            "primary_p50_ms": reference["p50_ms"],
            "primary_tail_ms": reference["p99_ms"],
            "secondary_p50_ms": pct(queries, 50),
            "secondary_tail_ms": pct(queries, 90),
        }
        return out

    ref_samples = [s for s in writer.samples if s["rung"] == 0]
    traced_reports = [s for s in ref_samples if s["traced"]]
    plain_reports = [s for s in ref_samples if not s["traced"]]

    def median(rows, key):
        return float(np.median([r[key] for r in rows])) if rows else 0.0

    # Medians: the mean would be decided by the few reports that happened
    # to wait for an FR read.  The dispatch span starts after the state
    # lock is taken, so lock waits count as front-door overhead.
    report_client = median(traced_reports, "client_ms")
    report_backend = median(traced_reports, "backend_ms")
    plain_client = median(plain_reports, "client_ms")
    layers = {
        "serving.report_overhead_ms": report_client - report_backend,
        "serving.report_backend_ms": report_backend,
        "serving.query_overhead_ms": (
            median(reader.samples, "client_ms") - median(reader.samples, "backend_ms")),
        "serving.query_backend_ms": median(reader.samples, "backend_ms"),
        "serving.query_response_bytes": median(reader.samples, "bytes"),
        "serving.generator_late_ms": float(np.mean(writer.late_ms + reader.late_ms)),
        "telemetry.trace_overhead_pct": (
            100.0 * (report_client / plain_client - 1.0) if plain_client else 0.0),
        "trace.unattributed_pct": (
            100.0 * (report_client - report_backend) / report_client if report_client else 0.0),
    }
    out.metrics = _per_layer(layers)
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"reports": writer.spans, "queries": reader.spans}, fh)
    return out
