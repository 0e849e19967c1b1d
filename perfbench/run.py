"""Paper-scale metro benchmark of the PDR server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload metro-query --seed 1 --seconds 10 --trace 0

Builds a seeded CH10K metro world from ``src/`` and drives one workload
through the system's public entry points (see README.md in this
directory).  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics (on
metro-query and metro-ingest, times scaled to a reference host; see
``hostspeed.py``), ``--trace 1`` the per-layer ones from a run with timing
shims around each layer.

Exit status: 0 when every correctness check passes, 1 when one fails,
2 when there is no program source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("metro-query", "metro-ingest", "metro-serve")
# The workloads BENCHMARK.json lists.  metro-serve runs on demand only: its
# latencies and report_rate_at_slo sit near the server's saturation knee
# and move 2-3x with host CPU contention between runs (see README.md).
GATED_WORKLOADS = ("metro-query", "metro-ingest")
# One BLAS thread.  With the library default (one per core) the program's
# numpy matrix products run at one- or two-core speed depending on what
# else the shared host runs, and the figures flip between the two from run
# to run; one thread measures the program at a speed that stays put.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def clean_environment(env=os.environ) -> list:
    """Drop every ``REPRO_*`` variable so the program runs on its defaults
    (telemetry on, inline refinement, no crashpoints or journal dir)."""
    removed = sorted(name for name in env if name.startswith("REPRO_"))
    for name in removed:
        del env[name]
    return removed


def pin_blas_threads(env=os.environ) -> None:
    """Set :data:`BLAS_THREADS`; takes effect only before numpy is imported
    (and in every child process, which inherits ``env``)."""
    env.update(BLAS_THREADS)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None, workdir=None):
    """Run one workload; returns ``(outcome, metric_units)``."""
    import numpy as np

    import workloads
    from metro import CH10K, MetroStream
    from serve import run_metro_serve

    runner = {
        "metro-query": workloads.run_metro_query,
        "metro-ingest": workloads.run_metro_ingest,
        "metro-serve": run_metro_serve,
    }[workload]
    stream = MetroStream(seed, scale or CH10K)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir = workdir or os.path.join(ROOT, ".perfbench", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = runner(stream, seconds, trace, rng, workdir)
    finally:
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            out_dir = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(out_dir, exist_ok=True)
            shutil.move(spans, os.path.join(out_dir, f"{workload}-seed{seed}.json"))
        shutil.rmtree(workdir, ignore_errors=True)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    return outcome, units


def environment_lines(removed) -> list:
    import numpy as np

    from repro.telemetry import TELEMETRY

    return [
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__}",
        f"defaults measured: telemetry={'on' if TELEMETRY.enabled else 'off'} "
        "refine_workers=0 fsync=once per wave blas_threads=1",
        f"environment: removed {', '.join(removed) if removed else 'no REPRO_* variables'}",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    removed = clean_environment()
    pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    outcome, units = run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = not outcome.failures
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in environment_lines(removed):
        print(line)
    for name, (value, unit) in outcome.named.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in outcome.notes:
        print(line)
    for line in outcome.failures:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
