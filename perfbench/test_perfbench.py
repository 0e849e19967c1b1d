"""Self-test of the benchmark at toy scale (about a minute).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that every named metric is emitted with a unit, that a planted
wrong answer trips the correctness checks, that one seed reproduces
the same input stream and the same count metrics exactly, and that the
host-speed timer samples inside a long call and is put back after it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metro  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.geometry import Rect  # noqa: E402
from repro.core.regions import RegionSet  # noqa: E402
from repro.methods.fr import FRMethod  # noqa: E402

SECONDS = 0.5


@pytest.fixture
def toy_scale(monkeypatch):
    monkeypatch.setattr(metro, "CH10K", metro.TOY)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace, toy_scale, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", str(SECONDS),
                     "--trace", str(trace)])
    result = last_json_line(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name] and entry["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.GATED_WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_planted_wrong_fr_answer_fails_the_command(toy_scale, monkeypatch, capsys):
    original = FRMethod.query

    def wrong(self, query, deadline=None):
        result = original(self, query, deadline)
        # a sliver at the domain corner, far from every metro hub
        result.regions = RegionSet(list(result.regions.rects) + [Rect(0.0, 0.0, 1.0, 1.0)])
        return result

    monkeypatch.setattr(FRMethod, "query", wrong)
    code = run.main(["--workload", "metro-query", "--seed", "3", "--seconds", str(SECONDS),
                     "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert last_json_line(out)["correct"] is False
    assert "CHECK FAILED: FR != bruteforce" in out


def test_each_check_rejects_a_planted_defect():
    exact = RegionSet([Rect(0.0, 0.0, 10.0, 10.0)])
    assert checks.fr_matches_bruteforce([("q", exact, exact)]) == []
    assert checks.fr_matches_bruteforce([("q", RegionSet([Rect(0.0, 0.0, 9.0, 10.0)]), exact)])
    assert checks.pa_within_envelope([(exact, exact)])[0] == []
    assert checks.pa_within_envelope([(exact, RegionSet([Rect(0.0, 0.0, 5.0, 10.0)]))])[0]
    report = (1, 2.0, 3.0, 0.5, 0.5)
    assert checks.no_acked_write_loss([(7, report)], {7: report}) == []
    assert checks.no_acked_write_loss([(7, report)], {7: (1, 2.0, 3.0, 0.5, 0.25)})
    assert checks.sheds_carry_retry_after([{"error": "shed", "retry_after": 0.1}]) == []
    assert checks.sheds_carry_retry_after([{"error": "shed"}])


def test_recovery_check_rejects_a_diverged_state(tmp_path):
    stream = metro.MetroStream(5, metro.TOY)
    server, rejected = metro.build_world(stream, str(tmp_path / "state"))
    assert rejected == 0
    live = checks.server_state(server)
    assert checks.recovered_identical(live, server) == []
    live["pa_coeffs"] = live["pa_coeffs"] + 1e-12
    live["motions"].pop(next(iter(live["motions"])))
    failures = checks.recovered_identical(live, server)
    server.close()
    assert any("PA coefficients" in f for f in failures)
    assert any("motion set" in f for f in failures)


def test_same_seed_same_stream():
    a, b = metro.MetroStream(9, metro.TOY), metro.MetroStream(9, metro.TOY)
    assert a.population == b.population
    for t in range(a.t0 + 1, a.t0 + 6):
        assert a.wave(t) == b.wave(t)
    assert metro.MetroStream(10, metro.TOY).population != a.population


@pytest.mark.parametrize("workload", ("metro-query", "metro-ingest"))
def test_same_seed_same_count_metrics(workload):
    counts = [
        name for name, unit in workloads.PER_LAYER.items()
        if unit in ("count", "ratio", "B") and not name.startswith("serving.")
    ]
    runs = []
    for _ in range(2):
        outcome, _ = run.run(workload, 4, 0.0, True, scale=metro.TOY)
        assert not outcome.failures
        runs.append({name: outcome.metrics[name] for name in counts})
    assert runs[0] == runs[1]
    assert any(value > 0 for value in runs[0].values())
    assert np.isfinite(list(runs[0].values())).all()


def test_host_speed_samples_inside_long_calls_and_restores_the_timer(monkeypatch):
    kernel = iter([0.010, 0.020, 0.020, 0.010])  # before, two inside, after
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: next(kernel, 0.010))
    monkeypatch.setattr(hostspeed, "SAMPLE_EVERY_S", 0.05)
    previous = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed()
    result, seconds_ref = host.time(time.sleep, 0.12)
    assert result is None
    assert host.samples[:2] == [0.010, 0.020] and len(host.samples) >= 3
    # Slower kernel samples scale the call down: the reference-host time is
    # below the wall time, which time.sleep fixes at >= 0.12 s.
    assert 0.0 < seconds_ref < 0.12
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    with pytest.raises(ZeroDivisionError):
        host.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
