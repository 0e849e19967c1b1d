"""WAL replay runs as waves through the batch engine.

Recovery, replica drain and replica catch-up all hand LSN-ordered runs
of records to :meth:`PDRServer.apply_logged_record`, which applies each
maximal run of consecutive reports as one table wave.  The log written
here mixes multi-report waves, single reports, a repeated oid inside a
wave, retirements, a multi-tick advance, an epoch record and a torn
final line; every replay path must land bit-identical to the live
primary, and a listener must see one ``on_report_batch`` per wave.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro import PDRServer
from repro.motion.table import ObjectTable
from repro.motion.updates import UpdateListener
from repro.reliability import ReliabilityConfig
from repro.reliability.recovery import records_from_lsn
from repro.reliability.replication import Replica, ReplicationLink, ShippedRecord

from .conftest import small_system_config
from .sequential_oracle import SequentialOracle


def _wave(rng, oids):
    return [
        (
            int(oid),
            float(rng.uniform(5.0, 95.0)),
            float(rng.uniform(5.0, 95.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-1.0, 1.0)),
        )
        for oid in oids
    ]


def _write_log(state_dir, checkpoint):
    """Drive a durable primary, leave a torn final WAL line, return it."""
    rng = np.random.default_rng(5)
    live = PDRServer(
        small_system_config(),
        expected_objects=64,
        reliability=ReliabilityConfig(state_dir=state_dir, fsync=False),
    )
    live.report_batch(_wave(rng, range(24)))
    live.report(*_wave(rng, [24])[0])  # merges with the wave above on replay
    live.advance_to(1)
    live.report_batch(_wave(rng, [0, 1, 2, 3, 4, 5, 3, 6, 7]))  # oid 3 twice
    live.retire(5)
    live.report_batch(_wave(rng, range(8, 16)))
    if checkpoint:
        live.checkpoint()
    live.advance_to(4)  # three ticks at once
    live.promote(1)  # an epoch record in the log
    live.report_batch(_wave(rng, [5, 16, 17, 18, 16]))  # 5 returns; 16 twice
    live.retire(0)
    live.retire(1)
    live.report(*_wave(rng, [30])[0])
    live.report_batch(_wave(rng, range(19, 27)))
    live.advance_to(5)
    live.report_batch(_wave(rng, [2, 9]))
    live.close()
    newest = sorted(glob.glob(os.path.join(state_dir, "wal-*.jsonl")))[-1]
    with open(newest, "a", encoding="utf-8") as fh:
        fh.write('99:0:{"op": "report", "oid": 7')  # torn: never acknowledged
    return live


@pytest.fixture(params=[False, True], ids=["log-only", "checkpointed"])
def logged(request, tmp_path):
    state_dir = str(tmp_path / "state")
    return state_dir, _write_log(state_dir, checkpoint=request.param)


@pytest.fixture
def plain_log(tmp_path):
    state_dir = str(tmp_path / "state")
    live = _write_log(state_dir, checkpoint=False)
    return state_dir, live, list(records_from_lsn(state_dir, 0))


def _state(server):
    return {
        "tnow": server.tnow,
        "epoch": server.epoch,
        "motions": sorted(
            (m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in server.table.motions()
        ),
        "tree": sorted(
            (m.oid, m.t_ref, m.x, m.y, m.vx, m.vy) for m in server.tree.all_motions()
        ),
    }


def assert_bit_identical(server, live):
    assert _state(server) == _state(live)
    assert np.array_equal(server.histogram._counts, live.histogram._counts)
    assert np.array_equal(server.histogram._slot_time, live.histogram._slot_time)
    assert np.array_equal(server.pa._coeffs, live.pa._coeffs)
    assert np.array_equal(server.pa._slot_time, live.pa._slot_time)
    server.tree.validate()


def _replica(name="r"):
    server = PDRServer(small_system_config(), expected_objects=64, role="replica")
    return Replica(name, server, ReplicationLink(name))


def expected_waves(records):
    """Maximal runs of consecutive reports, cut again at a repeated oid."""
    waves, seen = 0, None
    for record in records:
        if record["op"] != "report":
            seen = None
            continue
        if seen is None or record["oid"] in seen:
            waves += 1
            seen = set()
        seen.add(record["oid"])
    return waves


class WaveRecorder(UpdateListener):
    def __init__(self):
        self.calls = []

    def on_report_batch(self, pairs):
        self.calls.append(("report_batch", len(pairs)))

    def on_delete_batch(self, updates):
        self.calls.append(("delete_batch", len(updates)))

    def on_insert(self, update):
        self.calls.append(("insert", 1))

    def on_delete(self, update):
        self.calls.append(("delete", 1))


def assert_wave_dispatch(recorder, records):
    reports = sum(1 for r in records if r["op"] == "report")
    retires = sum(1 for r in records if r["op"] == "retire")
    waves = [n for hook, n in recorder.calls if hook == "report_batch"]
    assert len(waves) == expected_waves(records) < reports
    assert sum(waves) == reports
    assert recorder.calls.count(("delete_batch", 1)) == retires
    assert not [c for c in recorder.calls if c[0] in ("insert", "delete")]


# ----------------------------------------------------------------------
# every replay path lands on the live primary's state, bit for bit
# ----------------------------------------------------------------------
def test_log_covers_every_record_kind(plain_log):
    _state_dir, live, records = plain_log
    ops = [r["op"] for r in records]
    assert {"report", "retire", "advance", "epoch"} <= set(ops)
    assert [r["lsn"] for r in records] == list(range(1, live.wal_lsn + 1))
    # The live engine itself matches the one-update-at-a-time kernels.
    oracle = SequentialOracle(small_system_config())
    for record in records:
        oracle.apply_record(record)
    assert oracle.mismatches(live) == []


def test_recover_server_is_bit_identical(logged):
    state_dir, live = logged
    recovered = PDRServer.recover(state_dir)
    try:
        assert recovered.wal_lsn == live.wal_lsn
        assert_bit_identical(recovered, live)
    finally:
        recovered.close()


def test_replica_drain_out_of_order_is_bit_identical(plain_log):
    _state_dir, live, records = plain_log
    replica = _replica()
    order = np.random.default_rng(11).permutation(len(records))
    for i in order:
        replica.offer(ShippedRecord(1, records[i]))
        replica.drain()
    assert replica.applied_lsn == live.wal_lsn
    assert not replica.stalled
    assert_bit_identical(replica.server, live)


def test_replica_catch_up_plain_log_is_bit_identical(plain_log):
    state_dir, live, records = plain_log
    replica = _replica()
    assert replica.catch_up(state_dir) == len(records)
    assert replica.applied_lsn == live.wal_lsn
    assert_bit_identical(replica.server, live)


def test_replica_catch_up_image_bootstrap_is_bit_identical(logged):
    state_dir, live = logged
    replica = _replica()
    replica.catch_up(state_dir, prefer_image=True)
    assert replica.applied_lsn == live.wal_lsn
    assert_bit_identical(replica.server, live)


# ----------------------------------------------------------------------
# one dispatch per wave, not per record
# ----------------------------------------------------------------------
def test_recovery_dispatches_one_batch_per_wave(plain_log, monkeypatch):
    state_dir, live, records = plain_log
    recorders = []
    original_init = ObjectTable.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorders.append(WaveRecorder())
        self.add_listener(recorders[-1])

    monkeypatch.setattr(ObjectTable, "__init__", init)
    recovered = PDRServer.recover(state_dir)
    recovered.close()
    assert len(recorders) == 1
    assert_wave_dispatch(recorders[0], records)


def test_replica_paths_dispatch_one_batch_per_wave(plain_log):
    state_dir, _live, records = plain_log
    caught_up = _replica()
    caught_up.server.table.add_listener(WaveRecorder())
    caught_up.catch_up(state_dir)
    assert_wave_dispatch(caught_up.server.table._listeners[-1], records)

    drained = _replica()
    drained.server.table.add_listener(WaveRecorder())
    for record in reversed(records):  # all buffered, then one contiguous run
        drained.offer(ShippedRecord(1, record))
    assert drained.drain() == len(records)
    assert_wave_dispatch(drained.server.table._listeners[-1], records)
