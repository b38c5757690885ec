"""Unit tests for the durable controller statestore (snapshots + WAL)."""

import pytest

from repro.cluster.chaos import FaultLog
from repro.cluster.resources import ResourceVector
from repro.control.statestore import FSYNC_LATENCY as FSYNC
from repro.control.statestore import ControllerStateStore
from repro.sim.engine import Engine


@pytest.fixture
def store(engine: Engine) -> ControllerStateStore:
    return ControllerStateStore(engine, log=FaultLog())


class TestValidation:
    def test_bad_knobs_rejected(self, engine):
        with pytest.raises(ValueError):
            ControllerStateStore(engine, snapshot_interval=0.0, log=FaultLog())

    def test_unknown_wal_kind_rejected(self, engine, store):
        with pytest.raises(ValueError):
            store.append_wal("svc", "reboot", None)


class TestWal:
    def test_records_are_sequenced_and_timestamped(self, engine, store):
        engine.run_until(10.0)
        first = store.append_wal("svc", "resize", ResourceVector(cpu=2))
        second = store.append_wal("svc", "scale", 3)
        assert (first.seq, second.seq) == (1, 2)
        assert first.time == 10.0
        assert first.durable_at == 10.0 + FSYNC

    def test_wal_after_filters_by_seq_and_durability(self, engine, store):
        store.append_wal("svc", "resize", ResourceVector(cpu=1))
        engine.run_until(10.0)
        store.append_wal("svc", "resize", ResourceVector(cpu=2))
        store.append_wal("svc", "scale", 2)
        # A crash at t=10 sees only what fsynced before it: the t=0 write.
        assert [r.seq for r in store.wal_after(0, at=10.0)] == [1]
        # After the fsync window everything is visible, oldest first.
        assert [r.seq for r in store.wal_after(0, at=10.0 + FSYNC)] == [1, 2, 3]
        assert [r.seq for r in store.wal_after(2, at=10.0 + FSYNC)] == [3]
        # Default horizon is the engine clock.
        assert [r.seq for r in store.wal_after(0)] == [1]


class TestSnapshots:
    def test_latest_snapshot_respects_durability(self, engine, store):
        engine.run_until(5.0)
        store.snapshot({"svc": {"n": 1}})
        assert store.latest_snapshot(at=5.0) is None  # not yet fsynced
        snap = store.latest_snapshot(at=5.0 + FSYNC)
        assert snap.state == {"svc": {"n": 1}}
        assert snap.wal_seq == 0

    def test_snapshot_pins_wal_watermark(self, engine, store):
        store.append_wal("svc", "scale", 2)
        store.append_wal("svc", "scale", 3)
        snap = store.snapshot({})
        store.append_wal("svc", "scale", 4)
        engine.run_until(10.0)
        # Replaying from the snapshot's watermark yields only the tail.
        assert [r.seq for r in store.wal_after(snap.wal_seq)] == [3]

    def test_newest_durable_snapshot_wins(self, engine, store):
        store.snapshot({"gen": 1})
        engine.run_until(60.0)
        store.snapshot({"gen": 2})
        engine.run_until(120.0)
        assert store.latest_snapshot().state == {"gen": 2}


class TestCorruption:
    def test_corruption_falls_back_to_older_snapshot(self, engine, store):
        log = FaultLog()
        store.log = log
        store.snapshot({"gen": 1})
        engine.run_until(60.0)
        store.snapshot({"gen": 2})
        engine.run_until(120.0)
        assert store.corrupt_latest(engine.now)
        assert store.latest_snapshot().state == {"gen": 1}
        (episode,) = log.by_kind("snapshot-corruption")
        assert episode.target == "snapshot-2"
        # Corrupting again strikes the fallback; recovery is then WAL-only.
        assert store.corrupt_latest(engine.now)
        assert store.latest_snapshot() is None
        assert store.corruptions == 2

    def test_nothing_durable_nothing_corrupted(self, engine, store):
        assert not store.corrupt_latest(engine.now)
        store.snapshot({})
        assert not store.corrupt_latest(engine.now)  # still in fsync window

    def test_stats(self, engine, store):
        store.snapshot({})
        store.append_wal("svc", "scale", 1)
        engine.run_until(10.0)
        store.corrupt_latest(engine.now)
        assert store.stats() == {
            "snapshots": 1, "wal_records": 1, "corruptions": 1,
        }
