"""Tests for the background storage repair service (PR-7)."""

import pytest

from repro.cluster.chaos import FailureInjector, FaultLog
from repro.dataplane import REPAIR_BANDWIDTH_MBPS
from repro.storage.objectstore import ObjectStore
from repro.storage.placement import spread_blocks
from repro.storage.repair import REPAIR_INTERVAL, StorageRepairService


def make_service(engine, api, store):
    service = StorageRepairService(engine, store, api, log=FaultLog())
    service.start()
    return service


def seeded_store(replication=2, block_mb=10):
    store = ObjectStore()
    spread_blocks(
        store, "data", total_mb=12 * block_mb, block_mb=block_mb,
        nodes=["node-0", "node-1", "node-2"], replication=replication,
    )
    return store


class TestRepairLoop:
    def test_dark_node_dropped_and_rereplicated(self, engine, cluster, api):
        store = seeded_store()
        service = make_service(engine, api, store)
        FailureInjector(cluster, log=FaultLog()).fail_node("node-0")
        engine.run_until(16.0)  # one scan past the default 15 s interval
        assert service.dropped_replicas > 0
        assert service.repaired_objects == service.dropped_replicas
        assert service.backlog() == 0
        # Every object is back at target using only live replicas.
        assert store.under_replicated(live=service.node_live) == []
        # Repair ledger: bytes landed == bytes moved.
        assert service.repaired_mb == pytest.approx(service.repair_traffic_mb)
        assert service.repaired_mb == pytest.approx(10.0 * service.repaired_objects)

    def test_no_failure_means_no_repair_traffic(self, engine, api):
        store = seeded_store()
        service = make_service(engine, api, store)
        engine.run_until(50.0)
        assert service.scans == 3
        assert service.repair_traffic_mb == 0.0
        assert service.dropped_replicas == 0

    def test_bandwidth_budget_spreads_repair_over_scans(self, engine, cluster, api):
        # Blocks of 2/3 of a scan's budget: at most 2 per scan (the second
        # overshoots and borrows from the next scan's budget).
        budget_mb = REPAIR_BANDWIDTH_MBPS * REPAIR_INTERVAL
        store = seeded_store(block_mb=budget_mb * 2 / 3)
        service = make_service(engine, api, store)
        FailureInjector(cluster, log=FaultLog()).fail_node("node-0")
        engine.run_until(16.0)
        assert 0 < service.repaired_objects <= 2
        assert service.backlog() > 0
        engine.run_until(200.0)
        assert service.backlog() == 0
        assert store.under_replicated(live=service.node_live) == []
        assert service.repaired_mb == pytest.approx(service.repair_traffic_mb)

    def test_lost_objects_are_not_repairable(self, engine, cluster, api):
        store = seeded_store(replication=1)
        service = make_service(engine, api, store)
        FailureInjector(cluster, log=FaultLog()).fail_node("node-0")
        engine.run_until(46.0)
        # Blocks whose only copy was on node-0 have no source to copy from.
        lost = store.lost_objects()
        assert lost
        assert service.backlog() == 0  # not re-queued forever
        assert all(not o.replicas for o in lost)
        # Lost blocks still count as under-replicated (the data is gone,
        # not forgotten); nothing with a surviving copy is left short.
        short = store.under_replicated(live=service.node_live)
        assert short == lost

    def test_unplaceable_defers_until_node_recovers(self, engine, cluster, api):
        store = ObjectStore()
        store.create_bucket("b")
        # Already on both surviving nodes; target 3 needs node-0 back.
        store.put("b", "k", 10.0, {"node-1", "node-2"}, target_replicas=3)
        injector = FailureInjector(cluster, log=FaultLog())
        injector.fail_node("node-0")
        service = make_service(engine, api, store)
        engine.run_until(16.0)
        assert service.unplaceable > 0
        assert service.repaired_objects == 0
        assert service.backlog() == 1
        injector.recover_node("node-0")
        engine.run_until(46.0)
        assert service.repaired_objects == 1
        assert store.get("b", "k").replicas == frozenset(
            {"node-0", "node-1", "node-2"}
        )
        assert service.backlog() == 0

    def test_replica_loss_recorded_in_fault_log(self, engine, cluster, api):
        store = seeded_store()
        log = FaultLog()
        service = StorageRepairService(engine, store, api, log=log)
        service.start()
        FailureInjector(cluster, log=FaultLog()).fail_node("node-1")
        engine.run_until(16.0)
        records = [e for e in log.episodes if e.kind == "storage-replica-loss"]
        assert len(records) == 1
        assert records[0].target == "node-1"
        assert service.dropped_replicas > 0

    def test_stop_cancels_future_scans(self, engine, api):
        store = seeded_store()
        service = make_service(engine, api, store)
        engine.run_until(16.0)
        assert service.scans == 1
        service.stop()
        engine.run_until(100.0)
        assert service.scans == 1
        service.start()  # restart re-arms the periodic scan
        engine.run_until(116.0)
        assert service.scans == 2

    def test_sample_metrics_keys(self, engine, cluster, api):
        store = seeded_store()
        service = make_service(engine, api, store)
        FailureInjector(cluster, log=FaultLog()).fail_node("node-2")
        engine.run_until(16.0)
        metrics = service.sample_metrics()
        assert metrics["repair_scans"] == 1.0
        assert metrics["repair_backlog"] == 0.0
        assert metrics["repaired_objects"] > 0
        assert metrics["repair_traffic_mb"] > 0
        assert metrics["replicas_dropped"] > 0
