"""Unit tests for the replicated control plane: election, failover,
self-fencing under partitions, and idempotent WAL replay."""

import numpy as np
import pytest

from repro.cluster.chaos import FaultLog
from repro.cluster.resources import ResourceVector
from repro.control.ha import ReplicatedControlPlane
from repro.control.multiresource import (
    AllocationBounds,
    MultiResourceController,
)
from repro.control.pid import PIDGains
from repro.control.statestore import ControllerStateStore
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace
from tests.conftest import make_manager


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=16, disk_bw=400, net_bw=400),
)
TTL = 20.0  # 2 × the 10 s control interval (the plane's default)


def deploy(engine, api, collector, *, start_collector=True):
    svc = Microservice(
        "svc", engine, api,
        trace=ConstantTrace(100.0),
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
        initial_allocation=ResourceVector(cpu=0.5, memory=1, disk_bw=20, net_bw=20),
        initial_replicas=1,
    )
    svc.plo = LatencyPLO(0.05, window=20)
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    collector.register(svc)
    if start_collector:
        collector.start()
    return svc


def make_plane(engine, api, collector, svc, *, replicas=3, **kwargs):
    """A plane wired as the platform wires it: a statestore, an election
    stream and the collector's FaultLog, unless ``kwargs`` name others."""
    kwargs.setdefault("fault_log", collector.faults.log)
    kwargs.setdefault("store", ControllerStateStore(engine, log=kwargs["fault_log"]))
    kwargs.setdefault("rng", np.random.default_rng(0))
    managers = []
    for _ in range(replicas):
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(
            svc, MultiResourceController(PIDGains(kp=0.8, ki=0.08), BOUNDS)
        )
        managers.append(manager)
    return ReplicatedControlPlane(engine, api, managers, **kwargs), managers


class TestElection:
    def test_first_alive_replica_wins_initial_election(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        plane, managers = make_plane(engine, api, collector, svc)
        plane.start()
        assert plane.leader_index() == 0
        assert plane.generation == 1
        (initial,) = plane.failovers
        assert initial.leader == "control-plane-0"
        assert initial.gap is None  # no predecessor, no gap
        # Only the leader's loop runs; standbys just watch the lease.
        engine.run_until(100.0)
        assert managers[0].loops > 0
        assert managers[1].loops == 0 and managers[2].loops == 0

    def test_default_ttl_is_twice_control_interval(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        plane, _ = make_plane(engine, api, collector, svc)
        assert plane.lease_ttl == pytest.approx(TTL)

    def test_leader_keeps_lease_while_healthy(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        plane, _ = make_plane(engine, api, collector, svc)
        plane.start()
        engine.run_until(500.0)
        assert plane.leader_index() == 0
        assert len(plane.failovers) == 1
        assert plane.step_downs == 0


class TestFailover:
    def test_crash_triggers_takeover_within_gap_bound(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        log = FaultLog()
        plane, managers = make_plane(
            engine, api, collector, svc, fault_log=log
        )
        plane.start()
        engine.run_until(100.0)
        plane.crash_replica(0)
        assert plane.leader_index() is None  # the gap: nobody actuates
        engine.run_until(100.0 + TTL + 10.0)
        assert plane.leader_index() in (1, 2)
        assert plane.generation == 2
        failover = plane.failovers[-1]
        # Gap = election − last renewal: bounded by TTL + one watch period.
        assert failover.gap is not None
        assert failover.gap < TTL + plane.watch_interval + 1.0
        (episode,) = log.by_kind("leader-gap")
        assert episode.duration() == pytest.approx(failover.gap)
        # Leadership transfer moved the HA hooks to the successor.
        leader = managers[plane.leader_index()]
        assert leader.actuation_sink == plane.store.append_wal
        assert managers[0].actuation_sink is None

    def test_successor_restores_durable_snapshot(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        store = ControllerStateStore(engine, snapshot_interval=60.0, log=FaultLog())
        plane, _ = make_plane(engine, api, collector, svc, store=store)
        plane.start()
        engine.run_until(150.0)  # snapshots at t=60 and t=120
        plane.crash_replica(0)
        engine.run_until(200.0)
        failover = plane.failovers[-1]
        assert failover.snapshot_restored
        assert 0.0 < failover.snapshot_age < 120.0
        # Every logged actuation was already applied: nothing re-issued.
        assert failover.wal_reissued == 0

    def test_restarted_replica_rejoins_as_standby(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        plane, _ = make_plane(engine, api, collector, svc)
        plane.start()
        engine.run_until(100.0)
        plane.crash_replica(0)
        with pytest.raises(ValueError):
            plane.crash_replica(0)  # already down
        engine.run_until(150.0)
        successor = plane.leader_index()
        plane.restart_replica(0)
        engine.run_until(400.0)
        # The healthy successor keeps renewing; no takeover happens.
        assert plane.leader_index() == successor
        assert plane.is_alive(0)
        assert plane.alive_indices() == [0, 1, 2]

    def test_failover_chain_survives_repeated_crashes(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        plane, _ = make_plane(engine, api, collector, svc)
        plane.start()
        for t in (100.0, 200.0):
            engine.run_until(t)
            leader = plane.leader_index()
            plane.crash_replica(leader)
            # Restart only after the successor is elected; an immediate
            # restart lets the old holder re-acquire its own lease.
            engine.schedule(50.0, lambda i=leader: plane.restart_replica(i))
        engine.run_until(300.0)
        assert plane.leader_index() is not None
        assert plane.generation == 3
        stats = plane.stats()
        assert stats["failovers"] == 3  # initial election + two takeovers


class TestPartition:
    def test_partitioned_leader_self_fences_before_takeover(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        plane, managers = make_plane(engine, api, collector, svc)
        plane.start()
        engine.run_until(100.0)
        api.partitions.partition("control-plane-0", engine.now)
        engine.run_until(100.0 + 2 * TTL)
        # The watchdog fenced the unreachable leader at the lease TTL —
        # strictly before any rival could steal the lease — so there was
        # never a moment with two actuating leaders.
        assert plane.fence_events >= 1
        assert plane.leader_index() in (1, 2)
        assert plane.replicas[0].renew_failures >= 1
        assert managers[0].partition_guard is None  # demoted: hooks gone
        # Still partitioned: replica 0 watches but cannot re-acquire.
        engine.run_until(300.0)
        assert plane.leader_index() in (1, 2)
        api.partitions.heal("control-plane-0", engine.now)
        engine.run_until(500.0)
        # Healed, it stays a standby; the incumbent keeps renewing.
        assert plane.leader_index() in (1, 2)

    def test_partition_during_gap_does_not_wedge_the_plane(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        plane, _ = make_plane(engine, api, collector, svc)
        plane.start()
        engine.run_until(100.0)
        # Partition one standby *and* crash the leader: the remaining
        # healthy standby must still win.
        api.partitions.partition("control-plane-1", engine.now)
        plane.crash_replica(0)
        engine.run_until(100.0 + 2 * TTL)
        assert plane.leader_index() == 2


class TestWalReplay:
    def test_replay_dedupes_applied_and_reissues_lost(
        self, engine, api, collector
    ):
        # No collector → no PLO signal → the loop never actuates on its
        # own, so the WAL contains exactly the records planted here.
        svc = deploy(engine, api, collector, start_collector=False)
        store = ControllerStateStore(engine, snapshot_interval=None, log=FaultLog())
        plane, _ = make_plane(engine, api, collector, svc, store=store)
        plane.start()
        engine.run_until(50.0)
        # "scale to 1" was applied (replica_count is already 1): dedupe.
        store.append_wal("svc", "scale", 1)
        # This resize was logged but never took effect: re-issue once.
        lost = svc.current_allocation().replace(cpu=2.0)
        store.append_wal("svc", "resize", lost)
        engine.run_until(100.0)
        plane.crash_replica(0)
        engine.run_until(150.0)
        failover = plane.failovers[-1]
        assert not failover.snapshot_restored  # snapshotting disabled
        assert failover.wal_replayed == 2
        assert failover.wal_deduped == 1
        assert failover.wal_reissued == 1
        assert svc.target_allocation.approx_equal(lost)

    def test_replay_keeps_only_newest_record_per_app_and_kind(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector, start_collector=False)
        store = ControllerStateStore(engine, snapshot_interval=None, log=FaultLog())
        plane, _ = make_plane(engine, api, collector, svc, store=store)
        plane.start()
        engine.run_until(50.0)
        stale = svc.current_allocation().replace(cpu=4.0)
        newest = svc.current_allocation().replace(cpu=2.0)
        store.append_wal("svc", "resize", stale)
        store.append_wal("svc", "resize", newest)
        engine.run_until(100.0)
        plane.crash_replica(0)
        engine.run_until(150.0)
        # Both records are in the replayed tail, but only the newest is
        # reconciled — the stale one was superseded in the old leader's
        # own timeline and must not clobber the newer target.
        failover = plane.failovers[-1]
        assert failover.wal_replayed == 2
        assert failover.wal_reissued == 1
        assert svc.target_allocation.approx_equal(newest)

    def test_records_for_unknown_apps_are_skipped(self, engine, api, collector):
        svc = deploy(engine, api, collector, start_collector=False)
        store = ControllerStateStore(engine, snapshot_interval=None, log=FaultLog())
        plane, _ = make_plane(engine, api, collector, svc, store=store)
        plane.start()
        engine.run_until(50.0)
        store.append_wal("ghost", "scale", 5)
        engine.run_until(100.0)
        plane.crash_replica(0)
        engine.run_until(150.0)
        failover = plane.failovers[-1]
        assert failover.wal_replayed == 1
        assert failover.wal_deduped == 0 and failover.wal_reissued == 0


class TestLifecycle:
    def test_stop_releases_lease_and_stops_loops(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        plane, managers = make_plane(engine, api, collector, svc)
        plane.start()
        engine.run_until(100.0)
        plane.stop()
        assert api.get_lease("control-plane") is None
        loops_at_stop = managers[0].loops
        engine.run_until(300.0)
        assert managers[0].loops == loops_at_stop

    def test_empty_replica_list_rejected(self, engine, api, collector):
        with pytest.raises(ValueError):
            ReplicatedControlPlane(
                engine, api, [],
                store=ControllerStateStore(engine, log=FaultLog()),
                rng=np.random.default_rng(0),
                fault_log=FaultLog(),
            )

    def test_double_start_rejected(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        plane, _ = make_plane(engine, api, collector, svc)
        plane.start()
        with pytest.raises(RuntimeError):
            plane.start()
