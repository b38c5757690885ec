"""Unit tests for failure injection."""

import numpy as np
import pytest

from repro.cluster.api import ActuationError
from repro.cluster.chaos import (
    DEGRADE_FACTOR,
    ActuationFaultInjector,
    ChaosMonkey,
    DataLossInjector,
    DegradationInjector,
    ExecutorKillInjector,
    FailureInjector,
    FaultLog,
    StragglerInjector,
    ZoneOutageInjector,
)
from repro.cluster.cluster import ClusterError
from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.storage.objectstore import ObjectStore
from tests.conftest import make_spec


def failed(injector: FailureInjector) -> list[str]:
    return [n for n in sorted(injector.cluster.nodes) if injector.is_failed(n)]


def degraded(degrader: DegradationInjector) -> list[str]:
    return [n for n in sorted(degrader.cluster.nodes) if degrader.is_degraded(n)]


@pytest.fixture
def injector(cluster):
    return FailureInjector(cluster, log=FaultLog())


@pytest.fixture
def degrader(cluster):
    return DegradationInjector(cluster, log=FaultLog())


class TestFailureInjector:
    def test_fail_evicts_resident_pods(self, engine, cluster, injector):
        cluster.submit(make_spec("a", cpu=2))
        cluster.submit(make_spec("b", cpu=2))
        cluster.bind("a", "node-0")
        cluster.bind("b", "node-1")
        engine.run_until(10.0)
        failure = injector.fail_node("node-0")
        assert failure.evicted_pods == ("a",)
        assert cluster.get_pod("a").phase == PodPhase.EVICTED
        assert cluster.get_pod("b").phase == PodPhase.RUNNING
        cluster.verify_invariants()

    def test_failed_node_rejects_bindings(self, engine, cluster, injector):
        injector.fail_node("node-0")
        cluster.submit(make_spec("p"))
        with pytest.raises(Exception):
            cluster.bind("p", "node-0")

    def test_failed_node_has_zero_capacity(self, cluster, injector):
        injector.fail_node("node-0")
        node = cluster.get_node("node-0")
        assert node.allocatable.is_zero()
        assert not node.can_fit(ResourceVector(cpu=0.1))

    def test_double_failure_rejected(self, cluster, injector):
        injector.fail_node("node-0")
        with pytest.raises(ClusterError):
            injector.fail_node("node-0")

    def test_recover_restores_capacity(self, engine, cluster, injector):
        original = cluster.get_node("node-0").allocatable
        injector.fail_node("node-0")
        injector.recover_node("node-0")
        assert cluster.get_node("node-0").allocatable == original
        assert not injector.is_failed("node-0")
        # Bindable again.
        cluster.submit(make_spec("p"))
        cluster.bind("p", "node-0")

    def test_recover_unfailed_rejected(self, cluster, injector):
        with pytest.raises(ClusterError):
            injector.recover_node("node-0")

    def test_healthy_nodes_listing(self, cluster, injector):
        injector.fail_node("node-1")
        assert [n.name for n in injector.healthy_nodes()] == ["node-0", "node-2"]
        assert failed(injector) == ["node-1"]

    def test_failure_log(self, engine, cluster, injector):
        engine.run_until(42.0)
        injector.fail_node("node-0")
        assert injector.failures[0].time == 42.0
        assert injector.failures[0].node_name == "node-0"

    def test_episodes_opened_and_closed(self, engine, cluster, injector):
        engine.run_until(10.0)
        injector.fail_node("node-0")
        episode = injector.log.episodes[0]
        assert episode.kind == "node-crash" and episode.active
        engine.run_until(60.0)
        injector.recover_node("node-0")
        assert not episode.active
        assert episode.duration() == pytest.approx(50.0)

    def test_recover_preserves_capacity_change_made_while_down(
        self, cluster, injector
    ):
        """Delta-restore: recovery must not clobber operator resizes that
        happened while the node was dark (the stale-snapshot bug)."""
        node = cluster.get_node("node-0")
        injector.fail_node("node-0")
        # Operator shrinks the machine while it is down (e.g. a flaky DIMM
        # is pulled): capacity and the healthy ceiling drop with it.
        node.capacity = node.capacity.replace(cpu=node.capacity.cpu / 2)
        injector.recover_node("node-0")
        # The restored allocatable is clamped to the *new* nominal ceiling,
        # not the pre-failure snapshot.
        assert node.allocatable.cpu == node.capacity.cpu
        assert node.allocatable.memory == pytest.approx(64.0)

    def test_recover_composes_with_degradation(self, cluster, injector, degrader):
        """A degradation applied before the crash survives crash recovery
        until the degradation itself is restored."""
        node = cluster.get_node("node-0")
        degrader.degrade_node("node-0", 0.5)
        assert node.allocatable.cpu == pytest.approx(8.0)
        injector.fail_node("node-0")
        assert node.allocatable.is_zero()
        injector.recover_node("node-0")
        # Back to the degraded level, not full capacity.
        assert node.allocatable.cpu == pytest.approx(8.0)
        degrader.restore_node("node-0")
        assert node.allocatable.cpu == pytest.approx(16.0)

    def test_chaos_protocol(self, cluster, injector):
        assert injector.name == "crash"
        assert injector.candidates() == ["node-0", "node-1", "node-2"]
        token = injector.strike("node-1")
        assert injector.is_failed("node-1")
        assert injector.candidates() == ["node-0", "node-2"]
        injector.heal(token)
        assert not injector.is_failed("node-1")
        injector.heal(token)  # healing twice is harmless


class TestDegradationInjector:
    def test_degrade_shrinks_allocatable(self, cluster, degrader):
        node = cluster.get_node("node-0")
        degrader.degrade_node("node-0", 0.25)
        assert node.allocatable.cpu == pytest.approx(4.0)
        assert degrader.is_degraded("node-0")
        assert degraded(degrader) == ["node-0"]

    def test_degrade_evicts_lowest_priority_first(self, engine, cluster, degrader):
        cluster.submit(make_spec("low", cpu=6, priority=0))
        cluster.submit(make_spec("high", cpu=6, priority=10))
        cluster.bind("low", "node-0")
        cluster.bind("high", "node-0")
        engine.run_until(10.0)
        # 25% of 16 cores = 4: only one 6-core pod cannot fit either; both
        # cannot; the low-priority one goes first, then the high one.
        degrader.degrade_node("node-0", 0.5)  # 8 cores: evict one pod
        assert cluster.get_pod("low").phase == PodPhase.EVICTED
        assert cluster.get_pod("high").phase == PodPhase.RUNNING
        assert degrader.evictions == 1
        cluster.verify_invariants()

    def test_survivors_keep_running(self, engine, cluster, degrader):
        cluster.submit(make_spec("small", cpu=2))
        cluster.bind("small", "node-0")
        engine.run_until(10.0)
        degrader.degrade_node("node-0", 0.5)
        assert cluster.get_pod("small").phase == PodPhase.RUNNING

    def test_restore_returns_capacity(self, cluster, degrader):
        node = cluster.get_node("node-0")
        original = node.allocatable
        degrader.degrade_node("node-0", 0.5)
        degrader.restore_node("node-0")
        assert node.allocatable == original
        assert not degrader.is_degraded("node-0")

    def test_double_degrade_rejected(self, cluster, degrader):
        degrader.degrade_node("node-0", 0.5)
        with pytest.raises(ClusterError):
            degrader.degrade_node("node-0", 0.5)

    def test_restore_undegraded_rejected(self, cluster, degrader):
        with pytest.raises(ClusterError):
            degrader.restore_node("node-0")

    def test_invalid_factor(self, cluster, degrader):
        for factor in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                degrader.degrade_node("node-0", factor)

    def test_episode_logged(self, engine, cluster, degrader):
        engine.run_until(5.0)
        degrader.degrade_node("node-0", 0.5)
        engine.run_until(25.0)
        degrader.restore_node("node-0")
        episode = degrader.log.episodes[0]
        assert episode.kind == "node-degradation"
        assert episode.duration() == pytest.approx(20.0)

    def test_chaos_protocol(self, cluster, injector, degrader):
        assert degrader.name == "degrade"
        injector.fail_node("node-0")
        # Dark nodes are not candidates, nor are already-degraded ones.
        assert degrader.candidates() == ["node-1", "node-2"]
        token = degrader.strike("node-1")
        assert cluster.get_node("node-1").allocatable.cpu == pytest.approx(
            16.0 * DEGRADE_FACTOR
        )
        assert degrader.candidates() == ["node-2"]
        degrader.heal(token)
        assert not degrader.is_degraded("node-1")
        degrader.heal(token)  # healing twice is harmless


class TestChaosMonkey:
    def test_strikes_and_repairs(self, engine, cluster, injector):
        monkey = ChaosMonkey(
            engine, injector, np.random.default_rng(1),
            mtbf=100.0, repair_time=50.0,
        )
        monkey.start()
        engine.run_until(2000.0)
        assert len(injector.failures) >= 5
        assert injector.recoveries >= len(injector.failures) - 1

    def test_respects_concurrency_cap(self, engine, cluster, injector):
        monkey = ChaosMonkey(
            engine, injector, np.random.default_rng(2),
            mtbf=10.0, repair_time=10_000.0, max_concurrent_failures=2,
        )
        monkey.start()
        engine.run_until(500.0)
        assert len(failed(injector)) <= 2

    def test_stop_halts_strikes(self, engine, cluster, injector):
        monkey = ChaosMonkey(
            engine, injector, np.random.default_rng(3),
            mtbf=50.0, repair_time=10.0,
        )
        monkey.start()
        engine.run_until(200.0)
        count = len(injector.failures)
        monkey.stop()
        engine.run_until(2000.0)
        assert len(injector.failures) == count

    def test_deterministic_given_seed(self, engine, cluster):
        def run(seed):
            from tests.conftest import make_cluster
            from repro.sim.engine import Engine
            eng = Engine()
            clus = make_cluster(eng)
            inj = FailureInjector(clus, log=FaultLog())
            monkey = ChaosMonkey(eng, inj, np.random.default_rng(seed),
                                 mtbf=100.0, repair_time=30.0)
            monkey.start()
            eng.run_until(1000.0)
            return [(f.time, f.node_name) for f in inj.failures]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_params(self, engine, cluster, injector):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ChaosMonkey(engine, injector, rng, mtbf=0)
        with pytest.raises(ValueError):
            ChaosMonkey(engine, injector, rng, repair_time=0)
        with pytest.raises(ValueError):
            ChaosMonkey(engine, injector, rng, max_concurrent_failures=0)

    def test_bursty_strikes_never_exceed_cap(self, engine, cluster, injector, degrader):
        """Near-continuous Poisson strikes with slow repairs: the cap must
        hold at every instant, across fault domains."""
        rng = np.random.default_rng(9)
        monkey = ChaosMonkey(
            engine, injector, rng,
            mtbf=2.0, repair_time=5000.0, max_concurrent_failures=2,
            domains=[injector, degrader],
        )
        monkey.start()
        for t in range(10, 500, 10):
            engine.run_until(float(t))
            assert monkey.active_faults() <= 2
            assert (
                len(failed(injector)) + len(degraded(degrader)) <= 2
            )
        assert monkey.strikes >= 1

    def test_stop_lets_scheduled_heals_run(self, engine, cluster, injector):
        """fail → stop → repair ordering: stopping the monkey must not
        orphan active faults — their heals are already scheduled."""
        monkey = ChaosMonkey(
            engine, injector, np.random.default_rng(4),
            mtbf=20.0, repair_time=100.0,
        )
        monkey.start()
        while not failed(injector):
            engine.run_until(engine.now + 10.0)
        monkey.stop()
        engine.run_until(engine.now + 200.0)
        assert failed(injector) == []
        assert injector.recoveries == len(injector.failures)
        assert monkey.active_faults() == 0

    def test_heal_tolerates_external_recovery(self, engine, cluster, injector):
        """An operator recovering the node before the monkey's heal fires
        must not crash the heal."""
        monkey = ChaosMonkey(
            engine, injector, np.random.default_rng(6),
            mtbf=20.0, repair_time=500.0,
        )
        monkey.start()
        while not failed(injector):
            engine.run_until(engine.now + 10.0)
        injector.recover_node(failed(injector)[0])
        engine.run_until(engine.now + 1000.0)  # monkey heal fires harmlessly
        assert injector.recoveries >= 1

    def test_multi_domain_deterministic_replay(self, engine, cluster):
        """Same seed → identical episode sequence across fault domains."""

        def run(seed):
            from repro.sim.engine import Engine
            from tests.conftest import make_cluster

            eng = Engine()
            clus = make_cluster(eng)
            log = FaultLog()
            inj = FailureInjector(clus, log=log)
            deg = DegradationInjector(clus, log=log)
            rng = np.random.default_rng(seed)
            monkey = ChaosMonkey(
                eng, inj, rng, mtbf=50.0, repair_time=30.0,
                max_concurrent_failures=2,
                domains=[inj, deg],
            )
            monkey.start()
            eng.run_until(2000.0)
            return [(e.kind, e.target, e.start) for e in log.episodes]

        first = run(7)
        assert first == run(7)
        assert first != run(8)
        assert {kind for kind, _, _ in first} == {"node-crash", "node-degradation"}

    def test_default_monkey_matches_explicit_crash_domain(self):
        """The default (crash-only) monkey must not burn extra RNG draws on
        domain selection — seeded legacy experiments must replay identically
        whether the domain list is implicit or explicit."""
        from repro.sim.engine import Engine
        from tests.conftest import make_cluster

        def run(explicit):
            eng = Engine()
            inj = FailureInjector(make_cluster(eng), log=FaultLog())
            rng = np.random.default_rng(7)
            domains = [inj] if explicit else None
            monkey = ChaosMonkey(eng, inj, rng, mtbf=100.0, repair_time=30.0,
                                 domains=domains)
            monkey.start()
            eng.run_until(1000.0)
            return [(f.time, f.node_name) for f in inj.failures]

        assert run(explicit=False) == run(explicit=True)

    def test_empty_domain_list_rejected(self, engine, cluster, injector):
        """An explicit empty list is an error, not a crash-only default."""
        with pytest.raises(ValueError, match="at least one"):
            ChaosMonkey(
                engine, injector, np.random.default_rng(0), domains=[]
            )

    def test_kind_without_candidates_skips_strike(self, engine, cluster):
        monkey = ChaosMonkey(
            engine, FailureInjector(cluster, log=FaultLog()), np.random.default_rng(0),
            mtbf=10.0, repair_time=5.0,
            domains=[DataLossInjector(ObjectStore(), cluster)],
        )
        monkey.start()
        engine.run_until(500.0)
        assert monkey.strikes == 0 and monkey.active_faults() == 0


@pytest.fixture
def zoned_cluster(engine):
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node

    nodes = [
        Node(
            f"node-{z}-{i}",
            ResourceVector(cpu=8, memory=32, disk_bw=100, net_bw=100),
            labels={"zone": f"z{z}"},
        )
        for z in range(3)
        for i in range(2)
    ]
    return Cluster(engine, nodes)


class TestZoneOutageDomain:
    """The ``zone-outage`` kind (:class:`ZoneOutageInjector`)."""

    def test_strike_zone_fails_whole_zone_one_episode(
        self, engine, zoned_cluster
    ):
        injector = FailureInjector(zoned_cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        zoned_cluster.submit(make_spec("a", cpu=2))
        zoned_cluster.submit(make_spec("b", cpu=2))
        zoned_cluster.bind("a", "node-1-0")
        zoned_cluster.bind("b", "node-1-1")
        engine.run_until(10.0)
        token = dom.strike_zone("z1")
        assert failed(injector) == ["node-1-0", "node-1-1"]
        assert zoned_cluster.get_pod("a").phase == PodPhase.EVICTED
        assert zoned_cluster.get_pod("b").phase == PodPhase.EVICTED
        assert dom.outages == 1 and dom.pods_displaced == 2
        # One zone-outage episode for the whole strike, blast radius in
        # the detail; per-node crash episodes ride underneath it.
        episodes = injector.log.by_kind("zone-outage")
        assert len(episodes) == 1
        assert episodes[0].target == "z1" and episodes[0].active
        assert episodes[0].detail == "nodes=2 pods_displaced=2"
        assert len(injector.log.by_kind("node-crash")) == 2
        zone, victims, _ = token
        assert zone == "z1" and victims == ("node-1-0", "node-1-1")

    def test_heal_recovers_and_closes_episode(self, engine, zoned_cluster):
        injector = FailureInjector(zoned_cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        engine.run_until(10.0)
        token = dom.strike_zone("z0")
        engine.run_until(50.0)
        dom.heal(token)
        assert failed(injector) == []
        episode = injector.log.by_kind("zone-outage")[0]
        assert not episode.active
        assert episode.duration() == pytest.approx(40.0)

    def test_heal_tolerates_external_recovery(self, engine, zoned_cluster):
        injector = FailureInjector(zoned_cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        token = dom.strike_zone("z2")
        injector.recover_node("node-2-0")  # operator beat the domain to it
        dom.heal(token)  # must not raise on the already-healthy node
        assert failed(injector) == []

    def test_zones_lists_only_healthy_zones(self, engine, zoned_cluster):
        injector = FailureInjector(zoned_cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        assert dom.candidates() == ["z0", "z1", "z2"]
        dom.strike_zone("z1")
        assert dom.candidates() == ["z0", "z2"]

    def test_strike_empty_zone_rejected(self, engine, zoned_cluster):
        injector = FailureInjector(zoned_cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        with pytest.raises(ClusterError):
            dom.strike_zone("nope")

    def test_monkey_strikes_a_candidate_zone(self, engine, zoned_cluster):
        injector = FailureInjector(zoned_cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        monkey = ChaosMonkey(
            engine, injector, np.random.default_rng(7),
            mtbf=50.0, repair_time=1000.0, domains=[dom],
        )
        monkey.start()
        engine.run_until(400.0)
        assert dom.outages == monkey.strikes == 1
        (episode,) = injector.log.by_kind("zone-outage")
        assert episode.target in ("z0", "z1", "z2")

    def test_unlabelled_cluster_has_no_zones(self, engine, cluster):
        injector = FailureInjector(cluster, log=FaultLog())
        dom = ZoneOutageInjector(injector)
        assert dom.candidates() == []


class TestFaultLogCloseOpen:
    def test_closes_only_open_episodes(self):
        log = FaultLog()
        done = log.open("node-crash", "node-0", 10.0)
        log.close(done, 20.0)
        still_open = log.open("zone-outage", "z1", 30.0)
        assert log.close_open(100.0) == 1
        assert not still_open.active
        assert still_open.duration() == pytest.approx(70.0)
        assert done.duration() == pytest.approx(10.0)  # untouched

    def test_idempotent(self):
        log = FaultLog()
        log.open("brownout", "svc", 5.0)
        assert log.close_open(50.0) == 1
        assert log.close_open(60.0) == 0
        assert log.episodes[0].end == 50.0


class TestActuationOutage:
    def make(self):
        return ActuationFaultInjector(np.random.default_rng(0), log=FaultLog())

    def test_outage_armed_ahead_waits_for_its_start(self):
        faults = self.make()
        episode = faults.outage(10.0, 5.0)
        assert (episode.start, episode.end) == (10.0, 15.0)
        assert not faults.should_fail(9.5)
        assert faults.should_fail(10.0) and faults.should_fail(14.9)
        assert not faults.should_fail(15.0)
        assert faults.injected_failures == 2

    def test_overlapping_and_separate_outages(self):
        faults = self.make()
        faults.outage(0.0, 20.0)
        faults.outage(10.0, 20.0)
        assert [faults.in_outage(t) for t in (5.0, 25.0, 30.0)] == [True, True, False]
        faults.outage(50.0, 10.0)
        # Arming drops the outages that ended by its start.
        assert faults._outages == [(50.0, 60.0)]
        assert [faults.in_outage(t) for t in (40.0, 55.0, 60.0)] == [False, True, False]

    def test_api_verbs_fail_only_from_the_start(self, engine, api):
        api.actuation_faults.outage(engine.now + 10.0, 5.0)
        api.create_pod(make_spec("early"))
        engine.run_until(10.0)
        with pytest.raises(ActuationError):
            api.create_pod(make_spec("late"))
        engine.run_until(15.0)
        api.create_pod(make_spec("after"))


class TestExecutorKillDomain:
    """The ``executor-kill`` kind (:class:`ExecutorKillInjector`)."""

    def test_strike_evicts_running_bigdata_pod(self, engine, cluster):
        cluster.submit(make_spec("svc", workload_class=WorkloadClass.MICROSERVICE))
        cluster.submit(make_spec("exec-1", workload_class=WorkloadClass.BIGDATA))
        cluster.bind("svc", "node-0")
        cluster.bind("exec-1", "node-1")
        engine.run_until(10.0)
        log = FaultLog()
        dom = ExecutorKillInjector(cluster, log=log)
        assert dom.candidates() == ["exec-1"]  # the microservice is out of scope
        victim = dom.strike("exec-1")
        assert cluster.get_pod("exec-1").phase == PodPhase.EVICTED
        assert cluster.get_pod("svc").phase == PodPhase.RUNNING
        assert dom.kills == 1
        assert log.episodes[0].kind == "executor-kill"
        assert log.episodes[0].domain == "executor-kill"
        dom.heal(victim)  # no-op by contract

    def test_no_candidates_is_a_noop(self, engine, cluster):
        dom = ExecutorKillInjector(cluster)
        assert dom.candidates() == []
        assert dom.kills == 0


class TestStragglerDomain:
    """The ``straggler`` kind (:class:`StragglerInjector`)."""

    def test_strike_slows_and_heal_restores(self, engine, cluster):
        log = FaultLog()
        dom = StragglerInjector(cluster, factor=0.25, log=log)
        token = dom.strike(dom.candidates()[0])
        name, episode = token
        assert cluster.get_node(name).speed_factor == 0.25
        assert episode.kind == "node-straggler" and episode.active
        assert episode.domain == "straggler"
        dom.heal(token)
        assert cluster.get_node(name).speed_factor == 1.0
        assert not episode.active

    def test_already_slow_nodes_not_restruck(self, cluster):
        dom = StragglerInjector(cluster)
        for _ in range(3):
            dom.strike(dom.candidates()[0])
        assert dom.strikes == 3
        assert dom.candidates() == []  # every node already slowed

    def test_dark_nodes_excluded(self, cluster):
        injector = FailureInjector(cluster, log=FaultLog())
        for name in ("node-0", "node-1", "node-2"):
            injector.fail_node(name)
        dom = StragglerInjector(cluster)
        assert dom.candidates() == []

    def test_invalid_factor(self, cluster):
        with pytest.raises(ValueError):
            StragglerInjector(cluster, factor=1.0)


class TestDataLossDomain:
    """The ``data-loss`` kind (:class:`DataLossInjector`)."""

    def test_strike_wipes_one_nodes_replicas(self, engine, cluster):
        store = ObjectStore()
        store.create_bucket("d")
        store.put("d", "k1", 10.0, {"node-0", "node-1"})
        store.put("d", "k2", 5.0, {"node-1"})
        log = FaultLog()
        dom = DataLossInjector(store, cluster, log=log)
        assert dom.candidates() == ["node-0", "node-1"]
        victim = dom.strike("node-1")
        assert victim not in store.nodes_with_data()
        assert dom.strikes == 1
        assert dom.replicas_dropped >= 1
        assert log.episodes[0].kind == "data-loss"
        assert log.episodes[0].domain == "data-loss"
        dom.heal(victim)  # no-op: wiped data stays gone
        assert victim not in store.nodes_with_data()

    def test_empty_store_is_a_noop(self, cluster):
        dom = DataLossInjector(ObjectStore(), cluster)
        assert dom.candidates() == []
        assert dom.strikes == 0
