"""Unit tests: each invariant catches its own corruption class.

Every test plants one *specific* breach in an otherwise-healthy cluster
and asserts the matching invariant (and only a matching detail) fires.
The clusters here are built raw — engine + nodes + pods, no platform —
so each corruption is surgical.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.events import LeaderElected
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.control.statestore import StateSnapshot, WalRecord
from repro.dataplane import STAGE_MAX_ATTEMPTS
from repro.sim.engine import Engine
from repro.verify.invariants import (
    GangAtomicity,
    HeapIntegrity,
    InvariantChecker,
    LeaseDiscipline,
    NoDoubleBind,
    ResourceConservation,
    ShedConservation,
    WalDiscipline,
    default_invariants,
)


def _vec(cpu=1.0, memory=1.0):
    return ResourceVector(cpu=cpu, memory=memory, disk_bw=10, net_bw=10)


def _cluster(node_count=2):
    engine = Engine()
    nodes = [
        Node(f"node-{i}", ResourceVector(cpu=8, memory=16, disk_bw=200, net_bw=200))
        for i in range(node_count)
    ]
    return engine, Cluster(engine, nodes)


def _spec(name, *, app=None, gang_id=None):
    return PodSpec(
        name=name,
        app=app or name,
        workload_class=WorkloadClass.MICROSERVICE,
        requests=_vec(),
        gang_id=gang_id,
    )


def _checker(engine, cluster, **kwargs):
    return InvariantChecker(engine, cluster, **kwargs)


class TestResourceConservation:
    def test_clean_cluster_passes(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        checker = _checker(engine, cluster)
        assert checker.check_now() == []
        assert checker.ok

    def test_allocation_drift_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        node = cluster.get_node("node-0")
        node._allocated = node._allocated + _vec(cpu=0.5, memory=0.0)
        checker = _checker(engine, cluster, invariants=[ResourceConservation()])
        details = [v.detail for v in checker.check_now()]
        assert any("allocation drift" in d for d in details)

    def test_over_allocation_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        node = cluster.get_node("node-0")
        node._allocated = node.allocatable + _vec()
        checker = _checker(engine, cluster, invariants=[ResourceConservation()])
        details = [v.detail for v in checker.check_now()]
        assert any("over-allocated" in d for d in details)

    def test_negative_allocation_detected(self):
        engine, cluster = _cluster()
        node = cluster.get_node("node-0")
        node._allocated = ResourceVector(cpu=-1, memory=0, disk_bw=0, net_bw=0)
        checker = _checker(engine, cluster, invariants=[ResourceConservation()])
        details = [v.detail for v in checker.check_now()]
        assert any("negative allocation" in d for d in details)

    def test_terminal_pod_holding_resources_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        # Flip the phase without releasing the node: a "finished" pod
        # that still occupies capacity.
        cluster.get_pod("a").phase = PodPhase.SUCCEEDED
        checker = _checker(engine, cluster, invariants=[ResourceConservation()])
        details = [v.detail for v in checker.check_now()]
        assert any("holds resources in phase succeeded" in d for d in details)


class TestNoDoubleBind:
    def test_double_bind_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        # The PR-acceptance corruption: bind the same pod onto a second
        # node behind the cluster's back.
        cluster.get_node("node-1").bind(cluster.get_pod("a"))
        checker = _checker(engine, cluster, invariants=[NoDoubleBind()])
        details = [v.detail for v in checker.check_now()]
        assert any("bound to 2 nodes" in d for d in details)

    def test_node_name_mismatch_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        cluster.get_pod("a").node_name = "node-1"
        checker = _checker(engine, cluster, invariants=[NoDoubleBind()])
        details = [v.detail for v in checker.check_now()]
        assert any("records node node-1" in d for d in details)

    def test_pending_pod_holding_resources_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.get_node("node-0").bind(cluster.get_pod("a"))
        checker = _checker(engine, cluster, invariants=[NoDoubleBind()])
        details = [v.detail for v in checker.check_now()]
        assert any("pending pod a still holds node resources" in d for d in details)

    def test_active_pod_without_node_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        cluster.get_pod("a").node_name = None  # forgets its node, still held
        checker = _checker(engine, cluster, invariants=[NoDoubleBind()])
        details = [v.detail for v in checker.check_now()]
        assert details == ["active pod a has no node"]

    def test_non_pending_pod_in_queue_detected(self):
        engine, cluster = _cluster()
        cluster.submit(_spec("a"))
        cluster.get_pod("a").phase = PodPhase.RUNNING
        checker = _checker(engine, cluster, invariants=[NoDoubleBind()])
        details = [v.detail for v in checker.check_now()]
        assert any("in the pending queue" in d for d in details)


class TestGangAtomicity:
    def _gang(self, cluster, size=2, prefix="rank"):
        for i in range(size):
            cluster.submit(_spec(f"{prefix}-{i}", app="job", gang_id="job"))

    def test_partial_schedule_without_fault_is_violation(self):
        engine, cluster = _cluster()
        self._gang(cluster)
        cluster.bind("rank-0", "node-0")  # rank-1 left pending: torn gang
        inv = GangAtomicity()
        checker = _checker(engine, cluster, invariants=[inv])
        details = [v.detail for v in checker.check_now()]
        assert any("partially scheduled" in d for d in details)

    def test_fully_bound_and_fully_pending_are_legal(self):
        engine, cluster = _cluster()
        self._gang(cluster)
        checker = _checker(engine, cluster, invariants=[GangAtomicity()])
        assert checker.check_now() == []  # all pending
        cluster.bind("rank-0", "node-0")
        cluster.bind("rank-1", "node-1")
        assert checker.check_now() == []  # all bound

    def test_eviction_makes_partial_state_legal_until_whole_again(self):
        engine, cluster = _cluster()
        self._gang(cluster)
        inv = GangAtomicity()
        checker = _checker(engine, cluster, invariants=[inv])
        checker.install()  # subscribes the eviction listener
        cluster.bind("rank-0", "node-0")
        cluster.bind("rank-1", "node-1")
        assert checker.check_now() == []
        cluster.evict("rank-1", reason="node-failure")
        # Survivors-only is NOT "whole": the degraded mark must survive
        # the window where the lost rank is terminal and its replacement
        # has not been resubmitted yet.
        assert checker.check_now() == []
        cluster.submit(_spec("rank-1b", app="job", gang_id="job"))
        assert checker.check_now() == []  # healing rebind in flight: legal
        cluster.bind("rank-1b", "node-1")
        assert checker.check_now() == []  # whole again at full size
        # Now that the gang healed, a fresh tear is a violation again.
        cluster.submit(_spec("rank-2", app="job", gang_id="job"))
        cluster.submit(_spec("rank-3", app="job", gang_id="job"))
        cluster.bind("rank-2", "node-0")
        details = [v.detail for v in checker.check_now()]
        assert any("partially scheduled" in d for d in details)
        checker.detach()


class TestShedConservation:
    """One planted breach per shed-conservation detail.

    Each test sheds pod ``a`` the way the admission controller does
    (a ``load-shed`` eviction plus one ledger entry), checks that the
    clean state passes, then plants exactly one corruption.
    """

    def _shed(self, *, admission=True):
        from types import SimpleNamespace

        from tests.conftest import make_api
        from repro.scheduler.admission import AdmissionController, OverloadConfig

        engine, cluster = _cluster()
        controller = None
        if admission:
            controller = AdmissionController(
                engine, make_api(cluster), OverloadConfig(admission=True)
            )
        checker = _checker(
            engine,
            cluster,
            scheduler=SimpleNamespace(admission=controller),
            invariants=[ShedConservation()],
        )
        checker.install()  # subscribes the load-shed listener
        cluster.submit(_spec("a"))
        cluster.bind("a", "node-0")
        cluster.evict("a", reason="load-shed")
        if controller is not None:
            controller.shed_total += 1
            controller.shed_by_class["best-effort"] += 1
            controller.evicted_running += 1
        return cluster, controller, checker

    def _details(self, checker):
        details = [v.detail for v in checker.check_now()]
        checker.detach()
        return details

    def test_clean_shed_passes(self):
        *_, checker = self._shed()
        assert self._details(checker) == []

    def test_resurrected_shed_pod_detected(self):
        cluster, _, checker = self._shed()
        cluster.get_pod("a").phase = PodPhase.RUNNING
        assert self._details(checker) == [
            "shed pod a resurrected in phase running"
        ]

    def test_shed_pod_back_in_pending_queue_detected(self):
        cluster, _, checker = self._shed()
        cluster._pending["a"] = cluster.get_pod("a")
        assert self._details(checker) == [
            "shed pod a back in the pending queue"
        ]

    def test_shed_pod_still_holding_resources_detected(self):
        cluster, _, checker = self._shed()
        cluster.get_node("node-1").bind(cluster.get_pod("a"))
        assert self._details(checker) == [
            "shed pod a still holds resources on node node-1"
        ]

    def test_ledger_disagrees_with_published_evictions(self):
        # A shed the controller booked but the cluster never published.
        _, controller, checker = self._shed()
        controller.shed_total += 1
        controller.shed_by_class["batch"] += 1
        controller.rejected_pending += 1
        assert self._details(checker) == [
            "admission ledger counts 2 sheds but the cluster published 1 "
            "load-shed evictions"
        ]

    def test_class_tallies_disagree_with_total(self):
        _, controller, checker = self._shed()
        controller.shed_by_class["latency"] += 1
        assert self._details(checker) == [
            "per-class shed tallies sum to 2, not shed_total 1"
        ]

    def test_split_disagrees_with_total(self):
        _, controller, checker = self._shed()
        controller.rejected_pending += 1
        assert self._details(checker) == [
            "shed split 1 rejected + 1 evicted != shed_total 1"
        ]

    def test_shed_without_admission_controller_detected(self):
        *_, checker = self._shed(admission=False)
        assert self._details(checker) == [
            "1 load-shed evictions published with no admission controller "
            "attached"
        ]


class TestLeaseDiscipline:
    def test_duplicate_generation_holder_detected(self):
        engine, cluster = _cluster()
        checker = _checker(engine, cluster, invariants=[LeaseDiscipline()])
        checker.install()
        cluster.events.publish(LeaderElected(0.0, "lease", "ctrl-0", 1))
        cluster.events.publish(LeaderElected(1.0, "lease", "ctrl-1", 1))
        details = [v.detail for v in checker.check_now()]
        assert any(
            "granted to both ctrl-0 and ctrl-1" in d for d in details
        )
        checker.detach()

    def test_generation_regression_detected(self):
        engine, cluster = _cluster()
        checker = _checker(engine, cluster, invariants=[LeaseDiscipline()])
        checker.install()
        cluster.events.publish(LeaderElected(0.0, "lease", "ctrl-0", 2))
        cluster.events.publish(LeaderElected(1.0, "lease", "ctrl-1", 1))
        details = [v.detail for v in checker.check_now()]
        assert any("issued after generation 2" in d for d in details)
        checker.detach()

    def test_monotonic_generations_pass(self):
        engine, cluster = _cluster()
        checker = _checker(engine, cluster, invariants=[LeaseDiscipline()])
        checker.install()
        for gen, holder in ((1, "ctrl-0"), (2, "ctrl-1"), (3, "ctrl-0")):
            cluster.events.publish(
                LeaderElected(float(gen), "lease", holder, gen)
            )
        assert checker.check_now() == []
        checker.detach()


class _StoreStub:
    """Just enough statestore surface for WalDiscipline."""

    def __init__(self):
        self.wal = []
        self.snapshots = []


class TestWalDiscipline:
    def _checker(self, engine, cluster, store):
        checker = InvariantChecker(
            engine, cluster, statestore=store, invariants=[WalDiscipline()]
        )
        return checker

    def test_clean_log_passes(self):
        engine, cluster = _cluster(1)
        store = _StoreStub()
        store.wal.append(WalRecord(1, 1.0, 1.005, "web", "resize", _vec()))
        store.wal.append(WalRecord(2, 2.0, 2.005, "web", "scale", 2))
        store.snapshots.append(StateSnapshot(1, 3.0, 3.005, 2, {}))
        checker = self._checker(engine, cluster, store)
        assert checker.check_now() == []

    def test_seq_regression_detected(self):
        engine, cluster = _cluster(1)
        store = _StoreStub()
        store.wal.append(WalRecord(2, 1.0, 1.005, "web", "resize", _vec()))
        store.wal.append(WalRecord(2, 2.0, 2.005, "web", "resize", _vec()))
        checker = self._checker(engine, cluster, store)
        details = [v.detail for v in checker.check_now()]
        assert any("seq 2 not after previous 2" in d for d in details)

    def test_durability_before_write_detected(self):
        engine, cluster = _cluster(1)
        store = _StoreStub()
        store.wal.append(WalRecord(1, 5.0, 4.0, "web", "resize", _vec()))
        checker = self._checker(engine, cluster, store)
        details = [v.detail for v in checker.check_now()]
        assert any("durable at 4" in d for d in details)

    def test_snapshot_beyond_log_detected(self):
        engine, cluster = _cluster(1)
        store = _StoreStub()
        store.wal.append(WalRecord(1, 1.0, 1.005, "web", "resize", _vec()))
        store.snapshots.append(StateSnapshot(1, 2.0, 2.005, 9, {}))
        checker = self._checker(engine, cluster, store)
        details = [v.detail for v in checker.check_now()]
        assert any("claims WAL position 9" in d for d in details)

    def test_scan_is_incremental(self):
        engine, cluster = _cluster(1)
        store = _StoreStub()
        store.wal.append(WalRecord(1, 1.0, 1.005, "web", "resize", _vec()))
        checker = self._checker(engine, cluster, store)
        assert checker.check_now() == []
        # A later append with a regressed seq is caught by the next
        # check even though the earlier prefix was already scanned.
        store.wal.append(WalRecord(1, 2.0, 2.005, "web", "resize", _vec()))
        details = [v.detail for v in checker.check_now()]
        assert any("seq 1 not after previous 1" in d for d in details)


class TestHeapIntegrity:
    def test_stale_heap_alias_push_detected(self):
        import heapq

        engine, cluster = _cluster(1)
        # Reintroduce the PR 4 compaction bug: events pushed onto a
        # pre-compaction alias of the heap list are orphaned.
        stale = engine._heap
        handle = engine.schedule_at(2.0, lambda: None)
        engine._heap = []
        heapq.heappush(stale, (3.0, 0, 999, handle))
        checker = _checker(engine, cluster, invariants=[HeapIntegrity()])
        details = [v.detail for v in checker.check_now()]
        assert any("stale" in d and "heap" in d for d in details)

    def test_clock_regression_detected(self):
        engine, cluster = _cluster(1)
        inv = HeapIntegrity()
        inv._last_now = 100.0  # as if a prior check saw t=100
        checker = _checker(engine, cluster, invariants=[inv])
        details = [v.detail for v in checker.check_now()]
        assert any("clock moved backwards" in d for d in details)


class TestCheckerMechanics:
    def test_duplicate_observations_suppressed(self):
        engine, cluster = _cluster()
        node = cluster.get_node("node-0")
        node._allocated = ResourceVector(cpu=-1, memory=0, disk_bw=0, net_bw=0)
        checker = _checker(engine, cluster, invariants=[ResourceConservation()])
        first = checker.check_now()
        second = checker.check_now()
        # Negative allocation also shows up as drift: two details, once.
        assert len(first) == 2 and second == []
        assert len(checker.violations) == 2
        assert checker.suppressed == 2
        assert "2 duplicate observations suppressed" in checker.report()

    def test_stride_skips_boundaries(self):
        engine, cluster = _cluster()
        checker = _checker(engine, cluster, every=3)
        checker.install()
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            engine.schedule_at(t, lambda: None)
        engine.run_until(10.0)
        checker.detach()
        # Boundaries before t=1..7 → 7 cycles, checked at cycles 1, 4, 7.
        assert checker.cycles_seen == 7
        assert checker.checks_run == 3

    def test_stop_on_violation_halts_run(self):
        engine, cluster = _cluster()
        checker = _checker(
            engine,
            cluster,
            invariants=[ResourceConservation()],
            stop_on_violation=True,
        )
        checker.install()

        def corrupt():
            node = cluster.get_node("node-0")
            node._allocated = ResourceVector(
                cpu=-1, memory=0, disk_bw=0, net_bw=0
            )

        engine.schedule_at(1.0, corrupt)
        ticks = []
        for t in (2.0, 3.0, 4.0):
            engine.schedule_at(t, lambda t=t: ticks.append(t))
        engine.run_until(10.0)
        checker.detach()
        assert not checker.ok
        # The boundary before t=2 flags the corruption and stops the
        # run; the t=2 event itself still steps, nothing after it does.
        assert ticks == [2.0]

    def test_default_registry_names(self):
        names = [inv.name for inv in default_invariants()]
        assert names == [
            "resource-conservation",
            "no-double-bind",
            "gang-atomicity",
            "lease-discipline",
            "wal-discipline",
            "heap-integrity",
            "shed-conservation",
            "data-plane-conservation",
        ]

    def test_validation(self):
        engine, cluster = _cluster()
        with pytest.raises(ValueError):
            InvariantChecker(engine, cluster, every=0)


class TestDataPlaneConservation:
    """Each leg of the data-plane ledger catches its own corruption."""

    ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50)

    def _ft_job(self, engine, api):
        from repro.workloads.bigdata import BigDataJob, Stage

        job = BigDataJob(
            "job", engine, api,
            stages=[Stage("map", 200.0)],
            initial_allocation=self.ALLOC, initial_executors=2,
            ft=True,
        )
        job.start()
        for pod in api.pending_pods():
            api.bind_pod(pod.name, "node-0")
        engine.run_until(20.0)
        return job

    def _check(self, engine, cluster, **kwargs):
        from repro.verify.invariants import CheckContext, DataPlaneConservation

        ctx = CheckContext(engine, cluster, **kwargs)
        return list(DataPlaneConservation().check(ctx))

    def test_clean_ft_job_passes(self, engine, cluster, api):
        job = self._ft_job(engine, api)
        assert self._check(engine, cluster, apps={"job": job}) == []

    def test_ledger_imbalance_detected(self, engine, cluster, api):
        job = self._ft_job(engine, api)
        job.ft_retired_work += 7.0  # work retired into no bucket
        violations = self._check(engine, cluster, apps={"job": job})
        assert len(violations) == 1
        assert "retired" in violations[0]

    def test_quarantine_budget_breach_detected(self, engine, cluster, api):
        job = self._ft_job(engine, api)
        job._runtime["map"].attempts = STAGE_MAX_ATTEMPTS + 1
        violations = self._check(engine, cluster, apps={"job": job})
        assert any("without quarantine" in v for v in violations)

    def test_fluid_mirror_drift_detected(self, engine, cluster, api):
        job = self._ft_job(engine, api)
        job.stages[0].remaining_work += 5.0  # fluid counter drifts off tasks
        violations = self._check(engine, cluster, apps={"job": job})
        assert any("fluid counter" in v for v in violations)

    def test_stream_arrival_imbalance_detected(self, engine, cluster, api):
        from repro.workloads.stream import Operator, StreamJob
        from repro.workloads.traces import ConstantTrace

        job = StreamJob(
            "stream", engine, api,
            trace=ConstantTrace(100.0),
            operators=[Operator("parse", 0.004)],
            initial_allocation=self.ALLOC, initial_workers=1,
        )
        job.start()
        for pod in api.pending_pods():
            api.bind_pod(pod.name, "node-0")
        engine.run_until(50.0)
        assert self._check(engine, cluster, apps={"stream": job}) == []
        job.lag_events += 5.0  # events neither processed nor lagging
        violations = self._check(engine, cluster, apps={"stream": job})
        assert len(violations) == 1
        assert "arrived" in violations[0]

    def test_repair_ledger_imbalance_detected(self, engine, cluster, api):
        from repro.cluster.chaos import FaultLog
        from repro.storage.objectstore import ObjectStore
        from repro.storage.repair import StorageRepairService

        service = StorageRepairService(engine, ObjectStore(), api, log=FaultLog())
        assert self._check(engine, cluster, repair=service) == []
        service.repaired_mb += 4.0  # bytes landed that were never moved
        violations = self._check(engine, cluster, repair=service)
        assert len(violations) == 1
        assert "repair ledger" in violations[0]
