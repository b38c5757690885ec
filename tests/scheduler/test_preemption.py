"""Unit tests for preemption planning and the preempting scheduler."""

from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.scheduler.converged import ConvergedScheduler
from repro.scheduler.preemption import (
    plan_cheapest_single,
    plan_gang,
    plan_single,
)
from repro.storage.objectstore import ObjectStore
from tests.conftest import make_spec


CAP = ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=500)


def pod(name, cpu, priority, gang=None):
    return Pod(
        make_spec(name, cpu=cpu, priority=priority, gang_id=gang),
        created_at=0.0,
    )


def loaded_node(name="n0", residents=((2.0, 5), (3.0, 5))):
    node = Node(name, CAP)
    for i, (cpu, prio) in enumerate(residents):
        node.bind(pod(f"{name}-res{i}", cpu, prio))
    return node


class TestPlanSingle:
    def test_no_eviction_when_it_fits(self):
        node = loaded_node()
        plan = plan_single(node, pod("new", 2.0, 10))
        assert plan is not None
        assert plan.victims == []

    def test_evicts_lowest_priority_first(self):
        node = Node("n", ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=500))
        low = pod("low", 3.0, 1)
        mid = pod("mid", 3.0, 5)
        node.bind(mid)
        node.bind(low)
        plan = plan_single(node, pod("new", 4.0, 10))
        assert [v.name for v in plan.victims] == ["low"]

    def test_never_evicts_equal_or_higher_priority(self):
        node = Node("n", ResourceVector(cpu=4, memory=32, disk_bw=200, net_bw=500))
        node.bind(pod("peer", 4.0, 10))
        assert plan_single(node, pod("new", 2.0, 10)) is None

    def test_insufficient_even_with_evictions(self):
        node = loaded_node(residents=((2.0, 1),))
        assert plan_single(node, pod("huge", 100.0, 10)) is None

    def test_cheapest_across_nodes(self):
        cheap = Node("cheap", CAP)
        cheap.bind(pod("one", 7.0, 1))
        pricey = Node("pricey", CAP)
        for i in range(4):
            pricey.bind(pod(f"small-{i}", 2.0, 1))
        plan = plan_cheapest_single([pricey, cheap], pod("new", 6.0, 10))
        assert [v.name for v in plan.victims] == ["one"]


class TestPlanGang:
    def nodes(self, n=2):
        return [Node(f"n{i}", CAP) for i in range(n)]

    def test_gang_fits_without_eviction(self):
        plan = plan_gang(self.nodes(), [pod(f"r{i}", 4.0, 20, "g") for i in range(4)])
        assert plan is not None
        assert plan.victims == []
        assert len(plan.assignment) == 4

    def test_gang_evicts_batch_to_fit(self):
        nodes = self.nodes()
        for node in nodes:
            node.bind(pod(f"{node.name}-batch", 6.0, 5))
        members = [pod(f"r{i}", 4.0, 20, "g") for i in range(4)]
        plan = plan_gang(nodes, members)
        assert plan is not None
        assert len(plan.victims) == 2  # one batch pod per node
        assert len(plan.assignment) == 4

    def test_gang_all_or_nothing(self):
        nodes = self.nodes(1)
        nodes[0].bind(pod("hpc-peer", 6.0, 20))  # not evictable
        members = [pod(f"r{i}", 4.0, 20, "g") for i in range(2)]
        assert plan_gang(nodes, members) is None

    def test_empty_gang(self):
        plan = plan_gang(self.nodes(), [])
        assert plan is not None and plan.assignment == {}

    def test_no_nodes(self):
        assert plan_gang([], [pod("r0", 1.0, 20, "g")]) is None

    def test_victims_not_double_counted(self):
        """Two ranks landing on the same node must not rely on evicting
        the same victim twice."""
        node = Node("n0", CAP)
        node.bind(pod("batch", 6.0, 5))
        members = [pod(f"r{i}", 4.0, 20, "g") for i in range(2)]
        plan = plan_gang([node], members)
        assert plan is not None
        assert [v.name for v in plan.victims] == ["batch"]
        assert set(plan.assignment.values()) == {"n0"}


class TestPreemptingScheduler:
    def test_service_preempts_batch(self, engine, api):
        scheduler = ConvergedScheduler(
            engine, api, store=ObjectStore(), preemption=True
        )
        scheduler.start()
        # Fill every node with low-priority batch.
        for i in range(3):
            api.create_pod(
                make_spec(f"batch-{i}", cpu=14, priority=5,
                          workload_class=WorkloadClass.BIGDATA)
            )
        engine.run_until(1.0)
        api.create_pod(make_spec("svc", cpu=4, priority=10))
        engine.run_until(2.0)
        svc = api.get_pod("svc")
        assert svc.node_name is not None
        assert scheduler.preemptions == 1
        evicted = [p for p in api.list_pods() if p.phase == PodPhase.EVICTED]
        assert len(evicted) == 1

    def test_gang_preempts_batch_atomically(self, engine, api):
        scheduler = ConvergedScheduler(
            engine, api, store=ObjectStore(), preemption=True
        )
        scheduler.start()
        for i in range(3):
            api.create_pod(
                make_spec(f"batch-{i}", cpu=10, priority=5,
                          workload_class=WorkloadClass.BIGDATA)
            )
        engine.run_until(1.0)
        for i in range(3):
            api.create_pod(
                make_spec(f"rank-{i}", cpu=12, priority=20, gang_id="g",
                          workload_class=WorkloadClass.HPC)
            )
        engine.run_until(2.0)
        assert all(api.get_pod(f"rank-{i}").node_name for i in range(3))
        assert scheduler.preemptions == 3

    def test_no_preemption_when_disabled(self, engine, api):
        scheduler = ConvergedScheduler(
            engine, api, store=ObjectStore(), preemption=False
        )
        scheduler.start()
        for i in range(3):
            api.create_pod(
                make_spec(f"batch-{i}", cpu=14, priority=5,
                          workload_class=WorkloadClass.BIGDATA)
            )
        engine.run_until(1.0)
        api.create_pod(make_spec("svc", cpu=4, priority=10))
        engine.run_until(3.0)
        assert api.get_pod("svc").phase == PodPhase.PENDING

    def test_equal_priority_never_preempts(self, engine, api):
        scheduler = ConvergedScheduler(
            engine, api, store=ObjectStore(), preemption=True
        )
        scheduler.start()
        for i in range(3):
            api.create_pod(make_spec(f"svc-{i}", cpu=14, priority=10))
        engine.run_until(1.0)
        api.create_pod(make_spec("late", cpu=4, priority=10))
        engine.run_until(3.0)
        assert api.get_pod("late").phase == PodPhase.PENDING
        assert scheduler.preemptions == 0
