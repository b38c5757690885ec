"""Stateful fuzzing of the cluster lifecycle.

Hypothesis drives random sequences of submit / bind / resize / finish /
evict / node-failure operations and checks the accounting invariants
after every step: node allocations never drift or exceed allocatable,
the pending queue holds exactly the pending pods, and terminal pods hold
no resources.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.chaos import FailureInjector, FaultLog
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine


CAPACITY = ResourceVector(cpu=8, memory=16, disk_bw=100, net_bw=100)


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.cluster = Cluster(
            self.engine, [Node(f"node-{i}", CAPACITY) for i in range(3)]
        )
        self.injector = FailureInjector(self.cluster, log=FaultLog())
        self.counter = 0

    # -- helpers ------------------------------------------------------------

    def _live_pods(self):
        return [p for p in self.cluster.pods.values() if not p.terminal]

    def _active_pods(self):
        return [p for p in self.cluster.pods.values() if p.active]

    # -- rules ----------------------------------------------------------------

    @rule(cpu=st.floats(0.1, 4.0), memory=st.floats(0.1, 8.0))
    def submit(self, cpu, memory):
        spec = PodSpec(
            name=f"pod-{self.counter}",
            app="fuzz",
            workload_class=WorkloadClass.MICROSERVICE,
            requests=ResourceVector(cpu, memory, 1.0, 1.0),
        )
        self.counter += 1
        self.cluster.submit(spec)

    @precondition(lambda self: self.cluster.pending_pods())
    @rule(pod_idx=st.integers(0, 10), node_idx=st.integers(0, 2))
    def bind_if_fits(self, pod_idx, node_idx):
        pending = self.cluster.pending_pods()
        pod = pending[pod_idx % len(pending)]
        node = self.cluster.get_node(f"node-{node_idx}")
        if node.can_fit(pod.allocation):
            self.cluster.bind(pod.name, node.name)

    @precondition(lambda self: self._active_pods())
    @rule(pod_idx=st.integers(0, 10), factor=st.floats(0.2, 3.0))
    def resize(self, pod_idx, factor):
        active = self._active_pods()
        pod = active[pod_idx % len(active)]
        self.cluster.resize_pod(pod.name, pod.allocation * factor)

    @precondition(lambda self: self._live_pods())
    @rule(pod_idx=st.integers(0, 10))
    def finish(self, pod_idx):
        live = self._live_pods()
        self.cluster.finish(live[pod_idx % len(live)].name)

    @precondition(lambda self: self._live_pods())
    @rule(pod_idx=st.integers(0, 10))
    def evict(self, pod_idx):
        live = self._live_pods()
        self.cluster.evict(live[pod_idx % len(live)].name)

    @rule(dt=st.floats(0.1, 5.0))
    def advance_time(self, dt):
        self.engine.run_until(self.engine.now + dt)

    @rule(node_idx=st.integers(0, 2))
    def fail_or_recover_node(self, node_idx):
        name = f"node-{node_idx}"
        if self.injector.is_failed(name):
            self.injector.recover_node(name)
        else:
            self.injector.fail_node(name)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def accounting_consistent(self):
        self.cluster.verify_invariants()

    @invariant()
    def terminal_pods_hold_nothing(self):
        for pod in self.cluster.pods.values():
            if pod.terminal:
                assert pod.usage.is_zero()
                for node in self.cluster.nodes.values():
                    assert pod.name not in node.pods

    @invariant()
    def pending_queue_matches_phase(self):
        queue_names = {p.name for p in self.cluster.pending_pods()}
        phase_names = {
            p.name
            for p in self.cluster.pods.values()
            if p.phase == PodPhase.PENDING
        }
        assert queue_names == phase_names

    @invariant()
    def failed_nodes_are_empty(self):
        for name in [n for n in self.cluster.nodes if self.injector.is_failed(n)]:
            assert not self.cluster.get_node(name).pods


TestClusterFuzz = ClusterMachine.TestCase
