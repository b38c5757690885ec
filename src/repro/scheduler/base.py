"""The scheduling cycle shared by all placement policies."""

from __future__ import annotations

from repro.cluster.api import ClusterAPI
from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.scheduler.gang import GangAdmission
from repro.scheduler.preemption import plan_cheapest_single, plan_gang
from repro.sim.engine import Engine, PeriodicHandle

#: Seconds between scheduling cycles.
SCHEDULE_INTERVAL = 1.0


class SchedulerBase:
    """Periodic scheduling loop, one cycle per :data:`SCHEDULE_INTERVAL`.

    Every policy runs the one cycle in :meth:`_run_cycle` and supplies
    only what differs: node choice (:meth:`select_node`), the nodes a pod
    may use (:meth:`candidate_nodes`), gang placement
    (:meth:`gang_assignment`) and :attr:`gang_aware`. Pods that cannot be
    placed stay pending and are retried next cycle.

    :attr:`admission` is ``None`` unless the platform arms an
    :class:`~repro.scheduler.admission.AdmissionController`: the cycle
    then routes its pending snapshot through the controller (class-aware
    shedding and reordering under overload).
    """

    policy_name = "base"
    #: Place each gang all-or-nothing. Without it, a gang's ranks take the
    #: single-pod path one by one and can strand.
    gang_aware = True
    #: Evict strictly-lower-priority pods to place pods and whole gangs
    #: that otherwise cannot fit.
    preemption = False

    def __init__(self, engine: Engine, api: ClusterAPI):
        self.engine = engine
        self.api = api
        self.admission = None
        self.gang_admission = GangAdmission()
        self._handle: PeriodicHandle | None = None
        self.cycles = 0
        self.binds = 0
        self.failures = 0
        self.gangs_admitted = 0
        self.gangs_deferred = 0
        self.preemptions = 0

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("scheduler already started")
        self._handle = self.engine.every(SCHEDULE_INTERVAL, self._cycle, priority=0)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _cycle(self) -> None:
        self.cycles += 1
        self.schedule_cycle()

    def schedule_cycle(self) -> None:
        # An override calls _run_cycle once, never super().schedule_cycle():
        # bench/layers.py wraps this name on each class defining it and
        # counts one cycle per call.
        self._run_cycle()

    def _run_cycle(self) -> None:
        """Gangs first, FIFO by earliest member, each all-or-nothing
        (quota, :meth:`gang_assignment`, then preemption); a deferred gang
        blocks no later work. Then single pods in submission order
        (quota, :meth:`select_node`, then preemption)."""
        pending = self.api.pending_pods()
        if self.admission is not None:
            pending = self.admission.admit_cycle(pending)
        gangs: dict[str, list[Pod]] = {}
        singles: list[Pod] = []
        for pod in pending:
            gang_id = pod.spec.gang_id
            if gang_id is None or not self.gang_aware:
                singles.append(pod)
            else:
                gangs.setdefault(gang_id, []).append(pod)

        for gang_id in sorted(gangs, key=lambda g: min(p.created_at for p in gangs[g])):
            members = gangs[gang_id]
            if self.api.quota_allows_gang([p.name for p in members]):
                assignment = self.gang_assignment(members)
                if assignment is not None:
                    for pod_name, node_name in assignment.items():
                        self.api.bind_pod(pod_name, node_name)
                        self.binds += 1
                    self.gangs_admitted += 1
                    continue
                if self.preemption:
                    plan = plan_gang(self.api.list_nodes(), members)
                    if plan is not None:
                        self._apply_plan(plan)
                        self.gangs_admitted += 1
                        continue
            self.gangs_deferred += 1
            self.failures += len(members)

        for pod in singles:
            if self.api.quota_allows_bind(pod.name):
                node = self.select_node(pod)
                if node is not None:
                    self.api.bind_pod(pod.name, node.name)
                    self.binds += 1
                    continue
                if self.preemption:
                    plan = plan_cheapest_single(self.api.list_nodes(), pod)
                    if plan is not None:
                        self._apply_plan(plan)
                        continue
            self.failures += 1

        if self.admission is not None:
            self.admission.post_cycle()

    def _apply_plan(self, plan) -> None:
        for victim in plan.victims:
            self.api.delete_pod(victim.name, reason="preempted")
            self.preemptions += 1
        for pod_name, node_name in plan.assignment.items():
            self.api.bind_pod(pod_name, node_name)
            self.binds += 1

    # -- policy hooks -------------------------------------------------------------

    def select_node(self, pod: Pod) -> Node | None:
        """Pick a node for one pod, or None if unschedulable now. Override."""
        raise NotImplementedError

    def candidate_nodes(self, pod: Pod) -> list[Node]:
        """Nodes the policy lets ``pod`` use: every node by default."""
        return self.api.list_nodes()

    def gang_assignment(self, members: list[Pod]) -> dict[str, str] | None:
        """A pod→node placement for the whole gang, or None."""
        return self.gang_admission.find_assignment(
            members, self.candidate_nodes(members[0])
        )

    # -- shared helpers --------------------------------------------------------------

    def feasible_nodes(self, pod: Pod) -> list[Node]:
        """Candidate nodes with room for the pod that satisfy its node selector."""
        return [
            n
            for n in self.candidate_nodes(pod)
            if n.can_fit(pod.allocation) and pod.spec.selector_matches(n.labels)
        ]
