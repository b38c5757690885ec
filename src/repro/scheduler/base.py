"""Scheduler loop plumbing shared by all placement policies."""

from __future__ import annotations

from repro.cluster.api import ClusterAPI
from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.sim.engine import Engine, PeriodicHandle

#: Seconds between scheduling cycles.
SCHEDULE_INTERVAL = 1.0


class SchedulerBase:
    """Periodic scheduling loop, one cycle per :data:`SCHEDULE_INTERVAL`.

    Each cycle walks the pending queue in submission order and asks the
    policy (:meth:`schedule_cycle` / :meth:`select_node`) to place pods.
    Pods that cannot be placed stay pending and are retried next cycle.

    :attr:`admission` is ``None`` unless the platform arms an
    :class:`~repro.scheduler.admission.AdmissionController`: the cycle
    then routes its pending snapshot through the controller (class-aware
    shedding and reordering under overload). ``None`` keeps the cycle
    byte-identical to the admission-free behaviour.
    """

    policy_name = "base"

    def __init__(self, engine: Engine, api: ClusterAPI):
        self.engine = engine
        self.api = api
        self.admission = None
        self._handle: PeriodicHandle | None = None
        self.cycles = 0
        self.binds = 0
        self.failures = 0

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

    # -- policy hooks -------------------------------------------------------------

    def schedule_cycle(self) -> None:
        """Default cycle: place each pending pod independently."""
        pending = self.api.pending_pods()
        if self.admission is not None:
            pending = self.admission.admit_cycle(pending)
        for pod in pending:
            if not self.api.quota_allows_bind(pod.name):
                self.failures += 1
                continue
            node = self.select_node(pod)
            if node is None:
                self.failures += 1
                continue
            self.api.bind_pod(pod.name, node.name)
            self.binds += 1
        if self.admission is not None:
            self.admission.post_cycle()

    def select_node(self, pod: Pod) -> Node | None:
        """Pick a node for one pod, or None if unschedulable now. Override."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------------

    def feasible_nodes(self, pod: Pod) -> list[Node]:
        """Nodes with room for the pod that satisfy its node selector."""
        return [
            n
            for n in self.api.list_nodes()
            if n.can_fit(pod.allocation) and pod.spec.selector_matches(n.labels)
        ]
