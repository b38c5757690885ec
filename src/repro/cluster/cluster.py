"""Cluster state machine: pending queue, bindings, resizes, evictions.

The cluster owns pod lifecycle transitions and node accounting, and
publishes watch events for every transition. It deliberately contains no
placement policy — schedulers decide *where*, the cluster enforces *whether
it fits* and models actuation latency (container start delay, in-place
resize delay), which is what makes the control loop's job non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cluster.events import (
    EventBus,
    PodEvicted,
    PodFinished,
    PodResized,
    PodScheduled,
    PodStarted,
    PodSubmitted,
)
from repro.cluster.node import Node, total_capacity
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine


class ClusterError(RuntimeError):
    """Raised on invalid cluster operations."""


class PodNotFound(ClusterError, KeyError):
    """Lookup of a pod name the cluster has never seen.

    Subclasses ``KeyError`` too so legacy ``except KeyError`` callers
    keep working while new code catches the typed error.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class NodeNotFound(ClusterError, KeyError):
    """Lookup of a node name that is not part of the cluster."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class ClusterConfig:
    """Actuation-latency knobs, mirroring real-cluster behaviour.

    Parameters
    ----------
    startup_delay:
        Seconds from binding to RUNNING (image pull + container start).
    resize_delay:
        Seconds for an in-place vertical resize to take effect.
    """

    startup_delay: float = 10.0
    resize_delay: float = 1.0


class Cluster:
    """The simulated cluster: nodes + pods + lifecycle transitions."""

    def __init__(
        self,
        engine: Engine,
        nodes: Iterable[Node],
        *,
        config: ClusterConfig | None = None,
    ):
        self.engine = engine
        self.config = config or ClusterConfig()
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ClusterError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.pods: dict[str, Pod] = {}
        self.events = EventBus()
        self.quotas = None  # optional QuotaManager, set by the operator
        self._pending: dict[str, Pod] = {}  # insertion-ordered queue

    # -- queries ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    def pending_pods(self) -> list[Pod]:
        """Pods awaiting scheduling, in submission order."""
        return list(self._pending.values())

    def get_pod(self, name: str) -> Pod:
        try:
            return self.pods[name]
        except KeyError:
            raise PodNotFound(f"unknown pod {name!r}") from None

    def get_node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NodeNotFound(f"unknown node {name!r}") from None

    def running_pods_of_app(self, app: str) -> list[Pod]:
        return [
            p
            for p in self.pods.values()
            if p.app == app and p.phase == PodPhase.RUNNING
        ]

    def pods_of_gang(self, gang_id: str) -> list[Pod]:
        return [p for p in self.pods.values() if p.spec.gang_id == gang_id]

    def total_allocatable(self) -> ResourceVector:
        return total_capacity(self.nodes.values())

    def total_allocated(self) -> ResourceVector:
        total = ResourceVector.zero()
        for node in self.nodes.values():
            total = total + node.allocated
        return total

    def total_usage(self) -> ResourceVector:
        total = ResourceVector.zero()
        for node in self.nodes.values():
            total = total + node.usage()
        return total

    # -- lifecycle: submit / bind / start ---------------------------------------

    def submit(self, spec: PodSpec) -> Pod:
        """Add a pod to the pending queue."""
        if spec.name in self.pods:
            raise ClusterError(f"duplicate pod name {spec.name!r}")
        pod = Pod(spec, created_at=self.now)
        self.pods[spec.name] = pod
        self._pending[spec.name] = pod
        self.events.publish(PodSubmitted(self.now, spec.name, spec.app))
        return pod

    def quota_allows_bind(self, pod_name: str) -> bool:
        """Whether binding the pod would keep its tenant within quota."""
        if self.quotas is None:
            return True
        pod = self.get_pod(pod_name)
        return self.quotas.allows_bind(pod, self.pods.values())

    def quota_allows_bind_all(self, pod_names: list[str]) -> bool:
        """Whether binding all of ``pod_names`` together respects quotas.

        Aggregates per tenant before checking, so a gang cannot sneak past
        its cap one rank at a time.
        """
        if self.quotas is None:
            return True
        by_tenant: dict[str, ResourceVector] = {}
        for name in pod_names:
            pod = self.get_pod(name)
            tenant = self.quotas.tenant_of(pod)
            if tenant is None:
                continue
            by_tenant[tenant] = (
                by_tenant.get(tenant, ResourceVector.zero()) + pod.allocation
            )
        for tenant, demand in by_tenant.items():
            limit = self.quotas.limit(tenant)
            if limit is None:
                continue
            projected = self.quotas.usage(tenant, self.pods.values()) + demand
            if not projected.fits_within(limit):
                self.quotas.denials += 1
                return False
        return True

    def bind(self, pod_name: str, node_name: str) -> None:
        """Bind a pending pod to a node; it starts after ``startup_delay``."""
        pod = self.get_pod(pod_name)
        node = self.get_node(node_name)
        if pod.phase != PodPhase.PENDING:
            raise ClusterError(
                f"pod {pod_name!r} is {pod.phase.value}, cannot bind"
            )
        if not self.quota_allows_bind(pod_name):
            raise ClusterError(
                f"pod {pod_name!r}: tenant quota exceeded"
            )
        node.bind(pod)  # raises NodeError if it does not fit
        del self._pending[pod_name]
        pod.phase = PodPhase.SCHEDULED
        pod.node_name = node_name
        pod.scheduled_at = self.now
        self.events.publish(PodScheduled(self.now, pod_name, node_name))
        self.engine.schedule(
            self.config.startup_delay, lambda: self._start(pod_name)
        )

    def _start(self, pod_name: str) -> None:
        pod = self.pods.get(pod_name)
        if pod is None or pod.phase != PodPhase.SCHEDULED:
            return  # evicted or finished while starting
        pod.phase = PodPhase.RUNNING
        pod.started_at = self.now
        assert pod.node_name is not None
        self.events.publish(PodStarted(self.now, pod_name, pod.node_name))

    # -- lifecycle: finish / evict -----------------------------------------------

    def finish(self, pod_name: str, *, succeeded: bool = True) -> None:
        """Terminate a pod normally, releasing its node resources."""
        pod = self.get_pod(pod_name)
        if pod.terminal:
            raise ClusterError(f"pod {pod_name!r} already terminal")
        self._release_if_bound(pod)
        self._pending.pop(pod_name, None)
        pod.phase = PodPhase.SUCCEEDED if succeeded else PodPhase.FAILED
        pod.finished_at = self.now
        pod.usage = ResourceVector.zero()
        self.events.publish(PodFinished(self.now, pod_name, succeeded))

    def evict(self, pod_name: str, *, reason: str = "preempted") -> None:
        """Forcibly remove a pod (preemption / restart-based resize)."""
        pod = self.get_pod(pod_name)
        if pod.terminal:
            raise ClusterError(f"pod {pod_name!r} already terminal")
        self._release_if_bound(pod)
        self._pending.pop(pod_name, None)
        pod.phase = PodPhase.EVICTED
        pod.finished_at = self.now
        pod.usage = ResourceVector.zero()
        self.events.publish(PodEvicted(self.now, pod_name, reason))

    def _release_if_bound(self, pod: Pod) -> None:
        if pod.node_name is not None:
            self.get_node(pod.node_name).release(pod)

    # -- vertical resize ---------------------------------------------------------

    def can_resize(self, pod_name: str, new_allocation: ResourceVector) -> bool:
        """Whether an in-place resize would fit on the pod's node."""
        pod = self.get_pod(pod_name)
        if not pod.active or pod.node_name is None:
            return False
        if new_allocation.any_negative():
            return False
        if self.quotas is not None and not self.quotas.allows_resize(
            pod, new_allocation, self.pods.values()
        ):
            return False
        return self.get_node(pod.node_name).headroom_for_resize(pod, new_allocation)

    def resize_pod(self, pod_name: str, new_allocation: ResourceVector) -> bool:
        """In-place vertical resize; takes ``resize_delay`` to apply.

        Returns True if the resize was accepted (fits on the node at
        request time). The new allocation is applied after the delay,
        re-checked against headroom at apply time; a resize that no longer
        fits is dropped, mirroring a rejected kubelet patch.
        """
        if not self.can_resize(pod_name, new_allocation):
            return False

        def apply() -> None:
            pod = self.pods.get(pod_name)
            if pod is None or not pod.active or pod.node_name is None:
                return
            if self.quotas is not None and not self.quotas.allows_resize(
                pod, new_allocation, self.pods.values()
            ):
                return
            node = self.get_node(pod.node_name)
            if not node.headroom_for_resize(pod, new_allocation):
                return
            old = pod.allocation
            node.apply_resize(pod, new_allocation)
            self.events.publish(
                PodResized(self.now, pod_name, old, new_allocation)
            )

        self.engine.schedule(self.config.resize_delay, apply)
        return True

    # -- invariants ---------------------------------------------------------------

    def verify_invariants(self) -> None:
        """Cross-check node accounting and queue consistency (test hook)."""
        for node in self.nodes.values():
            node.verify_invariants()
        for name, pod in self._pending.items():
            if pod.phase != PodPhase.PENDING:
                raise ClusterError(f"non-pending pod {name!r} in pending queue")
        for pod in self.pods.values():
            if pod.active and pod.node_name is None:
                raise ClusterError(f"active pod {pod.name!r} has no node")
