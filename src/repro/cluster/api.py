"""Kube-client-style facade over the simulated cluster.

Control-plane components (schedulers, autoscalers, workload drivers) are
written against this API only — the same narrow surface a real deployment
would get from the Kubernetes API server — so they would port to a real
client with mechanical changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Type, TypeVar

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.events import ClusterEvent, LeaderDeposed, LeaderElected
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector

if TYPE_CHECKING:  # annotations only
    from repro.cluster.chaos import ActuationFaultInjector, PartitionInjector

E = TypeVar("E", bound=ClusterEvent)


class ActuationError(ClusterError):
    """A control-plane actuation transiently failed (injected fault).

    Raised by the gated verbs (:meth:`ClusterAPI.create_pod`,
    :meth:`ClusterAPI.patch_pod_allocation`) when an attached
    :class:`~repro.cluster.chaos.ActuationFaultInjector` decides the
    attempt fails — the kubelet-timeout / API-server-brown-out analogue.
    Callers are expected to retry with backoff, not crash.
    """


class PartitionError(ActuationError):
    """The calling controller is partitioned from the API server.

    Raised by every verb of a :class:`ScopedClusterAPI` whose identity is
    inside an injected partition window — lease renewals and actuations
    fail alike, which is what forces a partitioned leader to stop
    actuating and lets a standby take over without split-brain.
    Subclasses :class:`ActuationError` so existing retry/backoff paths
    absorb it.
    """


@dataclass(frozen=True)
class Lease:
    """A TTL lease stored in the API server (leader-election primitive).

    ``generation`` increments every time the holder *changes*; it doubles
    as a fencing token — a deposed leader can detect that leadership
    moved even if it was partitioned through the whole handover.
    """

    name: str
    holder: str
    ttl: float
    acquired_at: float
    renewed_at: float
    generation: int

    def expires_at(self) -> float:
        return self.renewed_at + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires_at()


class ClusterAPI:
    """Narrow, kube-like verbs over a :class:`~repro.cluster.cluster.Cluster`.

    ``actuation_faults`` (an
    :class:`~repro.cluster.chaos.ActuationFaultInjector`) injects
    transient failures into the mutating verbs so consumers' retry paths
    can be exercised; ``partitions`` (a
    :class:`~repro.cluster.chaos.PartitionInjector`) cuts controller
    identities off from the :class:`ScopedClusterAPI` views.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        actuation_faults: ActuationFaultInjector,
        partitions: PartitionInjector,
    ):
        self._cluster = cluster
        self.actuation_faults = actuation_faults
        self.partitions = partitions
        self.telemetry = None  # optional repro.obs Telemetry bundle
        self._leases: dict[str, Lease] = {}

    def _check_actuation(self, verb: str) -> None:
        if self.actuation_faults.should_fail(self._cluster.now, verb):
            raise ActuationError(f"injected actuation failure: {verb}")

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current cluster (simulated) time in seconds."""
        return self._cluster.now

    # -- pods -------------------------------------------------------------------

    def create_pod(self, spec: PodSpec) -> Pod:
        """Submit a pod for scheduling."""
        tel = self.telemetry
        if tel is None:
            self._check_actuation("create_pod")
            return self._cluster.submit(spec)
        # Nests under an open actuate span via the tracer stack.
        sp = tel.tracer.begin("api/create_pod", "api", app=spec.app)
        try:
            self._check_actuation("create_pod")
            pod = self._cluster.submit(spec)
            sp.args["outcome"] = "ok"
            sp.args["pod"] = pod.name
            return pod
        except ActuationError:
            sp.args["outcome"] = "actuation-error"
            raise
        finally:
            tel.tracer.end(sp)

    def delete_pod(self, name: str, *, reason: str = "deleted") -> None:
        """Evict/terminate a pod regardless of phase."""
        self._cluster.evict(name, reason=reason)

    def get_pod(self, name: str) -> Pod:
        return self._cluster.get_pod(name)

    def list_pods(
        self,
        *,
        app: str | None = None,
        phase: PodPhase | None = None,
        workload_class: WorkloadClass | None = None,
    ) -> list[Pod]:
        """List pods with optional field selectors."""
        pods = list(self._cluster.pods.values())
        if app is not None:
            pods = [p for p in pods if p.app == app]
        if phase is not None:
            pods = [p for p in pods if p.phase == phase]
        if workload_class is not None:
            pods = [p for p in pods if p.spec.workload_class == workload_class]
        return pods

    def pending_pods(self) -> list[Pod]:
        return self._cluster.pending_pods()

    @property
    def phase_epoch(self) -> int:
        """A counter that moves whenever any pod changes phase (bind,
        start, finish, evict); a list filtered by pod phase stays current
        while it holds."""
        return self._cluster.phase_epoch

    def running_pods(self, app: str) -> list[Pod]:
        return self._cluster.running_pods_of_app(app)

    # -- scheduling & scaling verbs ----------------------------------------------

    def bind_pod(self, pod_name: str, node_name: str) -> None:
        """Bind a pending pod to a node (scheduler verb)."""
        self._cluster.bind(pod_name, node_name)

    def quota_allows_bind(self, pod_name: str) -> bool:
        """Whether tenant quota permits binding this pod now."""
        return self._cluster.quota_allows_bind(pod_name)

    def quota_allows_gang(self, pod_names: list[str]) -> bool:
        """Whether tenant quota permits binding all these pods together."""
        return self._cluster.quota_allows_bind_all(pod_names)

    def patch_pod_allocation(self, pod_name: str, allocation: ResourceVector) -> bool:
        """Request an in-place vertical resize; False if it cannot fit.

        Raises :class:`ActuationError` when an injected actuation fault
        rejects the patch (distinct from the fit-based False return).
        """
        tel = self.telemetry
        if tel is None:
            self._check_actuation("patch_pod_allocation")
            return self._cluster.resize_pod(pod_name, allocation)
        sp = tel.tracer.begin("api/patch_pod_allocation", "api", pod=pod_name)
        try:
            self._check_actuation("patch_pod_allocation")
            fitted = self._cluster.resize_pod(pod_name, allocation)
            sp.args["outcome"] = "ok" if fitted else "no-fit"
            return fitted
        except ActuationError:
            sp.args["outcome"] = "actuation-error"
            raise
        finally:
            tel.tracer.end(sp)

    def can_resize(self, pod_name: str, allocation: ResourceVector) -> bool:
        return self._cluster.can_resize(pod_name, allocation)

    def mark_finished(self, pod_name: str, *, succeeded: bool = True) -> None:
        """Workload-driver verb: report pod completion."""
        self._cluster.finish(pod_name, succeeded=succeeded)

    # -- nodes ---------------------------------------------------------------------

    def list_nodes(self) -> list[Node]:
        return list(self._cluster.nodes.values())

    def get_node(self, name: str) -> Node:
        return self._cluster.get_node(name)

    def total_allocatable(self) -> ResourceVector:
        return self._cluster.total_allocatable()

    def total_allocated(self) -> ResourceVector:
        return self._cluster.total_allocated()

    def total_usage(self) -> ResourceVector:
        return self._cluster.total_usage()

    # -- leases (leader-election primitive) -------------------------------------

    def get_lease(self, name: str) -> Lease | None:
        """Current lease record, expired or not; None if never acquired."""
        return self._leases.get(name)

    def try_acquire_lease(self, name: str, holder: str, ttl: float) -> Lease | None:
        """Acquire (or renew, when already held) a TTL lease.

        Succeeds when the lease is free, expired, or already held by
        ``holder``; returns None when another holder's lease is still
        live. A holder change increments the generation and publishes
        :class:`~repro.cluster.events.LeaderElected` (and
        :class:`~repro.cluster.events.LeaderDeposed` for the previous
        holder when one expired underneath).
        """
        if ttl <= 0:
            raise ClusterError("lease ttl must be positive")
        now = self._cluster.now
        current = self._leases.get(name)
        if current is not None and current.holder == holder:
            lease = replace(current, renewed_at=now, ttl=ttl)
            self._leases[name] = lease
            return lease
        if current is not None and not current.expired(now):
            return None
        generation = 1 if current is None else current.generation + 1
        lease = Lease(name, holder, ttl, now, now, generation)
        self._leases[name] = lease
        if self.telemetry is not None:
            self.telemetry.tracer.instant(
                "lease/acquired", "ha",
                lease=name, holder=holder, generation=generation,
            )
        if current is not None:
            self._cluster.events.publish(
                LeaderDeposed(now, name, current.holder, "lease-expired")
            )
        self._cluster.events.publish(LeaderElected(now, name, holder, generation))
        return lease

    def renew_lease(self, name: str, holder: str) -> Lease | None:
        """Heartbeat an owned lease; None when it was lost (expired or
        taken over) — the caller must step down, not keep actuating."""
        current = self._leases.get(name)
        now = self._cluster.now
        if current is None or current.holder != holder or current.expired(now):
            return None
        lease = replace(current, renewed_at=now)
        self._leases[name] = lease
        return lease

    def release_lease(self, name: str, holder: str) -> bool:
        """Voluntarily give up a lease (clean shutdown/step-down)."""
        current = self._leases.get(name)
        if current is None or current.holder != holder:
            return False
        del self._leases[name]
        self._cluster.events.publish(
            LeaderDeposed(self._cluster.now, name, holder, "released")
        )
        return True

    def for_controller(self, identity: str) -> "ScopedClusterAPI":
        """A per-controller view whose verbs fail while partitioned."""
        return ScopedClusterAPI(self, identity)

    # -- watch -----------------------------------------------------------------------

    def watch(
        self, event_type: Type[E], handler: Callable[[E], None]
    ) -> Callable[[], None]:
        """Subscribe to cluster events; returns an unsubscribe callable."""
        return self._cluster.events.subscribe(event_type, handler)


class ScopedClusterAPI:
    """A :class:`ClusterAPI` view bound to one controller identity.

    Every verb first checks whether the identity is inside an injected
    API-server partition window (:class:`~repro.cluster.chaos.PartitionInjector`)
    and raises :class:`PartitionError` if so. Control-plane replicas do
    their lease traffic — and gate their actuations — through this view,
    so a partition makes the *whole* API unreachable for that replica,
    exactly like losing the API server: renewals fail, actuations fail,
    and the only safe behaviour left is to stop.
    """

    def __init__(self, base: ClusterAPI, identity: str):
        self._base = base
        self.identity = identity

    @property
    def now(self) -> float:
        """Local clock — readable even while partitioned."""
        return self._base.now

    def is_partitioned(self) -> bool:
        return self._base.partitions.is_partitioned(
            self.identity, self._base.now
        )

    def check_partition(self) -> None:
        """Raise :class:`PartitionError` while this identity is cut off."""
        if self.is_partitioned():
            raise PartitionError(
                f"controller {self.identity!r} cannot reach the API server"
            )

    # -- lease verbs (the scoped surface the control plane uses) ------------

    def get_lease(self, name: str) -> Lease | None:
        self.check_partition()
        return self._base.get_lease(name)

    def try_acquire_lease(self, name: str, holder: str, ttl: float) -> Lease | None:
        self.check_partition()
        return self._base.try_acquire_lease(name, holder, ttl)

    def renew_lease(self, name: str, holder: str) -> Lease | None:
        self.check_partition()
        return self._base.renew_lease(name, holder)

    def release_lease(self, name: str, holder: str) -> bool:
        self.check_partition()
        return self._base.release_lease(name, holder)

    # -- pass-through reads (partition-gated like everything else) ----------

    def list_pods(self, **kwargs) -> list[Pod]:
        self.check_partition()
        return self._base.list_pods(**kwargs)

    def running_pods(self, app: str) -> list[Pod]:
        self.check_partition()
        return self._base.running_pods(app)
