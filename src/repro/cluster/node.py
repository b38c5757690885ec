"""Cluster nodes: capacity accounting and bind/release bookkeeping.

A node enforces the scheduler invariant that the sum of pod *allocations*
never exceeds allocatable capacity. Measured *usage* is aggregated
separately so utilization experiments can compare what was reserved with
what was actually consumed — the gap is exactly the over-provisioning the
adaptive controller reclaims.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.cluster.pod import Pod
from repro.cluster.resources import RESOURCES, ResourceVector


class NodeError(RuntimeError):
    """Raised on invalid bind/release operations."""


class Node:
    """A schedulable machine.

    Parameters
    ----------
    name:
        Unique node name.
    capacity:
        Physical capacity vector.
    system_reserved:
        Slice withheld from scheduling (kubelet/daemons). Allocatable is
        ``capacity - system_reserved``.
    labels:
        Topology / capability metadata (zone, world-affinity, ...).
    """

    def __init__(
        self,
        name: str,
        capacity: ResourceVector,
        *,
        system_reserved: ResourceVector | None = None,
        labels: Mapping[str, str] | None = None,
    ):
        if capacity.any_negative():
            raise ValueError(f"node {name!r}: negative capacity")
        self.name = name
        self.capacity = capacity
        self.system_reserved = system_reserved or ResourceVector.zero()
        self.allocatable = (capacity - self.system_reserved).clamp_nonnegative()
        self.labels: dict[str, str] = dict(labels or {})
        self.pods: dict[str, Pod] = {}
        self._allocated = ResourceVector.zero()
        #: Monotonic counter bumped on every bind/release/resize (and by
        #: chaos capacity changes). Schedulers key score caches on it:
        #: a cached score for (node, generation) is valid as long as the
        #: node's membership and capacity accounting are unchanged.
        self.generation = 0
        #: Execution-speed multiplier in (0, 1]. 1.0 = nominal; chaos
        #: (:class:`~repro.cluster.chaos.StragglerInjector`) lowers it to
        #: model a sick-but-alive machine. Only fault-tolerance-aware
        #: workload models consult it, so default runs are unaffected.
        self.speed_factor = 1.0

    # -- accounting -----------------------------------------------------------

    @property
    def allocated(self) -> ResourceVector:
        """Sum of allocations of pods bound here."""
        return self._allocated

    @property
    def free(self) -> ResourceVector:
        """Allocatable headroom remaining for new pods or resizes."""
        return (self.allocatable - self._allocated).clamp_nonnegative()

    def usage(self) -> ResourceVector:
        """Sum of measured usage of pods bound here.

        Added into float locals from 0.0 in bind order, the order the
        vector sum from ``ResourceVector.zero()`` used, so the floats are
        the same.
        """
        cpu = memory = disk_bw = net_bw = 0.0
        for pod in self.pods.values():
            usage = pod.usage
            cpu += usage.cpu
            memory += usage.memory
            disk_bw += usage.disk_bw
            net_bw += usage.net_bw
        return ResourceVector._from_fields(cpu, memory, disk_bw, net_bw)

    def allocation_fraction(self) -> dict[str, float]:
        """Per-resource allocated / allocatable."""
        return self._allocated.total_fraction_of(self.allocatable)

    def usage_fraction(self) -> dict[str, float]:
        """Per-resource usage / allocatable."""
        return self.usage().total_fraction_of(self.allocatable)

    def can_fit(self, request: ResourceVector) -> bool:
        """Whether a pod with this request can bind here right now."""
        return (self._allocated + request).fits_within(self.allocatable)

    def _resized_total(
        self, pod: Pod, new_allocation: ResourceVector
    ) -> tuple[float, float, float, float] | None:
        """The allocated total with ``pod`` at ``new_allocation``, or None
        when it does not fit.

        ``(allocated - old) + new`` per field in :data:`RESOURCES` order on
        float locals, the floats the vector arithmetic gives, each tested
        against allocatable + 1e-9 as ``fits_within`` does.
        """
        if pod.name not in self.pods:
            raise NodeError(f"pod {pod.name!r} is not bound to node {self.name!r}")
        allocated, old, cap = self._allocated, pod.allocation, self.allocatable
        cpu = allocated.cpu - old.cpu + new_allocation.cpu
        memory = allocated.memory - old.memory + new_allocation.memory
        disk_bw = allocated.disk_bw - old.disk_bw + new_allocation.disk_bw
        net_bw = allocated.net_bw - old.net_bw + new_allocation.net_bw
        if (
            cpu <= cap.cpu + 1e-9
            and memory <= cap.memory + 1e-9
            and disk_bw <= cap.disk_bw + 1e-9
            and net_bw <= cap.net_bw + 1e-9
        ):
            return cpu, memory, disk_bw, net_bw
        return None

    def headroom_for_resize(self, pod: Pod, new_allocation: ResourceVector) -> bool:
        """Whether ``pod`` (already bound here) can grow to ``new_allocation``."""
        return self._resized_total(pod, new_allocation) is not None

    # -- mutation ---------------------------------------------------------------

    def bind(self, pod: Pod) -> None:
        """Account for a pod's allocation on this node."""
        if pod.name in self.pods:
            raise NodeError(f"pod {pod.name!r} already bound to node {self.name!r}")
        if not self.can_fit(pod.allocation):
            raise NodeError(
                f"pod {pod.name!r} does not fit on node {self.name!r}: "
                f"needs {pod.allocation!r}, free {self.free!r}"
            )
        self.pods[pod.name] = pod
        self._allocated = self._allocated + pod.allocation
        self.generation += 1

    def release(self, pod: Pod) -> None:
        """Remove a pod's allocation from this node."""
        if pod.name not in self.pods:
            raise NodeError(f"pod {pod.name!r} is not bound to node {self.name!r}")
        del self.pods[pod.name]
        self._allocated = (self._allocated - pod.allocation).clamp_nonnegative()
        self.generation += 1

    def apply_resize(self, pod: Pod, new_allocation: ResourceVector) -> None:
        """Atomically swap a bound pod's allocation (checked for fit)."""
        total = self._resized_total(pod, new_allocation)
        if total is None:
            raise NodeError(
                f"resize of pod {pod.name!r} on node {self.name!r} does not fit"
            )
        self._allocated = ResourceVector._from_fields(*total).clamp_nonnegative()
        pod.allocation = new_allocation
        self.generation += 1

    # -- introspection --------------------------------------------------------

    def pods_by_priority(self) -> list[Pod]:
        """Bound pods, lowest priority first (preemption order)."""
        return sorted(self.pods.values(), key=lambda p: (p.spec.priority, p.created_at))

    def verify_invariants(self) -> None:
        """Assert accounting consistency; used by tests and debug runs."""
        total = ResourceVector.zero()
        for pod in self.pods.values():
            total = total + pod.allocation
        if not total.approx_equal(self._allocated, tolerance=1e-6):
            raise NodeError(
                f"node {self.name!r}: allocation drift "
                f"(tracked {self._allocated!r}, actual {total!r})"
            )
        if not self._allocated.fits_within(self.allocatable, tolerance=1e-6):
            raise NodeError(f"node {self.name!r}: over-allocated")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        used = ", ".join(
            f"{n}={self.allocation_fraction()[n]:.0%}" for n in RESOURCES
        )
        return f"Node({self.name!r}, pods={len(self.pods)}, alloc: {used})"


def total_capacity(nodes: Iterable[Node]) -> ResourceVector:
    """Sum of allocatable capacity over ``nodes``, on float locals as
    :meth:`Node.usage` sums."""
    cpu = memory = disk_bw = net_bw = 0.0
    for node in nodes:
        allocatable = node.allocatable
        cpu += allocatable.cpu
        memory += allocatable.memory
        disk_bw += allocatable.disk_bw
        net_bw += allocatable.net_bw
    return ResourceVector._from_fields(cpu, memory, disk_bw, net_bw)
