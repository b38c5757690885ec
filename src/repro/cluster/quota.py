"""Tenant resource quotas.

A converged cluster is shared by tenants (departments, projects); quotas
cap the total resources each tenant's live pods may hold, Kubernetes
ResourceQuota style. Pods declare their tenant through the ``tenant``
label; unlabelled pods are exempt. Enforcement happens at bind and
resize time — a tenant at its cap keeps its pods pending (or its resize
denied) no matter how much physical headroom exists.
"""

from __future__ import annotations

from repro.cluster.pod import Pod
from repro.cluster.resources import ResourceVector


#: Pod label carrying the tenant name.
TENANT_LABEL = "tenant"


class QuotaManager:
    """Per-tenant allocation caps.

    The manager is attached to a cluster (``cluster.quotas = manager``);
    the cluster consults it inside :meth:`~repro.cluster.cluster.Cluster.bind`
    and :meth:`~repro.cluster.cluster.Cluster.resize_pod`. Usage is
    computed from live pod allocations on demand, so it is always
    consistent with the cluster's own accounting.
    """

    def __init__(self) -> None:
        self._limits: dict[str, ResourceVector] = {}
        self.denials = 0

    # -- configuration -------------------------------------------------------

    def set_quota(self, tenant: str, limit: ResourceVector) -> None:
        """Create or replace a tenant's cap."""
        if limit.any_negative():
            raise ValueError(f"tenant {tenant!r}: negative quota")
        self._limits[tenant] = limit

    def limit(self, tenant: str) -> ResourceVector | None:
        return self._limits.get(tenant)

    # -- queries ----------------------------------------------------------------

    @staticmethod
    def tenant_of(pod: Pod) -> str | None:
        return pod.spec.labels.get(TENANT_LABEL)

    def usage(self, tenant: str, pods) -> ResourceVector:
        """Total allocation held by ``tenant``'s active pods."""
        total = ResourceVector.zero()
        for pod in pods:
            if pod.active and self.tenant_of(pod) == tenant:
                total = total + pod.allocation
        return total

    # -- enforcement ---------------------------------------------------------------

    def allows_bind(self, pod: Pod, pods) -> bool:
        """Whether binding ``pod`` keeps its tenant within quota."""
        tenant = self.tenant_of(pod)
        if tenant is None:
            return True
        limit = self._limits.get(tenant)
        if limit is None:
            return True
        projected = self.usage(tenant, pods) + pod.allocation
        if projected.fits_within(limit):
            return True
        self.denials += 1
        return False

    def allows_resize(
        self, pod: Pod, new_allocation: ResourceVector, pods
    ) -> bool:
        """Whether resizing ``pod`` keeps its tenant within quota."""
        tenant = self.tenant_of(pod)
        if tenant is None:
            return True
        limit = self._limits.get(tenant)
        if limit is None:
            return True
        projected = (
            self.usage(tenant, pods) - pod.allocation + new_allocation
        )
        if projected.fits_within(limit):
            return True
        self.denials += 1
        return False
