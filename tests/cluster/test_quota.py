"""Unit tests for tenant quotas."""

import pytest

from repro.cluster.cluster import ClusterError
from repro.cluster.pod import PodPhase, PodSpec, WorkloadClass
from repro.cluster.quota import QuotaManager
from repro.cluster.resources import ResourceVector
from repro.scheduler.kube import KubeScheduler
from tests.conftest import make_spec


def tenant_spec(name, tenant, cpu=2.0):
    return PodSpec(
        name=name,
        app="app",
        workload_class=WorkloadClass.MICROSERVICE,
        requests=ResourceVector(cpu=cpu, memory=1, disk_bw=5, net_bw=5),
        labels={"tenant": tenant},
    )


@pytest.fixture
def quotas(cluster):
    manager = QuotaManager()
    cluster.quotas = manager
    return manager


class TestQuotaManager:
    def test_negative_quota_rejected(self, quotas):
        with pytest.raises(ValueError):
            quotas.set_quota("acme", ResourceVector(cpu=-1))

    def test_usage_counts_active_tenant_pods(self, engine, cluster, quotas):
        quotas.set_quota("acme", ResourceVector.uniform(100))
        cluster.submit(tenant_spec("a", "acme", cpu=2))
        cluster.submit(tenant_spec("b", "acme", cpu=3))
        cluster.submit(tenant_spec("c", "other", cpu=5))
        cluster.bind("a", "node-0")
        cluster.bind("b", "node-0")
        cluster.bind("c", "node-1")
        usage = quotas.usage("acme", cluster.pods.values())
        assert usage.cpu == 5.0

    def test_unlabelled_pods_exempt(self, engine, cluster, quotas):
        quotas.set_quota("acme", ResourceVector(cpu=0.1, memory=0.1))
        cluster.submit(make_spec("free"))
        cluster.bind("free", "node-0")  # no tenant label → no quota check

    def test_uncapped_tenant_allowed(self, engine, cluster, quotas):
        cluster.submit(tenant_spec("a", "unknown-tenant", cpu=10))
        cluster.bind("a", "node-0")


class TestBindEnforcement:
    def test_bind_blocked_at_cap(self, engine, cluster, quotas):
        quotas.set_quota("acme", ResourceVector(cpu=3, memory=10,
                                                disk_bw=100, net_bw=100))
        cluster.submit(tenant_spec("a", "acme", cpu=2))
        cluster.bind("a", "node-0")
        cluster.submit(tenant_spec("b", "acme", cpu=2))
        assert not cluster.quota_allows_bind("b")
        with pytest.raises(ClusterError, match="quota"):
            cluster.bind("b", "node-1")
        assert quotas.denials >= 1

    def test_quota_freed_on_finish(self, engine, cluster, quotas):
        quotas.set_quota("acme", ResourceVector(cpu=2, memory=10,
                                                disk_bw=100, net_bw=100))
        cluster.submit(tenant_spec("a", "acme", cpu=2))
        cluster.bind("a", "node-0")
        cluster.finish("a")
        cluster.submit(tenant_spec("b", "acme", cpu=2))
        cluster.bind("b", "node-0")  # fits again

    def test_gang_checked_in_aggregate(self, engine, cluster, quotas):
        quotas.set_quota("hpc", ResourceVector(cpu=5, memory=50,
                                               disk_bw=100, net_bw=100))
        names = []
        for i in range(3):
            spec = PodSpec(
                name=f"r{i}", app="job",
                workload_class=WorkloadClass.HPC,
                requests=ResourceVector(cpu=2, memory=1, disk_bw=1, net_bw=1),
                gang_id="g", labels={"tenant": "hpc"},
            )
            cluster.submit(spec)
            names.append(spec.name)
        # Each rank individually fits the 5-cpu cap; 3×2=6 does not.
        assert cluster.quota_allows_bind(names[0])
        assert not cluster.quota_allows_bind_all(names)


class TestResizeEnforcement:
    def test_resize_blocked_beyond_quota(self, engine, cluster, quotas):
        quotas.set_quota("acme", ResourceVector(cpu=3, memory=10,
                                                disk_bw=100, net_bw=100))
        cluster.submit(tenant_spec("a", "acme", cpu=2))
        cluster.bind("a", "node-0")
        engine.run_until(6.0)
        pod = cluster.get_pod("a")
        assert not cluster.resize_pod("a", pod.allocation.replace(cpu=4))
        assert cluster.resize_pod("a", pod.allocation.replace(cpu=3))

    def test_resize_apply_rechecks_quota(self, engine, cluster, quotas):
        quotas.set_quota("acme", ResourceVector(cpu=4, memory=10,
                                                disk_bw=100, net_bw=100))
        cluster.submit(tenant_spec("a", "acme", cpu=1))
        cluster.submit(tenant_spec("b", "acme", cpu=1))
        cluster.bind("a", "node-0")
        cluster.bind("b", "node-1")
        engine.run_until(6.0)
        # Resize a→3 accepted (1+1→3+1=4 ≤ 4)...
        assert cluster.resize_pod("a", cluster.get_pod("a").allocation.replace(cpu=3))
        # ...but b grows first and consumes the headroom.
        assert cluster.resize_pod("b", cluster.get_pod("b").allocation.replace(cpu=2))
        engine.run_until(8.0)
        total = quotas.usage("acme", cluster.pods.values())
        assert total.cpu <= 4.0 + 1e-9


class TestSchedulerIntegration:
    def test_scheduler_skips_quota_blocked_pods(self, engine, cluster, api, quotas):
        quotas.set_quota("acme", ResourceVector(cpu=2, memory=10,
                                                disk_bw=100, net_bw=100))
        scheduler = KubeScheduler(engine, api)
        scheduler.start()
        cluster.submit(tenant_spec("a", "acme", cpu=2))
        cluster.submit(tenant_spec("b", "acme", cpu=2))
        engine.run_until(2.0)
        phases = {cluster.get_pod(n).phase for n in ("a", "b")}
        assert PodPhase.PENDING in phases  # one blocked, none crashed
        bound = [n for n in ("a", "b") if cluster.get_pod(n).node_name]
        assert len(bound) == 1
