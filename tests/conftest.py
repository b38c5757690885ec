"""Shared fixtures: a small simulated cluster with metrics plumbing."""

from __future__ import annotations

import pytest

from repro.cluster.api import ClusterAPI
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.pod import PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine


NODE_CAPACITY = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)


@pytest.fixture
def engine() -> Engine:
    return Engine()


def make_cluster(
    engine: Engine,
    *,
    nodes: int = 3,
    capacity: ResourceVector = NODE_CAPACITY,
) -> Cluster:
    return Cluster(engine, [Node(f"node-{i}", capacity) for i in range(nodes)])


@pytest.fixture
def cluster(engine: Engine) -> Cluster:
    return make_cluster(engine)


@pytest.fixture
def api(cluster: Cluster) -> ClusterAPI:
    return ClusterAPI(cluster)


@pytest.fixture
def collector(engine: Engine, api: ClusterAPI) -> MetricsCollector:
    return MetricsCollector(engine, api)


def make_chaos_platform(domains, *, seed: int = 5):
    """A platform with every fault kind's target, and the monkey armed.

    Three controller replicas (controller-crash, partition), three zones
    (zone-outage), data-plane fault tolerance and a big-data job on a
    spread dataset (executor-kill, straggler, data-loss). The monkey
    strikes every ~40 s, heals after 30 s, and keeps at most two faults
    active. Returns ``(platform, monkey)``; neither has run yet.
    """
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.storage.placement import spread_blocks
    from repro.workloads.bigdata import Stage

    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=6, zones=3),
        config=PlatformConfig(
            seed=seed,
            controller_replicas=3,
            data_plane=True,
        ),
    )
    spread_blocks(
        platform.store,
        "events",
        total_mb=2000.0,
        block_mb=100.0,
        nodes=sorted(platform.cluster.nodes)[:3],
        replication=2,
    )
    platform.submit_bigdata(
        "job",
        stages=[
            Stage("scan", 3600.0, input_mb=2000.0),
            Stage("agg", 1200.0, input_mb=200.0, deps=("scan",)),
        ],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=60, net_bw=60),
        executors=3,
        dataset="events",
    )
    monkey = platform.enable_chaos(
        mtbf=40.0,
        repair_time=30.0,
        max_concurrent_failures=2,
        domains=domains,
    )
    return platform, monkey


def make_spec(
    name: str = "pod-0",
    *,
    app: str = "app",
    cpu: float = 1.0,
    memory: float = 1.0,
    disk_bw: float = 10.0,
    net_bw: float = 10.0,
    workload_class: WorkloadClass = WorkloadClass.MICROSERVICE,
    gang_id: str | None = None,
    priority: int = 0,
) -> PodSpec:
    return PodSpec(
        name=name,
        app=app,
        workload_class=workload_class,
        requests=ResourceVector(cpu, memory, disk_bw, net_bw),
        gang_id=gang_id,
        priority=priority,
    )
