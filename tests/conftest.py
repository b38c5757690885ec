"""Shared fixtures: a small simulated cluster with metrics plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.api import ClusterAPI
from repro.cluster.chaos import ActuationFaultInjector, FaultLog, PartitionInjector
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.pod import PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.control.manager import ControlLoopManager
from repro.metrics.collector import MetricsCollector
from repro.metrics.faults import MetricsFaultInjector
from repro.scheduler.admission import OverloadConfig
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


def make_api(cluster: Cluster) -> ClusterAPI:
    """A ClusterAPI wired as the platform wires it: an actuation-fault
    injector and a partition injector sharing one FaultLog (reach it as
    ``api.actuation_faults.log``). Neither fails anything until armed."""
    log = FaultLog()
    return ClusterAPI(
        cluster,
        actuation_faults=ActuationFaultInjector(np.random.default_rng(0), log=log),
        partitions=PartitionInjector(log=log),
    )


def make_collector(engine: Engine, api: ClusterAPI) -> MetricsCollector:
    """A MetricsCollector behind a metrics-fault injector that logs into
    the API's FaultLog, as on the platform; it distorts nothing until
    armed."""
    faults = MetricsFaultInjector(
        np.random.default_rng(0), log=api.actuation_faults.log
    )
    return MetricsCollector(engine, api, faults=faults)


def control_wiring(collector: MetricsCollector) -> dict:
    """What the platform hands a control loop: a retry-jitter stream, the
    collector's FaultLog and an all-off OverloadConfig."""
    return {
        "rng": np.random.default_rng(0),
        "fault_log": collector.faults.log,
        "overload": OverloadConfig(),
    }


def make_manager(
    engine: Engine, collector: MetricsCollector, **kwargs
) -> ControlLoopManager:
    """A ControlLoopManager with :func:`control_wiring`, except for what
    ``kwargs`` name."""
    return ControlLoopManager(
        engine, collector, **{**control_wiring(collector), **kwargs}
    )


@pytest.fixture
def api(cluster: Cluster) -> ClusterAPI:
    return make_api(cluster)


@pytest.fixture
def collector(engine: Engine, api: ClusterAPI) -> MetricsCollector:
    return make_collector(engine, api)


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
