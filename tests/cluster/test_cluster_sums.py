"""The cluster's resource sums against the vector sums they replaced.

``Cluster.total_allocated``, ``Cluster.total_usage``, ``total_capacity``
(behind ``Cluster.total_allocatable``) and ``Node.usage`` add into four
float locals and build one vector. The references here are the old
bodies: a ``ResourceVector.zero()`` total grown by ``+`` node by node,
and for usage pod by pod within each node. Every comparison is by
``repr``, so a float that differs in its last bit, or a sum that starts
from its first term instead of 0.0, fails.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.pod import PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.sim.engine import Engine
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import fork_join_stages, skewed_fanout_stages
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace

# -- the references ---------------------------------------------------------------


def ref_sum(vectors) -> ResourceVector:
    total = ResourceVector.zero()
    for vector in vectors:
        total = total + vector
    return total


def ref_node_usage(node) -> ResourceVector:
    return ref_sum(pod.usage for pod in node.pods.values())


def ref_totals(cluster) -> dict[str, ResourceVector]:
    nodes = cluster.nodes.values()
    return {
        "allocatable": ref_sum(node.allocatable for node in nodes),
        "allocated": ref_sum(node.allocated for node in nodes),
        "usage": ref_sum(ref_node_usage(node) for node in nodes),
    }


def _r(vector) -> str:
    return repr((vector.cpu, vector.memory, vector.disk_bw, vector.net_bw))


def mismatches(cluster) -> list[str]:
    """Every sum that differs from its reference, by name."""
    want = ref_totals(cluster)
    got = {
        "allocatable": cluster.total_allocatable(),
        "allocated": cluster.total_allocated(),
        "usage": cluster.total_usage(),
    }
    wrong = [name for name in want if _r(got[name]) != _r(want[name])]
    for node in cluster.nodes.values():
        if _r(node.usage()) != _r(ref_node_usage(node)):
            wrong.append(node.name)
    return wrong


# -- hand-built usage ---------------------------------------------------------------


def _cluster_with_usages(usages_per_node) -> Cluster:
    """One node per entry, one bound pod per usage, usage written raw."""
    engine = Engine()
    big = ResourceVector(cpu=64, memory=256, disk_bw=1000, net_bw=1000)
    cluster = Cluster(
        engine, [Node(f"node-{i}", big) for i in range(len(usages_per_node))]
    )
    # Requests of 0.1 and 0.3 round when added, so the allocated totals
    # depend on the order of the terms as well.
    for i, usages in enumerate(usages_per_node):
        for j, usage in enumerate(usages):
            pod = cluster.submit(
                PodSpec(
                    f"pod-{i}-{j}",
                    "app",
                    WorkloadClass.MICROSERVICE,
                    ResourceVector(cpu=1.5, memory=0.1, disk_bw=0.3, net_bw=1e-16),
                )
            )
            cluster.bind(pod.name, f"node-{i}")
            # record_usage would clamp -0.0 and NaN to 0.0.
            pod.usage = usage
    return cluster


def test_signed_zero_and_nan_usage():
    nan = math.nan
    cluster = _cluster_with_usages(
        [
            # A node whose only term is -0.0: the sum from 0.0 reads 0.0.
            [ResourceVector(cpu=-0.0, memory=-0.0, disk_bw=-0.0, net_bw=-0.0)],
            [
                ResourceVector(cpu=0.1, memory=nan, disk_bw=-0.0, net_bw=1.0),
                ResourceVector(cpu=0.2, memory=1.0, disk_bw=-0.0, net_bw=-1.0),
            ],
            [ResourceVector(cpu=nan, memory=0.3, disk_bw=math.inf, net_bw=-0.0)],
            [],  # a node without pods
        ]
    )
    assert mismatches(cluster) == []
    assert _r(cluster.get_node("node-0").usage()) == repr((0.0, 0.0, 0.0, 0.0))
    usage = cluster.total_usage()
    assert math.isnan(usage.cpu) and math.isnan(usage.memory)


def test_usage_adds_node_sums_in_node_order():
    # (1e-16 + 1e-16) + 1.0 keeps both terms, 1.0 + 1e-16 + 1e-16 neither:
    # the cluster sum adds each node's own sum, as Node.usage() made it.
    tiny = ResourceVector(cpu=1e-16, memory=0.1, disk_bw=0.2, net_bw=0.3)
    one = ResourceVector(cpu=1.0, memory=0.2, disk_bw=0.1, net_bw=0.3)
    cluster = _cluster_with_usages([[one], [tiny, tiny]])
    assert mismatches(cluster) == []
    assert cluster.total_usage().cpu == 1.0 + 2e-16
    assert cluster.total_usage().cpu != 1.0 + 1e-16 + 1e-16


# -- every timestamp of a mixed platform run ---------------------------------------


def _mixed_platform() -> EvolvePlatform:
    """Micro, big-data and HPC work, a node crash and a degraded node."""
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=5),
        config=PlatformConfig(seed=4),
        scheduler="converged",
        policy="adaptive",
    )
    names = sorted(platform.cluster.nodes)
    spread_blocks(
        platform.store,
        "lake",
        total_mb=4_000,
        block_mb=100,
        nodes=names[:2],
        skew=0.5,
    )
    platform.deploy_microservice(
        "web",
        trace=DiurnalTrace(base=60, amplitude=40, period=600),
        demands=ServiceDemands(cpu_seconds=0.02, disk_mb=0.1, base_latency=0.01),
        allocation=ResourceVector(cpu=1, memory=2, disk_bw=30, net_bw=30),
        plo=LatencyPLO(0.05, window=30),
    )
    executor = ResourceVector(cpu=2, memory=4, disk_bw=60, net_bw=60)
    platform.submit_bigdata(
        "fork-join",
        stages=fork_join_stages(width=3),
        allocation=executor,
        executors=4,
        dataset="lake",
    )
    platform.submit_bigdata(
        "fan-out",
        stages=skewed_fanout_stages(np.random.default_rng(1), fanout=4),
        allocation=executor,
        executors=3,
        dataset="lake",
        delay=45.0,
    )
    platform.submit_hpc(
        "gang",
        ranks=4,
        duration=200.0,
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=5, net_bw=50),
        delay=20.0,
    )
    engine = platform.engine
    engine.schedule_at(90.5, lambda: platform.injector.fail_node(names[1]))
    engine.schedule_at(210.5, lambda: platform.injector.recover_node(names[1]))
    engine.schedule_at(140.5, lambda: platform.degrader.degrade_node(names[2], 0.5))
    engine.schedule_at(300.5, lambda: platform.degrader.restore_node(names[2]))
    return platform


def test_every_timestamp_of_a_mixed_run():
    platform = _mixed_platform()
    cluster = platform.cluster
    wrong: list[tuple[float, list[str]]] = []
    checks = 0
    busy = 0

    def check() -> None:
        # A cycle hook must not change the run; this one only reads.
        nonlocal checks, busy
        checks += 1
        busy += cluster.total_usage().cpu > 0.0
        found = mismatches(cluster)
        if found:
            wrong.append((platform.engine.now, found))

    platform.engine.add_cycle_hook(check)
    platform.run(420.0)
    assert wrong == []
    assert checks > 400 and busy > 300
    assert platform.injector.recoveries == 1
    assert platform.degrader.restorations == 1
