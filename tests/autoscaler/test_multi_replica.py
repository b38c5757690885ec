"""Autoscaler behaviour with multiple replicas (aggregate-metric math)."""

import pytest

from repro.autoscaler.hpa import HorizontalPodAutoscaler
from repro.autoscaler.vpa import MARGIN, VerticalPodAutoscaler
from repro.cluster.resources import ResourceVector
from repro.control.multiresource import AllocationBounds
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.traces import ConstantTrace


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=16, disk_bw=400, net_bw=400),
)
DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def deploy(engine, api, collector, *, rate, replicas, cpu=1.0):
    svc = Microservice(
        "svc", engine, api, trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=cpu, memory=2, disk_bw=50,
                                          net_bw=50),
        initial_replicas=replicas,
    )
    svc.start()
    nodes = [n.name for n in api.list_nodes()]
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, nodes[i % len(nodes)])
    collector.register(svc)
    collector.start()
    engine.run_until(6.0)
    return svc


def test_vpa_recommends_per_replica(engine, api, collector):
    # 120 rps over 3 replicas = 40 rps each = 0.4 cores used per replica.
    svc = deploy(engine, api, collector, rate=120, replicas=3, cpu=2.0)
    vpa = VerticalPodAutoscaler(engine, collector, bounds=BOUNDS)
    vpa.attach(svc)
    engine.run_until(150.0)
    rec = vpa.recommend(svc)
    assert rec.cpu == pytest.approx(0.4 * MARGIN, rel=0.15)


def test_hpa_utilization_is_aggregate(engine, api, collector):
    # 3 replicas × 1 core, 240 rps total ⇒ 2.4/3 = 80% aggregate.
    svc = deploy(engine, api, collector, rate=240, replicas=3)
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    engine.run_until(60.0)
    utilization = hpa._observed_utilization(svc)
    assert utilization == pytest.approx(0.8, abs=0.08)


def test_hpa_desired_scales_with_ratio(engine, api, collector):
    svc = deploy(engine, api, collector, rate=240, replicas=2)
    # Utilization 2.4/2 → capped near 100%; target 0.6 ⇒ desired ~4.
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    hpa.start()
    engine.run_until(37.0)  # two reconciles; the first still sees startup
    assert svc.replica_count >= 4
