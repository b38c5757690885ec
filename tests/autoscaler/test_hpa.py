"""Unit tests for the HPA baseline."""

import pytest

from repro.autoscaler.hpa import MAX_REPLICAS, HorizontalPodAutoscaler
from repro.cluster.resources import ResourceVector
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.traces import ConstantTrace, StepTrace
from tests.conftest import make_api, make_cluster, make_collector


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)
ALLOC = ResourceVector(cpu=1, memory=1, disk_bw=50, net_bw=50)


def deploy(engine, api, collector, trace, replicas=1):
    svc = Microservice(
        "svc", engine, api, trace=trace, demands=DEMANDS,
        initial_allocation=ALLOC, initial_replicas=replicas,
    )
    svc.start()
    _bind(engine, api)
    collector.register(svc)
    collector.start()
    return svc


def _bind(engine, api):
    nodes = [n.name for n in api.list_nodes()]
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, nodes[i % len(nodes)])


def autobind(engine, api, until):
    """Keep binding pods that appear (stand-in scheduler)."""
    handle = engine.every(1.0, lambda: _bind(engine, api))
    engine.run_until(until)
    handle.cancel()


def test_scales_out_under_high_utilization(engine, api, collector):
    # 1 core serves 100 rps; offered 90 rps ⇒ ~90% utilization > 60% target.
    svc = deploy(engine, api, collector, ConstantTrace(90))
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    hpa.start()
    autobind(engine, api, 300.0)
    assert svc.replica_count >= 2


def test_within_tolerance_no_action(engine, api, collector):
    # 60 rps on 1 core = 60% utilization = target exactly.
    svc = deploy(engine, api, collector, ConstantTrace(60))
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    hpa.start()
    autobind(engine, api, 300.0)
    assert svc.replica_count == 1


def test_scale_down_waits_for_stabilization(engine, api, collector):
    trace = StepTrace([(0, 150), (100, 20)])
    svc = deploy(engine, api, collector, trace, replicas=2)
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    hpa.start()
    autobind(engine, api, 150.0)
    replicas_at_drop = svc.replica_count
    assert replicas_at_drop >= 2
    # Before the stabilization window elapses, no scale-down.
    autobind(engine, api, 180.0)
    assert svc.replica_count == replicas_at_drop
    autobind(engine, api, 600.0)
    assert svc.replica_count < replicas_at_drop


def test_respects_max_replicas(engine):
    # 24 one-core replicas near saturation want 40; four nodes hold 40
    # pods, so only the clamp stops the scale-out at MAX_REPLICAS.
    api = make_api(make_cluster(engine, nodes=4))
    collector = make_collector(engine, api)
    svc = deploy(engine, api, collector, ConstantTrace(2400), replicas=24)
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    hpa.start()
    autobind(engine, api, 600.0)
    assert svc.replica_count == MAX_REPLICAS


def test_no_metrics_no_action(engine, api, collector):
    svc = Microservice(
        "svc", engine, api, trace=ConstantTrace(10), demands=DEMANDS,
        initial_allocation=ALLOC,
    )
    svc.start()
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    hpa.reconcile(svc)  # collector has no series yet
    assert svc.replica_count == 1


def test_attach_twice_rejected(engine, api, collector):
    svc = Microservice(
        "svc", engine, api, trace=ConstantTrace(10), demands=DEMANDS,
        initial_allocation=ALLOC,
    )
    hpa = HorizontalPodAutoscaler(engine, collector)
    hpa.attach(svc)
    with pytest.raises(ValueError):
        hpa.attach(svc)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_utilization": 0.0},
        {"target_utilization": 1.0},
        {"tolerance": -0.1},
        {"min_replicas": 0},
        {"min_replicas": 5, "max_replicas": 2},
    ],
)
def test_invalid_params(engine, collector, kwargs):
    # The HPA runs at kube's defaults, which are constants, not options.
    with pytest.raises(TypeError):
        HorizontalPodAutoscaler(engine, collector, **kwargs)
