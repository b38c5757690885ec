"""Unit tests for the VPA baseline."""

import pytest

from repro.autoscaler.vpa import CHANGE_THRESHOLD, MARGIN, VerticalPodAutoscaler
from repro.cluster.resources import ResourceVector
from repro.control.multiresource import AllocationBounds
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.traces import ConstantTrace


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=16, disk_bw=400, net_bw=400),
)
DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def deploy(engine, api, collector, *, rate=50.0, cpu=4.0):
    svc = Microservice(
        "svc", engine, api, trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=cpu, memory=4, disk_bw=100, net_bw=100),
        initial_replicas=1,
    )
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    collector.register(svc)
    collector.start()
    return svc


def test_recommendation_tracks_usage_percentile(engine, api, collector):
    svc = deploy(engine, api, collector, rate=50.0, cpu=4.0)
    vpa = VerticalPodAutoscaler(engine, collector, bounds=BOUNDS)
    vpa.attach(svc)
    engine.run_until(120.0)
    rec = vpa.recommend(svc)
    # 50 rps × 0.01 cpu-s = 0.5 cores used; rec ≈ 0.5 × MARGIN.
    assert rec.cpu == pytest.approx(0.5 * MARGIN, rel=0.15)


def test_reconcile_shrinks_overprovisioned(engine, api, collector):
    svc = deploy(engine, api, collector, rate=50.0, cpu=4.0)
    vpa = VerticalPodAutoscaler(engine, collector, bounds=BOUNDS)
    vpa.attach(svc)
    vpa.start()
    engine.run_until(600.0)
    assert svc.current_allocation().cpu < 1.5
    assert vpa.resizes >= 1


def test_recommendation_clamped_to_bounds(engine, api, collector):
    svc = deploy(engine, api, collector, rate=1.0, cpu=4.0)
    vpa = VerticalPodAutoscaler(engine, collector, bounds=BOUNDS)
    vpa.attach(svc)
    engine.run_until(120.0)
    rec = vpa.recommend(svc)
    assert BOUNDS.minimum.fits_within(rec)
    assert rec.fits_within(BOUNDS.maximum)


def test_no_history_no_recommendation(engine, api, collector):
    svc = Microservice(
        "svc", engine, api, trace=ConstantTrace(1), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=1, memory=1),
    )
    vpa = VerticalPodAutoscaler(engine, collector, bounds=BOUNDS)
    vpa.attach(svc)  # declares the usage series it reads
    assert vpa.recommend(svc) is None
    vpa.reconcile(svc)  # no crash, no change


def test_small_changes_suppressed(engine, collector):
    vpa = VerticalPodAutoscaler(engine, collector, bounds=BOUNDS)
    current = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)
    small = current * (1 + CHANGE_THRESHOLD / 2)
    large = current.replace(cpu=1 + 2 * CHANGE_THRESHOLD)
    assert not vpa._materially_different(current, small)
    assert vpa._materially_different(current, large)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"percentile": 0},
        {"percentile": 150},
        {"margin": 0.9},
        {"change_threshold": -1},
    ],
)
def test_invalid_params(engine, collector, kwargs):
    # The recommender's tuning is constants, not options.
    with pytest.raises(TypeError):
        VerticalPodAutoscaler(engine, collector, bounds=BOUNDS, **kwargs)
