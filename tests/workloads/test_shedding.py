"""Unit + property tests for microservice load shedding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.resources import ResourceVector
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.traces import ConstantTrace, StepTrace


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)
LIMIT = Microservice.queue_limit_seconds


def deploy(engine, api, *, trace, cpu=0.5):
    svc = Microservice(
        "svc", engine, api, trace=trace, demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=cpu, memory=1, disk_bw=50,
                                          net_bw=50),
    )
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(STARTUP_DELAY + 1.0)
    return svc


def test_no_drops_under_light_load(engine, api):
    svc = deploy(engine, api, trace=ConstantTrace(20))
    engine.run_until(60.0)
    assert svc.total_dropped == 0.0
    assert svc.current_drop_rate == 0.0


def test_overload_sheds_excess(engine, api):
    # 0.5 cores serve 50 rps; offered 200 rps ⇒ ~150 rps dropped.
    svc = deploy(engine, api, trace=ConstantTrace(200))
    engine.run_until(120.0)
    assert svc.current_drop_rate == pytest.approx(150, rel=0.1)
    assert svc.current_backlog <= 50 * LIMIT + 1e-6  # capacity × limit


def test_backlog_bounded_by_queue_limit(engine, api):
    svc = deploy(engine, api, trace=ConstantTrace(500))
    engine.run_until(300.0)
    assert svc.current_backlog <= 50 * LIMIT + 1e-6


def test_recovery_after_overload_is_fast(engine, api):
    trace = StepTrace([(0, 300), (120, 10)])
    svc = deploy(engine, api, trace=trace)
    engine.run_until(119.0)
    assert svc.current_latency > 1.0
    # With a bounded queue, draining takes ≤ LIMIT seconds of work:
    # LIMIT / (1 - 10/50) = 1.25 × LIMIT seconds at 10 rps.
    engine.run_until(120.0 + 2 * LIMIT)
    assert svc.current_latency < 0.1


def test_drop_metrics_exported(engine, api):
    svc = deploy(engine, api, trace=ConstantTrace(500))
    engine.run_until(30.0)
    assert svc.current_drop_rate > 0
    assert svc.total_dropped > 0


def test_invalid_queue_limit(engine, api):
    # The queue limit is the class constant Microservice.queue_limit_seconds.
    with pytest.raises(TypeError):
        Microservice(
            "svc", engine, api, trace=ConstantTrace(1), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=1, memory=1),
            queue_limit_seconds=0,
        )


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(1.0, 400.0), cpu=st.floats(0.2, 4.0))
    def test_served_plus_dropped_plus_backlog_conserves_arrivals(
        self, rate, cpu
    ):
        """Flow conservation: nothing appears or vanishes."""
        from repro.cluster.api import ClusterAPI
        from repro.sim.engine import Engine
        from tests.conftest import make_cluster

        engine = Engine()
        api = ClusterAPI(make_cluster(engine))
        svc = Microservice(
            "svc", engine, api, trace=ConstantTrace(rate), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=cpu, memory=2, disk_bw=50,
                                              net_bw=50),
        )
        svc.start()
        for pod in api.pending_pods():
            api.bind_pod(pod.name, "node-0")
        engine.run_until(STARTUP_DELAY + 1.0)
        start = engine.now
        engine.run_until(61.0)
        arrived = rate * (engine.now - start)
        accounted = svc.total_served + svc.total_dropped + svc.current_backlog
        assert accounted == pytest.approx(arrived, rel=0.05)
