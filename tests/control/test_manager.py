"""Unit tests for the control loop manager (closed loop, small scale)."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.control.multiresource import AllocationBounds, MultiResourceController
from repro.control.pid import PIDGains
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace
from tests.conftest import make_manager


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=16, disk_bw=400, net_bw=400),
)
DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def controller(**kwargs):
    return MultiResourceController(
        PIDGains(kp=0.8, ki=0.08), BOUNDS, deadband=0.1, **kwargs
    )


def deploy(engine, api, collector, *, rate=100.0, cpu=0.5, plo_target=0.05):
    svc = Microservice(
        "svc", engine, api,
        trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=cpu, memory=1, disk_bw=20, net_bw=20),
        initial_replicas=1,
    )
    svc.plo = LatencyPLO(plo_target, window=20)
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    collector.register(svc)
    collector.start()
    return svc


def test_register_requires_plo(engine, api, collector):
    manager = make_manager(engine, collector)
    svc = Microservice(
        "nop", engine, api, trace=ConstantTrace(1), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=1, memory=1),
    )
    with pytest.raises(ValueError, match="no PLO"):
        manager.register(svc, controller())


def test_register_duplicate_rejected(engine, api, collector):
    manager = make_manager(engine, collector)
    svc = deploy(engine, api, collector)
    manager.register(svc, controller())
    with pytest.raises(ValueError, match="already"):
        manager.register(svc, controller())


def test_loop_grows_starved_service(engine, api, collector):
    """0.5 cores can serve 50 rps; offered 100 rps violates the PLO, and
    the loop must grow CPU until latency recovers."""
    svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
    manager = make_manager(engine, collector, interval=10.0)
    manager.register(svc, controller())
    manager.start()
    engine.run_until(600.0)
    assert svc.current_allocation().cpu > 1.0
    assert svc.current_latency <= 0.05 * 1.5
    assert manager._entries["svc"].stats["grow"] >= 1


def test_loop_reclaims_overprovisioned_service(engine, api, collector):
    svc = deploy(engine, api, collector, rate=20.0, cpu=4.0, plo_target=0.2)
    manager = make_manager(engine, collector, interval=10.0)
    manager.register(svc, controller())
    manager.start()
    engine.run_until(900.0)
    assert svc.current_allocation().cpu < 2.0
    # Reclaim must not break the PLO.
    assert svc.current_latency <= 0.2


def test_loop_records_control_series(engine, api, collector):
    svc = deploy(engine, api, collector)
    collector.declare("control/svc/error", "control/svc/output")
    manager = make_manager(engine, collector, interval=10.0)
    manager.register(svc, controller())
    manager.start()
    engine.run_until(60.0)
    # One error and one output sample per decided period.
    decided = sum(manager._entries["svc"].stats.values())
    assert decided > 0
    assert len(collector.series("control/svc/error")) == decided
    assert len(collector.series("control/svc/output")) == decided


def test_loop_skips_before_metrics_exist(engine, api, collector):
    svc = deploy(engine, api, collector)
    manager = make_manager(engine, collector, interval=1.0)
    manager.register(svc, controller())
    # Run the loop once by hand before any scrape happened.
    manager.run_once()
    assert manager._entries["svc"].skipped >= 0  # no crash is the point


def test_finished_app_is_skipped(engine, api, collector):
    svc = deploy(engine, api, collector)
    manager = make_manager(engine, collector, interval=10.0)
    manager.register(svc, controller())
    manager.start()
    engine.run_until(30.0)
    svc.stop()
    loops_before = manager.loops
    engine.run_until(60.0)
    assert manager.loops > loops_before  # loop runs, app untouched


def test_unregister(engine, api, collector):
    svc = deploy(engine, api, collector)
    manager = make_manager(engine, collector)
    manager.register(svc, controller())
    manager.unregister("svc")
    manager.run_once()  # no entries, no crash


def test_horizontal_policy_invoked(engine, api, collector):
    calls = []

    class FakeHorizontal:
        def adjust(self, app, decision, ctrl):
            calls.append(decision.action)
            return app.replica_count

    svc = deploy(engine, api, collector)
    manager = make_manager(engine, collector, interval=10.0)
    manager.register(svc, controller(), horizontal=FakeHorizontal())
    manager.start()
    engine.run_until(60.0)
    assert calls


def test_invalid_interval(engine, collector):
    with pytest.raises(ValueError):
        make_manager(engine, collector, interval=0)
