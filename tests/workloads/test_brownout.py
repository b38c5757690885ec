"""Unit tests for the microservice brownout (degraded-tier) surface."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.traces import ConstantTrace


DEMANDS = ServiceDemands(
    cpu_seconds=0.01,
    disk_mb=0.1,
    net_mb=0.05,
    mem_base=0.25,
    mem_per_inflight=0.001,
    base_latency=0.01,
)

AMPLE = ResourceVector(cpu=4, memory=4, disk_bw=200, net_bw=200)
TIGHT = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)


def deploy(engine, api, *, rate=100.0, allocation=AMPLE):
    svc = Microservice(
        "svc", engine, api,
        trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=allocation, initial_replicas=1,
    )
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(6.0)  # past startup delay
    return svc


class TestBrownoutSurface:
    def test_capable_and_inactive_by_default(self, engine, api, cluster):
        svc = deploy(engine, api)
        assert svc.brownout_capable
        assert not svc.brownout_active
        assert svc.brownouts_entered == 0

    def test_factor_validation(self, engine, api, cluster):
        svc = deploy(engine, api)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                svc.enter_brownout(factor=bad, latency_penalty=0.0)
        with pytest.raises(ValueError):
            svc.enter_brownout(factor=0.5, latency_penalty=-0.01)

    def test_enter_exit_roundtrip(self, engine, api, cluster):
        svc = deploy(engine, api)
        svc.enter_brownout(factor=0.5, latency_penalty=0.02)
        assert svc.brownout_active and svc.brownouts_entered == 1
        svc.exit_brownout()
        assert not svc.brownout_active
        svc.enter_brownout(factor=0.5, latency_penalty=0.02)
        assert svc.brownouts_entered == 2


class TestDegradedDemands:
    def test_scales_rate_demands_only(self, engine, api, cluster):
        svc = deploy(engine, api)
        svc.enter_brownout(factor=0.5, latency_penalty=0.0)
        degraded = svc._degraded_demands(DEMANDS)
        assert degraded.cpu_seconds == pytest.approx(0.005)
        assert degraded.disk_mb == pytest.approx(0.05)
        assert degraded.net_mb == pytest.approx(0.025)
        # Memory footprint and intrinsic latency are not tier-dependent.
        assert degraded.mem_base == DEMANDS.mem_base
        assert degraded.mem_per_inflight == DEMANDS.mem_per_inflight
        assert degraded.base_latency == DEMANDS.base_latency

    def test_cached_per_demands_and_factor(self, engine, api, cluster):
        svc = deploy(engine, api)
        svc.enter_brownout(factor=0.5, latency_penalty=0.0)
        first = svc._degraded_demands(DEMANDS)
        assert svc._degraded_demands(DEMANDS) is first
        svc.enter_brownout(factor=0.25, latency_penalty=0.0)
        second = svc._degraded_demands(DEMANDS)
        assert second is not first
        assert second.cpu_seconds == pytest.approx(0.0025)

    def test_degraded_tier_raises_capacity(self, engine, api, cluster):
        """Halving per-request demand doubles what a saturated replica
        can serve — the whole point of browning out."""
        svc = deploy(engine, api, rate=250.0, allocation=TIGHT)
        engine.run_until(60.0)
        saturated = svc.current_throughput
        svc.enter_brownout(factor=0.5, latency_penalty=0.0)
        engine.run_until(120.0)
        assert svc.current_throughput > saturated * 1.5


class TestBrownoutDynamics:
    def test_brownout_seconds_accumulate_only_while_active(
        self, engine, api, cluster
    ):
        svc = deploy(engine, api)
        engine.run_until(50.0)
        assert svc.brownout_seconds == 0.0
        svc.enter_brownout(factor=0.5, latency_penalty=0.0)
        engine.run_until(80.0)
        in_brownout = svc.brownout_seconds
        assert in_brownout == pytest.approx(30.0, abs=2.0)
        svc.exit_brownout()
        engine.run_until(120.0)
        assert svc.brownout_seconds == in_brownout

    def test_latency_penalty_applied_while_active(self, engine, api, cluster):
        svc = deploy(engine, api)
        engine.run_until(50.0)
        baseline = svc.current_latency
        svc.enter_brownout(factor=1.0, latency_penalty=0.05)
        engine.run_until(100.0)
        assert svc.current_latency == pytest.approx(baseline + 0.05, rel=0.1)
        svc.exit_brownout()
        engine.run_until(150.0)
        assert svc.current_latency == pytest.approx(baseline, rel=0.1)

    def test_penalty_clamped_to_max_latency(self, engine, api, cluster):
        svc = deploy(engine, api)
        svc.enter_brownout(factor=1.0, latency_penalty=1e9)
        engine.run_until(50.0)
        assert svc.current_latency <= svc.max_latency


class TestBrownoutMetrics:
    """The brownout state, read through the service's attributes."""

    def test_series_absent_until_first_brownout(self, engine, api, cluster):
        svc = deploy(engine, api)
        engine.run_until(30.0)
        assert svc.brownouts_entered == 0
        assert svc.brownout_seconds == 0.0

    def test_series_present_after_entry_and_after_exit(
        self, engine, api, cluster
    ):
        svc = deploy(engine, api)
        svc.enter_brownout(factor=0.5, latency_penalty=0.0)
        engine.run_until(30.0)
        assert svc.brownout_active
        browned = svc.brownout_seconds
        assert browned > 0.0
        svc.exit_brownout()
        engine.run_until(40.0)
        # After the exit the count and the browned-out time stay.
        assert not svc.brownout_active
        assert svc.brownouts_entered == 1
        assert svc.brownout_seconds == browned
