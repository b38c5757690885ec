"""Unit tests for the microservice queueing model."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.workloads.microservice import DemandPhase, Microservice, ServiceDemands
from repro.workloads.traces import ConstantTrace, StepTrace


DEMANDS = ServiceDemands(
    cpu_seconds=0.01,  # 100 rps per core
    disk_mb=0.1,
    net_mb=0.05,
    mem_base=0.25,
    mem_per_inflight=0.001,
    base_latency=0.01,
)

AMPLE = ResourceVector(cpu=4, memory=4, disk_bw=200, net_bw=200)


def deploy(engine, api, *, trace, demands=DEMANDS, allocation=AMPLE, replicas=1, **kw):
    svc = Microservice(
        "svc",
        engine,
        api,
        trace=trace,
        demands=demands,
        initial_allocation=allocation,
        initial_replicas=replicas,
        **kw,
    )
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(6.0)  # past startup delay
    return svc


class TestDemands:
    def test_capacity_cpu_bound(self):
        rate, bottleneck = DEMANDS.capacity(
            ResourceVector(cpu=1, memory=1, disk_bw=1e6, net_bw=1e6)
        )
        assert rate == pytest.approx(100.0)
        assert bottleneck == "cpu"

    def test_capacity_disk_bound(self):
        rate, bottleneck = DEMANDS.capacity(
            ResourceVector(cpu=100, memory=1, disk_bw=1, net_bw=1e6)
        )
        assert rate == pytest.approx(10.0)
        assert bottleneck == "disk_bw"

    def test_capacity_net_bound(self):
        rate, bottleneck = DEMANDS.capacity(
            ResourceVector(cpu=100, memory=1, disk_bw=1e6, net_bw=1)
        )
        assert rate == pytest.approx(20.0)
        assert bottleneck == "net_bw"

    def test_invalid_demands(self):
        with pytest.raises(ValueError):
            ServiceDemands(cpu_seconds=0)
        with pytest.raises(ValueError):
            ServiceDemands(cpu_seconds=0.01, disk_mb=-1)


class TestSteadyState:
    def test_light_load_low_latency(self, engine, api):
        svc = deploy(engine, api, trace=ConstantTrace(50))
        engine.run_until(60.0)
        assert svc.current_latency < 3 * DEMANDS.base_latency
        assert svc.current_throughput == pytest.approx(50, rel=0.05)
        assert svc.current_backlog < 1.0

    def test_overload_raises_latency_and_backlog(self, engine, api):
        tight = ResourceVector(cpu=0.5, memory=1, disk_bw=100, net_bw=100)  # 50 rps cap
        svc = deploy(engine, api, trace=ConstantTrace(100), allocation=tight)
        engine.run_until(60.0)
        assert svc.current_latency > 10 * DEMANDS.base_latency
        assert svc.current_backlog > 0
        # Served rate is pinned at capacity.
        assert svc.current_throughput == pytest.approx(50, rel=0.1)

    def test_usage_tracks_served_demand(self, engine, api):
        svc = deploy(engine, api, trace=ConstantTrace(100))
        engine.run_until(60.0)
        pod = svc.running_pods()[0]
        assert pod.usage.cpu == pytest.approx(1.0, rel=0.1)      # 100 rps × 0.01
        assert pod.usage.disk_bw == pytest.approx(10.0, rel=0.1)  # 100 × 0.1
        assert pod.usage.net_bw == pytest.approx(5.0, rel=0.1)

    def test_usage_never_exceeds_allocation(self, engine, api):
        tight = ResourceVector(cpu=0.5, memory=0.5, disk_bw=5, net_bw=5)
        svc = deploy(engine, api, trace=ConstantTrace(500), allocation=tight)
        engine.run_until(30.0)
        pod = svc.running_pods()[0]
        assert pod.usage.fits_within(pod.allocation)


class TestBottlenecks:
    def test_io_bound_service_reports_disk(self, engine, api):
        # 50 rps via disk
        alloc = ResourceVector(cpu=4, memory=4, disk_bw=5, net_bw=200)
        svc = deploy(engine, api, trace=ConstantTrace(100), allocation=alloc)
        engine.run_until(30.0)
        assert svc.current_bottleneck == "disk_bw"

    def test_memory_pressure_inflates_latency(self, engine, api):
        demands = ServiceDemands(
            cpu_seconds=0.001, mem_base=2.0, mem_per_inflight=0.01, base_latency=0.01
        )
        starved = ResourceVector(cpu=4, memory=1, disk_bw=100, net_bw=100)
        svc = deploy(engine, api, trace=ConstantTrace(100), demands=demands,
                     allocation=starved)
        engine.run_until(30.0)
        assert svc.current_bottleneck == "memory"
        assert svc.current_latency > 0.015


class TestReplicasAndPhases:
    def test_load_splits_across_replicas(self, engine, api):
        tight = ResourceVector(cpu=0.6, memory=1, disk_bw=100, net_bw=100)
        svc = deploy(
            engine, api, trace=ConstantTrace(100), allocation=tight, replicas=2
        )
        engine.run_until(60.0)
        # 50 rps per replica under a 60 rps cap: fine.
        assert svc.current_throughput == pytest.approx(100, rel=0.1)
        assert svc.current_latency < 0.1

    def test_no_replicas_reports_timeout(self, engine, api):
        svc = Microservice(
            "svc", engine, api,
            trace=ConstantTrace(100), demands=DEMANDS,
            initial_allocation=AMPLE, initial_replicas=0,
        )
        svc.start()
        engine.run_until(10.0)
        assert svc.current_latency == svc.max_latency
        assert svc.current_throughput == 0.0

    def test_demand_phase_shift(self, engine, api):
        phases = [
            DemandPhase(0.0, ServiceDemands(cpu_seconds=0.01, base_latency=0.01)),
            DemandPhase(100.0, ServiceDemands(cpu_seconds=0.04, base_latency=0.01)),
        ]
        svc = deploy(engine, api, trace=ConstantTrace(50), demands=phases)
        assert svc.demands_at(50.0).cpu_seconds == 0.01
        assert svc.demands_at(100.0).cpu_seconds == 0.04

    def test_empty_phases_rejected(self, engine, api):
        with pytest.raises(ValueError):
            Microservice(
                "svc", engine, api,
                trace=ConstantTrace(1), demands=[],
                initial_allocation=AMPLE,
            )

    def test_latency_recovers_after_load_drop(self, engine, api):
        tight = ResourceVector(cpu=0.5, memory=1, disk_bw=100, net_bw=100)
        trace = StepTrace([(0, 100), (60, 10)])
        svc = deploy(engine, api, trace=trace, allocation=tight)
        engine.run_until(59.0)
        overloaded = svc.current_latency
        engine.run_until(300.0)
        assert svc.current_latency < overloaded / 2

    def test_served_total_accumulates(self, engine, api):
        svc = deploy(engine, api, trace=ConstantTrace(50))
        engine.run_until(66.0)
        # ~60 seconds of running at 50 rps (startup delay excluded).
        assert svc.total_served == pytest.approx(50 * 60, rel=0.1)

    def test_metrics_exported(self, engine, api):
        svc = deploy(engine, api, trace=ConstantTrace(50))
        engine.run_until(30.0)
        metrics = svc.sample_metrics(engine.now)
        for key in ("latency", "throughput", "offered"):
            assert key in metrics
        assert svc.current_backlog >= 0.0
        assert svc.total_served > 0.0

    def test_invalid_tail_factor(self, engine, api):
        # The reported latency is the mean wait; there is no tail factor.
        with pytest.raises(TypeError):
            Microservice(
                "svc", engine, api, trace=ConstantTrace(1), demands=DEMANDS,
                initial_allocation=AMPLE, tail_factor=0.5,
            )


class TestArrivalDriven:
    """Open-loop arrival processes wired into the tick path."""

    def _arrivals(self, seed=0, rate=50.0):
        import numpy as np

        from repro.workloads.arrivals import PoissonArrivals

        return PoissonArrivals(
            ConstantTrace(rate), np.random.default_rng(seed)
        )

    def test_offered_tracks_the_event_stream(self, engine, api):
        svc = deploy(
            engine, api, trace=ConstantTrace(50.0),
            arrivals=self._arrivals(rate=50.0),
        )
        engine.run_until(300.0)
        # Offered load is events-per-tick, so it hovers at the rate.
        assert svc.current_offered == pytest.approx(50.0, rel=0.5)
        assert svc.total_served > 0

    def test_unmarked_process_keeps_series_set(self, engine, api):
        svc = deploy(
            engine, api, trace=ConstantTrace(20.0),
            arrivals=self._arrivals(rate=20.0),
        )
        engine.run_until(60.0)
        metrics = svc.sample_metrics(engine.now)
        assert "size_factor" not in metrics
        assert svc.current_size_factor == 1.0

    def test_marked_process_exports_size_factor(self, engine, api):
        import numpy as np

        from repro.workloads.arrivals import MarkedArrivals, ParetoSizes

        marked = MarkedArrivals(
            self._arrivals(rate=30.0),
            ParetoSizes(alpha=1.6),
            np.random.default_rng(1),
        )
        svc = deploy(
            engine, api, trace=ConstantTrace(30.0), arrivals=marked,
        )
        engine.run_until(120.0)
        metrics = svc.sample_metrics(engine.now)
        assert "size_factor" in metrics
        assert metrics["size_factor"] > 0.0

    def test_rate_fallback_without_arrivals(self, engine, api):
        svc = deploy(engine, api, trace=ConstantTrace(25.0))
        engine.run_until(60.0)
        assert svc.current_offered == pytest.approx(25.0)
