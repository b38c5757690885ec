"""Unit + closed-loop tests for the stream-processing workload."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.workloads.plo import LatencyPLO
from repro.workloads.stream import Operator, StreamJob
from repro.workloads.traces import ConstantTrace, StepTrace


CHAIN = [
    Operator("parse", cpu_seconds=0.002),
    Operator("filter", cpu_seconds=0.001, selectivity=0.2),
    Operator("window", cpu_seconds=0.01, state_mb_per_eps=2.0),
]
ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=10, net_bw=50)


def deploy(engine, api, *, trace, workers=1, allocation=ALLOC, **kw):
    job = StreamJob(
        "pipe", engine, api, trace=trace, operators=CHAIN,
        initial_allocation=allocation, initial_workers=workers, **kw,
    )
    job.start()
    nodes = [n.name for n in api.list_nodes()]
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, nodes[i % len(nodes)])
    engine.run_until(6.0)
    return job


class TestChainMath:
    def test_fused_cost_uses_selectivity(self, engine, api):
        job = deploy(engine, api, trace=ConstantTrace(1))
        # parse 0.002 + filter 0.001 + window 0.01×0.2 = 0.005 per event.
        assert job.cpu_per_event == pytest.approx(0.005)
        assert job.output_selectivity == pytest.approx(0.2)
        # window state discounted by upstream selectivity.
        assert job.state_mb_per_eps == pytest.approx(0.4)

    def test_validation(self, engine, api):
        with pytest.raises(ValueError, match="operator"):
            Operator("bad", cpu_seconds=-1)
        with pytest.raises(ValueError, match="selectivity"):
            Operator("bad", cpu_seconds=0.1, selectivity=0)
        with pytest.raises(ValueError, match="at least one"):
            StreamJob("s", engine, api, trace=ConstantTrace(1), operators=[],
                      initial_allocation=ALLOC)
        with pytest.raises(ValueError, match="duplicate"):
            StreamJob("s", engine, api, trace=ConstantTrace(1),
                      operators=[Operator("a", 0.1), Operator("a", 0.1)],
                      initial_allocation=ALLOC)


class TestDynamics:
    def test_keeps_up_under_capacity(self, engine, api):
        # Capacity: 2 cores / 0.005 = 400 eps; offered 200.
        job = deploy(engine, api, trace=ConstantTrace(200))
        engine.run_until(60.0)
        assert job.current_rate == pytest.approx(200, rel=0.05)
        assert job.current_lag_seconds < 0.5
        assert job.lag_events < 50

    def test_overload_accumulates_lag(self, engine, api):
        job = deploy(engine, api, trace=ConstantTrace(800))
        engine.run_until(66.0)
        # Processes at capacity (~400 eps); lag grows at ~400 eps while
        # running, plus the full 800 eps over the ~5 s startup window.
        assert job.current_rate == pytest.approx(400, rel=0.1)
        assert job.lag_events == pytest.approx(800 * 5 + 400 * 61, rel=0.15)
        assert job.current_lag_seconds > 30

    def test_lag_drains_after_load_drop(self, engine, api):
        job = deploy(engine, api, trace=StepTrace([(0, 800), (60, 100)]))
        engine.run_until(66.0)
        peak_lag = job.lag_events
        engine.run_until(200.0)
        assert job.lag_events < peak_lag / 4

    def test_ingest_bandwidth_bounds_capacity(self, engine, api):
        # net 50 MB/s / 1 MB/event = 50 eps despite ample CPU.
        job = deploy(engine, api, trace=ConstantTrace(200), event_mb=1.0)
        engine.run_until(60.0)
        assert job.current_rate == pytest.approx(50, rel=0.1)

    def test_memory_pressure_degrades_capacity(self, engine, api):
        lean = ALLOC.replace(memory=0.6)
        # state 0.4 MB/eps × 400 eps /1024 ≈ 0.16 GiB + base 0.5 > 0.6.
        job = deploy(engine, api, trace=ConstantTrace(500), allocation=lean)
        engine.run_until(60.0)
        assert job.current_rate < 400

    def test_usage_reflects_processing(self, engine, api):
        job = deploy(engine, api, trace=ConstantTrace(200), event_mb=0.05)
        engine.run_until(60.0)
        pod = job.running_pods()[0]
        assert pod.usage.cpu == pytest.approx(200 * 0.005, rel=0.1)
        assert pod.usage.net_bw == pytest.approx(200 * 0.05, rel=0.1)

    def test_no_workers_lag_at_ceiling(self, engine, api):
        job = StreamJob(
            "pipe", engine, api, trace=ConstantTrace(100), operators=CHAIN,
            initial_allocation=ALLOC, initial_workers=0,
        )
        job.start()
        engine.run_until(30.0)
        assert job.current_lag_seconds == job.max_lag_seconds
        assert job.lag_events > 0

    def test_metrics_exported(self, engine, api):
        job = deploy(engine, api, trace=ConstantTrace(100))
        engine.run_until(30.0)
        metrics = job.sample_metrics(engine.now)
        for key in ("latency", "throughput", "offered"):
            assert key in metrics
        # The watermark delay is the latency gauge; lag and output rate
        # are read through the job's attributes.
        assert metrics["latency"] == job.current_lag_seconds
        assert job.lag_events >= 0.0
        assert job.current_rate * job.output_selectivity == pytest.approx(
            metrics["throughput"] * 0.2, rel=0.01
        )


class TestClosedLoop:
    def test_adaptive_controller_bounds_lag(self):
        """The standard controller manages a stream job unmodified: a lag
        PLO of 5 s under a 4× input surge."""
        from repro.platform.config import ClusterSpec, PlatformConfig
        from repro.platform.evolve import EvolvePlatform

        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=4),
            config=PlatformConfig(seed=12),
            policy="adaptive",
        )
        job = StreamJob(
            "pipe", platform.engine, platform.api,
            trace=StepTrace([(0, 150), (900, 600)]),
            operators=CHAIN,
            initial_allocation=ResourceVector(cpu=1, memory=2, disk_bw=10,
                                              net_bw=50),
            initial_workers=1,
        )
        job.plo = LatencyPLO(5.0, window=30)
        platform.apps[job.name] = job
        job.maintain_replicas = True
        platform.collector.register(job)
        platform.monitor.track(job)
        platform.policy.attach(job)
        job.start()
        platform.run(2 * 3600.0)
        tracker = platform.result().trackers["pipe"]
        assert job.current_lag_seconds < 5.0
        assert tracker.violation_fraction < 0.15
        # The controller actually had to grow something.
        assert job.current_allocation().cpu > 1.0 or job.replica_count > 1
