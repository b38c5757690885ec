"""Unit + integration tests for feedforward load anticipation."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.control.feedforward import LIMIT, THRESHOLD, FeedforwardScaler
from repro.control.multiresource import AllocationBounds, MultiResourceController
from repro.control.pid import PIDGains
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=32, disk_bw=400, net_bw=1000),
)


class TestFeedforwardScaler:
    @pytest.fixture(autouse=True)
    def declared(self, collector):
        collector.declare("app/svc/offered")

    def _app(self, engine, api):
        app = Microservice(
            "svc", engine, api, trace=ConstantTrace(1),
            demands=ServiceDemands(cpu_seconds=0.01),
            initial_allocation=ResourceVector(cpu=1, memory=1),
        )
        return app

    def test_no_series_no_signal(self, engine, api, collector):
        ff = FeedforwardScaler(collector)
        assert ff.signal(self._app(engine, api), 100.0) == 0.0

    def test_flat_load_no_signal(self, engine, api, collector):
        ff = FeedforwardScaler(collector)
        for t in (10.0, 20.0, 30.0):
            engine.run_until(t)
            collector.record("app/svc/offered", 100.0)
        assert ff.signal(self._app(engine, api), 30.0) == 0.0

    def test_surge_produces_signal(self, engine, api, collector):
        ff = FeedforwardScaler(collector)
        for t in (10.0, 20.0):
            engine.run_until(t)
            collector.record("app/svc/offered", 100.0)
        engine.run_until(30.0)
        collector.record("app/svc/offered", 200.0)
        signal = ff.signal(self._app(engine, api), 30.0)
        assert signal > THRESHOLD
        assert ff.activations == 1

    def test_signal_clamped(self, engine, api, collector):
        ff = FeedforwardScaler(collector)
        engine.run_until(10.0)
        collector.record("app/svc/offered", 10.0)
        engine.run_until(20.0)
        collector.record("app/svc/offered", 1000.0)
        assert ff.signal(self._app(engine, api), 20.0) == LIMIT

    def test_load_drop_ignored(self, engine, api, collector):
        ff = FeedforwardScaler(collector)
        engine.run_until(10.0)
        collector.record("app/svc/offered", 200.0)
        engine.run_until(20.0)
        collector.record("app/svc/offered", 20.0)
        assert ff.signal(self._app(engine, api), 20.0) == 0.0

    def test_invalid_params(self, collector):
        # Gain, threshold, limit, window and hold are constants.
        with pytest.raises(TypeError):
            FeedforwardScaler(collector, gain=-1)
        with pytest.raises(TypeError):
            FeedforwardScaler(collector, limit=0)


class TestControllerIntegration:
    def test_feedforward_triggers_grow_inside_deadband(self):
        from repro.control.estimator import SaturationSnapshot
        ctrl = MultiResourceController(PIDGains(kp=1.0), BOUNDS, deadband=0.2)
        snapshot = SaturationSnapshot(
            {"cpu": 0.95, "memory": 0.3, "disk_bw": 0.3, "net_bw": 0.3}
        )
        current = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)
        calm = ctrl.decide(0.0, snapshot, current, dt=10.0)
        assert calm.action == "hold"
        boosted = ctrl.decide(0.0, snapshot, current, dt=10.0, feedforward=0.5)
        assert boosted.action == "grow"
        assert boosted.new_allocation.cpu > current.cpu

    def test_negative_feedforward_rejected(self):
        from repro.control.estimator import SaturationSnapshot
        ctrl = MultiResourceController(PIDGains(kp=1.0), BOUNDS)
        snap = SaturationSnapshot(
            {r: 0.5 for r in ("cpu", "memory", "disk_bw", "net_bw")}
        )
        with pytest.raises(ValueError):
            ctrl.decide(0.0, snap, BOUNDS.minimum, dt=1.0, feedforward=-0.1)


@pytest.mark.slow
def test_feedforward_cuts_surge_violations():
    """End to end: anticipation reduces the violation burst of a surge.

    A flash crowd ramps load over ~2 minutes: the feedforward term sees
    the offered-rate climb and grows allocations while the latency
    percentile still looks healthy; pure feedback starts a control
    period later and eats more violation-seconds.
    """
    from repro.workloads.traces import CompositeTrace, FlashCrowdTrace

    def run(feedforward: bool):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=4),
            config=PlatformConfig(seed=6),
            policy="adaptive",
            policy_kwargs={"horizontal": False, "feedforward": feedforward},
        )
        platform.deploy_microservice(
            "svc",
            trace=CompositeTrace([
                ConstantTrace(60.0),
                FlashCrowdTrace(start_time=1800.0, peak_rate=400.0,
                                rise=90.0, decay=1200.0),
            ]),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=1, memory=1.5, disk_bw=20, net_bw=20),
            plo=LatencyPLO(0.05, window=30),
        )
        platform.run(3600.0)
        return platform.result().trackers["svc"].violation_seconds

    with_ff = run(True)
    without = run(False)
    assert with_ff < without
