"""Unit tests for the adaptive autoscaler and horizontal escape valve."""

import pytest

from repro.autoscaler.adaptive import (
    COOLDOWN,
    MAX_REPLICAS,
    MIN_REPLICAS,
    SCALE_OUT_ERROR,
    AdaptiveAutoscaler,
    HorizontalEscapePolicy,
)
from repro.autoscaler.static import StaticPolicy
from repro.cluster.resources import ResourceVector
from repro.control.multiresource import (
    AllocationBounds,
    ControlDecision,
    MultiResourceController,
)
from repro.control.pid import PIDGains
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace
from tests.conftest import control_wiring


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=2, memory=4, disk_bw=100, net_bw=100),
)
DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def controller():
    return MultiResourceController(PIDGains(kp=1.0), BOUNDS)


def decision(action, error, weights=None, alloc=None):
    return ControlDecision(
        action=action,
        new_allocation=alloc or ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20),
        error=error,
        output=error,
        gain_scale=1.0,
        weights=weights or {},
    )


class FakeApp:
    def __init__(self, replicas=1, allocation=None):
        self.name = "fake"
        self.replica_count = replicas
        self._allocation = allocation or ResourceVector(
            cpu=1, memory=1, disk_bw=20, net_bw=20
        )

    def current_allocation(self):
        return self._allocation


class TestEscapePolicy:
    def test_scale_out_when_railed(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=1, allocation=BOUNDS.maximum)
        d = decision("hold", error=0.5, weights={"cpu": 1.0})
        assert policy.adjust(app, d, controller()) == 2
        assert policy.scale_outs == 1

    def test_no_scale_out_with_vertical_headroom(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=1)  # allocation well below ceiling
        d = decision("grow", error=0.5, weights={"cpu": 1.0})
        assert policy.adjust(app, d, controller()) == 1

    def test_no_scale_out_on_small_error(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=1, allocation=BOUNDS.maximum)
        d = decision("hold", error=SCALE_OUT_ERROR / 2, weights={"cpu": 1.0})
        assert policy.adjust(app, d, controller()) == 1

    def test_scale_in_near_floor(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=3, allocation=BOUNDS.minimum * 1.1)
        d = decision("hold", error=-0.6)
        assert policy.adjust(app, d, controller()) == 2
        assert policy.scale_ins == 1

    def test_no_scale_in_below_min_replicas(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=MIN_REPLICAS, allocation=BOUNDS.minimum)
        d = decision("hold", error=-0.9)
        assert policy.adjust(app, d, controller()) == MIN_REPLICAS

    def test_max_replicas_cap(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=MAX_REPLICAS, allocation=BOUNDS.maximum)
        d = decision("hold", error=0.9, weights={"cpu": 1.0})
        assert policy.adjust(app, d, controller()) == MAX_REPLICAS

    def test_cooldown_blocks_consecutive_changes(self, engine):
        policy = HorizontalEscapePolicy(engine)
        app = FakeApp(replicas=1, allocation=BOUNDS.maximum)
        d = decision("hold", error=0.9, weights={"cpu": 1.0})
        assert policy.adjust(app, d, controller()) == 2
        app.replica_count = 2
        assert policy.adjust(app, d, controller()) == 2  # cooling down
        engine.run_until(COOLDOWN + 1.0)
        assert policy.adjust(app, d, controller()) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_replicas": 0},
            {"min_replicas": 5, "max_replicas": 1},
            {"scale_out_error": -0.1},
            {"scale_in_error": 0.1},
        ],
    )
    def test_invalid_params(self, engine, kwargs):
        # The clamp, thresholds and cooldown are constants, not options.
        with pytest.raises(TypeError):
            HorizontalEscapePolicy(engine, **kwargs)


class TestAdaptiveAutoscaler:
    def _deploy(self, engine, api, collector, *, rate, cpu):
        svc = Microservice(
            "svc", engine, api, trace=ConstantTrace(rate), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=cpu, memory=1, disk_bw=20, net_bw=20),
        )
        svc.plo = LatencyPLO(0.05, window=20)
        svc.start()
        collector.register(svc)
        collector.start()
        autoscaler = AdaptiveAutoscaler(
            engine, collector, bounds=BOUNDS, **control_wiring(collector)
        )
        autoscaler.attach(svc)
        autoscaler.start()
        engine.every(
            1.0,
            lambda: [
                api.bind_pod(p.name, "node-0") for p in api.pending_pods()
            ],
        )
        return svc, autoscaler

    def test_end_to_end_escape_to_horizontal(self, engine, api, collector):
        """Load needs ~3 cores but the ceiling is 2: vertical rails out and
        the escape valve must add replicas."""
        svc, autoscaler = self._deploy(engine, api, collector, rate=300.0, cpu=0.5)
        engine.run_until(900.0)
        assert svc.replica_count >= 2
        assert autoscaler.escape.scale_outs >= 1
        assert svc.current_latency < 0.1

    def test_ablation_switches_propagate(self, engine, api, collector):
        autoscaler = AdaptiveAutoscaler(
            engine, collector, bounds=BOUNDS, adaptive=False, dimensions=("cpu",),
            **control_wiring(collector),
        )
        svc = Microservice(
            "svc", engine, api, trace=ConstantTrace(1), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=1, memory=1),
        )
        svc.plo = LatencyPLO(0.05)
        ctrl = autoscaler.attach(svc)
        assert ctrl.adaptive is False
        assert ctrl.dimensions == ("cpu",)

    def test_static_policy_does_nothing(self, engine, api, collector):
        svc = Microservice(
            "svc", engine, api, trace=ConstantTrace(500), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=0.2, memory=1, disk_bw=20, net_bw=20),
        )
        svc.start()
        for pod in api.pending_pods():
            api.bind_pod(pod.name, "node-0")
        policy = StaticPolicy(engine, collector)
        policy.attach(svc)
        policy.start()
        engine.run_until(120.0)
        assert svc.current_allocation().cpu == 0.2
        assert svc.replica_count == 1
