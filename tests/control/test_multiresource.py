"""Unit tests for the multi-resource controller."""

import pytest

from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.estimator import SaturationSnapshot
from repro.control.multiresource import (
    RECLAIM_CAUTION,
    AllocationBounds,
    MultiResourceController,
)
from repro.control.pid import PIDGains


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=32, disk_bw=400, net_bw=1000),
)
CURRENT = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)


def snap(**kwargs):
    fractions = {name: 0.3 for name in RESOURCES}
    fractions.update(kwargs)
    return SaturationSnapshot(fractions)


def make(**kwargs):
    kwargs.setdefault("deadband", 0.1)
    return MultiResourceController(PIDGains(kp=1.0), BOUNDS, **kwargs)


class TestBounds:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            AllocationBounds(
                minimum=ResourceVector(cpu=2), maximum=ResourceVector(cpu=1)
            )

    def test_at_ceiling(self):
        alloc = BOUNDS.maximum.replace(cpu=8)
        assert BOUNDS.at_ceiling(alloc, "cpu")
        assert not BOUNDS.at_ceiling(CURRENT, "cpu")

    def test_near_floor(self):
        assert BOUNDS.near_floor(BOUNDS.minimum)
        assert not BOUNDS.near_floor(BOUNDS.maximum)


class TestDecide:
    def test_violation_grows_bottleneck_dim(self):
        ctrl = make(adaptive=False)
        decision = ctrl.decide(1.0, snap(cpu=0.98), CURRENT, dt=10.0)
        assert decision.action == "grow"
        assert decision.new_allocation.cpu > CURRENT.cpu
        assert decision.new_allocation.memory == CURRENT.memory

    def test_overachieving_reclaims_idle_dims(self):
        ctrl = make(adaptive=False)
        decision = ctrl.decide(-0.5, snap(cpu=0.9, disk_bw=0.05), CURRENT, dt=10.0)
        assert decision.action == "reclaim"
        assert decision.new_allocation.disk_bw < CURRENT.disk_bw
        assert decision.new_allocation.cpu == CURRENT.cpu  # busy dim untouched

    def test_deadband_holds(self):
        ctrl = make(adaptive=False, deadband=0.2)
        decision = ctrl.decide(0.1, snap(cpu=0.99), CURRENT, dt=10.0)
        assert decision.action == "hold"
        assert decision.new_allocation == CURRENT

    def test_clamped_to_bounds(self):
        ctrl = make(adaptive=False)
        at_max = BOUNDS.maximum
        decision = ctrl.decide(2.0, snap(cpu=1.0), at_max, dt=10.0)
        assert decision.action == "hold"  # nothing can change
        assert decision.new_allocation == at_max

    def test_reclaim_never_below_minimum(self):
        ctrl = make(adaptive=False)
        near_min = BOUNDS.minimum * 1.05
        for _ in range(20):
            decision = ctrl.decide(-1.0, snap(), near_min, dt=10.0)
            near_min = decision.new_allocation
        assert BOUNDS.minimum.fits_within(near_min)

    def test_single_dimension_ablation_ignores_other_dims(self):
        ctrl = make(adaptive=False, dimensions=("cpu",))
        # Disk is the bottleneck but controller may only touch CPU.
        decision = ctrl.decide(1.0, snap(disk_bw=1.0), CURRENT, dt=10.0)
        assert decision.new_allocation.disk_bw == CURRENT.disk_bw
        assert decision.action == "hold"  # nothing it can do

    def test_single_dimension_grows_its_own_dim(self):
        ctrl = make(adaptive=False, dimensions=("cpu",))
        decision = ctrl.decide(1.0, snap(cpu=1.0), CURRENT, dt=10.0)
        assert decision.action == "grow"
        assert decision.new_allocation.cpu > CURRENT.cpu

    def test_reclaim_caution_damps_shrink(self):
        d = make(adaptive=False).decide(-0.8, snap(), CURRENT, dt=10.0)
        assert d.action == "reclaim"
        effort = d.output * RECLAIM_CAUTION * d.weights["cpu"]
        assert d.new_allocation.cpu == pytest.approx(CURRENT.cpu * (1 + effort))
        # An undamped reclaim would have shrunk further.
        assert d.new_allocation.cpu > CURRENT.cpu * (1 + effort / RECLAIM_CAUTION)

    def test_adaptive_scales_gains_on_persistent_error(self):
        ctrl = make(adaptive=True)
        for _ in range(6):
            decision = ctrl.decide(0.8, snap(cpu=1.0), CURRENT, dt=10.0)
        assert decision.gain_scale > 1.0

    def test_nonadaptive_keeps_scale_one(self):
        ctrl = make(adaptive=False)
        for _ in range(6):
            decision = ctrl.decide(0.8, snap(cpu=1.0), CURRENT, dt=10.0)
        assert decision.gain_scale == 1.0

    def test_grow_factor_floor_prevents_collapse(self):
        ctrl = make(adaptive=False)
        decision = ctrl.decide(-10.0, snap(), CURRENT, dt=10.0)
        for name in RESOURCES:
            assert decision.new_allocation[name] >= CURRENT[name] * 0.05 - 1e-9

    def test_decision_counter(self):
        ctrl = make()
        ctrl.decide(0.5, snap(cpu=1.0), CURRENT, dt=10.0)
        ctrl.decide(0.5, snap(cpu=1.0), CURRENT, dt=10.0)
        assert ctrl.decisions == 2

    def test_rejected_call_is_not_counted(self):
        # HA snapshots export the counter, so a call that raises must not
        # move it.
        ctrl = make()
        ctrl.decide(0.5, snap(cpu=1.0), CURRENT, dt=10.0)
        with pytest.raises(ValueError, match="feedforward"):
            ctrl.decide(0.5, snap(cpu=1.0), CURRENT, dt=10.0, feedforward=-0.1)
        assert ctrl.decisions == 1
        assert ctrl.export_state()["decisions"] == 1
        assert ctrl.pid.updates == 1

    def test_reset(self):
        ctrl = make()
        ctrl.decide(1.0, snap(cpu=1.0), CURRENT, dt=10.0)
        ctrl.reset()
        assert ctrl.pid.last_output == 0.0
        assert ctrl.tuner.scale == 1.0


class TestValidation:
    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            make(dimensions=("gpu",))

    def test_empty_dimensions(self):
        with pytest.raises(ValueError):
            make(dimensions=())

    def test_negative_deadband(self):
        with pytest.raises(ValueError):
            make(deadband=-0.1)

    def test_invalid_reclaim_caution(self):
        # Reclaim caution is the constant RECLAIM_CAUTION.
        with pytest.raises(TypeError):
            make(reclaim_caution=0.0)
