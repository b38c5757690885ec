"""Property-based tests for the control stack."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.adaptive import SCALE_BOUNDS, AdaptiveGainTuner
from repro.control.estimator import (
    GROW_THRESHOLD,
    BottleneckEstimator,
    SaturationSnapshot,
)
from repro.control.multiresource import AllocationBounds, MultiResourceController
from repro.control.pid import PIDGains


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=32, disk_bw=400, net_bw=1000),
)

errors = st.floats(min_value=-5.0, max_value=50.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0)
snapshots = st.builds(
    lambda c, m, d, n: SaturationSnapshot(
        {"cpu": c, "memory": m, "disk_bw": d, "net_bw": n}
    ),
    fractions, fractions, fractions, fractions,
)


class TestControllerProperties:
    @settings(max_examples=80, deadline=None)
    @given(seq=st.lists(st.tuples(errors, snapshots), min_size=1, max_size=30))
    def test_allocation_always_within_bounds(self, seq):
        ctrl = MultiResourceController(PIDGains(kp=1.0, ki=0.1), BOUNDS)
        current = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)
        for error, snapshot in seq:
            decision = ctrl.decide(error, snapshot, current, dt=10.0)
            current = decision.new_allocation
            assert BOUNDS.minimum.fits_within(current)
            assert current.fits_within(BOUNDS.maximum)

    @settings(max_examples=80, deadline=None)
    @given(error=errors, snapshot=snapshots)
    def test_hold_never_changes_allocation(self, error, snapshot):
        ctrl = MultiResourceController(PIDGains(kp=1.0), BOUNDS)
        current = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)
        decision = ctrl.decide(error, snapshot, current, dt=10.0)
        if decision.action == "hold":
            assert decision.new_allocation == current

    @settings(max_examples=80, deadline=None)
    @given(error=st.floats(0.2, 50.0), snapshot=snapshots)
    def test_grow_never_shrinks_any_dimension(self, error, snapshot):
        ctrl = MultiResourceController(PIDGains(kp=1.0), BOUNDS)
        current = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)
        decision = ctrl.decide(error, snapshot, current, dt=10.0)
        if decision.action == "grow":
            for name in RESOURCES:
                assert decision.new_allocation[name] >= current[name] - 1e-9

    @settings(max_examples=80, deadline=None)
    @given(error=st.floats(-5.0, -0.2), snapshot=snapshots)
    def test_reclaim_never_grows_any_dimension(self, error, snapshot):
        ctrl = MultiResourceController(PIDGains(kp=1.0), BOUNDS)
        current = ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=50)
        # Drain PID state first so the output sign follows the error.
        decision = ctrl.decide(error, snapshot, current, dt=10.0)
        if decision.action == "reclaim":
            for name in RESOURCES:
                assert decision.new_allocation[name] <= current[name] + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seq=st.lists(errors, min_size=1, max_size=40))
    def test_tuner_scale_always_within_bounds(self, seq):
        tuner = AdaptiveGainTuner()
        lo, hi = SCALE_BOUNDS
        for error in seq:
            scale = tuner.update(error)
            assert lo <= scale <= hi


class TestEstimatorProperties:
    @settings(max_examples=100, deadline=None)
    @given(snapshot=snapshots)
    def test_weights_always_in_unit_interval(self, snapshot):
        estimator = BottleneckEstimator()
        for weights in (
            estimator.grow_weights(snapshot),
            estimator.reclaim_weights(snapshot),
        ):
            assert set(weights) == set(RESOURCES)
            assert all(0.0 <= w <= 1.0 for w in weights.values())

    @settings(max_examples=100, deadline=None)
    @given(snapshot=snapshots)
    def test_grow_weights_never_empty(self, snapshot):
        """The controller can always act on a violation."""
        weights = BottleneckEstimator().grow_weights(snapshot)
        assert any(w > 0 for w in weights.values())

    @settings(max_examples=100, deadline=None)
    @given(snapshot=snapshots)
    def test_grow_and_reclaim_disjoint_outside_fallback(self, snapshot):
        """No dimension is simultaneously grown and reclaimed — except in
        the fallback regime (nothing saturated), where grow falls back to
        the most-saturated dimension; the two sets are never used in the
        same control period, so overlap there is harmless by design."""
        estimator = BottleneckEstimator()
        if all(
            f < GROW_THRESHOLD for f in snapshot.fractions.values()
        ):
            return
        grow = estimator.grow_weights(snapshot)
        reclaim = estimator.reclaim_weights(snapshot)
        for name in RESOURCES:
            assert not (grow[name] > 0 and reclaim[name] > 0)
