"""Unit + property tests for load traces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    NoisyTrace,
    RampTrace,
    ScaledTrace,
    StepTrace,
)

times = st.floats(min_value=0, max_value=86_400, allow_nan=False)


class TestConstant:
    def test_value(self):
        assert ConstantTrace(5.0).rate(123) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantTrace(-1)


class TestStep:
    def test_initial_before_first_step(self):
        trace = StepTrace([(0, 1), (10, 5)])
        assert trace.rate(0) == 1
        assert trace.rate(10) == 5
        assert trace.rate(100) == 5

    def test_multiple_steps(self):
        trace = StepTrace([(10, 5), (20, 2)])
        assert trace.rate(15) == 5
        assert trace.rate(25) == 2

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([(20, 1), (10, 2)])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([(10, -5)])


class TestRamp:
    def test_endpoints_and_midpoint(self):
        trace = RampTrace(10, 20, 0, 100)
        assert trace.rate(5) == 0
        assert trace.rate(15) == pytest.approx(50)
        assert trace.rate(25) == 100

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RampTrace(10, 10, 0, 1)


class TestDiurnal:
    def test_period_and_amplitude(self):
        trace = DiurnalTrace(base=100, amplitude=50, period=100)
        assert trace.rate(0) == pytest.approx(100)
        assert trace.rate(25) == pytest.approx(150)
        assert trace.rate(75) == pytest.approx(50)

    def test_clipped_at_zero(self):
        trace = DiurnalTrace(base=10, amplitude=100, period=100)
        assert trace.rate(75) == 0.0

    @given(times)
    def test_never_negative(self, t):
        trace = DiurnalTrace(base=10, amplitude=100)
        assert trace.rate(t) >= 0


class TestFlashCrowd:
    def test_zero_before_start(self):
        trace = FlashCrowdTrace(100, peak_rate=50)
        assert trace.rate(99) == 0.0

    def test_rises_then_decays(self):
        trace = FlashCrowdTrace(0, peak_rate=100, rise=10, decay=1000)
        early, peak, late = trace.rate(1), trace.rate(40), trace.rate(5000)
        assert early < peak
        assert late < peak

    @given(times)
    def test_never_negative(self, t):
        trace = FlashCrowdTrace(100, peak_rate=50)
        assert trace.rate(t) >= 0


class TestBursty:
    def test_base_when_no_burst(self):
        rng = np.random.default_rng(1)
        trace = BurstyTrace(10, burst_rate=1e-9, horizon=1000, rng=rng)
        assert trace.rate(500) == 10

    def test_burst_multiplies(self):
        rng = np.random.default_rng(1)
        trace = BurstyTrace(
            10, burst_factor=3, burst_rate=1 / 100, burst_duration=50,
            horizon=10_000, rng=rng,
        )
        assert trace.burst_times, "expected at least one burst"
        t = trace.burst_times[0] + 1
        assert trace.rate(t) == 30

    def test_deterministic_given_rng(self):
        a = BurstyTrace(10, rng=np.random.default_rng(7))
        b = BurstyTrace(10, rng=np.random.default_rng(7))
        assert a.burst_times == b.burst_times


class TestNoisy:
    def test_mean_preserving_roughly(self):
        trace = NoisyTrace(
            ConstantTrace(100), rel_std=0.1, bucket=1, horizon=10_000,
            rng=np.random.default_rng(3),
        )
        values = [trace.rate(t) for t in range(10_000)]
        assert np.mean(values) == pytest.approx(100, rel=0.05)

    def test_beyond_horizon_falls_back_to_base(self):
        trace = NoisyTrace(
            ConstantTrace(100), horizon=100, rng=np.random.default_rng(0)
        )
        assert trace.rate(1e9) == 100

    @given(times)
    def test_never_negative(self, t):
        trace = NoisyTrace(ConstantTrace(5), rng=np.random.default_rng(0))
        assert trace.rate(t) >= 0


class TestComposite:
    def test_sums_components(self):
        trace = CompositeTrace([ConstantTrace(1), ConstantTrace(2)])
        assert trace.rate(0) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeTrace([])


class TestScaled:
    def test_scales(self):
        assert ScaledTrace(ConstantTrace(10), 0.5).rate(0) == 5

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            ScaledTrace(ConstantTrace(1), -1)
