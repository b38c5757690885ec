"""Boundary-condition regression tests for the bisect-backed traces.

StepTrace and ReplayTrace moved from a linear scan to ``bisect``; these
tests pin the exact edge semantics that rewrite must preserve: queries
exactly at a step time, queries before the first step, duplicate step
times, degenerate single-sample specs, and the rejection of NaN /
infinite / negative inputs that the old scan silently mishandled.
"""

import math

import pytest

from repro.workloads.traces import ReplayTrace, StepTrace


class TestStepTraceBoundaries:
    def test_query_exactly_at_step_time(self):
        trace = StepTrace([(0.0, 1.0), (10.0, 5.0), (20.0, 2.0)])
        # The step takes effect *at* its own timestamp.
        assert trace.rate(10.0) == 5.0
        assert trace.rate(20.0) == 2.0

    def test_query_infinitesimally_before_step(self):
        trace = StepTrace([(0.0, 1.0), (10.0, 5.0)])
        assert trace.rate(math.nextafter(10.0, 0.0)) == 1.0

    def test_before_first_step_returns_initial(self):
        trace = StepTrace([(10.0, 5.0)])
        assert trace.rate(0.0) == 0.0
        assert trace.rate(-1e9) == 0.0

    def test_initial_defaults_to_zero(self):
        trace = StepTrace([(10.0, 5.0)])
        assert trace.rate(5.0) == 0.0

    def test_empty_steps_is_flat_initial(self):
        trace = StepTrace([])
        assert trace.rate(0.0) == 0.0
        assert trace.rate(1e9) == 0.0

    def test_single_step_at_zero(self):
        trace = StepTrace([(0.0, 4.0)])
        assert trace.rate(0.0) == 4.0
        assert trace.rate(-0.001) == 0.0

    def test_duplicate_step_times_last_wins(self):
        # Two steps at the same instant: the later entry in the spec
        # wins, matching the old linear scan's behaviour.
        trace = StepTrace([(10.0, 5.0), (10.0, 9.0)])
        assert trace.rate(10.0) == 9.0
        assert trace.rate(11.0) == 9.0

    def test_far_future_holds_last_rate(self):
        trace = StepTrace([(10.0, 5.0), (20.0, 2.0)])
        assert trace.rate(1e18) == 2.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            StepTrace([(20.0, 1.0), (10.0, 2.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([(10.0, -0.001)])

    def test_nan_time_rejected(self):
        # A NaN time defeats any sortedness check based on pairwise
        # comparison unless the check is NaN-safe; the bisect lookup
        # would then return arbitrary indices. Must be a load error.
        with pytest.raises(ValueError):
            StepTrace([(float("nan"), 1.0)])
        with pytest.raises(ValueError):
            StepTrace([(10.0, 1.0), (float("nan"), 2.0), (20.0, 3.0)])

    def test_nan_and_inf_rate_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([(10.0, float("nan"))])
        with pytest.raises(ValueError):
            StepTrace([(10.0, float("inf"))])

    def test_inf_time_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([(float("inf"), 1.0)])


class TestReplayTraceBoundaries:
    def test_query_exactly_at_sample_time(self):
        trace = ReplayTrace([(0.0, 1.0), (10.0, 5.0)])
        assert trace.rate(10.0) == 5.0
        assert trace.rate(math.nextafter(10.0, 0.0)) == 1.0

    def test_before_first_sample_holds_first_rate(self):
        trace = ReplayTrace([(100.0, 5.0), (200.0, 9.0)])
        assert trace.rate(0.0) == 5.0
        assert trace.rate(-50.0) == 5.0

    def test_after_last_sample_holds_last_rate(self):
        trace = ReplayTrace([(0.0, 1.0), (10.0, 5.0)])
        assert trace.rate(1e18) == 5.0

    def test_single_sample_is_constant(self):
        trace = ReplayTrace([(50.0, 3.0)])
        assert trace.rate(0.0) == 3.0
        assert trace.rate(50.0) == 3.0
        assert trace.rate(1e9) == 3.0

    def test_duplicate_sample_times_last_wins(self):
        trace = ReplayTrace([(0.0, 1.0), (10.0, 5.0), (10.0, 8.0)])
        assert trace.rate(10.0) == 8.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ReplayTrace([(10.0, 1.0), (0.0, 2.0)])

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([(float("nan"), 1.0)])
        with pytest.raises(ValueError):
            ReplayTrace([(0.0, 1.0), (float("nan"), 2.0), (10.0, 3.0)])

    def test_nan_and_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([(0.0, float("nan"))])
        with pytest.raises(ValueError):
            ReplayTrace([(0.0, -1.0)])

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([(0.0, 1.0)], time_scale=0.0)
        with pytest.raises(ValueError):
            ReplayTrace([(0.0, 1.0)], rate_scale=-1.0)
