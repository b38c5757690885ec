"""Unit tests for the open-loop arrival library."""

import numpy as np
import pytest

from repro.workloads.arrivals import (
    CorrelatedSurge,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
    trace_integral,
)
from repro.workloads.traces import ConstantTrace, StepTrace


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestTraceIntegral:
    def test_constant(self):
        assert trace_integral(ConstantTrace(5.0), 0.0, 100.0) == pytest.approx(
            500.0
        )

    def test_step(self):
        trace = StepTrace([(0.0, 2.0), (50.0, 10.0)])
        assert trace_integral(trace, 0.0, 100.0) == pytest.approx(
            600.0, rel=0.02
        )

    def test_empty_window(self):
        assert trace_integral(ConstantTrace(5.0), 10.0, 10.0) == 0.0


class TestPoissonArrivals:
    def test_events_sorted_within_window(self):
        proc = PoissonArrivals(ConstantTrace(20.0), _rng(1))
        events = proc.window(100.0, 200.0)
        assert len(events) > 0
        assert np.all(np.diff(events) >= 0)
        assert events[0] >= 100.0
        assert events[-1] < 200.0

    def test_zero_rate_yields_no_events(self):
        proc = PoissonArrivals(ConstantTrace(0.0), _rng(1))
        assert len(proc.window(0.0, 1000.0)) == 0

    def test_empty_window(self):
        proc = PoissonArrivals(ConstantTrace(5.0), _rng(1))
        assert len(proc.window(10.0, 10.0)) == 0
        assert len(proc.window(10.0, 5.0)) == 0

    def test_thinning_tracks_nonhomogeneous_rate(self):
        # Twice as many events land in the high-rate half of a step.
        trace = StepTrace([(0.0, 20.0), (500.0, 40.0)])
        proc = PoissonArrivals(trace, _rng(2))
        events = proc.window(0.0, 1000.0)
        low = np.sum(events < 500.0)
        high = np.sum(events >= 500.0)
        assert high / low == pytest.approx(2.0, rel=0.15)

    def test_explicit_rate_bound(self):
        proc = PoissonArrivals(ConstantTrace(10.0), _rng(3), rate_bound=10.0)
        events = proc.window(0.0, 500.0)
        assert len(events) == pytest.approx(5000, rel=0.1)


class TestMMPPArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPArrivals(ConstantTrace(1.0), _rng(), factors=(1.0,))
        with pytest.raises(ValueError):
            MMPPArrivals(ConstantTrace(1.0), _rng(), factors=(-1.0, 1.0))
        with pytest.raises(ValueError):
            MMPPArrivals(ConstantTrace(1.0), _rng(), horizon=0.0)

    def test_factor_path_piecewise_constant(self):
        proc = MMPPArrivals(
            ConstantTrace(10.0), _rng(4), factors=(0.5, 2.0), horizon=1000.0
        )
        factors = {proc.factor_at(t) for t in np.arange(0.0, 1000.0, 1.0)}
        assert factors <= {0.5, 2.0}
        assert len(factors) == 2

    def test_rate_is_modulated_trace(self):
        proc = MMPPArrivals(ConstantTrace(10.0), _rng(5), horizon=500.0)
        t = 123.0
        assert proc.rate(t) == pytest.approx(10.0 * proc.factor_at(t))

    def test_last_state_holds_beyond_horizon(self):
        proc = MMPPArrivals(ConstantTrace(10.0), _rng(6), horizon=100.0)
        assert proc.factor_at(1e9) == proc.factor_at(200.0)


class TestSizeDistributions:
    def test_pareto_validation(self):
        with pytest.raises(ValueError):
            ParetoSizes(alpha=1.0)

    def test_pareto_support_and_mean(self):
        sizes = ParetoSizes(alpha=2.5)
        draws = sizes.sample(_rng(7), 5000)
        assert np.all(draws >= 1.0)
        assert np.mean(draws) == pytest.approx(sizes.mean(), rel=0.1)
        assert sizes.mean() == pytest.approx(2.5 / 1.5)


class TestMarkedArrivals:
    def test_marks_align_with_events(self):
        marked = MarkedArrivals(
            PoissonArrivals(ConstantTrace(10.0), _rng(9)),
            ParetoSizes(alpha=1.6),
            _rng(10),
        )
        times, sizes = marked.window_marked(0.0, 100.0)
        assert len(times) == len(sizes)
        assert len(times) > 0
        assert np.all(sizes >= 1.0)
        assert marked.mean_size() == ParetoSizes(alpha=1.6).mean()

    def test_unmarked_window_passthrough(self):
        proc = PoissonArrivals(ConstantTrace(10.0), _rng(11))
        twin = PoissonArrivals(ConstantTrace(10.0), _rng(11))
        marked = MarkedArrivals(proc, ParetoSizes(), _rng(12))
        np.testing.assert_array_equal(
            marked.window(0.0, 50.0), twin.window(0.0, 50.0)
        )


class TestCorrelatedSurge:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedSurge(_rng(), horizon=0.0)
        with pytest.raises(ValueError):
            CorrelatedSurge(_rng(), horizon=100.0, factor=0.5)
        with pytest.raises(ValueError):
            CorrelatedSurge(_rng(), horizon=100.0, max_lag=-1.0)

    def test_windows_inside_horizon(self):
        surge = CorrelatedSurge(
            _rng(13), horizon=5000.0, mean_interval=400.0, duration=60.0
        )
        windows = surge.windows()
        assert len(windows) >= 2
        for start, end in windows:
            assert 0.0 < start < 5000.0
            assert end == start + 60.0

    def test_active_matches_windows(self):
        surge = CorrelatedSurge(
            _rng(14), horizon=2000.0, mean_interval=300.0, duration=45.0
        )
        start, end = surge.windows()[0]
        assert surge.active((start + end) / 2)
        assert not surge.active(start - 1.0)

    def test_attached_traces_surge_together(self):
        surge = CorrelatedSurge(
            _rng(15), horizon=2000.0, mean_interval=300.0, duration=45.0
        )
        a = surge.attach(ConstantTrace(10.0), name="a")
        b = surge.attach(ConstantTrace(20.0), name="b", factor=2.0)
        start, end = surge.windows()[0]
        mid = (start + end) / 2
        assert a.rate(mid) == pytest.approx(30.0)  # default factor 3
        assert b.rate(mid) == pytest.approx(40.0)
        assert a.rate(start - 1.0) == pytest.approx(10.0)
        assert surge.attached == ["a", "b"]

    def test_lag_shifts_the_window(self):
        surge = CorrelatedSurge(
            _rng(16), horizon=2000.0, mean_interval=300.0, duration=45.0
        )
        lagged = surge.attach(ConstantTrace(10.0), name="lag", lag=30.0)
        start, _end = surge.windows()[0]
        assert lagged.rate(start + 1.0) == pytest.approx(10.0)
        assert lagged.rate(start + 31.0) == pytest.approx(30.0)
