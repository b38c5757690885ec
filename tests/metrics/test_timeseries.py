"""Unit + property tests for TimeSeries."""

import bisect
import types

import pytest
from hypothesis import given, strategies as st

from repro.metrics import timeseries
from repro.metrics.timeseries import TimeSeries


def series_from(pairs):
    ts = TimeSeries()
    for t, v in pairs:
        ts.append(t, v)
    return ts


class TestAppend:
    def test_empty_queries(self):
        ts = TimeSeries()
        assert len(ts) == 0
        assert ts.last() is None
        assert ts.last_time() is None
        assert ts.last_sample() is None
        assert ts.mean_over(10, 5) is None
        assert ts.value_at(1.0) is None

    def test_out_of_order_rejected(self):
        ts = series_from([(1.0, 1.0)])
        with pytest.raises(ValueError):
            ts.append(0.5, 2.0)

    def test_equal_time_allowed(self):
        ts = series_from([(1.0, 1.0)])
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_maxlen_evicts_fifo(self):
        ts = TimeSeries(maxlen=3)
        for i in range(5):
            ts.append(float(i), float(i))
        times, values = ts.to_lists()
        assert times == [2.0, 3.0, 4.0]


class TestPointQueries:
    def test_last(self):
        ts = series_from([(1, 10), (2, 20)])
        assert ts.last() == 20
        assert ts.last_time() == 2
        assert ts.last_sample() == (2.0, 20.0)

    def test_value_at_step_interpolation(self):
        ts = series_from([(1, 10), (3, 30)])
        assert ts.value_at(0.5) is None
        assert ts.value_at(1.0) == 10
        assert ts.value_at(2.9) == 10
        assert ts.value_at(3.0) == 30
        assert ts.value_at(100.0) == 30


class TestPercentileMemo:
    """A repeat of the last ``percentile_over`` query is a lookup; an
    append in between, even at the same time, or an eviction misses."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Every ``bisect_right`` the series makes: two per computed
        window."""
        calls = []

        def bisect_right(*args):
            calls.append(args)
            return bisect.bisect_right(*args)

        monkeypatch.setattr(
            timeseries, "bisect", types.SimpleNamespace(bisect_right=bisect_right)
        )
        return calls

    def test_repeat_does_not_recompute(self, searches):
        # 80 samples in the window: each computation builds a new float.
        ts = series_from([(float(i), float(i % 7)) for i in range(100)])
        first = ts.percentile_over(99.0, 80.0, 99)
        assert len(searches) == 2
        again = ts.percentile_over(99, 80, 99.0)
        assert again is first
        assert len(searches) == 2
        assert ts.percentile_over(99.0, 80.0, 99) is first

    def test_another_query_misses(self, searches):
        ts = series_from([(float(i), float(i)) for i in range(1, 101)])
        assert ts.percentile_over(100.0, 100.0, 99) == 99
        assert ts.percentile_over(100.0, 100.0, 50) == 50
        assert ts.percentile_over(100.0, 50.0, 50) == 75
        assert ts.percentile_over(90.0, 50.0, 50) == 65
        assert len(searches) == 8

    def test_append_at_the_same_time_misses(self, searches):
        ts = series_from([(1.0, 5.0), (2.0, 1.0)])
        assert ts.percentile_over(2.0, 10.0, 100) == 5.0
        ts.append(2.0, 9.0)
        assert ts.percentile_over(2.0, 10.0, 100) == 9.0
        # An equal sample still changes the window, so it misses too.
        ts.append(2.0, 9.0)
        assert ts.percentile_over(2.0, 10.0, 50) == 5.0
        ts.append(2.0, 9.0)
        assert ts.percentile_over(2.0, 10.0, 50) == 9.0
        assert len(searches) == 8

    def test_eviction_misses(self):
        ts = TimeSeries(maxlen=3)
        for t, v in [(1.0, 100.0), (2.0, 1.0), (3.0, 1.0)]:
            ts.append(t, v)
        assert ts.percentile_over(3.0, 10.0, 100) == 100.0
        ts.append(3.0, 1.0)  # evicts the 100
        assert ts.percentile_over(3.0, 10.0, 100) == 1.0

    def test_compaction_misses(self):
        ts = TimeSeries(maxlen=1)
        ts.append(1.0, 5.0)
        assert ts.percentile_over(1.0, 10.0, 50) == 5.0
        ts.append(1.0, 7.0)  # evicts the 5 and compacts the lists
        assert ts.percentile_over(1.0, 10.0, 50) == 7.0

    def test_empty_window_is_remembered_too(self, searches):
        ts = series_from([(1.0, 1.0)])
        assert ts.percentile_over(10.0, 5.0, 99) is None
        assert ts.percentile_over(10.0, 5.0, 99) is None
        assert len(searches) == 2
        ts.append(9.0, 2.0)
        assert ts.percentile_over(10.0, 5.0, 99) == 2.0


class TestWindowQueries:
    def test_window_is_half_open(self):
        ts = series_from([(1, 1), (2, 2), (3, 3)])
        assert ts.window(1, 3) == [(2.0, 2.0), (3.0, 3.0)]

    def test_mean_over(self):
        ts = series_from([(1, 10), (2, 20), (3, 30)])
        assert ts.mean_over(now=3, span=2) == pytest.approx(25.0)

    def test_min_max_over(self):
        ts = series_from([(1, 5), (2, 1), (3, 9)])
        assert ts.max_over(3, 10) == 9
        assert ts.min_over(3, 10) == 1

    def test_percentile_over(self):
        ts = series_from([(float(i), float(i)) for i in range(1, 101)])
        assert ts.percentile_over(100, 100, 50) == 50
        assert ts.percentile_over(100, 100, 99) == 99
        assert ts.percentile_over(100, 100, 100) == 100
        assert ts.percentile_over(100, 100, 0) == 1

    def test_percentile_invalid(self):
        ts = series_from([(1, 1)])
        with pytest.raises(ValueError):
            ts.percentile_over(1, 1, 150)

    def test_sum_count_over(self):
        ts = series_from([(1, 1), (2, 2), (3, 3)])
        assert ts.sum_over(3, 2) == 5
        assert ts.count_over(3, 2) == 2

    def test_rate_over_counter(self):
        ts = series_from([(0, 0), (10, 100)])
        assert ts.rate_over(10, 20) == pytest.approx(10.0)

    def test_rate_needs_two_samples(self):
        assert series_from([(0, 0)]).rate_over(10, 20) is None


class TestEwma:
    def test_alpha_one_returns_last(self):
        ts = series_from([(1, 1), (2, 2), (3, 9)])
        assert ts.ewma(1.0) == 9

    def test_ewma_weighting(self):
        ts = series_from([(1, 0), (2, 10)])
        assert ts.ewma(0.5) == pytest.approx(5.0)

    def test_ewma_count_limits_history(self):
        ts = series_from([(1, 100), (2, 0), (3, 0)])
        assert ts.ewma(0.5, count=2) == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            series_from([(1, 1)]).ewma(0.0)


class TestIntegrate:
    def test_constant_series(self):
        ts = series_from([(0, 5)])
        assert ts.integrate(0, 10) == pytest.approx(50.0)

    def test_step_series(self):
        ts = series_from([(0, 1), (5, 3)])
        assert ts.integrate(0, 10) == pytest.approx(1 * 5 + 3 * 5)

    def test_partial_window(self):
        ts = series_from([(0, 2), (10, 4)])
        assert ts.integrate(5, 15) == pytest.approx(2 * 5 + 4 * 5)

    def test_window_before_samples(self):
        ts = series_from([(10, 2)])
        assert ts.integrate(0, 5) == 0.0

    def test_empty_window(self):
        ts = series_from([(0, 1)])
        assert ts.integrate(5, 5) == 0.0


class TestProperties:
    sample_lists = st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    ).map(lambda pairs: sorted(pairs, key=lambda p: p[0]))

    @given(sample_lists)
    def test_mean_between_min_and_max(self, pairs):
        ts = series_from(pairs)
        now = pairs[-1][0]
        mean = ts.mean_over(now, now + 1)
        if mean is not None:
            assert ts.min_over(now, now + 1) - 1e-9 <= mean
            assert mean <= ts.max_over(now, now + 1) + 1e-9

    @given(sample_lists, st.floats(min_value=0, max_value=100))
    def test_percentile_monotone_in_q(self, pairs, q):
        ts = series_from(pairs)
        now = pairs[-1][0]
        lo = ts.percentile_over(now, now + 1, q / 2)
        hi = ts.percentile_over(now, now + 1, q)
        if lo is not None and hi is not None:
            assert lo <= hi

    @given(sample_lists)
    def test_integrate_additive_in_time(self, pairs):
        ts = series_from(pairs)
        end = pairs[-1][0] + 10
        mid = end / 2
        whole = ts.integrate(0, end)
        split = ts.integrate(0, mid) + ts.integrate(mid, end)
        assert whole == pytest.approx(split, rel=1e-6, abs=1e-6)


class TestCompaction:
    """Eviction past maxlen: offset advance + periodic list compaction."""

    def test_eviction_keeps_newest_samples(self):
        ts = TimeSeries(maxlen=5)
        for i in range(12):
            ts.append(float(i), float(i * 10))
        assert len(ts) == 5
        assert ts.to_lists() == (
            [7.0, 8.0, 9.0, 10.0, 11.0],
            [70.0, 80.0, 90.0, 100.0, 110.0],
        )

    def test_queries_correct_across_compaction_boundary(self):
        # maxlen=4: the backing lists compact every 4 evictions; run far
        # past several compactions and check every query path.
        ts = TimeSeries(maxlen=4)
        for i in range(25):
            ts.append(float(i), float(i))
        assert len(ts) == 4
        assert ts.value_at(23.5) == 23.0
        assert ts.value_at(20.0) is None  # evicted
        assert ts.window(21.0, 24.0) == [(22.0, 22.0), (23.0, 23.0),
                                         (24.0, 24.0)]
        assert ts.mean_over(24.0, 3.0) == pytest.approx(23.0)
        assert ts.count_over(24.0, 100.0) == 4
        assert ts.percentile_over(24.0, 100.0, 100) == 24.0

    def test_memory_stays_bounded(self):
        ts = TimeSeries(maxlen=10)
        for i in range(1000):
            ts.append(float(i), 0.0)
        # Lazy compaction keeps the backing lists under 2x maxlen.
        assert len(ts._times) <= 2 * 10
        assert len(ts) == 10

    def test_rate_and_integrate_after_eviction(self):
        ts = TimeSeries(maxlen=3)
        for i in range(10):
            ts.append(float(i), float(i))
        # Retained samples: t=7,8,9.
        assert ts.rate_over(9.0, 10.0) == pytest.approx(1.0)
        assert ts.integrate(7.0, 9.0) == pytest.approx(7.0 + 8.0)

    def test_maxlen_one(self):
        ts = TimeSeries(maxlen=1)
        for i in range(5):
            ts.append(float(i), float(i))
        assert len(ts) == 1
        assert ts.last() == 4.0
        assert ts.last_sample() == (4.0, 4.0)
        assert ts.value_at(4.0) == 4.0

    def test_ewma_ignores_evicted_samples(self):
        ts = TimeSeries(maxlen=2)
        for i in range(6):
            ts.append(float(i), float(i))
        # Only values 4, 5 are retained; alpha=1 returns the last.
        assert ts.ewma(1.0) == 5.0
        assert ts.ewma(0.5) == pytest.approx(0.5 * 5 + 0.5 * 4)
