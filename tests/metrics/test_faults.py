"""Unit tests for metrics-pipeline fault injection."""

import numpy as np
import pytest

from repro.cluster.chaos import FaultLog
from repro.metrics.collector import MetricsCollector
from repro.metrics.faults import MetricsFaultInjector
from tests.conftest import make_spec


def make(seed=0):
    return MetricsFaultInjector(np.random.default_rng(seed), log=FaultLog())


class TestFilter:
    def test_passthrough_by_default(self):
        faults = make()
        assert faults.filter("app/web/latency", 1.5, 10.0, 1.0) == 1.5
        assert not faults.should_drop_scrape(10.0)

    def test_blackout_drops_matching_prefix_only(self):
        faults = make()
        faults.blackout("app/web", now=0.0, duration=50.0)
        assert faults.filter("app/web/latency", 1.5, 10.0, 1.0) is None
        assert faults.filter("app/cache/latency", 1.5, 10.0, 1.0) == 1.5
        # Window over: samples flow again.
        assert faults.filter("app/web/latency", 1.5, 60.0, 1.0) == 1.5
        assert faults.samples_dropped == 1

    def test_freeze_holds_last_value(self):
        faults = make()
        faults.freeze("app/web", now=0.0, duration=50.0)
        assert faults.filter("app/web/latency", 9.9, 10.0, 1.25) == 1.25
        assert faults.filter("app/web/latency", 9.9, 60.0, 1.25) == 9.9
        assert faults.samples_frozen == 1

    def test_freeze_without_history_drops(self):
        faults = make()
        faults.freeze("app/web", now=0.0, duration=50.0)
        assert faults.filter("app/web/latency", 9.9, 10.0, None) is None

    def test_noise_window_multiplies(self):
        faults = make()
        faults.inject_noise(0.0, 50.0, probability=1.0, factor=10.0)
        assert faults.filter("app/web/latency", 2.0, 10.0, None) == 20.0
        assert faults.filter("app/web/latency", 2.0, 60.0, None) == 2.0
        assert faults.outliers_injected == 1

    def test_drop_scrapes_window(self):
        faults = make()
        faults.drop_scrapes(0.0, 30.0)
        assert faults.should_drop_scrape(10.0)
        assert not faults.should_drop_scrape(40.0)
        assert faults.scrapes_dropped == 1

    def test_probabilistic_drop_deterministic_given_seed(self):
        def run(seed):
            faults = make(seed)
            faults.drop_scrape_probability = 0.5
            return [faults.should_drop_scrape(float(t)) for t in range(50)]

        first, second = run(3), run(3)
        assert first == second
        assert any(first) and not all(first)
        assert run(3) != run(4)

    def test_invalid_params(self):
        faults = make()
        with pytest.raises(ValueError):
            faults.drop_scrapes(0.0, 0.0)
        with pytest.raises(ValueError):
            faults.drop_scrapes(0.0, 10.0, probability=0.0)
        with pytest.raises(ValueError):
            faults.blackout("app/web", 0.0, -1.0)
        with pytest.raises(ValueError):
            faults.freeze("app/web", 0.0, 0.0)
        with pytest.raises(ValueError):
            faults.inject_noise(0.0, 10.0, probability=1.5)

    def test_window_faults_logged_with_ends(self):
        faults = make()
        log = faults.log
        faults.drop_scrapes(10.0, 20.0)
        faults.blackout("app/web", 40.0, 5.0)
        faults.freeze("app/cache", 50.0, 5.0)
        faults.inject_noise(60.0, 5.0)
        kinds = [e.kind for e in log.episodes]
        assert kinds == [
            "scrape-drop", "scrape-blackout", "metrics-freeze", "metrics-noise",
        ]
        assert all(not e.active for e in log.episodes)
        assert log.episodes[0].duration() == pytest.approx(20.0)


class TestWindowStart:
    """A window armed 10 s ahead applies from its start, not its arming."""

    def test_drop_scrapes_armed_ahead(self):
        faults = make()
        faults.drop_scrapes(10.0, 20.0)
        assert not faults.should_drop_scrape(0.0)
        assert not faults.should_drop_scrape(9.9)
        assert faults.should_drop_scrape(10.0)
        assert faults.scrapes_dropped == 1

    def test_blackout_armed_ahead(self):
        faults = make()
        faults.blackout("app/web", 10.0, 20.0)
        assert not faults.distorts_samples(9.9)
        assert faults.filter("app/web/latency", 1.5, 9.9, 1.0) == 1.5
        assert faults.distorts_samples(10.0)
        assert faults.filter("app/web/latency", 1.5, 10.0, 1.0) is None

    def test_freeze_armed_ahead(self):
        faults = make()
        faults.freeze("app/web", 10.0, 20.0)
        assert not faults.distorts_samples(9.9)
        assert faults.filter("app/web/latency", 9.9, 9.9, 1.25) == 9.9
        assert faults.filter("app/web/latency", 9.9, 10.0, 1.25) == 1.25

    def test_noise_armed_ahead(self):
        faults = make()
        faults.inject_noise(10.0, 20.0, probability=1.0, factor=10.0)
        assert not faults.distorts_samples(9.9)
        assert faults.filter("app/web/latency", 2.0, 9.9, None) == 2.0
        assert faults.filter("app/web/latency", 2.0, 10.0, None) == 20.0
        assert faults.outliers_injected == 1

    def test_two_overlapping_windows_on_one_prefix(self):
        faults = make()
        faults.blackout("app/web", 0.0, 20.0)
        faults.blackout("app/web", 10.0, 20.0)
        blacked = [faults.filter("app/web/x", 1.0, t, 0.5) for t in (5, 25, 30)]
        assert blacked == [None, None, 1.0]

    def test_arming_drops_the_prefix_windows_that_ended(self):
        faults = make()
        faults.freeze("app/api", 0.0, 10.0)
        faults.freeze("app/api", 5.0, 10.0)
        faults.freeze("app/api", 12.0, 10.0)
        assert faults._frozen["app/api"] == [(5.0, 15.0), (12.0, 22.0)]
        frozen = [faults.filter("app/api/x", 1.0, t, 0.5) for t in (12, 20, 22)]
        assert frozen == [0.5, 0.5, 1.0]

    def test_scrapes_before_the_start_are_stored(self, engine, api):
        faults = make()
        collector = MetricsCollector(engine, api, faults=faults)
        collector.declare("cluster/alloc_frac/cpu", "node/node-0/usage_frac/cpu")
        collector.start()
        engine.run_until(20.0)
        faults.drop_scrapes(engine.now + 10.0, 10.0)
        faults.blackout("node/node-0", engine.now + 10.0, 10.0)
        engine.run_until(25.0)
        assert collector.series("cluster/alloc_frac/cpu").last_time() == 25.0
        assert collector.series("node/node-0/usage_frac/cpu").last_time() == 25.0
        engine.run_until(35.0)
        # The rounds at 30 and 35 are dropped.
        assert collector.series("cluster/alloc_frac/cpu").last_time() == 25.0
        assert faults.scrapes_dropped == 2


class TestCollectorIntegration:
    def make_collector(self, engine, api, faults):
        collector = MetricsCollector(engine, api, faults=faults)
        collector.declare(
            "cluster/alloc_frac/cpu",
            "node/node-0/usage_frac/cpu",
            "node/node-1/usage_frac/cpu",
            "control/svc/error",
        )
        return collector

    def test_dropped_scrapes_age_timestamps(self, engine, api):
        faults = make()
        collector = self.make_collector(engine, api, faults)
        collector.start()
        engine.run_until(20.0)
        faults.drop_scrapes(engine.now, 30.0)
        engine.run_until(45.0)
        # No sample landed during the window; the last one predates it.
        assert collector.series("cluster/alloc_frac/cpu").last_time() <= 20.0
        engine.run_until(60.0)
        assert collector.series("cluster/alloc_frac/cpu").last_time() >= 55.0

    def test_blackout_stalls_one_prefix_only(self, engine, api):
        faults = make()
        collector = self.make_collector(engine, api, faults)
        collector.start()
        engine.run_until(20.0)
        faults.blackout("node/node-0", engine.now, 30.0)
        engine.run_until(45.0)
        assert collector.series("node/node-0/usage_frac/cpu").last_time() <= 20.0
        assert collector.series("node/node-1/usage_frac/cpu").last_time() >= 40.0

    def test_frozen_series_keeps_fresh_timestamps(self, engine, api):
        faults = make()
        collector = self.make_collector(engine, api, faults)
        collector.start()
        engine.run_until(20.0)
        frozen_value = collector.latest("cluster/alloc_frac/cpu")
        faults.freeze("cluster/alloc_frac", engine.now, 30.0)
        api.create_pod(make_spec("p0", cpu=12))
        api.bind_pod("p0", "node-0")
        engine.run_until(45.0)
        # Values are stale but timestamps advance: the hard staleness mode.
        assert collector.latest("cluster/alloc_frac/cpu") == frozen_value
        assert collector.series("cluster/alloc_frac/cpu").last_time() >= 40.0
        engine.run_until(55.0)
        assert collector.latest("cluster/alloc_frac/cpu") == pytest.approx(12 / 48)

    def test_record_bypasses_fault_filter(self, engine, api):
        faults = make()
        faults.blackout("control", 0.0, 1000.0)
        collector = self.make_collector(engine, api, faults)
        collector.record("control/svc/error", 0.5)
        assert collector.latest("control/svc/error") == 0.5
