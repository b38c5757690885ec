"""Unit tests for analysis statistics."""

import pytest

from repro.analysis.stats import (
    UTILIZATION_SERIES,
    PLOMonitor,
    overshoot,
    settling_time,
    utilization_summary,
)
from repro.cluster.resources import ResourceVector
from repro.metrics.timeseries import TimeSeries
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace
from tests.conftest import make_spec


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


class TestPLOMonitor:
    def _deploy(self, engine, api, collector, *, cpu=0.2, rate=100.0):
        svc = Microservice(
            "svc", engine, api, trace=ConstantTrace(rate), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=cpu, memory=1, disk_bw=20, net_bw=20),
        )
        svc.plo = LatencyPLO(0.05, window=20)
        svc.start()
        for pod in api.pending_pods():
            api.bind_pod(pod.name, "node-0")
        collector.register(svc)
        collector.start()
        return svc

    def test_tracks_violations(self, engine, api, collector):
        svc = self._deploy(engine, api, collector, cpu=0.2, rate=100.0)
        collector.declare("plo/svc/ratio")
        monitor = PLOMonitor(engine, collector)
        tracker = monitor.track(svc)
        monitor.start()
        engine.run_until(120.0)
        assert tracker.observations > 10
        assert tracker.violation_fraction > 0.5  # starved service violates
        assert collector.has_series("plo/svc/ratio")

    def test_healthy_service_no_violations(self, engine, api, collector):
        svc = self._deploy(engine, api, collector, cpu=4.0, rate=50.0)
        monitor = PLOMonitor(engine, collector)
        tracker = monitor.track(svc)
        # Skip the cold-start transient (pod startup reports timeouts).
        engine.run_until(60.0)
        monitor.start()
        engine.run_until(180.0)
        assert tracker.violation_fraction == 0.0

    def test_requires_plo(self, engine, api, collector):
        svc = Microservice(
            "nop", engine, api, trace=ConstantTrace(1), demands=DEMANDS,
            initial_allocation=ResourceVector(cpu=1, memory=1),
        )
        monitor = PLOMonitor(engine, collector)
        with pytest.raises(ValueError):
            monitor.track(svc)

    def test_duplicate_rejected(self, engine, api, collector):
        svc = self._deploy(engine, api, collector)
        monitor = PLOMonitor(engine, collector)
        monitor.track(svc)
        with pytest.raises(ValueError):
            monitor.track(svc)

    def test_repeat_of_the_control_evaluation_is_a_lookup(self):
        """At each control instant the monitor asks for the tail the
        control loop has just computed on the same series: it gets the
        same status back, and the percentile is not computed again."""
        from repro.platform.config import ClusterSpec, PlatformConfig
        from repro.platform.evolve import EvolvePlatform

        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=2),
            config=PlatformConfig(seed=5),
            policy="adaptive",
        )
        # A 600-s window holds 120 scrapes, so every computed p99 is a
        # new float object.
        plo = LatencyPLO(0.05, window=600)
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(80.0), demands=DEMANDS,
            allocation=ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20),
            plo=plo,
        )
        seen: dict[float, list] = {}
        evaluate = plo.evaluate

        def recorded(collector, app, now):
            status = evaluate(collector, app, now)
            seen.setdefault(now, []).append(status)
            return status

        plo.evaluate = recorded
        platform.run(900.0)
        repeats = {now: s for now, s in seen.items() if len(s) == 2}
        assert len(repeats) >= 60
        for now, (control, monitor) in repeats.items():
            assert control.measured is not None, now
            assert monitor is control, now
        # Once the window holds 64 samples or more, a computed tail is a
        # new object each time, so the identities above are lookups.
        late = [s[0].measured for now, s in seen.items() if now >= 400.0]
        assert len({id(m) for m in late}) == len(late) > 60


class TestUtilizationSummary:
    def test_integrates_cluster_series(self, engine, api, collector):
        api.create_pod(make_spec("p0", cpu=12))  # quarter of 48 cpu
        api.bind_pod("p0", "node-0")
        collector.declare(*UTILIZATION_SERIES)
        collector.start()
        engine.run_until(100.0)
        summary = utilization_summary(collector, 0.0, 100.0)
        assert summary.mean_alloc["cpu"] == pytest.approx(0.25, abs=0.05)
        assert 0 <= summary.overall_usage <= summary.overall_alloc + 1e-9

    def test_invalid_window(self, engine, api, collector):
        with pytest.raises(ValueError):
            utilization_summary(collector, 10.0, 10.0)


class TestSettlingTime:
    def make_series(self, pairs):
        ts = TimeSeries()
        for t, v in pairs:
            ts.append(t, v)
        return ts

    def test_settles_and_holds(self):
        ts = self.make_series(
            [(0, 5.0), (10, 2.0), (20, 1.05), (30, 1.0), (80, 1.0)]
        )
        result = settling_time(ts, after=0.0, target=1.0, band=0.1, hold=30.0)
        assert result == pytest.approx(20.0)

    def test_excursion_resets_settling(self):
        ts = self.make_series(
            [(0, 1.0), (10, 1.0), (20, 5.0), (30, 1.0), (90, 1.0)]
        )
        result = settling_time(ts, after=0.0, target=1.0, band=0.1, hold=30.0)
        assert result == pytest.approx(30.0)

    def test_never_settles(self):
        ts = self.make_series([(0, 5.0), (50, 5.0), (100, 5.0)])
        assert settling_time(ts, after=0.0, target=1.0) is None

    def test_hold_too_short(self):
        ts = self.make_series([(0, 5.0), (10, 1.0), (15, 1.0)])
        assert settling_time(ts, after=0.0, target=1.0, hold=30.0) is None


class TestOvershoot:
    def test_peak_excursion(self):
        ts = TimeSeries()
        for t, v in [(0, 1.0), (10, 1.5), (20, 1.2)]:
            ts.append(t, v)
        assert overshoot(ts, after=0.0, target=1.0) == pytest.approx(0.5)

    def test_no_overshoot(self):
        ts = TimeSeries()
        ts.append(0, 0.5)
        assert overshoot(ts, after=0.0, target=1.0) == 0.0

    def test_window_bounds(self):
        ts = TimeSeries()
        for t, v in [(0, 2.0), (10, 1.0), (20, 3.0)]:
            ts.append(t, v)
        assert overshoot(ts, after=5.0, target=1.0, until=15.0) == 0.0
