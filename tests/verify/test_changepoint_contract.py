"""Regression tests for the ``ctrl/*`` change-point encoding contract.

Telemetry self-metrics are delta-suppressed at scrape time: their series
hold value *changes*, not uniform ticks. The collector therefore stores
them as :class:`ChangePointSeries`, which must refuse every windowed
aggregate (they would weight change frequency, silently returning
garbage) while step reads — ``latest``/``last``/``value_at``/``window``/
``integrate`` — keep working unchanged.
"""

import pytest

from repro.cluster.resources import ResourceVector
from repro.metrics.timeseries import (
    ChangePointQueryError,
    ChangePointSeries,
    TimeSeries,
)
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace

_AGGREGATES = (
    ("mean_over", (100.0, 50.0)),
    ("max_over", (100.0, 50.0)),
    ("min_over", (100.0, 50.0)),
    ("percentile_over", (100.0, 50.0, 95.0)),
    ("sum_over", (100.0, 50.0)),
    ("count_over", (100.0, 50.0)),
    ("rate_over", (100.0, 50.0)),
    ("ewma", (0.5,)),
)


@pytest.fixture(scope="module")
def telemetry_platform():
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=9, telemetry=True),
        policy="adaptive",
    )
    platform.deploy_microservice(
        "web",
        trace=DiurnalTrace(base=120, amplitude=80, period=300),
        demands=ServiceDemands(cpu_seconds=0.005, base_latency=0.005),
        allocation=ResourceVector(cpu=1, memory=2, disk_bw=10, net_bw=30),
        plo=LatencyPLO(0.05, window=30),
    )
    # Every scalar instrument: each exports one ctrl/<name> series.
    platform.collector.declare(
        *(f"ctrl/{name}" for name in platform.telemetry.registry.names())
    )
    platform.run(300.0)
    return platform


class TestCollectorStoresCtrlAsChangePoints:
    def test_ctrl_series_are_change_point_encoded(self, telemetry_platform):
        collector = telemetry_platform.collector
        ctrl = [n for n in sorted(collector._series) if n.startswith("ctrl/")]
        assert ctrl, "telemetry run should export ctrl/* series"
        for name in ctrl:
            assert isinstance(collector.series(name), ChangePointSeries), name

    def test_app_series_stay_plain(self, telemetry_platform):
        collector = telemetry_platform.collector
        series = collector.series("app/web/latency")
        assert isinstance(series, TimeSeries)
        assert not isinstance(series, ChangePointSeries)
        # Uniform-tick series keep their aggregates.
        assert series.mean_over(300.0, 100.0) is not None

    def test_windowed_aggregates_raise(self, telemetry_platform):
        collector = telemetry_platform.collector
        name = next(
            n
            for n in sorted(collector._series)
            if n.startswith("ctrl/") and len(collector.series(n)) > 0
        )
        series = collector.series(name)
        for method, args in _AGGREGATES:
            with pytest.raises(ChangePointQueryError):
                getattr(series, method)(*args)

    def test_collector_window_helpers_raise_too(self, telemetry_platform):
        # The aggregate helpers on the collector go through the same
        # series methods, so the contract holds there as well.
        collector = telemetry_platform.collector
        name = next(
            n for n in sorted(collector._series) if n.startswith("ctrl/")
        )
        with pytest.raises(ChangePointQueryError):
            collector.window_mean(name, 100.0)
        with pytest.raises(ChangePointQueryError):
            collector.window_percentile(name, 100.0, 95.0)

    def test_step_reads_pass(self, telemetry_platform):
        collector = telemetry_platform.collector
        name = next(
            n
            for n in sorted(collector._series)
            if n.startswith("ctrl/") and len(collector.series(n)) > 0
        )
        series = collector.series(name)
        assert collector.latest(name) is not None
        assert series.last() is not None
        last_time = series.last_time()
        assert last_time is not None
        assert series.value_at(last_time) == series.last()
        assert series.window(0.0, 300.0)
        assert series.integrate(0.0, 300.0) >= 0.0
        times, values = series.to_lists()
        assert len(times) == len(values) > 0


class TestChangePointSeriesUnit:
    def test_error_type_is_a_type_error(self):
        # Existing callers guard with except TypeError in a few places;
        # the refusal must stay inside that hierarchy.
        assert issubclass(ChangePointQueryError, TypeError)

    def test_refusal_message_names_the_alternatives(self):
        series = ChangePointSeries(maxlen=10)
        series.append(0.0, 1.0)
        with pytest.raises(ChangePointQueryError, match="value_at"):
            series.mean_over(10.0, 5.0)

    def test_inherited_step_reads(self):
        series = ChangePointSeries(maxlen=10)
        series.append(0.0, 1.0)
        series.append(5.0, 3.0)
        assert series.last() == 3.0
        assert series.value_at(4.9) == 1.0
        assert series.value_at(5.0) == 3.0
        # Step integral carries the last change point forward.
        assert series.integrate(0.0, 10.0) == 1.0 * 5 + 3.0 * 5
