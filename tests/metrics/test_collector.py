"""Unit tests for the metrics collector / scrape loop."""

import numpy as np
import pytest

from repro.cluster.chaos import FaultLog
from repro.metrics.collector import MetricsCollector, UndeclaredSeriesError
from tests.conftest import make_collector, make_spec


class FakeSource:
    def __init__(self, prefix="app/fake"):
        self.prefix = prefix
        self.value = 1.0
        self.samples = 0

    def metric_prefix(self):
        return self.prefix

    def sample_metrics(self, now):
        self.samples += 1
        return {"latency": self.value, "throughput": 2 * self.value}


def test_scrape_records_source_metrics(engine, collector):
    source = FakeSource()
    collector.declare("app/fake/latency", "app/fake/throughput")
    collector.register(source)
    collector.start()
    engine.run_until(11.0)
    assert collector.scrapes == 2
    assert source.samples == 2
    assert collector.latest("app/fake/latency") == 1.0
    assert collector.latest("app/fake/throughput") == 2.0


def test_scrape_records_cluster_gauges(engine, api, collector):
    api.create_pod(make_spec("p0", cpu=12))
    api.bind_pod("p0", "node-0")
    collector.declare("cluster/alloc_frac/cpu")
    collector.start()
    engine.run_until(6.0)
    assert collector.latest("cluster/alloc_frac/cpu") == pytest.approx(12 / 48)


def test_unregister_stops_sampling(engine, collector):
    source = FakeSource()
    collector.declare("app/fake/latency")
    collector.register(source)
    collector.start()
    engine.run_until(6.0)
    collector.unregister(source)
    engine.run_until(20.0)
    assert source.samples == 1


def test_unregister_missing_is_safe(collector):
    collector.unregister(FakeSource())


def test_record_out_of_band(engine, collector):
    engine.run_until(3.0)
    collector.declare("custom/metric")
    collector.record("custom/metric", 42.0)
    assert collector.latest("custom/metric") == 42.0


def test_window_queries(engine, collector):
    source = FakeSource()
    collector.declare("app/fake/latency")
    collector.register(source)
    collector.start()
    engine.run_until(5.0)
    source.value = 3.0
    engine.run_until(10.0)
    assert collector.window_mean("app/fake/latency", 10.0) == pytest.approx(2.0)
    assert collector.window_percentile("app/fake/latency", 10.0, 100) == 3.0


def test_missing_series_queries_return_none(collector):
    collector.declare("nope")
    assert collector.latest("nope") is None
    assert collector.window_mean("nope", 10) is None
    assert collector.window_percentile("nope", 10, 99) is None


def test_series_names_and_has_series(engine, collector):
    collector.declare("a/b", "a/c")
    collector.record("a/b", 1.0)
    assert collector.has_series("a/b")
    assert not collector.has_series("a/c")
    assert "a/b" in sorted(collector._series)


def test_double_start_rejected(collector):
    collector.start()
    with pytest.raises(RuntimeError):
        collector.start()


def test_stop_halts_scraping(engine, collector):
    collector.start()
    engine.run_until(6.0)
    collector.stop()
    engine.run_until(60.0)
    assert collector.scrapes == 1


def test_invalid_interval(engine, api, collector):
    # The scrape interval is the constant SCRAPE_INTERVAL.
    with pytest.raises(TypeError):
        MetricsCollector(engine, api, faults=collector.faults, scrape_interval=0)


def test_scrape_gap_counted_when_rounds_are_missed(engine, collector):
    collector.start()
    engine.run_until(10.0)
    assert collector.scrape_gaps == 0
    collector.stop()
    engine.run_until(40.0)
    collector.start()
    engine.run_until(46.0)
    # Rounds at 15..40 never ran: the late arrival at 45 books the
    # missed rounds as a gap.
    assert collector.scrape_gaps >= 5


def test_internal_source_bypasses_fault_filter(engine, api):
    from repro.metrics.faults import MetricsFaultInjector

    faults = MetricsFaultInjector(np.random.default_rng(0), log=FaultLog())
    faults.drop_scrape_probability = 1.0
    collector = MetricsCollector(engine, api, faults=faults)
    internal = FakeSource(prefix="ctrl")
    collector.declare("ctrl/latency")
    collector.register_internal(internal)
    collector.start()
    engine.run_until(20.0)
    # Every round was dropped by the fault, so nothing internal sampled
    # either — but the drops were booked as gaps.
    assert collector.scrape_gaps >= 3
    faults.drop_scrape_probability = 0.0
    engine.run_until(30.0)
    assert collector.latest("ctrl/latency") == 1.0


def test_scrape_span_at_without_telemetry_is_none(engine, collector):
    collector.start()
    engine.run_until(20.0)
    assert collector.scrape_span_at(20.0) is None


def test_scrape_span_at_returns_covering_round(engine, api):
    from repro.obs.telemetry import Telemetry

    collector = make_collector(engine, api)
    tel = Telemetry(engine)
    collector.telemetry = tel
    collector.start()
    engine.run_until(21.0)
    span_at_7 = collector.scrape_span_at(7.0)   # round at t=5
    span_at_20 = collector.scrape_span_at(20.0)  # round at t=20
    assert span_at_7 is not None and span_at_20 is not None
    assert span_at_7 != span_at_20
    assert tel.trace.get(span_at_20).start == 20.0
    assert collector.scrape_span_at(1.0) is None  # before the first round


# -- declared series ------------------------------------------------------------

READS = (
    ("series", ()),
    ("latest", ()),
    ("stored", ()),
    ("window_mean", (10.0,)),
    ("window_percentile", (10.0, 99.0)),
    ("has_series", ()),
)


@pytest.mark.parametrize("method, args", READS, ids=[r[0] for r in READS])
def test_reading_an_undeclared_series_raises(engine, collector, method, args):
    collector.declare("app/fake/latency")
    source = FakeSource()
    collector.register(source)
    collector.start()
    engine.run_until(11.0)
    # Sampled and stored under the declared name, so the refusal is about
    # the declaration, not about missing data.
    assert collector.latest("app/fake/latency") == 1.0
    with pytest.raises(UndeclaredSeriesError) as info:
        getattr(collector, method)("app/fake/throughput", *args)
    assert isinstance(info.value, KeyError)
    assert info.value.name == "app/fake/throughput"


def test_record_of_an_undeclared_name_stores_nothing(engine, collector):
    engine.run_until(3.0)
    collector.record("custom/metric", 42.0)
    assert sorted(collector._series) == []
    # Declaring afterwards does not bring the sample back.
    collector.declare("custom/metric")
    assert not collector.has_series("custom/metric")
    assert collector.latest("custom/metric") is None
    assert collector.stored("custom/metric") is None


def test_has_series_means_at_least_one_sample(engine, collector):
    collector.declare("custom/metric")
    assert not collector.has_series("custom/metric")
    assert len(collector.series("custom/metric")) == 0
    assert not collector.has_series("custom/metric")
    collector.record("custom/metric", 1.0)
    assert collector.has_series("custom/metric")
    assert collector.stored("custom/metric").last_sample() == (engine.now, 1.0)


def test_source_with_nothing_declared_is_not_sampled(engine, collector):
    read, unread = FakeSource("app/read"), FakeSource("app/unread")
    collector.declare("app/read/latency")
    collector.register(read)
    collector.register(unread)
    collector.start()
    engine.run_until(11.0)
    assert read.samples == 2
    assert unread.samples == 0
    assert sorted(collector._series) == ["app/read/latency"]


def test_distorting_faults_skip_undeclared_samples(engine, api):
    from repro.metrics.faults import MetricsFaultInjector

    def run(extra_source):
        faults = MetricsFaultInjector(np.random.default_rng(0), log=FaultLog())
        faults.outlier_probability = 0.5
        collector = MetricsCollector(engine, api, faults=faults)
        collector.declare("app/read/latency")
        collector.register(FakeSource("app/read"))
        unread = FakeSource("app/unread")
        if extra_source:
            collector.register(unread)
        for _ in range(20):
            collector.scrape()
        return unread, faults, collector

    _, alone_faults, alone = run(extra_source=False)
    unread, faults, collector = run(extra_source=True)
    # Only declared samples reach the filter, so an undeclared source
    # (never sampled) and the declared source's undeclared throughput
    # draw nothing and cannot shift the outliers of the declared series.
    assert unread.samples == 0
    assert faults.outliers_injected == alone_faults.outliers_injected > 0
    # One draw per declared sample: 20 scrapes of one declared name.
    reference = MetricsFaultInjector(np.random.default_rng(0), log=FaultLog())
    for _ in range(20):
        reference.rng.random()
    next_draw = reference.rng.random()
    assert faults.rng.random() == alone_faults.rng.random() == next_draw
    assert (
        collector.series("app/read/latency").to_lists()
        == alone.series("app/read/latency").to_lists()
    )
    assert sorted(collector._series) == ["app/read/latency"]


def test_append_budget_on_the_fleet_smoke_shape(monkeypatch):
    # TimeSeries.append calls over six adaptive services on three nodes
    # for 300 s (the shape of the host benchmark's fleet workload at smoke
    # size). Measured 3,720: the nine series the control loop and the PLO
    # monitor read per app plus the eight cluster gauges result()
    # integrates, at 60 scrapes. The budget is that plus ~25%. Storing
    # every scraped and recorded sample makes 9,936.
    from repro.metrics.timeseries import TimeSeries
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.cluster.resources import ResourceVector
    from repro.workloads.microservice import ServiceDemands
    from repro.workloads.plo import LatencyPLO
    from repro.workloads.traces import DiurnalTrace

    appends = [0]
    append = TimeSeries.append

    def counting(self, time, value):
        appends[0] += 1
        append(self, time, value)

    monkeypatch.setattr(TimeSeries, "append", counting)
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=3),
        scheduler="converged",
        policy="adaptive",
    )
    for i in range(6):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=3600.0,
                               phase=i * 120.0),
            demands=ServiceDemands(cpu_seconds=0.008, disk_mb=0.1,
                                   net_mb=0.05, base_latency=0.01),
            allocation=ResourceVector(cpu=0.6, memory=1, disk_bw=15,
                                      net_bw=15),
            plo=LatencyPLO(0.06, window=30),
        )
    platform.run(300.0)
    assert platform.result().utilization.overall_alloc > 0
    assert appends[0] <= 4650, f"{appends[0]} TimeSeries.append calls"
