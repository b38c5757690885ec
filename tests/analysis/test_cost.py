"""Unit tests for cost accounting."""

import pytest

from repro.analysis.cost import (
    CPU_HOUR,
    DISK_BW_MBS_HOUR,
    MEMORY_GIB_HOUR,
    NET_BW_MBS_HOUR,
    app_cost,
    cluster_provisioned_cost,
    cost_series,
)
from repro.cluster.resources import ResourceVector


class TestPriceSheet:
    """The unit prices per resource-hour."""

    def test_rate(self):
        alloc = ResourceVector(cpu=2, memory=10, disk_bw=100, net_bw=1000)
        hourly = (2 * CPU_HOUR + 10 * MEMORY_GIB_HOUR + 100 * DISK_BW_MBS_HOUR
                  + 1000 * NET_BW_MBS_HOUR)
        assert cluster_provisioned_cost(alloc, 3600.0) == pytest.approx(hourly)

    def test_prices_positive(self):
        assert min(CPU_HOUR, MEMORY_GIB_HOUR, DISK_BW_MBS_HOUR,
                   NET_BW_MBS_HOUR) > 0

    def test_default_ordering_sane(self):
        # A core-hour costs more than a GiB-hour, which costs more than
        # a MB/s-hour of bandwidth.
        assert CPU_HOUR > MEMORY_GIB_HOUR > DISK_BW_MBS_HOUR > NET_BW_MBS_HOUR


class TestAppCost:
    @pytest.fixture(autouse=True)
    def declared(self, collector):
        collector.declare(*cost_series("svc"), *cost_series("ghost"))

    def test_constant_allocation(self, engine, collector):
        # 2 cores held for one hour cost two core-hours.
        collector.record("app/svc/alloc/cpu", 2.0)
        engine.run_until(3600.0)
        report = app_cost(collector, "svc", start=0.0, end=3600.0)
        assert report.total == pytest.approx(2 * CPU_HOUR)
        assert report.per_resource["cpu"] == pytest.approx(2 * CPU_HOUR)
        assert report.per_resource["memory"] == 0.0

    def test_allocation_change_mid_window(self, engine, collector):
        collector.record("app/svc/alloc/cpu", 4.0)
        engine.run_until(1800.0)
        collector.record("app/svc/alloc/cpu", 2.0)
        engine.run_until(3600.0)
        report = app_cost(collector, "svc", start=0.0, end=3600.0)
        # (4×0.5h + 2×0.5h) = 3 core-hours.
        assert report.total == pytest.approx(3 * CPU_HOUR)

    def test_missing_series_is_zero(self, engine, collector):
        engine.run_until(100.0)
        report = app_cost(collector, "ghost", start=0.0, end=100.0)
        assert report.total == 0.0

    def test_invalid_window(self, engine, collector):
        with pytest.raises(ValueError):
            app_cost(collector, "svc", start=10.0, end=10.0)

    def test_default_end_is_now(self, engine, collector):
        collector.record("app/svc/alloc/cpu", 1.0)
        engine.run_until(7200.0)
        report = app_cost(collector, "svc")
        assert report.window == pytest.approx(7200.0)


class TestClusterCost:
    def test_provisioned_cost(self):
        cost = cluster_provisioned_cost(
            ResourceVector(cpu=10, memory=0, disk_bw=0, net_bw=0), 7200.0
        )
        assert cost == pytest.approx(20 * CPU_HOUR)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            cluster_provisioned_cost(ResourceVector(cpu=1), -1)


def test_integration_cost_tracks_reclaim(engine, api, collector):
    """An adaptive run should bill less than its static twin."""
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.workloads.microservice import ServiceDemands
    from repro.workloads.plo import LatencyPLO
    from repro.workloads.traces import ConstantTrace

    def run(policy):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=3),
            config=PlatformConfig(seed=2),
            policy=policy,
        )
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(30),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=4, memory=8, disk_bw=200, net_bw=200),
            plo=LatencyPLO(0.1, window=30),
        )
        platform.collector.declare(*cost_series("svc"))
        platform.run(3600.0)
        return app_cost(platform.collector, "svc").total

    static_bill = run("static")
    adaptive_bill = run("adaptive")
    assert adaptive_bill < static_bill / 2
