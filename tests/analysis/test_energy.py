"""Unit tests for the energy model."""

import pytest

from repro.analysis.energy import (
    IDLE_WATTS,
    PARKED_WATTS,
    PEAK_WATTS,
    EnergyReport,
    cluster_energy,
    energy_series,
    node_power,
)
from tests.conftest import make_spec


class TestPowerModel:
    """The linear node power model."""

    def test_parked_when_empty(self):
        assert node_power(0.0, 0.0) == PARKED_WATTS

    def test_idle_when_allocated_but_unused(self):
        assert node_power(0.5, 0.0) == IDLE_WATTS

    def test_linear_in_utilization(self):
        assert node_power(0.5, 0.5) == (IDLE_WATTS + PEAK_WATTS) / 2
        assert node_power(0.5, 1.0) == PEAK_WATTS

    def test_utilization_clamped(self):
        assert node_power(0.5, 2.0) == node_power(0.5, 1.0)
        assert node_power(0.5, -1.0) == node_power(0.5, 0.0)

    def test_wattages_ordered(self):
        assert 0 <= PARKED_WATTS <= IDLE_WATTS <= PEAK_WATTS


class TestClusterEnergy:
    @pytest.fixture(autouse=True)
    def declared(self, collector):
        collector.declare(*energy_series("node-0"), *energy_series("node-1"))

    def test_parked_cluster_energy(self, engine, api, collector):
        collector.start()
        engine.run_until(3600.0)
        report = cluster_energy(collector, ["node-0"], start=0.0, end=3600.0)
        # The parked draw for 1 h, in kWh.
        assert report.per_node_kwh["node-0"] == pytest.approx(
            PARKED_WATTS / 1000, rel=0.05
        )

    def test_busy_node_draws_more(self, engine, api, collector):
        api.create_pod(make_spec("p", cpu=8))
        api.bind_pod("p", "node-0")
        collector.start()
        engine.run_until(3600.0)
        report = cluster_energy(
            collector, ["node-0", "node-1"], start=0.0, end=3600.0
        )
        assert report.per_node_kwh["node-0"] > report.per_node_kwh["node-1"] * 3

    def test_never_scraped_counts_as_parked(self, engine, api, collector):
        report = cluster_energy(collector, ["node-0"], start=0.0, end=3600.0)
        assert report.per_node_kwh["node-0"] == pytest.approx(PARKED_WATTS / 1000)

    def test_total_and_mean_watts(self):
        report = EnergyReport(window=3600.0, per_node_kwh={"a": 0.1, "b": 0.2})
        assert report.total_kwh == pytest.approx(0.3)
        assert report.mean_watts == pytest.approx(300.0)

    def test_invalid_window(self, collector):
        with pytest.raises(ValueError):
            cluster_energy(collector, [], start=10.0, end=10.0)


def test_consolidation_saves_energy(engine):
    """Consolidate-packing leaves nodes parked that spread keeps warm."""
    from repro.cluster.resources import ResourceVector
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.workloads.microservice import ServiceDemands
    from repro.workloads.traces import ConstantTrace

    def run(packing):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=6),
            config=PlatformConfig(seed=4),
            scheduler="converged",
            scheduler_kwargs={"packing": packing, "interference_weight": 0.0},
        )
        for i in range(6):
            platform.deploy_microservice(
                f"svc-{i}", trace=ConstantTrace(20),
                demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
                allocation=ResourceVector(cpu=1, memory=2, disk_bw=10, net_bw=10),
                managed=False,
            )
        for node in platform.cluster.nodes:
            platform.collector.declare(*energy_series(node))
        platform.run(3600.0)
        report = cluster_energy(
            platform.collector, list(platform.cluster.nodes),
            start=0.0, end=3600.0,
        )
        return report.total_kwh

    assert run("consolidate") < run("spread") * 0.8
