"""Unit tests for the energy model."""

import pytest

from repro.analysis.energy import (
    EnergyReport,
    PowerModel,
    cluster_energy,
    energy_series,
)
from tests.conftest import make_spec


class TestPowerModel:
    def test_parked_when_empty(self):
        model = PowerModel(parked_watts=10, idle_watts=100, peak_watts=300)
        assert model.node_power(0.0, 0.0) == 10

    def test_idle_when_allocated_but_unused(self):
        model = PowerModel(parked_watts=10, idle_watts=100, peak_watts=300)
        assert model.node_power(0.5, 0.0) == 100

    def test_linear_in_utilization(self):
        model = PowerModel(parked_watts=10, idle_watts=100, peak_watts=300)
        assert model.node_power(0.5, 0.5) == 200
        assert model.node_power(0.5, 1.0) == 300

    def test_utilization_clamped(self):
        model = PowerModel()
        assert model.node_power(0.5, 2.0) == model.node_power(0.5, 1.0)

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            PowerModel(parked_watts=200, idle_watts=100)


class TestClusterEnergy:
    @pytest.fixture(autouse=True)
    def declared(self, collector):
        collector.declare(*energy_series("node-0"), *energy_series("node-1"))

    def test_parked_cluster_energy(self, engine, api, collector):
        collector.start()
        engine.run_until(3600.0)
        model = PowerModel(parked_watts=36, idle_watts=100, peak_watts=300)
        report = cluster_energy(
            collector, ["node-0"], start=0.0, end=3600.0, model=model
        )
        # 36 W for 1 h = 0.036 kWh.
        assert report.per_node_kwh["node-0"] == pytest.approx(0.036, rel=0.05)

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
        model = PowerModel(parked_watts=36, idle_watts=100, peak_watts=300)
        report = cluster_energy(
            collector, ["node-0"], start=0.0, end=3600.0, model=model
        )
        assert report.per_node_kwh["node-0"] == pytest.approx(0.036)

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
