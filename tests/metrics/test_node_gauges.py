"""Unit tests for per-node metric gauges."""

import pytest

from repro.analysis.energy import energy_series
from repro.cluster.resources import ResourceVector
from tests.conftest import make_spec


@pytest.fixture(autouse=True)
def declared(api, collector):
    for node in api.list_nodes():
        collector.declare(*energy_series(node.name))


def test_per_node_series_created(engine, api, collector):
    collector.start()
    engine.run_until(6.0)
    for node in api.list_nodes():
        assert collector.has_series(f"node/{node.name}/usage_frac/cpu")
        assert collector.has_series(f"node/{node.name}/alloc_frac/cpu")


def test_node_alloc_gauge_tracks_bindings(engine, api, collector):
    api.create_pod(make_spec("p", cpu=8))
    api.bind_pod("p", "node-1")
    collector.start()
    engine.run_until(6.0)
    assert collector.latest("node/node-1/alloc_frac/cpu") == pytest.approx(0.5)
    assert collector.latest("node/node-0/alloc_frac/cpu") == 0.0


def test_node_usage_gauge_tracks_consumption(engine, api, collector):
    pod = api.create_pod(make_spec("p", cpu=8))
    api.bind_pod("p", "node-1")
    engine.run_until(6.0)
    pod.record_usage(ResourceVector(cpu=4))
    collector.scrape()
    assert collector.latest("node/node-1/usage_frac/cpu") == pytest.approx(0.25)


def test_node_gauge_drops_after_release(engine, api, collector):
    api.create_pod(make_spec("p", cpu=8))
    api.bind_pod("p", "node-1")
    collector.start()
    engine.run_until(6.0)
    api.mark_finished("p")
    engine.run_until(11.0)
    assert collector.latest("node/node-1/alloc_frac/cpu") == 0.0
