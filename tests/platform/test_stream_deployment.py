"""Platform + scenario-spec integration for stream jobs."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.scenarios.spec import ConfigError, ScenarioSpec, build_platform
from repro.workloads.plo import LatencyPLO
from repro.workloads.stream import Operator, StreamJob
from repro.workloads.traces import ConstantTrace


def test_deploy_stream_managed_end_to_end():
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=4),
        policy="adaptive",
    )
    job = platform.deploy_stream(
        "events",
        trace=ConstantTrace(300),
        operators=[Operator("parse", 0.004), Operator("agg", 0.002)],
        allocation=ResourceVector(cpu=0.5, memory=2, disk_bw=10, net_bw=40),
        plo=LatencyPLO(5.0, window=30),
    )
    platform.run(1800.0)
    assert isinstance(job, StreamJob)
    assert job.current_lag_seconds < 5.0
    result = platform.result()
    assert result.violation_fraction("events") < 0.25


def test_stream_via_loader():
    spec = ScenarioSpec.from_dict({
        "seed": 0,
        "horizon": 600,
        "nodes": 3,
        "workloads": [{"kind": "stream", "name": "clicks", "params": {
            "trace": {"kind": "constant", "value": 100},
            "operators": [
                {"name": "parse", "cpu_seconds": 0.002},
                {"name": "filter", "cpu_seconds": 0.001, "selectivity": 0.5},
            ],
            "allocation": {"cpu": 1, "memory": 2, "disk_bw": 10, "net_bw": 40},
            "plo": {"kind": "latency", "target": 5.0},
        }}],
    })
    platform = build_platform(spec)
    platform.run(spec.horizon)
    job = platform.apps["clicks"]
    assert job.output_selectivity == pytest.approx(0.5)
    assert job.current_rate == pytest.approx(100, rel=0.1)


def test_stream_loader_validation():
    spec = ScenarioSpec.from_dict({
        "seed": 0,
        "horizon": 60,
        "nodes": 2,
        "workloads": [{"kind": "stream", "name": "bad", "params": {
            "trace": {"kind": "constant", "value": 1},
            "operators": [{"name": "x", "cpu_seconds": -1}],
            "allocation": {"cpu": 1},
        }}],
    })
    with pytest.raises(ConfigError, match="stream 'bad'"):
        build_platform(spec)
