"""Unit tests for the scenario spec loader and its general-form parts."""

import copy
import json
import re

import numpy as np
import pytest

from repro.scenarios.spec import (
    ConfigError,
    ScenarioSpec,
    build_platform,
    demands_from_dict,
    load_spec,
    plo_from_dict,
    trace_from_dict,
)
from repro.workloads.microservice import DemandPhase, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO


RNG = np.random.default_rng(0)


def stream():
    """The RNG a drawing trace kind asks for."""
    return RNG


def _build(config: dict):
    return build_platform(ScenarioSpec.from_dict(config))


class TestTraceFromDict:
    def test_constant(self):
        assert trace_from_dict({"kind": "constant", "value": 5}, stream).rate(0) == 5

    def test_step(self):
        trace = trace_from_dict(
            {"kind": "step", "steps": [[0, 1], [10, 5]]}, stream
        )
        assert trace.rate(0) == 1 and trace.rate(20) == 5

    def test_diurnal(self):
        trace = trace_from_dict(
            {"kind": "diurnal", "base": 100, "amplitude": 50, "period": 100},
            stream,
        )
        assert trace.rate(25) == pytest.approx(150)

    def test_composite_nested(self):
        trace = trace_from_dict(
            {
                "kind": "composite",
                "components": [
                    {"kind": "constant", "value": 1},
                    {"kind": "constant", "value": 2},
                ],
            },
            stream,
        )
        assert trace.rate(0) == 3

    def test_noisy_wraps_base(self):
        trace = trace_from_dict(
            {"kind": "noisy", "base": {"kind": "constant", "value": 100},
             "rel_std": 0.0, "horizon": 100},
            stream,
        )
        assert trace.rate(0) == pytest.approx(100)

    def test_replay_inline(self):
        trace = trace_from_dict(
            {"kind": "replay", "samples": [[0, 10], [50, 20]]}, stream
        )
        assert trace.rate(60) == 20

    def test_replay_csv_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,rate\n0,10\n50,20\n")
        trace = trace_from_dict(
            {"kind": "replay", "path": str(path), "time_scale": 2.0,
             "rate_scale": 3.0},
            stream,
        )
        assert trace.rate(90) == 30
        assert trace.rate(110) == 60

    def test_replay_short_row_is_config_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,rate\n0,10\n50\n")
        with pytest.raises(ConfigError, match="malformed row"):
            trace_from_dict({"kind": "replay", "path": str(path)}, stream)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown trace kind"):
            trace_from_dict({"kind": "wavelet"}, stream)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="missing required key"):
            trace_from_dict({}, stream)

    def test_bad_params_reported(self):
        with pytest.raises(ConfigError, match="constant"):
            trace_from_dict({"kind": "constant", "value": -1}, stream)


#: A general-form HPC job on the two-node cluster of ``_cluster``.
HPC = {
    "kind": "hpc",
    "name": "sim",
    "params": {
        "ranks": 1, "duration": 30, "allocation": {"cpu": 2, "memory": 2},
    },
}
CAPACITY = {"cpu": 8, "memory": 32, "disk_bw": 100, "net_bw": 100}


def _cluster(**keys) -> dict:
    return {"seed": 0, "horizon": 60, "nodes": 2, **keys}


class TestOtherBuilders:
    def test_plo_latency(self):
        plo = plo_from_dict({"kind": "latency", "target": 0.05})
        assert isinstance(plo, LatencyPLO)

    def test_plo_throughput(self):
        plo = plo_from_dict({"kind": "throughput", "target": 100})
        assert isinstance(plo, ThroughputPLO)

    def test_plo_unknown(self):
        with pytest.raises(ConfigError):
            plo_from_dict({"kind": "deadline2"})

    def test_demands_single(self):
        demands = demands_from_dict({"cpu_seconds": 0.01})
        assert isinstance(demands, ServiceDemands)

    def test_demands_phased(self):
        phases = demands_from_dict([
            {"start_time": 0, "cpu_seconds": 0.01},
            {"start_time": 100, "cpu_seconds": 0.02},
        ])
        assert all(isinstance(p, DemandPhase) for p in phases)

    def test_cluster_spec_homogeneous(self):
        platform = _build(_cluster(nodes=4, node_capacity=CAPACITY))
        assert len(platform.cluster.nodes) == 4
        assert platform.cluster_spec.node_capacity.cpu == 8

    def test_cluster_spec_groups(self):
        platform = _build(_cluster(nodes=3, groups=[
            {"name": "w", "count": 2, "capacity": CAPACITY},
            {"name": "f", "count": 1, "capacity": CAPACITY,
             "labels": {"accelerator": "fpga"}},
        ]))
        assert len(platform.cluster.nodes) == 3
        assert platform.cluster.nodes["f-00"].labels["accelerator"] == "fpga"

    def test_bad_resource_key(self):
        with pytest.raises(ConfigError):
            _build(_cluster(node_capacity={"gpu": 1}))

    def test_zones(self):
        platform = _build(_cluster(nodes=4, zones=2))
        assert platform.cluster_spec.zones == 2

    def test_hpc_resilience_knobs(self):
        hpc = copy.deepcopy(HPC)
        hpc["params"].update(zone_penalty=0.5, checkpoint_interval=10)
        job = _build(_cluster(workloads=[hpc])).apps["sim"]
        assert job.zone_penalty == 0.5
        assert job.checkpoint_interval == 10


FULL_CONFIG = {
    "format": 5,
    "seed": 11,
    "horizon": 900,
    "nodes": 4,
    "scheduler": "converged",
    "policy": "adaptive",
    "workloads": [
        {
            "kind": "micro",
            "name": "web",
            "params": {
                "trace": {"kind": "constant", "value": 80},
                "demands": {"cpu_seconds": 0.01, "base_latency": 0.01},
                "allocation": {"cpu": 1, "memory": 1, "disk_bw": 20,
                               "net_bw": 20},
                "plo": {"kind": "latency", "target": 0.05},
            },
        },
        {
            "kind": "bigdata",
            "name": "etl",
            "params": {
                "stages": [{"name": "map", "work": 200}],
                "allocation": {"cpu": 2, "memory": 4, "disk_bw": 50,
                               "net_bw": 50},
                "executors": 2,
            },
        },
        {
            "kind": "hpc",
            "name": "sim",
            "params": {
                "ranks": 2,
                "duration": 120,
                "allocation": {"cpu": 4, "memory": 4, "disk_bw": 5,
                               "net_bw": 50},
            },
        },
    ],
}


STREAM_WORKLOAD = {
    "kind": "stream",
    "name": "ingest",
    "params": {
        "trace": {"kind": "constant", "value": 50},
        "operators": [{"name": "parse", "cpu_seconds": 0.001}],
        "allocation": {"cpu": 1, "memory": 1, "disk_bw": 10, "net_bw": 10},
    },
}

#: One-line faults in an otherwise valid spec: (path to the value, bad
#: value, the section the ConfigError must name).
MALFORMED = {
    "seed": (("seed",), "abc", "seed"),
    "duration": (("horizon",), "x", "horizon"),
    "replicas": (
        ("workloads", 0, "params", "replicas"), "two", "micro 'web'"
    ),
    "scheduler": (("scheduler",), "nope", "platform"),
    "policy": (("policy",), "nope", "platform"),
    "policy-kwargs": (("policy_kwargs",), {"bogus": 1}, "platform"),
    "scheduler-kwargs": (("scheduler_kwargs",), {"bogus": 1}, "platform"),
    "service-not-object": (("workloads", 0), 42, "workloads"),
    "unknown-dep": (
        ("workloads", 1, "params", "stages", 0, "deps"), ["nope"],
        "bigdata 'etl'",
    ),
    "zero-ranks": (("workloads", 2, "params", "ranks"), 0, "hpc 'sim'"),
    "allocation": (
        ("workloads", 0, "params", "allocation", "cpu"), "x", "micro 'web'"
    ),
    "quota": (("quotas",), {"team": {"cpu": "x"}}, "quotas"),
    "duplicate-name": (("workloads", 2, "name"), "web", "hpc 'web'"),
    "negative-mtbf": (("monkey",), {"mtbf": -1}, "monkey"),
    "no-operators": (
        ("workloads", 3, "params", "operators"), [], "stream 'ingest'"
    ),
    "unknown-dataset": (
        ("workloads", 1, "params", "dataset"), "lake", "bigdata 'etl'"
    ),
    "bad-dataset": (
        ("workloads", 1, "params", "dataset"), {"total_mb": 0, "block_mb": 1},
        "bigdata 'etl'",
    ),
}


class TestPlatformFromDict:
    @pytest.mark.parametrize("fault", MALFORMED)
    def test_malformed_config_is_config_error(self, fault):
        path, value, section = MALFORMED[fault]
        config = copy.deepcopy(FULL_CONFIG)
        config["workloads"].append(copy.deepcopy(STREAM_WORKLOAD))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: "):
            _build(config)

    def test_full_config_runs(self):
        spec = ScenarioSpec.from_dict(FULL_CONFIG)
        assert spec.horizon == 900
        platform = build_platform(spec)
        assert set(platform.apps) == {"web", "etl", "sim"}
        platform.run(spec.horizon)
        result = platform.result()
        assert result.makespans["etl"] is not None
        assert result.makespans["sim"] is not None
        assert result.violation_fraction("web") < 0.2

    def test_chaos_section(self):
        config = dict(FULL_CONFIG, monkey={"mtbf": 100, "repair_time": 50})
        assert _build(config).chaos is not None

    def test_invalid_duration(self):
        with pytest.raises(ConfigError, match="horizon"):
            ScenarioSpec.from_dict(dict(FULL_CONFIG, horizon=0))

    def test_missing_service_name(self):
        with pytest.raises(ConfigError, match="name"):
            ScenarioSpec.from_dict(
                dict(FULL_CONFIG, workloads=[{"kind": "micro", "params": {}}])
            )

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(FULL_CONFIG))
        spec = load_spec(path)
        assert spec.horizon == 900
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_spec(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_spec(path)
