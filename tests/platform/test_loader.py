"""Unit tests for the declarative config loader."""

import copy
import json
import re

import numpy as np
import pytest

from repro.platform.loader import (
    ConfigError,
    cluster_spec_from_dict,
    demands_from_dict,
    platform_from_dict,
    platform_from_json,
    plo_from_dict,
    trace_from_dict,
)
from repro.workloads.microservice import DemandPhase, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO


RNG = np.random.default_rng(0)


class TestTraceFromDict:
    def test_constant(self):
        assert trace_from_dict({"kind": "constant", "value": 5}, RNG).rate(0) == 5

    def test_step(self):
        trace = trace_from_dict(
            {"kind": "step", "steps": [[10, 5]], "initial": 1}, RNG
        )
        assert trace.rate(0) == 1 and trace.rate(20) == 5

    def test_diurnal(self):
        trace = trace_from_dict(
            {"kind": "diurnal", "base": 100, "amplitude": 50, "period": 100}, RNG
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
            RNG,
        )
        assert trace.rate(0) == 3

    def test_noisy_wraps_base(self):
        trace = trace_from_dict(
            {"kind": "noisy", "base": {"kind": "constant", "value": 100},
             "rel_std": 0.0, "horizon": 100},
            RNG,
        )
        assert trace.rate(0) == pytest.approx(100)

    def test_replay_inline(self):
        trace = trace_from_dict(
            {"kind": "replay", "samples": [[0, 10], [50, 20]]}, RNG
        )
        assert trace.rate(60) == 20

    def test_replay_csv_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,rate\n0,10\n50,20\n")
        trace = trace_from_dict(
            {"kind": "replay", "path": str(path), "time_scale": 2.0,
             "rate_scale": 3.0},
            RNG,
        )
        assert trace.rate(90) == 30
        assert trace.rate(110) == 60

    def test_replay_short_row_is_config_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,rate\n0,10\n50\n")
        with pytest.raises(ConfigError, match="malformed row"):
            trace_from_dict({"kind": "replay", "path": str(path)}, RNG)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown trace kind"):
            trace_from_dict({"kind": "wavelet"}, RNG)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="missing required key"):
            trace_from_dict({}, RNG)

    def test_bad_params_reported(self):
        with pytest.raises(ConfigError, match="constant"):
            trace_from_dict({"kind": "constant", "value": -1}, RNG)


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
        spec = cluster_spec_from_dict({"nodes": 4, "capacity": {"cpu": 8}})
        assert spec.node_count == 4
        assert spec.node_capacity.cpu == 8

    def test_cluster_spec_groups(self):
        spec = cluster_spec_from_dict({
            "groups": [
                {"name": "w", "count": 2, "capacity": {"cpu": 8}},
                {"name": "f", "count": 1, "capacity": {"cpu": 4},
                 "labels": {"accelerator": "fpga"}},
            ]
        })
        assert spec.total_nodes == 3

    def test_bad_resource_key(self):
        with pytest.raises(ConfigError):
            cluster_spec_from_dict({"capacity": {"gpu": 1}})

    def test_zones(self):
        spec = cluster_spec_from_dict({"nodes": 4, "zones": 2})
        assert spec.zones == 2

    def test_hpc_resilience_knobs(self):
        config = {
            "duration": 60,
            "cluster": {"nodes": 2},
            "hpc": [{
                "name": "sim", "ranks": 1, "job_duration": 30,
                "allocation": {"cpu": 2, "memory": 2},
                "zone_penalty": 0.5, "checkpoint_interval": 10,
            }],
        }
        platform, _d = platform_from_dict(config)
        job = platform.apps["sim"]
        assert job.zone_penalty == 0.5
        assert job.checkpoint_interval == 10


FULL_CONFIG = {
    "seed": 11,
    "duration": 900,
    "cluster": {"nodes": 4},
    "scheduler": "converged",
    "policy": "adaptive",
    "services": [
        {
            "name": "web",
            "trace": {"kind": "constant", "value": 80},
            "demands": {"cpu_seconds": 0.01, "base_latency": 0.01},
            "allocation": {"cpu": 1, "memory": 1, "disk_bw": 20, "net_bw": 20},
            "plo": {"kind": "latency", "target": 0.05},
        }
    ],
    "bigdata": [
        {
            "name": "etl",
            "stages": [{"name": "map", "work": 200}],
            "allocation": {"cpu": 2, "memory": 4, "disk_bw": 50, "net_bw": 50},
            "executors": 2,
        }
    ],
    "hpc": [
        {
            "name": "sim",
            "ranks": 2,
            "job_duration": 120,
            "allocation": {"cpu": 4, "memory": 4, "disk_bw": 5, "net_bw": 50},
        }
    ],
}


STREAM = {
    "name": "ingest",
    "trace": {"kind": "constant", "value": 50},
    "operators": [{"name": "parse", "cpu_seconds": 0.001}],
    "allocation": {"cpu": 1, "memory": 1, "disk_bw": 10, "net_bw": 10},
}

#: One-line faults in an otherwise valid config: (path to the value, bad
#: value, the section the ConfigError must name).
MALFORMED = {
    "seed": (("seed",), "abc", "seed"),
    "duration": (("duration",), "x", "duration"),
    "replicas": (("services", 0, "replicas"), "two", "service 'web'"),
    "scheduler": (("scheduler",), "nope", "platform"),
    "policy": (("policy",), "nope", "platform"),
    "policy-kwargs": (("policy_kwargs",), {"bogus": 1}, "platform"),
    "scheduler-kwargs": (("scheduler_kwargs",), {"bogus": 1}, "platform"),
    "service-not-object": (("services", 0), 42, "services[0]"),
    "unknown-dep": (
        ("bigdata", 0, "stages", 0, "deps"), ["nope"], "bigdata job 'etl'"
    ),
    "zero-ranks": (("hpc", 0, "ranks"), 0, "hpc job 'sim'"),
    "allocation": (
        ("services", 0, "allocation", "cpu"), "x", "service 'web'"
    ),
    "quota": (("quotas",), {"team": {"cpu": "x"}}, "quotas"),
    "duplicate-name": (("hpc", 0, "name"), "web", "hpc job 'web'"),
    "negative-mtbf": (("chaos",), {"mtbf": -1}, "chaos"),
    "no-operators": (("streams", 0, "operators"), [], "stream 'ingest'"),
    "unknown-dataset": (
        ("bigdata", 0, "dataset"), "lake", "bigdata job 'etl'"
    ),
}


class TestPlatformFromDict:
    @pytest.mark.parametrize("fault", MALFORMED)
    def test_malformed_config_is_config_error(self, fault):
        path, value, section = MALFORMED[fault]
        config = copy.deepcopy(dict(FULL_CONFIG, streams=[STREAM]))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: "):
            platform_from_dict(config)

    def test_full_config_runs(self):
        platform, duration = platform_from_dict(FULL_CONFIG)
        assert duration == 900
        assert set(platform.apps) == {"web", "etl", "sim"}
        platform.run(duration)
        result = platform.result()
        assert result.makespans["etl"] is not None
        assert result.makespans["sim"] is not None
        assert result.violation_fraction("web") < 0.2

    def test_chaos_section(self):
        config = dict(FULL_CONFIG, chaos={"mtbf": 100, "repair_time": 50})
        platform, _d = platform_from_dict(config)
        assert platform.chaos is not None

    def test_invalid_duration(self):
        with pytest.raises(ConfigError):
            platform_from_dict({"duration": 0})

    def test_missing_service_name(self):
        with pytest.raises(ConfigError, match="name"):
            platform_from_dict({"services": [{}]})

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(FULL_CONFIG))
        platform, duration = platform_from_json(str(path))
        assert duration == 900

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            platform_from_json(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            platform_from_json(str(path))
