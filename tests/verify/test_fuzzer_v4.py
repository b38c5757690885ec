"""ScenarioSpec format-v4 tests: trace-model fields, draw-order
discipline, byte-identical v3 replay, and the format-5 version
constants.

The versioning contract: a v4 parser must replay any v3 spec with a
bit-identical trajectory (the new fields default off and their RNG
draws come strictly *after* every v3 draw in generation), and the new
fields must round-trip, validate, and shrink away first.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios.spec import (
    ARRIVAL_MODELS,
    FORMAT_VERSION,
    SUPPORTED_FORMATS,
    ScenarioSpec,
)
from repro.verify.fuzzer import generate_scenario, run_episode, shrink

#: Two seeded v3 episodes captured before the v4 fields existed, with
#: the sha256 of their placement fingerprints. If parsing a v3 payload
#: through the v4 loader shifts even one scheduling decision, these
#: hashes break — the bit-identical-replay guarantee in action.
BAKED_V3 = [
    {
        "spec": {
            "chaos": [
                {"at": 56.0, "domain": "straggler", "duration": 42.1,
                 "target": 0},
                {"at": 84.8, "domain": "executor-kill", "duration": 103.0,
                 "target": 15},
            ],
            "controller_replicas": 1, "format": 3, "ft": True,
            "horizon": 240.0, "nodes": 5, "overload": True,
            "scheduler": "converged", "seed": 1809177421,
            "workloads": [
                {"kind": "bigdata", "name": "bigdata-0",
                 "params": {"agg_cpu": 324.0, "cpu": 1.09, "dataset": True,
                            "delay": 33.4, "executors": 2,
                            "input_mb": 6652.0, "memory": 4.0,
                            "scan_cpu": 282.0}},
                {"kind": "bigdata", "name": "bigdata-1",
                 "params": {"agg_cpu": 205.2, "cpu": 1.24, "dataset": False,
                            "delay": 0.2, "executors": 3,
                            "input_mb": 3333.8, "memory": 4.0,
                            "scan_cpu": 173.1}},
                {"kind": "hpc", "name": "hpc-2",
                 "params": {"cpu": 2.19, "delay": 53.9, "duration": 96.3,
                            "memory": 4.1, "ranks": 3}},
            ],
            "zones": 1,
        },
        "events": 808,
        "fingerprint": (
            "6a8aa714bee77309c2d6047c1383995f659e4bb7fbbb4e25f1a4a2bf38a0cb61"
        ),
    },
    {
        "spec": {
            "chaos": [
                {"at": 204.7, "domain": "degrade", "duration": 67.9,
                 "target": 3},
                {"at": 221.0, "domain": "crash", "duration": 94.3,
                 "target": 1},
            ],
            "controller_replicas": 1, "format": 3, "ft": False,
            "horizon": 420.0, "nodes": 3, "overload": True,
            "scheduler": "converged", "seed": 486701570,
            "workloads": [
                {"kind": "hpc", "name": "hpc-0",
                 "params": {"cpu": 3.53, "delay": 0.6, "duration": 107.9,
                            "memory": 4.5, "ranks": 4}},
            ],
            "zones": 1,
        },
        "events": 746,
        "fingerprint": (
            "7e1e441a436f6ad8c251557f99b74f775acbd8e56cc60ac044dc775d9ed328a6"
        ),
    },
]


def _fingerprint_hash(spec: ScenarioSpec) -> tuple[int, str]:
    result = run_episode(spec, every=8, collect_fingerprint=True)
    digest = hashlib.sha256(repr(result.fingerprint).encode()).hexdigest()
    return result.events_executed, digest


class TestFormatV4:
    def test_version_constants(self):
        assert FORMAT_VERSION == 5
        assert SUPPORTED_FORMATS == (1, 2, 3, 4, 5)
        assert ARRIVAL_MODELS == ("rate", "poisson", "mmpp")

    def test_v3_payload_defaults_new_fields_off(self):
        spec = ScenarioSpec.from_dict(BAKED_V3[1]["spec"])
        assert spec.arrival_model == "rate"
        assert spec.heavy_tail is False
        assert spec.surge is False

    @pytest.mark.parametrize("baked", BAKED_V3, ids=["mixed", "hpc"])
    def test_v3_specs_replay_byte_identically(self, baked):
        spec = ScenarioSpec.from_dict(baked["spec"])
        events, digest = _fingerprint_hash(spec)
        assert events == baked["events"]
        assert digest == baked["fingerprint"]

    def test_v4_fields_round_trip(self):
        spec = generate_scenario(3, 0)
        armed = dataclasses.replace(
            spec, arrival_model="mmpp", heavy_tail=True, surge=True
        )
        data = json.loads(json.dumps(armed.to_dict()))
        assert ScenarioSpec.from_dict(data) == armed
        assert data["format"] == 4
        assert data["arrival_model"] == "mmpp"

    def test_unknown_arrival_model_rejected(self):
        spec = generate_scenario(3, 0)
        with pytest.raises(ValueError, match="arrival_model"):
            dataclasses.replace(spec, arrival_model="fractal")

    def test_generator_covers_the_v4_models(self):
        specs = [
            generate_scenario(s, e)
            for s in range(20)
            for e in range(2)
        ]
        models = {s.arrival_model for s in specs}
        assert "poisson" in models and "mmpp" in models
        assert any(s.heavy_tail for s in specs)
        assert any(s.surge for s in specs)
        # rate-based specs stay the common case (v3 behaviour).
        assert sum(s.arrival_model == "rate" for s in specs) > len(specs) / 3


class TestV4Episodes:
    def _armed_spec(self):
        for s in range(60):
            spec = generate_scenario(s, 0)
            if spec.arrival_model != "rate" and spec.heavy_tail:
                return spec
        raise AssertionError("no armed spec found in 60 seeds")

    def test_armed_episode_runs_clean(self):
        result = run_episode(self._armed_spec(), every=8)
        assert result.ok, result.violations

    def test_armed_episode_same_seed_bit_identical(self):
        spec = self._armed_spec()
        assert _fingerprint_hash(spec) == _fingerprint_hash(spec)


class TestV4Shrinking:
    def test_shrink_disables_trace_models_first(self):
        spec = dataclasses.replace(
            generate_scenario(5, 0),
            arrival_model="mmpp",
            heavy_tail=True,
            surge=True,
        )

        # A predicate that keeps failing regardless of the v4 fields:
        # shrinking must turn them all off.
        shrunk = shrink(spec, lambda s: True)
        assert shrunk.arrival_model == "rate"
        assert shrunk.heavy_tail is False
        assert shrunk.surge is False

    def test_shrink_keeps_a_load_bearing_model(self):
        spec = dataclasses.replace(
            generate_scenario(5, 0),
            arrival_model="poisson",
        )
        # Fails only while the Poisson model is armed: shrinking must
        # not remove the failure carrier.
        shrunk = shrink(spec, lambda s: s.arrival_model == "poisson")
        assert shrunk.arrival_model == "poisson"
