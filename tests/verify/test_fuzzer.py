"""Fuzzer tests: determinism, replayable repros, shrinking.

The acceptance bar from the issue: an injected double-bind must be
caught and shrink to a repro of at most 2 workloads and 1 chaos event,
and the repro JSON must replay to the same failure.
"""

import json

import pytest

from repro.platform.loader import ConfigError
from repro.verify import fuzzer
from repro.verify.fuzzer import (
    ChaosEvent,
    ScenarioSpec,
    WorkloadSpec,
    fuzz,
    generate_scenario,
    load_spec,
    replay,
    run_episode,
    shrink,
    write_repro,
)


def _inject_double_bind(platform):
    """Plant the acceptance-criterion corruption at t=50."""

    def corrupt():
        cluster = platform.cluster
        for pod in cluster.pods.values():
            if pod.active and pod.node_name is not None:
                for node in cluster.nodes.values():
                    if node.name != pod.node_name and node.can_fit(
                        pod.allocation
                    ):
                        node.bind(pod)
                        return

    platform.engine.schedule_at(50.0, corrupt)


class TestScenarioGeneration:
    def test_deterministic_per_run_seed_and_index(self):
        assert generate_scenario(7, 3) == generate_scenario(7, 3)
        assert generate_scenario(7, 3) != generate_scenario(7, 4)
        assert generate_scenario(7, 3) != generate_scenario(8, 3)

    def test_episodes_are_independent_streams(self):
        # Episode 13 must not depend on whether episode 12 was drawn.
        fresh = generate_scenario(7, 13)
        _ = generate_scenario(7, 12)
        assert generate_scenario(7, 13) == fresh

    def test_generated_specs_are_well_formed(self):
        for index in range(10):
            spec = generate_scenario(7, index)
            assert 3 <= spec.nodes <= 5
            assert spec.horizon >= 240.0
            assert spec.controller_replicas in (1, 3)
            assert 1 <= len(spec.workloads) <= 4
            # v3: ft episodes append 1-3 data-plane events to the ≤ 3 base.
            assert len(spec.chaos) <= (6 if spec.ft else 3)
            for workload in spec.workloads:
                assert workload.kind in fuzzer.WORKLOAD_KINDS
            for event in spec.chaos:
                assert event.at >= 30.0
                assert event.duration >= 30.0


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = generate_scenario(7, 2)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_format_version_rejected(self):
        payload = generate_scenario(7, 0).to_dict()
        payload["format"] = 99
        try:
            ScenarioSpec.from_dict(payload)
        except ValueError as err:
            assert "format 99" in str(err)
        else:
            raise AssertionError("expected ValueError")

    def test_write_and_load_repro(self, tmp_path):
        spec = generate_scenario(7, 1)
        path = write_repro(spec, [], tmp_path, 7, 1)
        assert path.name == "repro-7-1.json"
        assert load_spec(path) == spec
        # The human-facing extras don't leak into the replayed spec.
        assert "violations" in json.loads(path.read_text())

    def test_load_spec_errors_are_config_errors(self, tmp_path):
        good = generate_scenario(7, 1).to_dict()
        bad = {
            "truncated.json": '{"seed": 1, "hor',
            "list.json": "[]",
            "no-horizon.json": json.dumps(
                {k: v for k, v in good.items() if k != "horizon"}
            ),
            "bad-seed.json": json.dumps(dict(good, seed="seven")),
        }
        for name, text in bad.items():
            (tmp_path / name).write_text(text)
        for name in [*bad, "absent.json"]:
            with pytest.raises(ConfigError, match=name):
                load_spec(tmp_path / name)


class TestEpisodes:
    def test_clean_episode(self):
        result = run_episode(generate_scenario(7, 0))
        assert result.ok
        assert result.events_executed > 0
        assert result.checks_run > 0

    def test_injected_double_bind_fails_episode(self):
        spec = generate_scenario(7, 0)
        result = run_episode(spec, inject=_inject_double_bind)
        assert not result.ok
        assert result.violations[0].invariant == "no-double-bind"

    def test_fingerprint_collection(self):
        result = run_episode(generate_scenario(7, 0), collect_fingerprint=True)
        assert result.fingerprint, "scenario should place at least one pod"
        time, pod, node = result.fingerprint[0]
        assert isinstance(pod, str) and isinstance(node, str)


class TestShrinking:
    def test_shrink_reaches_minimal_double_bind_repro(self):
        spec = generate_scenario(7, 0)
        assert not run_episode(spec, inject=_inject_double_bind).ok

        def still_fails(candidate):
            return not run_episode(candidate, inject=_inject_double_bind).ok

        shrunk = shrink(spec, still_fails)
        # Acceptance bar: ≤ 2 workloads and ≤ 1 chaos event.
        assert len(shrunk.workloads) <= 2
        assert len(shrunk.chaos) <= 1
        assert shrunk.horizon <= spec.horizon
        assert still_fails(shrunk)

    def test_shrink_respects_min_horizon(self):
        spec = generate_scenario(7, 0)

        def still_fails(candidate):
            return not run_episode(candidate, inject=_inject_double_bind).ok

        shrunk = shrink(spec, still_fails)
        assert shrunk.horizon >= fuzzer.MIN_HORIZON

    def test_shrink_keeps_failure_carrier(self):
        # A spec whose failure needs one specific workload keeps it.
        spec = ScenarioSpec(
            seed=3,
            horizon=120.0,
            nodes=3,
            workloads=(
                WorkloadSpec("hpc", "hpc-0", {
                    "ranks": 2, "duration": 90.0, "cpu": 2.0,
                    "memory": 4.0, "delay": 0.0,
                }),
                WorkloadSpec("micro", "micro-1", {
                    "base": 100.0, "amplitude": 40.0, "period": 600.0,
                    "cpu_seconds": 0.004, "cpu": 1.0, "memory": 2.0,
                    "plo": 0.05, "replicas": 1,
                }),
            ),
            chaos=(ChaosEvent("crash", 40.0, 60.0, 0),),
        )

        def still_fails(candidate):
            return any(w.kind == "micro" for w in candidate.workloads)

        shrunk = shrink(spec, still_fails)
        assert [w.kind for w in shrunk.workloads] == ["micro"]
        assert shrunk.chaos == ()


class TestFuzzLoop:
    def test_clean_fuzz_run(self, tmp_path):
        summary = fuzz(3, 7, out_dir=tmp_path)
        assert summary.ok
        assert summary.episodes == 3
        assert list(tmp_path.iterdir()) == []

    def test_failing_fuzz_run_writes_shrunken_repro(self, tmp_path):
        summary = fuzz(
            1, 7, out_dir=tmp_path, inject=_inject_double_bind
        )
        assert not summary.ok
        failure = summary.failures[0]
        assert failure.violations[0].invariant == "no-double-bind"
        assert len(failure.shrunk.workloads) <= 2
        assert len(failure.shrunk.chaos) <= 1
        assert failure.repro_path is not None
        # The written repro replays to the same failure class.
        result = run_episode(
            load_spec(failure.repro_path), inject=_inject_double_bind
        )
        assert not result.ok
        assert result.violations[0].invariant == "no-double-bind"

    def test_replay_seed_override(self, tmp_path):
        spec = generate_scenario(7, 0)
        path = write_repro(spec, [], tmp_path, 7, 0)
        base = replay(path)
        assert base.ok and base.spec.seed == spec.seed
        overridden = replay(path, seed=12345)
        assert overridden.spec.seed == 12345
        assert overridden.ok


class TestFormatV3:
    """PR-7 additions: the ft flag, data-plane chaos, and v2 compat."""

    def test_ft_round_trips_through_json(self):
        spec = ScenarioSpec(seed=1, horizon=120.0, nodes=3, workloads=(), ft=True)
        loaded = ScenarioSpec.from_json(spec.to_json())
        assert loaded == spec
        assert loaded.ft is True

    def test_v2_payload_defaults_ft_off(self):
        payload = generate_scenario(7, 0).to_dict()
        payload["format"] = 2
        payload.pop("ft")
        spec = ScenarioSpec.from_dict(payload)
        assert spec.ft is False

    def test_generator_emits_ft_episodes_with_data_chaos(self):
        specs = [generate_scenario(23, i) for i in range(25)]
        ft_specs = [s for s in specs if s.ft]
        assert ft_specs, "seed 23 draws ft episodes in 25 tries"
        assert any(not s.ft for s in specs)
        data_events = [
            e
            for s in ft_specs
            for e in s.chaos
            if e.domain in fuzzer.DATA_DOMAINS
        ]
        assert data_events
        for event in data_events:
            assert event.at >= 30.0 and event.duration >= 30.0
        # ft=False episodes never carry data-plane chaos.
        for spec in specs:
            if not spec.ft:
                assert all(
                    e.domain not in fuzzer.DATA_DOMAINS for e in spec.chaos
                )

    def test_ft_episode_runs_clean(self):
        spec = next(
            generate_scenario(23, i) for i in range(25)
            if generate_scenario(23, i).ft
        )
        assert any(e.domain in fuzzer.DATA_DOMAINS for e in spec.chaos)
        result = run_episode(spec)
        assert result.ok, [v.detail for v in result.violations]

    def test_shrink_tries_disabling_ft(self):
        spec = ScenarioSpec(
            seed=3,
            horizon=240.0,
            nodes=3,
            workloads=(
                WorkloadSpec("micro", "micro-0", {
                    "base": 100.0, "amplitude": 40.0, "period": 600.0,
                    "cpu_seconds": 0.004, "cpu": 1.0, "memory": 2.0,
                    "plo": 0.05, "replicas": 1,
                }),
            ),
            chaos=(ChaosEvent("executor-kill", 40.0, 60.0, 0),),
            ft=True,
        )

        def still_fails(candidate):
            # Failure independent of ft: the shrinker must turn it off.
            return any(w.kind == "micro" for w in candidate.workloads)

        shrunk = shrink(spec, still_fails)
        assert shrunk.ft is False
        assert still_fails(shrunk)
