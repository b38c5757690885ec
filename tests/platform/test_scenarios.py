"""Scenario-spec tests: every spec file loads, round-trips, builds and
runs; the pack entries validate and replay.

The pack contract is append-only: entries introduced at an earlier
``pack_version`` must never change (their canonical spec hashes are
pinned below), new versions may only add entries. Pack v2 appended the
trace-realism trio (``diurnal-replay``, ``heavy-tail``,
``correlated-surge``) in spec format 4.
"""

import cProfile
import hashlib
import json
import pstats
from pathlib import Path

import pytest

from repro.arena import run_cell
from repro.cli import main
from repro.scenarios import (
    PACK_VERSION,
    UnknownScenarioError,
    load_report,
    load_scenario,
    report_names,
    scenario_names,
)
from repro.scenarios.spec import (
    SUPPORTED_FORMATS,
    WORKLOAD_KINDS,
    ScenarioSpec,
    build_platform,
    load_spec,
)
from repro.verify.fuzzer import MIN_HORIZON, generate_scenario, run_episode

KNOWN_DOMAINS = (
    "crash",
    "degrade",
    "controller-crash",
    "partition",
    "zone-outage",
    "overload-surge",
    "executor-kill",
    "straggler",
    "data-loss",
)

V1_ENTRIES = (
    "calm",
    "data-fault",
    "diurnal",
    "flash-crowd",
    "overload-surge",
    "zone-outage",
)
V2_ENTRIES = (
    "correlated-surge",
    "diurnal-replay",
    "heavy-tail",
)
EXPECTED = tuple(sorted(V1_ENTRIES + V2_ENTRIES))

#: Append-only enforcement: sha256 (truncated) of each v1 entry's
#: canonical spec dict. Editing a v1 entry silently reshuffles every
#: policy's historical scorecard, so it must fail loudly here instead.
V1_SPEC_HASHES = {
    "calm": "2247ddf36e196de2",
    "data-fault": "284b634be132b82a",
    "diurnal": "43b69581074ca000",
    "flash-crowd": "994644fad27a7919",
    "overload-surge": "df37875f3395cdac",
    "zone-outage": "295b632274a17828",
}


def _spec_hash(name: str) -> str:
    spec = load_scenario(name).spec
    canon = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_pack_contains_the_curated_scenarios():
    assert scenario_names() == EXPECTED
    assert len(scenario_names()) >= 9


def test_pack_style_file_declaring_another_name_names_its_path(tmp_path):
    from repro.scenarios import ConfigError, _load

    path = tmp_path / "mine.json"
    spec = {"name": "theirs", "seed": 1, "horizon": 60, "nodes": 2}
    path.write_text(json.dumps(spec))
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, "mine")
    assert str(info.value) == f"{path}: declares name 'theirs'"


def test_unknown_scenario_lists_pack():
    with pytest.raises(UnknownScenarioError) as info:
        load_scenario("mystery")
    for name in EXPECTED:
        assert repr(name) in str(info.value)


@pytest.mark.parametrize("name", EXPECTED)
def test_entry_is_a_valid_replayable_spec(name):
    entry = load_scenario(name)
    assert entry.name == name
    assert entry.description
    spec = entry.spec
    assert spec.horizon >= MIN_HORIZON
    assert spec.nodes >= 3
    assert spec.controller_replicas == 1  # policy-portable across the arena
    for workload in spec.workloads:
        assert workload.kind in WORKLOAD_KINDS
    for event in spec.chaos:
        assert event.domain in KNOWN_DOMAINS
        assert 0 <= event.at < spec.horizon
    # Round-trips through the repro-file format unchanged.
    assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    # Pack metadata is carried alongside: the version stamp records the
    # pack version the entry was introduced at, never newer than the
    # pack itself, and the spec format is one the fuzzer replays.
    data = json.loads(entry.path.read_text())
    assert 1 <= data["pack_version"] <= PACK_VERSION
    assert data["format"] in SUPPORTED_FORMATS


@pytest.mark.parametrize("name", EXPECTED)
def test_entry_builds_a_platform(name):
    spec = load_scenario(name).spec
    platform = build_platform(spec)
    assert len(platform.apps) == len(spec.workloads)


def test_calm_replays_clean_under_invariants():
    spec = load_scenario("calm").spec
    result = run_episode(spec, every=5)
    assert result.ok, result.violations
    assert result.events_executed > 0


class TestPackV2Contract:
    """The append-only contract and the v2 trace-realism entries."""

    def test_pack_version_is_2(self):
        assert PACK_VERSION == 2

    @pytest.mark.parametrize("name", V1_ENTRIES)
    def test_v1_entries_are_untouched(self, name):
        assert _spec_hash(name) == V1_SPEC_HASHES[name], (
            f"v1 pack entry {name!r} changed — the pack contract is "
            "append-only; add a new entry and bump PACK_VERSION instead"
        )

    @pytest.mark.parametrize("name", V2_ENTRIES)
    def test_v2_entries_are_v4_specs(self, name):
        entry = load_scenario(name)
        data = json.loads(entry.path.read_text())
        assert data["pack_version"] == 2
        assert data["format"] == 4
        spec = entry.spec
        # Each v2 entry arms at least one trace-realism model.
        assert (
            spec.arrival_model != "rate"
            or spec.heavy_tail
            or spec.surge
        )

    @pytest.mark.parametrize("name", V2_ENTRIES)
    def test_v2_entries_replay_clean_under_invariants(self, name):
        result = run_episode(load_scenario(name).spec, every=8)
        assert result.ok, result.violations
        assert result.events_executed > 0

    def test_v2_cell_scores_byte_identical_same_seed(self):
        entry = load_scenario("heavy-tail")
        first = run_cell("adaptive", entry, horizon=240.0)
        second = run_cell("adaptive", entry, horizon=240.0)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )


REPO = Path(__file__).resolve().parents[2]
#: Every scenario file in the repository: the pack, the report
#: scenarios and the example.
SPEC_FILES = (
    [load_scenario(name).path for name in scenario_names()]
    + [load_report(name).path for name in report_names()]
    + [REPO / "examples" / "experiment.json"]
)


def test_report_scenarios():
    assert report_names() == ("calm", "data-fault", "overload")
    for name in report_names():
        entry = load_report(name)
        assert entry.description
        assert entry.spec.slos


@pytest.mark.parametrize(
    "path", SPEC_FILES, ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_every_spec_file_loads_builds_and_runs(path, capsys):
    spec = load_spec(path)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    platform = build_platform(spec)
    assert sorted(platform.apps) == sorted(w.name for w in spec.workloads)
    assert main(["run", str(path), "--duration", "30"]) == 0
    assert "simulated 0.01 h" in capsys.readouterr().out


def test_build_call_budget():
    # Profiled calls per build_platform over fuzz run-seed 7, episodes
    # 0-35, after one warm-up build each (first-use caches stay out).
    # Measured 567.0 on Python 3.11; the budget is that plus 15%, so a
    # costlier spec builder shows up here before it shows in setup_s.
    # Later builders read 609.1, and 624.8 since the builder checks that
    # each demand, objective and resource field is a finite number.
    total = 0
    for index in range(36):
        spec = generate_scenario(7, index)
        build_platform(spec)
        profile = cProfile.Profile()
        profile.runcall(build_platform, spec)
        total += pstats.Stats(profile).total_calls
    per_build = total / 36
    assert per_build < 653, f"{per_build:.1f} profiled calls per build"
