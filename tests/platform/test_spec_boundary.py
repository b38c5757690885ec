"""The spec boundary: every malformed value fails with a typed error.

Each spec the repository holds or generates is mutated one leaf at a
time and loaded and built (never run). A value of the wrong JSON type,
a NaN or infinite number and an unknown key must each raise
:class:`ConfigError` from ``load_spec`` + ``build_platform``, naming the
file, the section and the key; a deleted key must either build or name
itself as a missing required key. Ranges stay with the classes that own
them, so negative values are not mutated, and the leaves under
``policy_kwargs``/``scheduler_kwargs`` reach a class the policy registry
picks, so they are left alone.
"""

import json
import math
from pathlib import Path

import pytest

from repro.scenarios import load_report, load_scenario, report_names, scenario_names
from repro.scenarios.spec import (
    METADATA,
    ConfigError,
    ScenarioSpec,
    build_platform,
    load_spec,
    spec_file,
)
from repro.verify.fuzzer import generate_scenario

REPO = Path(__file__).resolve().parents[2]
#: The CI fuzz run seeds; the sweep mutates seed 7's first 25 episodes.
CI_SEEDS = (7, 23, 41, 57, 78, 101)
#: Keys whose parameters are integers: 2.5 must fail there, and may
#: build anywhere else (a float parameter written as a whole number).
INTEGER_KEYS = {
    "seed", "nodes", "controller_replicas", "zones", "format", "replicas",
    "workers", "executors", "ranks", "max_parallelism", "count",
    "pending_high", "max_concurrent_failures", "replication",
}
UNCHECKED = ("policy_kwargs", "scheduler_kwargs")
UNKNOWN = "zz_unknown"


def _inputs() -> dict[str, dict]:
    files = (
        [load_scenario(name).path for name in scenario_names()]
        + [load_report(name).path for name in report_names()]
        + [REPO / "examples" / "experiment.json"]
    )
    specs = {f"{p.parent.name}/{p.stem}": json.loads(p.read_text()) for p in files}
    for index in range(25):
        spec = generate_scenario(7, index).to_dict()
        specs[f"fuzz-7-{index}"] = json.loads(json.dumps(spec))
    return specs


def _nodes(node, path=()):
    """(path, value) of every value under ``node``, the top level first."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            if not path and key in METADATA or key in UNCHECKED:
                continue
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _type_mutants(path, value):
    """Values of the wrong type or non-finite numbers for ``value``."""
    if isinstance(value, bool):
        return [1]
    if isinstance(value, (int, float)):
        bad = [math.nan, math.inf, -math.inf, str(value), True]
        key = _key(path)
        if isinstance(value, int) and (
            key in INTEGER_KEYS or path[-1] == "target" and path[0] == "chaos"
        ):
            bad.append(2.5)
        return bad
    if isinstance(value, str):
        return [1]
    if isinstance(value, dict):
        return [[value]]
    return [{}]


def _key(path) -> str:
    """The innermost object key on ``path``."""
    return next(str(k) for k in reversed(path) if isinstance(k, str))


def _sections(spec: dict, path) -> tuple[str, ...]:
    """What a message may name as the section of ``path``: the top-level
    key, or for a workload its name."""
    if path[0] == "workloads" and len(path) > 1:
        return ("workloads", repr(spec["workloads"][path[1]]["name"]))
    return (str(path[0]),)


def _set(spec, path, value):
    node = spec
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = value
    return node, old


def _load_and_build(spec: dict, file: Path):
    file.write_text(json.dumps(spec))
    loaded = load_spec(file)
    with spec_file(file):
        build_platform(loaded)


def _expect_rejected(spec, path, file, name, what, sections):
    with pytest.raises(ConfigError) as info:
        _load_and_build(spec, file)
    message = str(info.value)
    assert message.startswith(f"{file}: "), (name, path, what, message)
    assert any(s in message for s in sections), (name, path, what, message)
    assert name in message, (name, path, what, message)


def _pattern(spec: dict, path) -> tuple:
    """``path`` with list indices dropped and a workload's kind and form
    kept: mutants at one pattern take the same branches of the builder."""
    if path[:1] == ("workloads",) and len(path) > 1:
        params = spec["workloads"][path[1]]["params"]
        form = "general" if "allocation" in params else sorted(params)
        path = (spec["workloads"][path[1]]["kind"], str(form)) + path[2:]
    return tuple(k for k in path if isinstance(k, str))


def test_every_mutant_is_rejected_at_the_boundary(tmp_path):
    file = tmp_path / "spec.json"
    seen = set()
    for spec in _inputs().values():
        _load_and_build(spec, file)
        _sweep(spec, file, seen)


def _sweep(spec: dict, file: Path, seen: set) -> None:
    for path, value in list(_nodes(spec)):
        pattern = (_pattern(spec, path), type(value))
        if pattern in seen:
            continue
        seen.add(pattern)
        if path:
            sections = _sections(spec, path)
            for bad in _type_mutants(path, value):
                node, old = _set(spec, path, bad)
                _expect_rejected(spec, path, file, _key(path), bad, sections)
                node[path[-1]] = old
        if isinstance(value, dict):
            sections = _sections(spec, path + (UNKNOWN,))
            value[UNKNOWN] = 1
            _expect_rejected(spec, path, file, UNKNOWN, "unknown key", sections)
            del value[UNKNOWN]
            for key in list(value):
                # A deleted key is optional and builds, or names itself as
                # missing. A default may still fall outside a class's
                # range (a resource field defaults to 0, below the
                # allocation floor), which the class reports.
                sections = _sections(spec, path + (key,))
                old = value.pop(key)
                try:
                    _load_and_build(spec, file)
                except ConfigError as exc:
                    assert "missing required key" in str(exc) or any(
                        s in str(exc) for s in sections
                    ), (path, key, exc)
                finally:
                    value[key] = old


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_generated_specs_round_trip_and_build(seed):
    # The bench's fuzz workload replays seed 7, episodes 0-35.
    for index in range(36):
        spec = generate_scenario(seed, index)
        build_platform(spec)
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec, (seed, index)
        build_platform(again)
