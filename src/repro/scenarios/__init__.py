"""Scenario specs: the curated pack and the report scenarios.

Every ``*.json`` file here is a :class:`~repro.scenarios.spec.ScenarioSpec`
(see :mod:`repro.scenarios.spec` and docs/scenarios.md) plus metadata
keys (``name``, ``description``, ``tags``, ``pack_version``) which the
spec loader ignores. Two directories, one loader:

* the **pack** (this directory) — the arena (``repro arena``) replays
  every entry under every registered autoscaler policy, the benchmark
  runner replays them through R-T13 (``repro bench``), and the fuzzer
  replays any single entry with the full invariant registry attached
  (``repro fuzz --replay src/repro/scenarios/<name>.json``);
* the **report scenarios** (``report/``) — seeded runs with SLOs
  attached that ``repro report`` and R-T12 run; R-T10 and R-T11 derive
  their sweeps from ``overload`` and ``data-fault``.

``repro run <file>`` runs any of them.

Pack contract: entries are append-only within a ``PACK_VERSION``; any
edit to an existing entry's spec (which would silently shift every
policy's scorecard) requires a version bump and a CHANGES.md note.
Scenario themes cover the load taxonomy: ``calm`` (steady baseline),
``diurnal`` (cyclic load + batch/HPC mix), ``flash-crowd`` (a 4x
surge on one service), ``overload-surge`` (correlated surges with the
overload stack armed), ``zone-outage`` (correlated zone failure),
``data-fault`` (data-plane faults with FT armed). Pack v2 appends the
trace-realism entries (spec format 4): ``diurnal-replay`` (a recorded
rate curve replayed sample-by-sample, driving open-loop Poisson
arrivals), ``heavy-tail`` (MMPP arrivals with Pareto request-size
marks), and ``correlated-surge`` (the CorrelatedSurge coordinator
hitting every service on one shared schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.scenarios.spec import (
    ConfigError,
    ScenarioSpec,
    build_platform,
    load_spec,
    read_spec_file,
    spec_file,
)

#: Bump when any existing entry's spec changes (see the pack contract).
#: v2 appended diurnal-replay / heavy-tail / correlated-surge; every v1
#: entry is byte-identical to pack v1.
PACK_VERSION = 2

_PACK_DIR = Path(__file__).resolve().parent
_REPORT_DIR = _PACK_DIR / "report"


class UnknownScenarioError(ValueError):
    """Raised for scenario names not in a directory; lists what is."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown scenario {name!r}; choose from: "
            + ", ".join(repr(s) for s in available)
        )


@dataclass(frozen=True)
class PackEntry:
    """One named scenario: metadata + the parsed replayable spec."""

    name: str
    description: str
    tags: tuple[str, ...]
    path: Path
    spec: ScenarioSpec


def _names(directory: Path) -> tuple[str, ...]:
    return tuple(sorted(path.stem for path in directory.glob("*.json")))


def _load(directory: Path, name: str) -> PackEntry:
    path = directory / f"{name}.json"
    if not path.is_file():
        raise UnknownScenarioError(name, _names(directory))
    data = read_spec_file(path)
    with spec_file(path):
        if data.get("name", name) != name:
            raise ConfigError(f"declares name {data['name']!r}")
        spec = ScenarioSpec.from_dict(data)
    return PackEntry(
        name=name,
        description=data.get("description", ""),
        tags=tuple(data.get("tags", ())),
        path=path,
        spec=spec,
    )


def scenario_names() -> tuple[str, ...]:
    """All pack entries, sorted by name."""
    return _names(_PACK_DIR)


def load_scenario(name: str) -> PackEntry:
    """Load one pack entry by name."""
    return _load(_PACK_DIR, name)


def load_pack() -> tuple[PackEntry, ...]:
    """Every pack entry, sorted by name."""
    return tuple(load_scenario(name) for name in scenario_names())


def report_names() -> tuple[str, ...]:
    """All report scenarios, sorted by name."""
    return _names(_REPORT_DIR)


def load_report(name: str) -> PackEntry:
    """Load one report scenario by name."""
    return _load(_REPORT_DIR, name)


__all__ = [
    "ConfigError",
    "PACK_VERSION",
    "PackEntry",
    "ScenarioSpec",
    "UnknownScenarioError",
    "build_platform",
    "load_pack",
    "load_report",
    "load_scenario",
    "load_spec",
    "report_names",
    "scenario_names",
]
