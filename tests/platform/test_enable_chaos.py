"""enable_chaos end to end: every fault kind through the chaos monkey."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.cluster.chaos import (
    ChaosMonkey,
    ControllerCrashInjector,
    FaultLog,
    PartitionInjector,
)
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import CHAOS_KINDS, EvolvePlatform
from tests.conftest import make_chaos_platform

ALL_KINDS = (
    "crash",
    "degrade",
    "zone-outage",
    "controller-crash",
    "partition",
    "executor-kill",
    "straggler",
    "data-loss",
)


def test_every_kind_is_selectable_by_name():
    assert tuple(CHAOS_KINDS) == ALL_KINDS


def test_every_kind_strikes_and_heals_through_the_monkey():
    """Regression: tokens carrying a FaultEpisode (zone-outage, straggler,
    controller-crash) used to be hashed by the monkey, which raised
    ``TypeError: unhashable type`` on the first such strike."""
    platform, monkey = make_chaos_platform(list(ALL_KINDS))
    strikes: Counter = Counter()
    heals: Counter = Counter()
    for kind in monkey.domains:

        def strike(victim, kind=kind, inner=kind.strike):
            strikes[kind.name] += 1
            return inner(victim)

        def heal(token, kind=kind, inner=kind.heal):
            heals[kind.name] += 1
            inner(token)

        kind.strike, kind.heal = strike, heal
    platform.run(900.0)
    monkey.stop()
    platform.run(monkey.repair_time)
    assert set(strikes) == set(ALL_KINDS)
    assert heals == strikes
    assert monkey.active_faults() == 0
    assert sum(strikes.values()) == monkey.strikes
    assert not platform.fault_log.active()


class TestDomainSelection:
    def test_empty_domains_rejected(self):
        platform = EvolvePlatform(cluster_spec=ClusterSpec(node_count=3))
        with pytest.raises(ValueError, match="at least one"):
            platform.enable_chaos(domains=[])

    def test_monkey_rejects_empty_domains(self, engine, cluster):
        from repro.cluster.chaos import FailureInjector

        with pytest.raises(ValueError, match="at least one"):
            ChaosMonkey(
                engine,
                FailureInjector(cluster, log=FaultLog()),
                np.random.default_rng(0),
                domains=[],
            )

    def test_unknown_name_rejected(self):
        platform = EvolvePlatform(cluster_spec=ClusterSpec(node_count=3))
        with pytest.raises(ValueError, match="unknown fault domain"):
            platform.enable_chaos(domains=["meteor"])

    def test_zone_outage_needs_zones(self):
        platform = EvolvePlatform(cluster_spec=ClusterSpec(node_count=3))
        with pytest.raises(ValueError, match="multi-zone"):
            platform.enable_chaos(domains=["zone-outage"])

    def test_prebuilt_kind_objects_pass_through(self):
        platform = EvolvePlatform(cluster_spec=ClusterSpec(node_count=3))
        monkey = platform.enable_chaos(domains=[platform.degrader, "crash"])
        assert monkey.domains == [platform.degrader, platform.injector]


def _ha_platform() -> EvolvePlatform:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=1, controller_replicas=3),
    )
    platform.run(30.0)  # elect a leader
    return platform


class TestControllerCrashInjector:
    def test_strikes_the_leader_and_heal_restarts_it(self):
        platform = _ha_platform()
        plane = platform.control_plane
        kind = ControllerCrashInjector(plane, log=platform.fault_log)
        leader = plane.leader_index()
        assert kind.candidates() == [leader]
        token = kind.strike(leader)
        assert not plane.is_alive(leader) and kind.crashes == 1
        episode = platform.fault_log.by_kind("controller-crash")[0]
        assert episode.target == plane.identity(leader) and episode.active
        platform.run(10.0)
        kind.heal(token)
        assert plane.is_alive(leader) and not episode.active

    def test_leader_gap_falls_back_to_live_replicas(self):
        platform = _ha_platform()
        plane = platform.control_plane
        kind = ControllerCrashInjector(plane)
        leader = plane.leader_index()
        kind.strike(leader)
        assert plane.leader_index() is None
        assert kind.candidates() == plane.alive_indices()
        assert leader not in kind.candidates()

    def test_no_log_records_no_episode(self):
        platform = _ha_platform()
        kind = ControllerCrashInjector(platform.control_plane)
        _index, episode = kind.strike(kind.candidates()[0])
        assert episode is None
        assert not platform.fault_log.by_kind("controller-crash")


class TestPartitionInjector:
    def test_strikes_the_leader_open_ended_until_healed(self):
        platform = _ha_platform()
        plane = platform.control_plane
        kind = platform.partition_faults
        assert kind.plane is plane
        identity = plane.identity(plane.leader_index())
        assert kind.candidates() == [identity]
        token = kind.strike(identity)
        assert kind.is_partitioned(identity, platform.engine.now)
        assert kind.candidates() == []  # never re-struck while cut off
        platform.run(45.0)
        assert kind.is_partitioned(identity, platform.engine.now)
        kind.heal(token)
        assert not kind.is_partitioned(identity, platform.engine.now)
        episode = platform.fault_log.by_kind("controller-partition")[0]
        assert episode.duration() == pytest.approx(45.0)

    def test_no_plane_no_candidates(self):
        assert PartitionInjector(log=FaultLog()).candidates() == []
