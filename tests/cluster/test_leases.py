"""Unit tests for the lease primitive, scoped API views, and partitions."""

import pytest

from repro.cluster.api import PartitionError
from repro.cluster.chaos import FaultLog, PartitionInjector
from repro.cluster.cluster import ClusterError
from repro.cluster.events import LeaderDeposed, LeaderElected


TTL = 30.0


class TestLeaseVerbs:
    def test_acquire_free_lease(self, engine, api):
        lease = api.try_acquire_lease("cp", "a", TTL)
        assert lease is not None
        assert lease.holder == "a"
        assert lease.generation == 1
        assert lease.expires_at() == TTL
        assert api.get_lease("cp") == lease

    def test_live_lease_blocks_rivals(self, engine, api):
        api.try_acquire_lease("cp", "a", TTL)
        engine.run_until(TTL / 2)
        assert api.try_acquire_lease("cp", "b", TTL) is None

    def test_holder_reacquire_renews(self, engine, api):
        first = api.try_acquire_lease("cp", "a", TTL)
        engine.run_until(10.0)
        again = api.try_acquire_lease("cp", "a", TTL)
        assert again.generation == first.generation  # no holder change
        assert again.renewed_at == 10.0

    def test_expired_lease_is_stealable(self, engine, api):
        api.try_acquire_lease("cp", "a", TTL)
        engine.run_until(TTL)  # expired() is inclusive at the deadline
        stolen = api.try_acquire_lease("cp", "b", TTL)
        assert stolen is not None
        assert stolen.holder == "b"
        assert stolen.generation == 2

    def test_takeover_publishes_election_and_deposition(self, engine, api):
        elected, deposed = [], []
        api.watch(LeaderElected, elected.append)
        api.watch(LeaderDeposed, deposed.append)
        api.try_acquire_lease("cp", "a", TTL)
        engine.run_until(TTL + 1)
        api.try_acquire_lease("cp", "b", TTL)
        assert [e.holder for e in elected] == ["a", "b"]
        assert [(d.holder, d.reason) for d in deposed] == [("a", "lease-expired")]

    def test_renew_by_holder_updates_renewed_at(self, engine, api):
        api.try_acquire_lease("cp", "a", TTL)
        engine.run_until(12.0)
        lease = api.renew_lease("cp", "a")
        assert lease.renewed_at == 12.0
        assert lease.expires_at() == 12.0 + TTL

    def test_renew_fails_for_non_holder_or_expired(self, engine, api):
        assert api.renew_lease("cp", "a") is None  # never acquired
        api.try_acquire_lease("cp", "a", TTL)
        assert api.renew_lease("cp", "b") is None
        engine.run_until(TTL)
        assert api.renew_lease("cp", "a") is None  # expired under us

    def test_release_frees_lease_and_publishes(self, engine, api):
        deposed = []
        api.watch(LeaderDeposed, deposed.append)
        api.try_acquire_lease("cp", "a", TTL)
        assert not api.release_lease("cp", "b")  # only the holder may
        assert api.release_lease("cp", "a")
        assert api.get_lease("cp") is None
        assert [(d.holder, d.reason) for d in deposed] == [("a", "released")]
        # Released leases keep their generation history through re-grant.
        assert api.try_acquire_lease("cp", "b", TTL).generation == 1

    def test_nonpositive_ttl_rejected(self, engine, api):
        with pytest.raises(ClusterError):
            api.try_acquire_lease("cp", "a", 0.0)


class TestScopedAPI:
    def test_scoped_view_passes_through_when_healthy(self, engine, api):
        scoped = api.for_controller("cp-0")
        assert scoped.identity == "cp-0"
        assert not scoped.is_partitioned()
        lease = scoped.try_acquire_lease("cp", "cp-0", TTL)
        assert lease.holder == "cp-0"
        assert scoped.get_lease("cp") == lease
        assert scoped.list_pods() == []

    def test_partitioned_identity_fails_every_verb(self, engine, api):
        scoped = api.for_controller("cp-0")
        api.partitions.partition("cp-0", engine.now, duration=60.0)
        assert scoped.is_partitioned()
        assert scoped.now == engine.now  # the local clock still ticks
        for verb in (
            lambda: scoped.get_lease("cp"),
            lambda: scoped.try_acquire_lease("cp", "cp-0", TTL),
            lambda: scoped.renew_lease("cp", "cp-0"),
            lambda: scoped.release_lease("cp", "cp-0"),
            lambda: scoped.list_pods(),
            lambda: scoped.running_pods("app"),
        ):
            with pytest.raises(PartitionError):
                verb()

    def test_partition_is_per_identity(self, engine, api):
        cut = api.for_controller("cp-0")
        fine = api.for_controller("cp-1")
        api.partitions.partition("cp-0", engine.now, duration=60.0)
        with pytest.raises(PartitionError):
            cut.get_lease("cp")
        assert fine.get_lease("cp") is None  # unaffected

    def test_bounded_window_heals_itself(self, engine, api):
        scoped = api.for_controller("cp-0")
        api.partitions.partition("cp-0", engine.now, duration=30.0)
        engine.run_until(30.0)
        assert not scoped.is_partitioned()
        assert scoped.get_lease("cp") is None  # verbs work again


class TestPartitionInjector:
    def test_bounded_episode_recorded_closed(self, engine):
        log = FaultLog()
        injector = PartitionInjector(log=log)
        injector.partition("cp-0", 5.0, duration=25.0)
        (episode,) = log.by_kind("controller-partition")
        assert (episode.start, episode.end) == (5.0, 30.0)
        assert not episode.active

    def test_open_ended_until_heal(self, engine):
        log = FaultLog()
        injector = PartitionInjector(log=log)
        injector.partition("cp-0", 0.0)
        assert injector.is_partitioned("cp-0", 1e9)  # never self-heals
        injector.heal("cp-0", 40.0)
        assert not injector.is_partitioned("cp-0", 40.0)
        (episode,) = log.by_kind("controller-partition")
        assert episode.end == 40.0

    def test_double_partition_rejected(self, engine):
        injector = PartitionInjector(log=FaultLog())
        injector.partition("cp-0", 0.0, duration=10.0)
        with pytest.raises(ClusterError):
            injector.partition("cp-0", 5.0, duration=10.0)
        # ...but an expired window frees the identity for a new one.
        injector.partition("cp-0", 10.0, duration=10.0)
        assert injector.partitions_injected == 2

    def test_nonpositive_duration_rejected(self, engine):
        with pytest.raises(ValueError):
            PartitionInjector(log=FaultLog()).partition("cp-0", 0.0, duration=0.0)

    def test_heal_unknown_identity_is_noop(self, engine):
        PartitionInjector(log=FaultLog()).heal("ghost", 0.0)
