"""Unit tests for the object store and placement."""

import pytest

from repro.storage.objectstore import ObjectStore, StorageError, StorageObject
from repro.storage.placement import spread_blocks


class TestObjectStore:
    def test_bucket_lifecycle(self):
        store = ObjectStore()
        store.create_bucket("b")
        assert store.has_bucket("b")
        with pytest.raises(StorageError):
            store.create_bucket("b")

    def test_put_get_delete(self):
        store = ObjectStore()
        store.create_bucket("b")
        obj = store.put("b", "k", 10.0, {"node-0"})
        assert store.get("b", "k") is obj
        store.delete("b", "k")
        with pytest.raises(StorageError):
            store.get("b", "k")

    def test_put_unknown_bucket(self):
        with pytest.raises(StorageError):
            ObjectStore().put("ghost", "k", 1.0, set())

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            StorageObject("b", "k", -1.0)

    def test_bucket_size(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k1", 10.0, set())
        store.put("b", "k2", 5.0, set())
        assert store.bucket_size_mb("b") == 15.0

    def test_locality_fraction(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k1", 10.0, {"node-0"})
        store.put("b", "k2", 30.0, {"node-1"})
        assert store.locality_fraction("b", "node-0") == pytest.approx(0.25)
        assert store.locality_fraction("b", "node-1") == pytest.approx(0.75)
        assert store.locality_fraction("b", "node-9") == 0.0

    def test_locality_of_empty_bucket(self):
        store = ObjectStore()
        store.create_bucket("b")
        assert store.locality_fraction("b", "node-0") == 0.0

    def test_replica_nodes(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k", 1.0, {"node-0", "node-2"})
        assert store.replica_nodes("b") == {"node-0", "node-2"}

    def test_invalid_remote_penalty(self):
        # The remote-read discount is the constant REMOTE_PENALTY.
        with pytest.raises(TypeError):
            ObjectStore(remote_penalty=0.0)


class TestLiveness:
    """Node-liveness predicate plumbing (PR-7)."""

    @staticmethod
    def _store():
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k1", 10.0, {"node-0"})
        store.put("b", "k2", 30.0, {"node-1"})
        return store

    def test_dark_node_serves_no_local_reads(self):
        store = self._store()
        dead = lambda n: n != "node-0"  # noqa: E731
        assert store.locality_fraction("b", "node-0", live=dead) == 0.0
        assert store.locality_fraction("b", "node-1", live=dead) == pytest.approx(0.75)

    def test_default_predicate_used_when_live_not_passed(self):
        store = self._store()
        store.node_liveness = lambda n: n != "node-0"
        # _UNSET falls back to the store-level predicate…
        assert store.locality_fraction("b", "node-0") == 0.0
        assert store.replica_nodes("b") == {"node-1"}
        # …while an explicit live=None restores the liveness-blind view.
        assert store.locality_fraction("b", "node-0", live=None) == pytest.approx(0.25)
        assert store.replica_nodes("b", live=None) == {"node-0", "node-1"}

    def test_live_replicas_on_object(self):
        store = self._store()
        obj = store.get("b", "k1")
        assert obj.live_replicas(None) == frozenset({"node-0"})
        assert obj.live_replicas(lambda n: False) == frozenset()


class TestReplicaMutation:
    """drop_node / add_replica / replication targets (PR-7)."""

    @staticmethod
    def _store():
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k1", 10.0, {"node-0", "node-1"})
        store.put("b", "k2", 20.0, {"node-0"})
        store.put("b", "k3", 5.0, {"node-2"})
        return store

    def test_target_replicas_defaults_to_initial_count(self):
        store = self._store()
        assert store.get("b", "k1").target == 2
        assert store.get("b", "k2").target == 1
        obj = store.put("b", "k4", 1.0, {"node-0"}, target_replicas=3)
        assert obj.target == 3

    def test_invalid_target_replicas(self):
        with pytest.raises(ValueError):
            StorageObject("b", "k", 1.0, target_replicas=0)

    def test_drop_node_returns_count_and_may_orphan(self):
        store = self._store()
        assert store.drop_node("node-0") == 2
        assert store.get("b", "k1").replicas == frozenset({"node-1"})
        # k2 lost its only copy: zero replicas, reported as lost.
        assert store.get("b", "k2").replicas == frozenset()
        assert [o.key for o in store.lost_objects()] == ["k2"]
        assert store.drop_node("node-9") == 0

    def test_add_replica_is_idempotent(self):
        store = self._store()
        epoch = store.epoch
        obj = store.add_replica("b", "k3", "node-0")
        assert obj.replicas == frozenset({"node-0", "node-2"})
        assert store.epoch == epoch + 1
        # Re-adding the same replica is a no-op — no epoch churn.
        store.add_replica("b", "k3", "node-0")
        assert store.epoch == epoch + 1

    def test_under_replicated_sorted_and_live_aware(self):
        store = self._store()
        store.drop_node("node-0")
        assert [o.key for o in store.under_replicated("b")] == ["k1", "k2"]
        # A liveness predicate surfaces shortfalls before any drop.
        fresh = self._store()
        dead = lambda n: n != "node-0"  # noqa: E731
        assert [o.key for o in fresh.under_replicated(live=dead)] == ["k1", "k2"]

    @pytest.mark.parametrize(
        "query",
        [
            "locality_fraction",
            "replica_nodes",
            "bucket_size_mb",
            "under_replicated",
            "lost_objects",
        ],
    )
    def test_dataset_queries_reject_unknown_bucket(self, query):
        store = self._store()
        store.locality_fraction("b", "node-0")  # with another bucket cached
        args = ("ghost", "node-0") if query == "locality_fraction" else ("ghost",)
        with pytest.raises(StorageError):
            getattr(store, query)(*args)

    def test_nodes_with_data(self):
        store = self._store()
        assert store.nodes_with_data() == {"node-0", "node-1", "node-2"}
        store.drop_node("node-2")
        assert store.nodes_with_data() == {"node-0", "node-1"}

    def test_epoch_bumps_on_mutation(self):
        store = ObjectStore()
        store.create_bucket("b")
        assert store.epoch == 0
        store.put("b", "k", 1.0, {"node-0"})
        assert store.epoch == 1
        store.add_replica("b", "k", "node-1")
        assert store.epoch == 2
        store.drop_node("node-1")
        assert store.epoch == 3
        store.delete("b", "k")
        assert store.epoch == 4


class TestSpreadBlocks:
    def test_even_spread(self):
        store = ObjectStore()
        nodes = [f"node-{i}" for i in range(4)]
        n = spread_blocks(store, "data", total_mb=400, block_mb=10, nodes=nodes)
        assert n == 40
        for node in nodes:
            assert store.locality_fraction("data", node) == pytest.approx(0.25)

    def test_skewed_placement(self):
        store = ObjectStore()
        nodes = [f"node-{i}" for i in range(4)]
        spread_blocks(store, "data", total_mb=400, block_mb=10, nodes=nodes, skew=0.8)
        assert store.locality_fraction("data", "node-0") > 0.75

    def test_replication(self):
        store = ObjectStore()
        nodes = ["a", "b", "c"]
        spread_blocks(
            store, "data", total_mb=30, block_mb=10, nodes=nodes, replication=2
        )
        for obj in store.list_objects("data"):
            assert len(obj.replicas) == 2

    def test_creates_bucket_if_missing(self):
        store = ObjectStore()
        spread_blocks(store, "new", total_mb=10, block_mb=10, nodes=["a"])
        assert store.has_bucket("new")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_mb": 0},
            {"block_mb": 0},
            {"nodes": []},
            {"skew": 1.0},
            {"replication": 0},
            {"replication": 5},
        ],
    )
    def test_invalid_params(self, kwargs):
        defaults = {"total_mb": 100, "block_mb": 10, "nodes": ["a", "b"]}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            spread_blocks(ObjectStore(), "d", **defaults)

