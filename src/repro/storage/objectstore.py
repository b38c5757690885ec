"""H3-style object store model.

Objects are block-replicated across node-local devices. The store tracks
metadata only (sizes and replica locations); data movement costs are
charged by the workload models through their disk/network bandwidth
allocations. Remote reads are additionally discounted by
:data:`REMOTE_PENALTY` to reflect protocol and cross-rack overheads.

Liveness: replica sets are mutated only explicitly (``drop_node`` /
``add_replica``), so after a node failure dead replicas keep counting
toward locality until a repair loop removes them. Queries therefore
accept a node-liveness predicate — or use :attr:`ObjectStore.node_liveness`
as the default — so locality and bandwidth math can exclude dark nodes
without waiting for repair. The predicate defaults to ``None`` (count
everything), preserving seed behaviour bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator


#: Sentinel distinguishing "not passed" from an explicit ``live=None``.
_UNSET = object()

#: Multiplier (0, 1] applied to network bandwidth for remote reads.
REMOTE_PENALTY = 0.7

LivenessFn = Callable[[str], bool]


class StorageError(RuntimeError):
    """Raised on invalid object-store operations."""


@dataclass(frozen=True)
class StorageObject:
    """One stored object (a dataset block)."""

    bucket: str
    key: str
    size_mb: float
    replicas: frozenset[str] = field(default_factory=frozenset)
    #: Intended replica count; ``None`` means "whatever it was written
    #: with" (resolved at put() time). The repair loop re-replicates
    #: objects whose live replica count falls below this.
    target_replicas: int | None = None

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if self.target_replicas is not None and self.target_replicas < 1:
            raise ValueError("target_replicas must be >= 1")

    def is_local_to(self, node_name: str) -> bool:
        return node_name in self.replicas

    @property
    def target(self) -> int:
        """Effective replication target."""
        if self.target_replicas is not None:
            return self.target_replicas
        return max(1, len(self.replicas))

    def live_replicas(self, live: LivenessFn | None) -> frozenset[str]:
        """Replicas on nodes the predicate considers alive."""
        if live is None:
            return self.replicas
        return frozenset(n for n in self.replicas if live(n))


class ObjectStore:
    """Bucket/object metadata service."""

    def __init__(self):
        self._buckets: dict[str, dict[str, StorageObject]] = {}
        #: Default node-liveness predicate for dataset-level queries.
        #: ``None`` (the default) counts every replica — seed behaviour.
        #: The platform wires this to "node not dark" only when data-plane
        #: fault tolerance is enabled.
        self.node_liveness: LivenessFn | None = None
        #: Bumped on every put, delete and replica-set mutation.
        self.epoch = 0
        #: Per bucket: the epoch its locality fractions were computed at,
        #: and the fraction per node. Filled by reads only.
        self._locality: dict[str, tuple[int, dict[str, float]]] = {}

    # -- bucket/object CRUD ---------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        if bucket in self._buckets:
            raise StorageError(f"bucket {bucket!r} already exists")
        self._buckets[bucket] = {}

    def has_bucket(self, bucket: str) -> bool:
        return bucket in self._buckets

    def buckets(self) -> list[str]:
        """Bucket names in sorted (deterministic) order."""
        return sorted(self._buckets)

    def _bucket(self, bucket: str) -> dict[str, StorageObject]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise StorageError(f"unknown bucket {bucket!r}") from None

    def put(
        self,
        bucket: str,
        key: str,
        size_mb: float,
        replicas: set[str] | frozenset[str],
        *,
        target_replicas: int | None = None,
    ) -> StorageObject:
        """Store object metadata; replicas are node names holding the data."""
        objects = self._bucket(bucket)
        if target_replicas is None:
            target_replicas = max(1, len(replicas))
        obj = StorageObject(
            bucket, key, size_mb, frozenset(replicas), target_replicas=target_replicas
        )
        objects[key] = obj
        self.epoch += 1
        return obj

    def get(self, bucket: str, key: str) -> StorageObject:
        try:
            return self._buckets[bucket][key]
        except KeyError:
            raise StorageError(f"unknown object {bucket!r}/{key!r}") from None

    def delete(self, bucket: str, key: str) -> None:
        try:
            del self._buckets[bucket][key]
        except KeyError:
            raise StorageError(f"unknown object {bucket!r}/{key!r}") from None
        self.epoch += 1

    def list_objects(self, bucket: str) -> list[StorageObject]:
        return list(self._bucket(bucket).values())

    # -- replica mutation (repair / data-loss paths) -------------------------------

    def drop_node(self, node_name: str) -> int:
        """Remove ``node_name`` from every replica set (disk wiped).

        Returns the number of replicas dropped. Objects may be left with
        zero replicas — they are *lost* until a surviving copy exists
        elsewhere, which :meth:`lost_objects` reports.
        """
        dropped = 0
        for objects in self._buckets.values():
            for key, obj in objects.items():
                if node_name in obj.replicas:
                    objects[key] = replace(obj, replicas=obj.replicas - {node_name})
                    dropped += 1
        if dropped:
            self.epoch += 1
        return dropped

    def add_replica(self, bucket: str, key: str, node_name: str) -> StorageObject:
        """Record a new replica of an existing object on ``node_name``."""
        obj = self.get(bucket, key)
        if node_name in obj.replicas:
            return obj
        obj = replace(obj, replicas=obj.replicas | {node_name})
        self._buckets[bucket][key] = obj
        self.epoch += 1
        return obj

    # -- dataset-level queries ----------------------------------------------------

    def _resolve_live(self, live) -> LivenessFn | None:
        return self.node_liveness if live is _UNSET else live

    def bucket_size_mb(self, bucket: str) -> float:
        return sum(o.size_mb for o in self.list_objects(bucket))

    def locality_fraction(self, bucket: str, node_name: str, *, live=_UNSET) -> float:
        """Fraction of the bucket's bytes with a replica on ``node_name``.

        ``live`` is a node-liveness predicate; when it rejects
        ``node_name`` itself the fraction is 0 (a dark node serves no
        local reads). Defaults to :attr:`node_liveness`.

        Fractions are cached per bucket until the next :attr:`epoch`
        bump. Liveness is tested on every call: it changes without one.
        """
        live = self._resolve_live(live)
        if live is not None and not live(node_name):
            return 0.0
        cached = self._locality.get(bucket)
        if cached is None or cached[0] != self.epoch:
            cached = (self.epoch, {})
        fractions = cached[1]
        if node_name not in fractions:
            objects = self.list_objects(bucket)
            total = sum(o.size_mb for o in objects)
            local = sum(o.size_mb for o in objects if o.is_local_to(node_name))
            fractions[node_name] = local / total if total > 0 else 0.0
            self._locality[bucket] = cached
        return fractions[node_name]

    def replica_nodes(self, bucket: str, *, live=_UNSET) -> set[str]:
        """All live nodes holding at least one block of the bucket."""
        live = self._resolve_live(live)
        nodes: set[str] = set()
        for obj in self.list_objects(bucket):
            nodes |= obj.replicas
        if live is not None:
            nodes = {n for n in nodes if live(n)}
        return nodes

    def nodes_with_data(self) -> set[str]:
        """Every node holding at least one replica, across all buckets."""
        nodes: set[str] = set()
        for objects in self._buckets.values():
            for obj in objects.values():
                nodes |= obj.replicas
        return nodes

    def _sorted_objects(self, bucket: str | None) -> Iterator[StorageObject]:
        """Objects of ``bucket``, or of every bucket, in bucket then key order."""
        for name in self.buckets() if bucket is None else [bucket]:
            objects = self._bucket(name)
            for key in sorted(objects):
                yield objects[key]

    def under_replicated(
        self, bucket: str | None = None, *, live=_UNSET
    ) -> list[StorageObject]:
        """Objects whose live replica count is below target, sorted by key."""
        live = self._resolve_live(live)
        return [
            obj
            for obj in self._sorted_objects(bucket)
            if len(obj.live_replicas(live)) < obj.target
        ]

    def lost_objects(
        self, bucket: str | None = None, *, live=_UNSET
    ) -> list[StorageObject]:
        """Objects with zero live replicas (data unrecoverable by repair)."""
        live = self._resolve_live(live)
        return [
            obj for obj in self._sorted_objects(bucket) if not obj.live_replicas(live)
        ]
