"""Background re-replication of under-replicated objects.

After a node failure (or a :class:`~repro.cluster.chaos.DataLossInjector`
disk wipe) objects fall below their replication target. The
:class:`StorageRepairService` runs a periodic scan that

1. detects newly-dark nodes (allocatable capacity zeroed by the failure
   injector) and drops their replicas — the node-local data is gone;
2. queues every under-replicated object;
3. drains the queue at :data:`~repro.dataplane.REPAIR_BANDWIDTH_MBPS`,
   copying each object to the live node carrying the fewest bytes of that
   bucket (deterministic tie-break by node name) and charging the bytes
   moved to ``repair_traffic_mb``.

The service is only constructed when ``PlatformConfig.data_plane`` is
set, so default runs schedule no repair events and stay bit-identical
to the seed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.dataplane import REPAIR_BANDWIDTH_MBPS
from repro.storage.objectstore import ObjectStore, StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.api import ClusterAPI
    from repro.cluster.chaos import FaultLog
    from repro.sim.engine import Engine

#: Seconds between repair scans.
REPAIR_INTERVAL = 15.0


class StorageRepairService:
    """Periodic under-replication scanner and re-replicator."""

    def __init__(
        self,
        engine: "Engine",
        store: ObjectStore,
        api: "ClusterAPI",
        *,
        log: "FaultLog",
    ):
        self.engine = engine
        self.store = store
        self.api = api
        self.log = log
        # Accounting — the repair ledger checked by the data-plane
        # conservation invariant.
        self.scans = 0
        self.dropped_replicas = 0
        self.repaired_objects = 0
        self.repaired_mb = 0.0
        self.repair_traffic_mb = 0.0
        self.unplaceable = 0
        self._queue: deque[tuple[str, str]] = deque()
        self._queued: set[tuple[str, str]] = set()
        self._dark: set[str] = set()
        # Bandwidth debt carried when the last object of a scan overshot
        # the per-scan budget.
        self._debt_mb = 0.0
        self._handle = None
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        #: set, replica drops and working repair cycles are traced under
        #: the ``store`` category.
        self.telemetry = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._handle is None:
            self._handle = self.engine.every(
                REPAIR_INTERVAL, self.scan, priority=-3
            )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- liveness --------------------------------------------------------------

    def node_live(self, name: str) -> bool:
        """A node is live while it retains allocatable capacity."""
        return not self.api.get_node(name).allocatable.is_zero()

    # -- scan ------------------------------------------------------------------

    def scan(self) -> None:
        """One repair cycle: drop dark replicas, queue, drain by bandwidth."""
        self.scans += 1
        now = self.engine.now
        self._drop_dark_replicas(now)
        for obj in self.store.under_replicated(live=self.node_live):
            ref = (obj.bucket, obj.key)
            if ref not in self._queued:
                self._queue.append(ref)
                self._queued.add(ref)
        repaired_before = self.repaired_objects
        self._drain(now)
        # Only cycles that moved data are traced — an idle scan every
        # REPAIR_INTERVAL would bury the timeline in no-op spans.
        if self.telemetry is not None and (
            self.repaired_objects > repaired_before or self._queue
        ):
            self.telemetry.tracer.instant(
                "repair_cycle", "store",
                repaired=self.repaired_objects - repaired_before,
                backlog=len(self._queue),
            )

    def _drop_dark_replicas(self, now: float) -> None:
        for node in self.api.list_nodes():
            dark = node.allocatable.is_zero()
            if dark and node.name not in self._dark:
                self._dark.add(node.name)
                dropped = self.store.drop_node(node.name)
                self.dropped_replicas += dropped
                if dropped:
                    self.log.record(
                        "storage-replica-loss",
                        node.name,
                        now,
                        now,
                        detail=f"replicas_dropped={dropped}",
                    )
                    if self.telemetry is not None:
                        self.telemetry.tracer.instant(
                            "replica_drop", "store",
                            node=node.name, dropped=dropped,
                        )
            elif not dark:
                self._dark.discard(node.name)

    def _drain(self, now: float) -> None:
        budget = REPAIR_BANDWIDTH_MBPS * REPAIR_INTERVAL
        budget -= self._debt_mb
        self._debt_mb = 0.0
        deferred: list[tuple[str, str]] = []
        while self._queue and budget > 0:
            bucket, key = self._queue.popleft()
            self._queued.discard((bucket, key))
            try:
                obj = self.store.get(bucket, key)
            except StorageError:
                continue  # deleted since queued
            live = obj.live_replicas(self.node_live)
            if len(live) >= obj.target:
                continue  # healed elsewhere (e.g. node recovered)
            if not live:
                continue  # no surviving copy: unrepairable, counted in lost_objects
            target = self._pick_target(bucket, obj.replicas)
            if target is None:
                deferred.append((bucket, key))
                self.unplaceable += 1
                continue
            healed = self.store.add_replica(bucket, key, target)
            self.repaired_objects += 1
            self.repaired_mb += obj.size_mb
            self.repair_traffic_mb += obj.size_mb
            budget -= obj.size_mb
            if len(healed.live_replicas(self.node_live)) < healed.target:
                deferred.append((bucket, key))  # one copy per pass; still short
        if budget < 0:
            self._debt_mb = -budget
        for ref in deferred:
            if ref not in self._queued:
                self._queue.append(ref)
                self._queued.add(ref)

    def _pick_target(self, bucket: str, exclude: frozenset[str]) -> str | None:
        """Live node not already holding the object, least loaded for the bucket."""
        load: dict[str, float] = {}
        for obj in self.store.list_objects(bucket):
            for node in obj.replicas:
                load[node] = load.get(node, 0.0) + obj.size_mb
        candidates = [
            node.name
            for node in self.api.list_nodes()
            if node.name not in exclude and not node.allocatable.is_zero()
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (load.get(n, 0.0), n))

    # -- reporting -------------------------------------------------------------

    def backlog(self) -> int:
        """Objects queued for repair."""
        return len(self._queue)

    def sample_metrics(self) -> dict[str, float]:
        return {
            "repair_scans": float(self.scans),
            "repair_backlog": float(self.backlog()),
            "repaired_objects": float(self.repaired_objects),
            "repair_traffic_mb": self.repair_traffic_mb,
            "replicas_dropped": float(self.dropped_replicas),
        }
