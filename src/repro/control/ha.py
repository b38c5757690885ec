"""Replicated control plane: lease-based leader election over control loops.

A single :class:`~repro.control.manager.ControlLoopManager` is a single
point of failure — kill it and every managed application coasts on its
last allocation while load keeps moving. This module runs N replicas
behind a TTL lease stored in the API server
(:meth:`~repro.cluster.api.ClusterAPI.try_acquire_lease`), the same
pattern kube-controller-manager uses with its Lease object:

* Exactly one replica holds the lease and runs its control loop; it
  renews every ``ttl / 3`` seconds.
* Standbys watch the lease every ``ttl / 4`` seconds and try to acquire
  the moment it expires.
* A leader that cannot renew (crash, partition) **self-fences**: a
  :class:`~repro.sim.engine.Watchdog` armed with the lease TTL fires at
  the exact moment the lease becomes stealable — before any rival can
  acquire it, thanks to its negative event priority — and stops the
  loop. A partitioned leader additionally fails every actuation with
  :class:`~repro.cluster.api.PartitionError` (the manager's
  ``partition_guard``), so there is no window in which two leaders
  actuate: the old one is fenced or failing before the new one starts.

Recovery is stateful. The leader snapshots the full control state into a
shared :class:`~repro.control.statestore.ControllerStateStore` and logs
every actuation write-ahead; a newly elected leader restores the latest
durable snapshot and replays the WAL tail with **idempotent
reconciliation** — a logged resize whose target the cluster already
carries is deduplicated, one lost in flight is re-issued exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.api import ActuationError, ClusterAPI, PartitionError
from repro.cluster.chaos import FaultLog
from repro.cluster.resources import ResourceVector
from repro.control.manager import ControlLoopManager
from repro.control.statestore import ControllerStateStore
from repro.sim.engine import Engine, PeriodicHandle, Watchdog

#: The one leader lease; replica ``i`` acts as ``control-plane-<i>``.
LEASE_NAME = "control-plane"


@dataclass(frozen=True)
class FailoverEvent:
    """One leadership change, with its recovery bookkeeping.

    ``gap`` is the observable leader gap: elected time minus the previous
    lease's last successful renewal (None for the initial election).
    """

    time: float
    leader: str
    generation: int
    gap: float | None
    snapshot_restored: bool
    snapshot_age: float | None
    wal_replayed: int
    wal_deduped: int
    wal_reissued: int
    wal_failed: int


@dataclass
class _Replica:
    policy: object  # AdaptiveAutoscaler-like (has .manager) or bare manager
    identity: str
    api: object  # ScopedClusterAPI
    alive: bool = True
    watch_handle: PeriodicHandle | None = None
    crashes: int = 0
    elections: int = 0
    renew_failures: int = 0
    step_downs: int = field(default=0)

    @property
    def manager(self) -> ControlLoopManager:
        return getattr(self.policy, "manager", self.policy)


class ReplicatedControlPlane:
    """N control-loop replicas behind lease-based leader election.

    Parameters
    ----------
    replicas:
        Policy objects (anything exposing ``start``/``stop`` and a
        ``manager`` attribute, e.g. ``AdaptiveAutoscaler``) or bare
        :class:`ControlLoopManager` instances. All replicas must have the
        same applications registered.
    store:
        Shared durable statestore.
    rng:
        Jitter source for de-correlating standby watch timers. Use a
        dedicated :class:`~repro.sim.rng.RngRegistry` stream — the plane
        must never draw from workload streams.
    fault_log:
        The :class:`~repro.cluster.chaos.FaultLog` that leader gaps are
        recorded in.
    """

    def __init__(
        self,
        engine: Engine,
        api: ClusterAPI,
        replicas: list,
        *,
        store: ControllerStateStore,
        rng: np.random.Generator,
        fault_log: FaultLog,
    ):
        if not replicas:
            raise ValueError("need at least one control-plane replica")
        self.engine = engine
        self.api = api
        self.store = store
        self.rng = rng
        self.fault_log = fault_log
        self.replicas: list[_Replica] = [
            _Replica(
                policy,
                f"{LEASE_NAME}-{i}",
                api.for_controller(f"{LEASE_NAME}-{i}"),
            )
            for i, policy in enumerate(replicas)
        ]
        # Twice the control interval: one missed renewal is tolerated and
        # failover completes within three control periods.
        self.lease_ttl = 2.0 * self.replicas[0].manager.interval
        self.renew_interval = self.lease_ttl / 3.0
        self.watch_interval = self.lease_ttl / 4.0
        self._leader: int | None = None
        self._renew_handle: PeriodicHandle | None = None
        self._snapshot_handle: PeriodicHandle | None = None
        self._watchdog: Watchdog | None = None
        self._started = False
        self.generation = 0
        self.failovers: list[FailoverEvent] = []
        self.step_downs = 0
        self.fence_events = 0
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None

    # -- introspection (chaos domains use this surface) ---------------------------

    def leader_index(self) -> int | None:
        return self._leader

    def identity(self, index: int) -> str:
        return self.replicas[index].identity

    def is_alive(self, index: int) -> bool:
        return self.replicas[index].alive

    def alive_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.replicas) if r.alive]

    def stats(self) -> dict[str, int | float | None]:
        return {
            "replicas": len(self.replicas),
            "leader": self._leader,
            "generation": self.generation,
            "failovers": len(self.failovers),
            "step_downs": self.step_downs,
            "fence_events": self.fence_events,
            "wal_reissued": sum(e.wal_reissued for e in self.failovers),
            "wal_deduped": sum(e.wal_deduped for e in self.failovers),
        }

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """Elect the first alive replica and put the rest on lease watch."""
        if self._started:
            raise RuntimeError("control plane already started")
        self._started = True
        for index in self.alive_indices():
            if self._leader is None:
                lease = self.replicas[index].api.try_acquire_lease(
                    LEASE_NAME, self.replicas[index].identity, self.lease_ttl
                )
                if lease is not None:
                    self._become_leader(index, lease, previous=None)
                    continue
            self._start_watch(index)

    def stop(self) -> None:
        """Stop all loops and timers (end of experiment, not a fault)."""
        if self._leader is not None:
            index = self._leader
            self._demote(index)
            try:
                self.replicas[index].api.release_lease(
                    LEASE_NAME, self.replicas[index].identity
                )
            except PartitionError:
                pass
        for replica in self.replicas:
            self._stop_watch(replica)
        self._started = False

    # -- fault hooks (chaos domains call these) -----------------------------------

    def crash_replica(self, index: int) -> None:
        """Kill a replica process: loop, timers, and in-memory state die."""
        replica = self.replicas[index]
        if not replica.alive:
            raise ValueError(f"replica {replica.identity} already down")
        replica.alive = False
        replica.crashes += 1
        self._stop_watch(replica)
        if self._leader == index:
            # A crash is not a clean step-down: the lease is left to
            # expire, which is exactly the leader gap the TTL bounds.
            self._demote(index)
        replica.manager.reset_entries()

    def restart_replica(self, index: int) -> None:
        """Bring a crashed replica back as a cold standby."""
        replica = self.replicas[index]
        if replica.alive:
            return
        replica.alive = True
        replica.manager.reset_entries()
        if self._started:
            self._start_watch(index)

    # -- standby side -----------------------------------------------------------------

    def _start_watch(self, index: int) -> None:
        replica = self.replicas[index]
        if replica.watch_handle is not None:
            return
        # Stagger the first poll per replica (plus jitter) so standbys do
        # not race on the same tick; the engine would break the tie
        # deterministically, but the stagger keeps election order
        # independent of scheduling insertion order.
        offset = self.watch_interval * (1.0 + 0.1 * index)
        offset += 0.05 * self.watch_interval * float(self.rng.random())
        replica.watch_handle = self.engine.every(
            self.watch_interval,
            lambda: self._watch_tick(index),
            start=self.engine.now + offset,
        )

    def _stop_watch(self, replica: _Replica) -> None:
        if replica.watch_handle is not None:
            replica.watch_handle.cancel()
            replica.watch_handle = None

    def _watch_tick(self, index: int) -> None:
        replica = self.replicas[index]
        if not replica.alive or self._leader == index:
            return
        try:
            lease = replica.api.get_lease(LEASE_NAME)
            if lease is not None and not lease.expired(replica.api.now):
                return
            acquired = replica.api.try_acquire_lease(
                LEASE_NAME, replica.identity, self.lease_ttl
            )
        except PartitionError:
            return  # cut off from the API server; keep watching
        if acquired is not None:
            self._stop_watch(replica)
            self._become_leader(index, acquired, previous=lease)

    # -- leader side ------------------------------------------------------------------

    def _become_leader(self, index: int, lease, *, previous) -> None:
        replica = self.replicas[index]
        self._leader = index
        self.generation = lease.generation
        replica.elections += 1

        manager = replica.manager
        # Fresh process semantics: whatever this replica accumulated in a
        # previous life is gone; only the statestore survives.
        manager.stop()
        manager.reset_entries()
        recovery = self._restore(manager)
        manager.partition_guard = replica.api.check_partition
        manager.actuation_sink = self.store.append_wal
        # Stamp the fencing epoch so every decision this leader takes
        # carries the lease generation in its provenance record.
        manager.lease_generation = lease.generation
        if self.telemetry is not None:
            self.telemetry.elections.inc()
            self.telemetry.tracer.instant(
                "election", "ha",
                leader=replica.identity, generation=lease.generation,
            )
        replica.policy.start()

        self._renew_handle = self.engine.every(
            self.renew_interval, lambda: self._renew_tick(index)
        )
        self._watchdog = Watchdog(
            self.engine, self.lease_ttl, lambda: self._fence(index)
        )
        self._watchdog.start()
        if self.store.snapshot_interval is not None:
            self._snapshot_handle = self.engine.every(
                self.store.snapshot_interval,
                lambda: self.store.snapshot(manager.export_state()),
            )

        gap = None
        if previous is not None:
            gap = self.engine.now - previous.renewed_at
            self.fault_log.record(
                "leader-gap", replica.identity,
                previous.renewed_at, self.engine.now,
                detail=f"generation={lease.generation}",
            )
        self.failovers.append(
            FailoverEvent(
                self.engine.now, replica.identity, lease.generation, gap,
                **recovery,
            )
        )

    def _demote(self, index: int) -> None:
        """Tear down leader duties (does not touch the lease)."""
        replica = self.replicas[index]
        replica.policy.stop()
        replica.manager.partition_guard = None
        replica.manager.actuation_sink = None
        replica.manager.lease_generation = None
        if self._renew_handle is not None:
            self._renew_handle.cancel()
            self._renew_handle = None
        if self._snapshot_handle is not None:
            self._snapshot_handle.cancel()
            self._snapshot_handle = None
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        self._leader = None

    def _renew_tick(self, index: int) -> None:
        replica = self.replicas[index]
        if self._leader != index:
            return
        try:
            lease = replica.api.renew_lease(LEASE_NAME, replica.identity)
        except PartitionError:
            replica.renew_failures += 1
            return  # keep trying; the watchdog fences us at the TTL
        if lease is None:
            # The lease expired or moved under us: leadership is gone and
            # a rival may already hold it — stop actuating immediately.
            replica.renew_failures += 1
            self._step_down(index)
            return
        if self._watchdog is not None:
            self._watchdog.feed()

    def _fence(self, index: int) -> None:
        """Watchdog expiry: the lease TTL elapsed without a renewal."""
        self.fence_events += 1
        self._step_down(index)

    def _step_down(self, index: int) -> None:
        replica = self.replicas[index]
        self.step_downs += 1
        replica.step_downs += 1
        if self.telemetry is not None:
            self.telemetry.step_downs.inc()
            self.telemetry.tracer.instant(
                "step_down", "ha", replica=replica.identity,
            )
        self._demote(index)
        if replica.alive:
            self._start_watch(index)

    # -- recovery ---------------------------------------------------------------------

    def _restore(self, manager: ControlLoopManager) -> dict:
        """Restore snapshot + WAL tail; reconcile idempotently.

        Only *durable* records are visible (``durable_at <= now``). For
        each (app, kind) only the newest logged actuation matters — older
        ones were superseded in the old leader's own timeline. A record
        whose target the cluster already reflects is **deduplicated**
        (never re-issued: resizes are absolute targets, so re-applying an
        applied one is at best a no-op and at worst tramples a concurrent
        change); a record that never took effect is re-issued once.
        """
        now = self.engine.now
        snap = self.store.latest_snapshot(now)
        if snap is not None:
            manager.restore_state(snap.state)
        records = self.store.wal_after(snap.wal_seq if snap else 0, now)
        apps = manager.applications()
        newest: dict[tuple[str, str], object] = {}
        for record in records:
            newest[(record.app, record.kind)] = record
        deduped = reissued = failed = 0
        for (app_name, kind), record in newest.items():
            app = apps.get(app_name)
            if app is None:
                continue
            try:
                if kind == "resize":
                    target = record.target
                    assert isinstance(target, ResourceVector)
                    applied = app.current_allocation().approx_equal(
                        target
                    ) or app.target_allocation.approx_equal(target)
                    if applied:
                        deduped += 1
                    else:
                        app.set_target_allocation(target)
                        reissued += 1
                elif kind == "scale":
                    desired = int(record.target)
                    if app.replica_count == desired:
                        deduped += 1
                    else:
                        app.scale_to(desired)
                        reissued += 1
            except ActuationError:
                failed += 1  # next control period re-decides
        return {
            "snapshot_restored": snap is not None,
            "snapshot_age": (now - snap.time) if snap is not None else None,
            "wal_replayed": len(records),
            "wal_deduped": deduped,
            "wal_reissued": reissued,
            "wal_failed": failed,
        }
