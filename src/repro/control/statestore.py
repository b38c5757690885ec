"""Durable controller state: snapshots plus a write-ahead actuation log.

The control loop is stateful — PID integrators, adaptive gain scales,
safe-mode and circuit-breaker latches, last-known-good allocations — and
a controller crash that loses this state forces the successor to
re-integrate from zero mid-transient. The :class:`ControllerStateStore`
models the durable side of the control plane:

* **Snapshots** of the full per-application control state (the dict
  produced by :meth:`repro.control.manager.ControlLoopManager.export_state`),
  taken on a configurable interval.
* A **write-ahead log** of issued actuations: every resize/scale is
  logged *before* it is sent to the cluster, so a crash between the log
  write and the apply still leaves the successor enough to reconcile.

Durability is not instantaneous. Every write carries a ``durable_at``
timestamp ``now + FSYNC_LATENCY``; a successor restoring at crash time
``T`` only observes records with ``durable_at <= T``, which models the
small window in which a crash loses the most recent writes. Snapshot
corruption (a chaos-injectable fault) marks the newest snapshot
unreadable, forcing fallback to an older snapshot and a longer WAL
replay.

This store is shared infrastructure, not per-replica state: all replicas
of a :class:`~repro.control.ha.ReplicatedControlPlane` read and write the
same store, the way etcd backs every kube-controller-manager replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.chaos import FaultLog
from repro.sim.engine import Engine

#: Delay (s) before a write becomes durable. A crash inside this window
#: loses the write, exactly like an un-fsynced page.
FSYNC_LATENCY = 0.005


@dataclass(frozen=True)
class WalRecord:
    """One issued actuation, logged write-ahead.

    ``target`` is the resize target (:class:`ResourceVector`) for
    ``kind == "resize"`` or the desired replica count for
    ``kind == "scale"``. Targets are immutable values, so sharing them
    with the live control loop is safe.
    """

    seq: int
    time: float
    durable_at: float
    app: str
    kind: str  # "resize" | "scale"
    target: object


@dataclass
class StateSnapshot:
    """A point-in-time capture of the whole control plane's state."""

    seq: int
    time: float
    durable_at: float
    wal_seq: int  # highest WAL seq already reflected in ``state``
    state: dict[str, dict]
    corrupted: bool = field(default=False)


class ControllerStateStore:
    """Snapshot + WAL store with simulated fsync latency.

    Parameters
    ----------
    snapshot_interval:
        Seconds between periodic snapshots (consumed by the control
        plane's scheduler); ``None`` disables snapshotting, leaving WAL
        replay from scratch as the only recovery path.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        snapshot_interval: float | None = 60.0,
        log: FaultLog,
    ):
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive or None")
        self.engine = engine
        self.snapshot_interval = snapshot_interval
        self.log = log  # FaultLog for corruption episodes
        self.snapshots: list[StateSnapshot] = []
        self.wal: list[WalRecord] = []
        self._snapshot_seq = 0
        self._wal_seq = 0
        self.corruptions = 0
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None

    # -- writes ------------------------------------------------------------------

    def append_wal(self, app: str, kind: str, target: object) -> WalRecord:
        """Log one actuation write-ahead; returns the record."""
        if kind not in ("resize", "scale"):
            raise ValueError(f"unknown WAL record kind {kind!r}")
        self._wal_seq += 1
        now = self.engine.now
        record = WalRecord(
            self._wal_seq, now, now + FSYNC_LATENCY, app, kind, target
        )
        self.wal.append(record)
        if self.telemetry is not None:
            self.telemetry.wal_appends.inc()
        return record

    def snapshot(self, state: dict[str, dict]) -> StateSnapshot:
        """Persist a full control-state capture.

        ``state`` must be a freshly-exported dict (``export_state`` builds
        new containers, so the live loop cannot mutate it afterwards).
        """
        self._snapshot_seq += 1
        now = self.engine.now
        snap = StateSnapshot(
            self._snapshot_seq,
            now,
            now + FSYNC_LATENCY,
            self._wal_seq,
            state,
        )
        self.snapshots.append(snap)
        if self.telemetry is not None:
            self.telemetry.snapshots.inc()
        return snap

    # -- fault injection -----------------------------------------------------------

    def corrupt_latest(self, now: float) -> bool:
        """Mark the newest durable snapshot unreadable (chaos hook).

        Returns True when a snapshot was actually corrupted. Recovery then
        falls back to the next-older intact snapshot plus a longer WAL
        replay — strictly worse, never fatal.
        """
        for snap in reversed(self.snapshots):
            if snap.corrupted or snap.durable_at > now:
                continue
            snap.corrupted = True
            self.corruptions += 1
            self.log.record(
                "snapshot-corruption", f"snapshot-{snap.seq}", now, now,
                detail=f"wal_seq={snap.wal_seq}",
            )
            return True
        return False

    # -- reads (recovery path) --------------------------------------------------------

    def latest_snapshot(self, at: float | None = None) -> StateSnapshot | None:
        """Newest intact snapshot durable at time ``at`` (default: now)."""
        at = self.engine.now if at is None else at
        for snap in reversed(self.snapshots):
            if not snap.corrupted and snap.durable_at <= at:
                return snap
        return None

    def wal_after(self, seq: int, at: float | None = None) -> list[WalRecord]:
        """Durable WAL records with ``record.seq > seq``, oldest first."""
        at = self.engine.now if at is None else at
        return [r for r in self.wal if r.seq > seq and r.durable_at <= at]

    # -- reporting ---------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "snapshots": len(self.snapshots),
            "wal_records": len(self.wal),
            "corruptions": self.corruptions,
        }
