"""Data-plane fault-tolerance configuration.

One frozen knob bundle shared by the three data-plane recovery
mechanisms: the :class:`~repro.workloads.bigdata.BigDataJob` task
engine (lineage recompute, speculative execution, retry budgets), the
:class:`~repro.workloads.stream.StreamJob` checkpoint/replay path, and
the :class:`~repro.storage.repair.StorageRepairService` re-replication
loop.  This module is a dependency leaf — workloads, storage, and the
platform all import it without cycles.

Discipline (same as ``OverloadConfig``): every feature defaults *off*,
and with ``enabled=False`` seeded runs are bit-identical to a build
without this module — no extra RNG draws, no extra engine events, no
changed metric streams.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Ceiling (s) of the exponential re-dispatch backoff.
RETRY_BACKOFF_CAP = 120.0


@dataclass(frozen=True)
class DataPlaneConfig:
    """Knobs for data-plane fault tolerance. Frozen; safe to share."""

    #: Master switch. On → the task engine (lineage recompute of lost
    #: outputs, speculative copies of straggler-held tasks), stream
    #: checkpoints and the storage repair loop. Off → fluid big-data
    #: model, no stream checkpoints, no storage repair, liveness-blind
    #: locality (seed behaviour).
    enabled: bool = False

    # -- BigDataJob task engine ------------------------------------------------
    #: Consecutive ticks an executor's retired-work rate must stay below
    #: :data:`~repro.workloads.bigdata.STRAGGLER_RATE` × the stage median
    #: rate before it counts as a straggler.
    straggler_patience: int = 3
    #: Speculate only once this fraction of the stage's tasks are done
    #: (tail phase), mirroring the classic speculative-execution gate.
    speculation_quantile: float = 0.5
    #: Fault-driven re-opens a stage tolerates before the job is failed
    #: with a poison-stage quarantine.
    stage_max_attempts: int = 4
    #: Exponential re-dispatch backoff after a fault: base · 2^(attempt−1),
    #: capped at :data:`RETRY_BACKOFF_CAP`.
    retry_backoff_base: float = 5.0

    # -- StreamJob checkpoints -------------------------------------------------
    #: Seconds a restarted operator spends restoring state before it
    #: processes events again (replayed backlog accrues meanwhile).
    restore_delay: float = 5.0

    # -- ObjectStore repair ----------------------------------------------------
    #: Repair copy bandwidth; each scan moves at most
    #: ``repair_bandwidth_mbps`` × :data:`~repro.storage.repair.REPAIR_INTERVAL`
    #: MB (the last object may overshoot and borrow from the next scan's
    #: budget).
    repair_bandwidth_mbps: float = 200.0

    def __post_init__(self) -> None:
        if self.straggler_patience < 1:
            raise ValueError("straggler_patience must be >= 1")
        if not 0.0 <= self.speculation_quantile <= 1.0:
            raise ValueError("speculation_quantile must be in [0, 1]")
        if self.stage_max_attempts < 1:
            raise ValueError("stage_max_attempts must be >= 1")
        if self.retry_backoff_base <= 0:
            raise ValueError("retry_backoff_base must be positive")
        if self.restore_delay < 0:
            raise ValueError("restore_delay must be >= 0")
        if self.repair_bandwidth_mbps <= 0:
            raise ValueError("repair_bandwidth_mbps must be positive")

    def backoff(self, attempt: int) -> float:
        """Re-dispatch delay after the ``attempt``-th fault (1-based)."""
        return min(
            RETRY_BACKOFF_CAP,
            self.retry_backoff_base * (2.0 ** max(0, attempt - 1)),
        )
