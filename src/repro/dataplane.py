"""Data-plane fault-tolerance settings.

The settings shared by the three data-plane recovery mechanisms, which
``PlatformConfig.data_plane`` switches on together: the :class:`~repro.workloads.bigdata.BigDataJob` task
engine (lineage recompute, speculative execution, retry budgets), the
:class:`~repro.workloads.stream.StreamJob` checkpoint/replay path, and
the :class:`~repro.storage.repair.StorageRepairService` re-replication
loop.  This module is a dependency leaf — workloads, storage, and the
platform all import it without cycles.

Discipline (same as ``OverloadConfig``): the switch defaults *off*, and
off, seeded runs are bit-identical to a build without this module — no
extra RNG draws, no extra engine events, no changed metric streams.
"""

from __future__ import annotations

# -- BigDataJob task engine ----------------------------------------------------
#: Consecutive ticks an executor's retired-work rate must stay below
#: :data:`~repro.workloads.bigdata.STRAGGLER_RATE` × the stage median rate
#: before it counts as a straggler.
STRAGGLER_PATIENCE = 3
#: Speculate only once this fraction of the stage's tasks are done (tail
#: phase), mirroring the classic speculative-execution gate.
SPECULATION_QUANTILE = 0.5
#: Fault-driven re-opens a stage tolerates before the job is failed with a
#: poison-stage quarantine.
STAGE_MAX_ATTEMPTS = 4
#: Base (s) of the exponential re-dispatch backoff after a fault.
RETRY_BACKOFF_BASE = 5.0
#: Ceiling (s) of the exponential re-dispatch backoff.
RETRY_BACKOFF_CAP = 120.0

# -- StreamJob checkpoints -----------------------------------------------------
#: Seconds a restarted operator spends restoring state before it processes
#: events again (replayed backlog accrues meanwhile).
RESTORE_DELAY = 5.0

# -- ObjectStore repair --------------------------------------------------------
#: Repair copy bandwidth; each scan moves at most ``REPAIR_BANDWIDTH_MBPS`` ×
#: :data:`~repro.storage.repair.REPAIR_INTERVAL` MB (the last object may
#: overshoot and borrow from the next scan's budget).
REPAIR_BANDWIDTH_MBPS = 200.0


def backoff(attempt: int) -> float:
    """Re-dispatch delay after the ``attempt``-th fault (1-based):
    ``RETRY_BACKOFF_BASE · 2^(attempt−1)``, capped at
    :data:`RETRY_BACKOFF_CAP`."""
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2.0 ** max(0, attempt - 1)))
