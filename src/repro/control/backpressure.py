"""Backpressure ledger: deferred, coalesced scale-up requests.

When the control loop is *distressed* — actuation retries pending, a
circuit breaker open or probing, safe mode, or fresh actuation failures —
issuing more scale-up requests amplifies the very storm that caused the
distress: every new grow adds submissions that fail, retry, and pile onto
the backoff queues. Instead the manager parks grow decisions here. The
ledger keeps one entry per application (newest-wins coalescing, keeping
the largest requested replica count), and the manager drains an
application's entry on its first calm control period. Reclaim decisions
supersede a queued grow — shrinking reduces load and is always safe.

Pure bookkeeping: no events, no RNG, nothing scheduled. The ledger is
in-memory only and deliberately not snapshotted — like in-flight retry
closures, deferred targets die with a crashed controller, and the next
control period re-decides from live signals.

Observability: when telemetry is enabled the counters below are synced
into the ``sched/backpressure/*`` instruments at scrape time (see
:meth:`repro.obs.telemetry.Telemetry.attach_manager`), and the ledger
obeys the conservation identity checked by the flight recorder:
``deferrals == coalesced + releases + dropped + queued`` (a coalesced
defer folds into the existing entry instead of adding one).
"""

from __future__ import annotations


class BackpressureState:
    """Per-application deferred scale-up targets with coalescing."""

    def __init__(self) -> None:
        #: app name → largest deferred replica target.
        self.deferred: dict[str, int] = {}
        self.deferrals = 0
        self.coalesced = 0
        self.releases = 0
        self.dropped = 0

    def defer(self, app_name: str, desired: int) -> None:
        """Queue a grow to ``desired`` replicas, coalescing with any
        earlier queued grow for the same application."""
        prev = self.deferred.get(app_name)
        if prev is not None:
            self.coalesced += 1
            desired = max(desired, prev)
        self.deferred[app_name] = desired
        self.deferrals += 1

    def release(self, app_name: str) -> int | None:
        """Pop and return the queued target, or None if nothing queued."""
        target = self.deferred.pop(app_name, None)
        if target is not None:
            self.releases += 1
        return target

    def drop(self, app_name: str) -> None:
        """Discard a queued grow superseded by a reclaim decision."""
        if self.deferred.pop(app_name, None) is not None:
            self.dropped += 1

    def clear(self) -> None:
        """Forget everything (simulated controller restart)."""
        self.deferred.clear()

    def stats(self) -> dict[str, int]:
        return {
            "queued": len(self.deferred),
            "deferrals": self.deferrals,
            "coalesced": self.coalesced,
            "releases": self.releases,
            "dropped": self.dropped,
        }
