"""Experiment statistics: violation accounting, utilization, convergence.

The :class:`PLOMonitor` is deliberately separate from any autoscaling
policy and runs at its own fixed cadence, so every policy in a comparison
is judged by exactly the same yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.resources import RESOURCES
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeseries import TimeSeries
from repro.sim.engine import Engine, PeriodicHandle
from repro.workloads.base import Application
from repro.workloads.plo import ViolationTracker

__all__ = [
    "PLOMonitor",
    "UtilizationSummary",
    "utilization_summary",
    "UTILIZATION_SERIES",
    "settling_time",
    "recovery_time",
    "overshoot",
]


class PLOMonitor:
    """Policy-independent PLO evaluation loop.

    Tracks a :class:`~repro.workloads.plo.ViolationTracker` per
    application and records ``plo/<app>/ratio`` and ``plo/<app>/violated``
    series for the figure benchmarks; like any series, they are stored
    only once a reader declares them.
    """

    def __init__(
        self, engine: Engine, collector: MetricsCollector, *, interval: float = 5.0
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.collector = collector
        self.interval = interval
        self._apps: list[Application] = []
        self.trackers: dict[str, ViolationTracker] = {}
        self._handle: PeriodicHandle | None = None

    def track(self, app: Application) -> ViolationTracker:
        """Start judging ``app`` (must carry a PLO); declares its PLO metric."""
        if app.plo is None:
            raise ValueError(f"application {app.name!r} has no PLO attached")
        if app.name in self.trackers:
            raise ValueError(f"application {app.name!r} already tracked")
        self.collector.declare(app.plo.metric_name(app.name))
        self._apps.append(app)
        tracker = ViolationTracker()
        self.trackers[app.name] = tracker
        return tracker

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("monitor already started")
        self._handle = self.engine.every(self.interval, self._loop, priority=10)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _loop(self) -> None:
        now = self.engine.now
        for app in self._apps:
            if app.finished and app.plo.kind != "deadline":
                continue
            status = app.plo.evaluate(self.collector, app.name, now)
            self.trackers[app.name].observe(now, status)
            if status.ratio is not None:
                self.collector.record(f"plo/{app.name}/ratio", status.ratio)
                self.collector.record(
                    f"plo/{app.name}/violated", 1.0 if status.violated else 0.0
                )


@dataclass(frozen=True)
class UtilizationSummary:
    """Time-averaged cluster usage and allocation fractions per resource."""

    mean_usage: dict[str, float]
    mean_alloc: dict[str, float]

    @property
    def overall_usage(self) -> float:
        """Mean usage fraction across resource dimensions."""
        return sum(self.mean_usage.values()) / len(self.mean_usage)

    @property
    def overall_alloc(self) -> float:
        return sum(self.mean_alloc.values()) / len(self.mean_alloc)


#: The cluster gauges :func:`utilization_summary` integrates.
UTILIZATION_SERIES = tuple(
    f"cluster/{kind}/{name}"
    for name in RESOURCES
    for kind in ("usage_frac", "alloc_frac")
)


def utilization_summary(
    collector: MetricsCollector, start: float, end: float
) -> UtilizationSummary:
    """Integrate the cluster gauge series over ``[start, end]``.

    Reads :data:`UTILIZATION_SERIES`, which must have been declared.
    """
    if end <= start:
        raise ValueError("end must be after start")
    span = end - start
    usage = {}
    alloc = {}
    for name in RESOURCES:
        usage[name] = collector.series(f"cluster/usage_frac/{name}").integrate(
            start, end
        ) / span
        alloc[name] = collector.series(f"cluster/alloc_frac/{name}").integrate(
            start, end
        ) / span
    return UtilizationSummary(usage, alloc)


def settling_time(
    series: TimeSeries,
    *,
    after: float,
    target: float,
    band: float = 0.1,
    hold: float = 30.0,
    horizon: float | None = None,
) -> float | None:
    """Time from ``after`` until the series enters and *stays* within
    ``target ± band·target`` for at least ``hold`` seconds.

    Returns None if it never settles within the observed samples (or
    before ``horizon``).

    Vectorized: the scan for the last excursion outside the band is a
    numpy mask operation over the whole series (comparisons only, so the
    result is identical to the sample-by-sample loop it replaced).
    """
    times, values = series.to_lists()
    t = np.asarray(times)
    v = np.asarray(values)
    keep = t >= after
    if horizon is not None:
        keep &= t <= horizon
    t, v = t[keep], v[keep]
    if t.size == 0:
        return None
    lo, hi = target * (1 - band), target * (1 + band)
    inside = (v >= lo) & (v <= hi)
    if not inside[-1]:
        return None
    outside = np.flatnonzero(~inside)
    candidate = float(t[0] if outside.size == 0 else t[outside[-1] + 1])
    if float(t[-1]) - candidate < hold:
        return None
    return candidate - after


def recovery_time(
    series: TimeSeries,
    *,
    after: float,
    threshold: float,
    hold: float = 60.0,
) -> float | None:
    """Time from ``after`` until the series drops to ``≤ threshold`` and
    stays there for at least ``hold`` seconds.

    The natural convergence metric for PLO ratios: "how long until the
    objective is met again, for good". Returns None if it never recovers
    within the observed samples. Vectorized like :func:`settling_time`.
    """
    times, values = series.to_lists()
    t = np.asarray(times)
    v = np.asarray(values)
    keep = t >= after
    t, v = t[keep], v[keep]
    if t.size == 0:
        return None
    ok = v <= threshold
    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    candidate = float(t[0] if bad.size == 0 else t[bad[-1] + 1])
    if float(t[-1]) - candidate < hold:
        return None
    return candidate - after


def jains_index(values: list[float]) -> float:
    """Jain's fairness index over per-tenant shares.

    1.0 = perfectly equal; 1/n = one tenant hogs everything. Used to
    report how evenly the converged cluster serves its tenants.
    """
    if not values:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values):
        raise ValueError("values must be non-negative")
    total = sum(values)
    if total == 0:
        return 1.0
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


def overshoot(
    series: TimeSeries, *, after: float, target: float, until: float | None = None
) -> float:
    """Peak relative excursion above ``target`` after time ``after``.

    Returns 0 when the series never exceeds the target. Vectorized;
    the maximum of per-sample excursions is order-independent, so the
    result matches the scalar loop exactly.
    """
    if target <= 0:
        return 0.0
    times, values = series.to_lists()
    t = np.asarray(times)
    v = np.asarray(values)
    keep = t >= after
    if until is not None:
        keep &= t <= until
    v = v[keep]
    if v.size == 0:
        return 0.0
    return max(0.0, float(np.max((v - target) / target)))
