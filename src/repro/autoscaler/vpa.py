"""Vertical Pod Autoscaler baseline.

Recommends per-replica allocations as a high percentile of recent usage
plus a safety margin, per resource — the VPA recommender model. Vertical
only and driven by *usage*, not by the objective: when the application is
throttled at its allocation ceiling, observed usage equals the ceiling and
the percentile recommendation grows only by the margin factor per period,
which is exactly the slow-recovery failure mode the adaptive controller's
error-proportional actuation avoids.
"""

from __future__ import annotations

from repro.autoscaler.base import AutoscalerBase
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.multiresource import AllocationBounds
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.workloads.base import Application


class VerticalPodAutoscaler(AutoscalerBase):
    """Percentile-of-usage vertical recommender.

    Parameters
    ----------
    bounds:
        Per-replica recommendation clamp.
    percentile:
        Usage percentile the recommendation tracks (VPA default ~p90).
    margin:
        Multiplicative safety margin over the percentile (VPA ~1.15).
    history_window:
        Seconds of usage history per recommendation.
    change_threshold:
        Minimum relative change per dimension before a resize is issued
        (suppresses churn from noisy usage).
    """

    policy_name = "vpa"

    def __init__(
        self,
        engine: Engine,
        collector: MetricsCollector,
        *,
        bounds: AllocationBounds,
        percentile: float = 90.0,
        margin: float = 1.15,
        history_window: float = 300.0,
        change_threshold: float = 0.1,
        interval: float = 60.0,
    ):
        super().__init__(engine, collector, interval=interval)
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if margin < 1:
            raise ValueError("margin must be ≥ 1")
        if change_threshold < 0:
            raise ValueError("change_threshold must be non-negative")
        self.bounds = bounds
        self.percentile = percentile
        self.margin = margin
        self.history_window = history_window
        self.change_threshold = change_threshold
        self.resizes = 0

    def attach(self, app: Application) -> None:
        super().attach(app)
        prefix = app.metric_prefix()
        self.collector.declare(*(f"{prefix}/usage/{name}" for name in RESOURCES))

    def recommend(self, app: Application) -> ResourceVector | None:
        """Current recommendation from the usage history, or None."""
        prefix = app.metric_prefix()
        replicas = max(1, len(app.running_pods()))
        values: dict[str, float] = {}
        for name in RESOURCES:
            observed = self.collector.window_percentile(
                f"{prefix}/usage/{name}", self.history_window, self.percentile
            )
            if observed is None:
                return None
            # The series is app-aggregate usage; recommend per replica.
            values[name] = (observed / replicas) * self.margin
        return self.bounds.clamp(ResourceVector.from_dict(values))

    def _materially_different(
        self, current: ResourceVector, proposed: ResourceVector
    ) -> bool:
        for name in RESOURCES:
            base = current[name]
            if base <= 0:
                if proposed[name] > 0:
                    return True
                continue
            if abs(proposed[name] - base) / base > self.change_threshold:
                return True
        return False

    def reconcile(self, app: Application) -> None:
        recommendation = self.recommend(app)
        if recommendation is None:
            return
        current = app.current_allocation()
        if self._materially_different(current, recommendation):
            app.set_target_allocation(recommendation)
            self.resizes += 1
