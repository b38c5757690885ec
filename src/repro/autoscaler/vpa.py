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

#: Usage percentile the recommendation tracks (VPA default ~p90).
PERCENTILE = 90.0
#: Multiplicative safety margin over the percentile (VPA ~1.15).
MARGIN = 1.15
#: Seconds of usage history per recommendation.
HISTORY_WINDOW = 300.0
#: Minimum relative change per dimension before a resize is issued
#: (suppresses churn from noisy usage).
CHANGE_THRESHOLD = 0.1


class VerticalPodAutoscaler(AutoscalerBase):
    """Percentile-of-usage vertical recommender.

    ``bounds`` clamps each per-replica recommendation.
    """

    policy_name = "vpa"
    #: Seconds between recommendations.
    interval = 60.0

    def __init__(
        self,
        engine: Engine,
        collector: MetricsCollector,
        *,
        bounds: AllocationBounds,
    ):
        super().__init__(engine, collector)
        self.bounds = bounds
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
                f"{prefix}/usage/{name}", HISTORY_WINDOW, PERCENTILE
            )
            if observed is None:
                return None
            # The series is app-aggregate usage; recommend per replica.
            values[name] = (observed / replicas) * MARGIN
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
            if abs(proposed[name] - base) / base > CHANGE_THRESHOLD:
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
