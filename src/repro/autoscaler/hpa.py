"""Stock Kubernetes Horizontal Pod Autoscaler baseline.

Implements the documented HPA algorithm: desired replicas scale with the
ratio of observed CPU utilization (usage / request) to the target,
with a tolerance band and a scale-down stabilization window. It is
single-resource and purely horizontal — the two limitations the
multi-resource adaptive controller removes.
"""

from __future__ import annotations

import math

from repro.autoscaler.base import AutoscalerBase
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.workloads.base import Application

#: Desired usage/request CPU fraction (kube's range is 0.5–0.8).
TARGET_UTILIZATION = 0.6
#: Relative band around the target inside which no action is taken
#: (kube default 0.1).
TOLERANCE = 0.1
#: Replica clamp.
MIN_REPLICAS = 1
MAX_REPLICAS = 32
#: Seconds a lower desired count must persist before shrinking (kube
#: default 300 s).
SCALE_DOWN_STABILIZATION = 300.0


class HorizontalPodAutoscaler(AutoscalerBase):
    """Threshold-driven horizontal scaler on CPU utilization, at kube's
    defaults."""

    policy_name = "k8s-hpa"

    def __init__(self, engine: Engine, collector: MetricsCollector):
        super().__init__(engine, collector)
        # app name -> (pending lower desired count, since-time)
        self._pending_down: dict[str, tuple[int, float]] = {}

    def attach(self, app: Application) -> None:
        super().attach(app)
        prefix = app.metric_prefix()
        self.collector.declare(f"{prefix}/usage/cpu", f"{prefix}/alloc/cpu")

    def _observed_utilization(self, app: Application) -> float | None:
        """Mean CPU usage/allocation over the last interval, from metrics."""
        prefix = app.metric_prefix()
        usage = self.collector.window_mean(f"{prefix}/usage/cpu", self.interval)
        alloc = self.collector.latest(f"{prefix}/alloc/cpu")
        if usage is None or alloc is None or alloc <= 0:
            return None
        return usage / alloc

    def reconcile(self, app: Application) -> None:
        utilization = self._observed_utilization(app)
        if utilization is None:
            return
        current = max(1, app.replica_count)
        ratio = utilization / TARGET_UTILIZATION
        if abs(ratio - 1.0) <= TOLERANCE:
            self._pending_down.pop(app.name, None)
            return
        desired = math.ceil(current * ratio)
        desired = max(MIN_REPLICAS, min(MAX_REPLICAS, desired))

        if desired > current:
            self._pending_down.pop(app.name, None)
            app.scale_to(desired)
        elif desired < current:
            now = self.engine.now
            pending = self._pending_down.get(app.name)
            if pending is None or desired > pending[0]:
                # Track the *highest* recommendation within the window, as
                # kube does: scale down only to the max of recent wishes.
                self._pending_down[app.name] = (desired, now)
                return
            since = pending[1]
            if now - since >= SCALE_DOWN_STABILIZATION:
                app.scale_to(pending[0])
                self._pending_down.pop(app.name, None)
