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


class HorizontalPodAutoscaler(AutoscalerBase):
    """Threshold-driven horizontal scaler on CPU utilization.

    Parameters
    ----------
    target_utilization:
        Desired usage/request CPU fraction (kube default 0.5–0.8 range).
    tolerance:
        Relative band around the target inside which no action is taken
        (kube default 0.1).
    min_replicas / max_replicas:
        Replica clamp.
    scale_down_stabilization:
        Seconds a lower desired count must persist before shrinking
        (kube default 300 s).
    """

    policy_name = "k8s-hpa"

    def __init__(
        self,
        engine: Engine,
        collector: MetricsCollector,
        *,
        target_utilization: float = 0.6,
        tolerance: float = 0.1,
        min_replicas: int = 1,
        max_replicas: int = 32,
        interval: float = 15.0,
        scale_down_stabilization: float = 300.0,
    ):
        super().__init__(engine, collector, interval=interval)
        if not 0 < target_utilization < 1:
            raise ValueError("target_utilization must be in (0, 1)")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if not 1 <= min_replicas <= max_replicas:
            raise ValueError("need 1 ≤ min_replicas ≤ max_replicas")
        self.target_utilization = target_utilization
        self.tolerance = tolerance
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.scale_down_stabilization = scale_down_stabilization
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
        ratio = utilization / self.target_utilization
        if abs(ratio - 1.0) <= self.tolerance:
            self._pending_down.pop(app.name, None)
            return
        desired = math.ceil(current * ratio)
        desired = max(self.min_replicas, min(self.max_replicas, desired))

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
            if now - since >= self.scale_down_stabilization:
                app.scale_to(pending[0])
                self._pending_down.pop(app.name, None)
