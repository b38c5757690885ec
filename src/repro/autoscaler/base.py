"""Shared periodic-loop base for autoscaling policies."""

from __future__ import annotations

from repro.cluster.api import ActuationError
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine, PeriodicHandle
from repro.workloads.base import Application


class AutoscalerBase:
    """Base class: a named policy ticking at a fixed interval.

    Subclasses implement :meth:`reconcile`, called once per
    :attr:`interval` with each attached application.
    """

    #: Policy name used in reports.
    policy_name = "base"
    #: Seconds between reconciles (kube's HPA sync period).
    interval = 15.0

    def __init__(self, engine: Engine, collector: MetricsCollector):
        self.engine = engine
        self.collector = collector
        self._apps: list[Application] = []
        self._handle: PeriodicHandle | None = None
        self.reconciles = 0
        self.actuation_failures = 0

    def attach(self, app: Application) -> None:
        """Put ``app`` under this policy's management."""
        if app in self._apps:
            raise ValueError(f"application {app.name!r} already attached")
        self._apps.append(app)

    def detach(self, app: Application) -> None:
        try:
            self._apps.remove(app)
        except ValueError:
            pass

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("autoscaler already started")
        self._handle = self.engine.every(self.interval, self._loop, priority=5)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _loop(self) -> None:
        self.reconciles += 1
        for app in list(self._apps):
            if not app.finished:
                try:
                    self.reconcile(app)
                except ActuationError:
                    # Transient actuation fault: the periodic loop itself
                    # is the retry mechanism — next interval re-decides
                    # from fresh observations.
                    self.actuation_failures += 1

    def reconcile(self, app: Application) -> None:
        """Apply the policy to one application. Override."""
        raise NotImplementedError
