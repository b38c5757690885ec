"""The contribution: adaptive multi-resource autoscaler.

Wires one :class:`~repro.control.multiresource.MultiResourceController`
per application into the shared
:class:`~repro.control.manager.ControlLoopManager`, and adds the
*horizontal escape valve*: when vertical scaling rails out at the
per-replica ceiling while still violating, the policy adds a replica
(resetting per-replica allocations so the controller can re-converge);
when the application overachieves with allocations near the floor, it
removes one.

This composition — PLO error in, multi-resource vertical actuation first,
horizontal only at the rails — is what drives both headline results:
fewer violations (error-proportional, bottleneck-directed scaling reacts
in one or two control periods) and higher utilization (reclaim runs
continuously instead of never).
"""

from __future__ import annotations

from repro.control.feedforward import FeedforwardScaler
from repro.control.manager import ControlLoopManager
from repro.control.multiresource import (
    AllocationBounds,
    ControlDecision,
    MultiResourceController,
)
from repro.control.pid import PIDGains
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.workloads.base import Application

#: Replica clamp of the escape valve.
MIN_REPLICAS = 1
MAX_REPLICAS = 32
#: Minimum PLO error before adding a replica (prevents scale-out on
#: marginal violations vertical scaling can still absorb).
SCALE_OUT_ERROR = 0.2
#: Maximum (negative) error before removing a replica.
SCALE_IN_ERROR = -0.4
#: Seconds between replica changes for one application.
COOLDOWN = 60.0


class HorizontalEscapePolicy:
    """Replica changes when vertical scaling saturates."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._last_change: dict[str, float] = {}
        self.scale_outs = 0
        self.scale_ins = 0

    def _in_cooldown(self, app_name: str) -> bool:
        last = self._last_change.get(app_name)
        return last is not None and (self.engine.now - last) < COOLDOWN

    def adjust(
        self,
        app: Application,
        decision: ControlDecision,
        controller: MultiResourceController,
    ) -> int:
        current = app.replica_count
        if self._in_cooldown(app.name):
            return current
        bounds = controller.bounds
        allocation = app.current_allocation()

        # Scale out: still violating hard, and every bottleneck dimension
        # the controller wanted to grow is already pinned at its ceiling.
        if decision.error >= SCALE_OUT_ERROR and current < MAX_REPLICAS:
            grow_dims = [d for d, w in decision.weights.items() if w > 0]
            railed = grow_dims and all(
                bounds.at_ceiling(allocation, d) for d in grow_dims
            )
            if railed or decision.action == "grow" and not grow_dims:
                self._last_change[app.name] = self.engine.now
                self.scale_outs += 1
                return current + 1

        # Scale in: comfortably overachieving with allocations near the
        # floor — a whole replica of slack exists.
        if (
            decision.error <= SCALE_IN_ERROR
            and current > MIN_REPLICAS
            and bounds.near_floor(allocation)
        ):
            self._last_change[app.name] = self.engine.now
            self.scale_ins += 1
            return current - 1
        return current


class AdaptiveAutoscaler:
    """Facade assembling controllers + manager + escape valve.

    Parameters
    ----------
    gains:
        Default PID gains for newly attached applications.
    bounds:
        Default per-replica allocation clamp.
    adaptive / dimensions:
        Passed to each controller; the ablation switches.
    horizontal:
        Enable the replica escape valve.
    rng / fault_log / overload:
        Passed to the :class:`~repro.control.manager.ControlLoopManager`.
    """

    policy_name = "adaptive-multiresource"

    #: The platform refuses to manage PLO-less apps under this policy:
    #: the control loop is error-driven and has no signal without one.
    requires_plo = True

    def __init__(
        self,
        engine: Engine,
        collector: MetricsCollector,
        *,
        bounds: AllocationBounds,
        gains: PIDGains | None = None,
        interval: float = 10.0,
        adaptive: bool = True,
        dimensions: tuple[str, ...] | None = None,
        horizontal: bool = True,
        deadband: float = 0.1,
        feedforward: bool = False,
        rng,
        fault_log,
        overload,
    ):
        self.engine = engine
        self.collector = collector
        self.bounds = bounds
        self.gains = gains or PIDGains(kp=0.8, ki=0.08, kd=0.1)
        self.adaptive = adaptive
        self.dimensions = dimensions
        self.deadband = deadband
        self.feedforward = (
            FeedforwardScaler(collector) if feedforward else None
        )
        self.manager = ControlLoopManager(
            engine, collector, interval=interval, rng=rng,
            fault_log=fault_log, overload=overload,
        )
        self.escape = HorizontalEscapePolicy(engine) if horizontal else None
        self.controllers: dict[str, MultiResourceController] = {}

    def attach(self, app: Application) -> MultiResourceController:
        """Create a controller for ``app`` and register it with the loop."""
        kwargs = {} if self.dimensions is None else {"dimensions": self.dimensions}
        controller = MultiResourceController(
            self.gains,
            self.bounds,
            deadband=self.deadband,
            adaptive=self.adaptive,
            **kwargs,
        )
        self.controllers[app.name] = controller
        self.manager.register(
            app, controller, horizontal=self.escape,
            feedforward=self.feedforward,
        )
        return controller

    def detach(self, app: Application) -> None:
        """Release ``app`` from management (idempotent)."""
        self.controllers.pop(app.name, None)
        self.manager.unregister(app.name)

    def start(self) -> None:
        self.manager.start()

    def stop(self) -> None:
        self.manager.stop()
