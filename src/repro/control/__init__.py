"""Multi-resource adaptive PID control — the paper's core contribution.

The pipeline per application:

1. :class:`~repro.control.pid.PIDController` turns the normalized PLO
   error into a scalar actuation signal (anti-windup, filtered derivative,
   clamped output).
2. :class:`~repro.control.adaptive.AdaptiveGainTuner` rescales the gains
   online, damping oscillation and accelerating sluggish convergence, so
   one controller works across diverse, drifting workloads.
3. :class:`~repro.control.estimator.BottleneckEstimator` attributes the
   error to specific resource dimensions from per-resource saturation.
4. :class:`~repro.control.multiresource.MultiResourceController` combines
   the three into per-dimension allocation targets.
5. :class:`~repro.control.manager.ControlLoopManager` runs the loop on a
   fixed cadence against the metrics pipeline and actuates applications.

For fault tolerance, :class:`~repro.control.ha.ReplicatedControlPlane`
runs N managers behind lease-based leader election, persisting state via
:class:`~repro.control.statestore.ControllerStateStore`.
"""

from repro.control.pid import PIDController, PIDGains
from repro.control.adaptive import AdaptiveGainTuner
from repro.control.estimator import BottleneckEstimator, SaturationSnapshot
from repro.control.multiresource import (
    AllocationBounds,
    ControlDecision,
    MultiResourceController,
)
from repro.control.manager import ControlLoopManager
from repro.control.feedforward import FeedforwardScaler
from repro.control.statestore import (
    ControllerStateStore,
    StateSnapshot,
    WalRecord,
)
from repro.control.ha import FailoverEvent, ReplicatedControlPlane

__all__ = [
    "ControllerStateStore",
    "FailoverEvent",
    "FeedforwardScaler",
    "ReplicatedControlPlane",
    "StateSnapshot",
    "WalRecord",
    "PIDController",
    "PIDGains",
    "AdaptiveGainTuner",
    "BottleneckEstimator",
    "SaturationSnapshot",
    "MultiResourceController",
    "AllocationBounds",
    "ControlDecision",
    "ControlLoopManager",
]
