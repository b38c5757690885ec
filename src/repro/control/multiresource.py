"""Multi-resource controller: one PID, per-dimension actuation.

This is the headline mechanism: a per-application PID on the normalized
PLO error whose scalar output is *distributed* across CPU, memory, disk
bandwidth, and network bandwidth by the bottleneck estimator. Scale-up
flows to saturated dimensions; reclaim flows to dimensions with headroom,
so the controller simultaneously fixes violations and returns the
over-provisioned slack that inflates cluster cost.

The ablations in R-T3 are configuration points here: ``adaptive=False``
freezes the gain scale, and ``dimensions=("cpu",)`` reduces it to the
classic single-resource controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.adaptive import AdaptiveGainTuner
from repro.control.estimator import BottleneckEstimator, SaturationSnapshot
from repro.control.pid import OUTPUT_LIMITS, PIDController, PIDGains

#: An allocation is "near the floor" when every dimension sits within
#: this multiple of its minimum.
NEAR_FLOOR_SLACK = 1.25

#: Inclusive (lo, hi) clamp applied to the raw PLO error before the PID
#: and tuner see it. Latency ratios explode once a service is saturated
#: (queues make measured/target unbounded), and an unbounded error would
#: make every controller slam its output rail regardless of gains; a
#: bounded error keeps the loop in its linear regime.
ERROR_CLAMP = (-1.0, 3.0)

#: Multiplier < 1 damping scale-down relative to scale-up, because
#: under-shooting an allocation hurts users while over-shooting only
#: costs efficiency.
RECLAIM_CAUTION = 0.5


@dataclass(frozen=True)
class AllocationBounds:
    """Per-replica allocation floor and ceiling."""

    minimum: ResourceVector
    maximum: ResourceVector

    def __post_init__(self) -> None:
        if not self.minimum.fits_within(self.maximum):
            raise ValueError("minimum allocation exceeds maximum")
        if self.minimum.any_negative():
            raise ValueError("minimum allocation must be non-negative")

    def clamp(self, allocation: ResourceVector) -> ResourceVector:
        return allocation.clamp(self.minimum, self.maximum)

    def at_ceiling(self, allocation: ResourceVector, dimension: str,
                   *, tolerance: float = 1e-6) -> bool:
        """Whether ``dimension`` is pinned at the ceiling."""
        return allocation[dimension] >= self.maximum[dimension] - tolerance

    def near_floor(self, allocation: ResourceVector) -> bool:
        """Whether every dimension is within :data:`NEAR_FLOOR_SLACK`× of
        the floor."""
        for name in RESOURCES:
            floor = self.minimum[name]
            if floor <= 0:
                continue
            if allocation[name] > floor * NEAR_FLOOR_SLACK:
                return False
        return True


class ControlDecision(NamedTuple):
    """Outcome of one control period for one application.

    A named tuple, built once per decision: cheaper to construct than a
    frozen dataclass, and as immutable.
    """

    action: str  # "grow" | "reclaim" | "hold"
    new_allocation: ResourceVector
    error: float
    output: float
    gain_scale: float
    weights: dict[str, float]
    #: Why a hold was held ("deadband", "zero-output", "no-dimensions",
    #: "clamped") or "" for actuated decisions.
    reason: str = ""
    #: True when the bounds clamp altered (or fully absorbed) the
    #: proposed allocation.
    clamped: bool = False


class MultiResourceController:
    """Per-application adaptive multi-resource PID controller.

    Parameters
    ----------
    gains:
        Baseline PID gains on the normalized PLO error.
    bounds:
        Per-replica allocation clamp.
    deadband:
        |error| below which no actuation happens (churn suppression).
    adaptive:
        Enable online gain adaptation (ablation switch).
    dimensions:
        Resource dimensions this controller may actuate; others are left
        untouched (``("cpu",)`` gives the single-resource ablation).

    Reclaim effort is damped by :data:`RECLAIM_CAUTION`.
    """

    def __init__(
        self,
        gains: PIDGains,
        bounds: AllocationBounds,
        *,
        deadband: float = 0.1,
        adaptive: bool = True,
        dimensions: Sequence[str] = RESOURCES,
    ):
        unknown = set(dimensions) - set(RESOURCES)
        if unknown:
            raise ValueError(f"unknown dimensions: {sorted(unknown)}")
        if not dimensions:
            raise ValueError("need at least one controlled dimension")
        if deadband < 0:
            raise ValueError("deadband must be non-negative")
        self.pid = PIDController(gains)
        self.bounds = bounds
        self.deadband = deadband
        self.adaptive = adaptive
        self.dimensions = tuple(dimensions)
        self.estimator = BottleneckEstimator()
        self.tuner = AdaptiveGainTuner(deadband=deadband)
        self.decisions = 0

    def reset(self) -> None:
        self.pid.reset()
        self.tuner.reset()

    def export_state(self) -> dict:
        """Snapshot of the mutable control state (for the HA statestore)."""
        return {
            "pid": self.pid.export_state(),
            "tuner": self.tuner.export_state(),
            "decisions": self.decisions,
        }

    def restore_state(self, state: dict) -> None:
        """Resume from an exported snapshot (controller failover path)."""
        self.pid.restore_state(state["pid"])
        self.tuner.restore_state(state["tuner"])
        self.decisions = int(state["decisions"])

    def decide(
        self,
        error: float,
        saturation: SaturationSnapshot,
        current: ResourceVector,
        dt: float,
        *,
        feedforward: float = 0.0,
    ) -> ControlDecision:
        """One control period: error + saturation → allocation target.

        ``feedforward`` is an additive, non-negative output contribution
        (load anticipation); it can trigger a grow even inside the error
        deadband.

        ``b if b < a else a`` and ``b if b > a else a`` stand for
        ``min(a, b)`` and ``max(a, b)``: they return the same operand as
        the builtins, so ties, signed zeros and NaN give the same floats.
        """
        if feedforward < 0:
            raise ValueError("feedforward must be non-negative")
        self.decisions += 1
        error_lo, error_hi = ERROR_CLAMP
        error = error if error < error_hi else error_hi
        error = error if error > error_lo else error_lo
        pid = self.pid
        if self.adaptive:
            pid.gain_scale = self.tuner.update(error)
        output = pid.update(error, dt)
        if feedforward > 0:
            # An anticipated surge invalidates the feedback's "overachieving"
            # reading (it is about to be stale): suppress reclaim and add
            # the anticipatory growth on top.
            boosted = (output if output > 0.0 else 0.0) + feedforward
            top = OUTPUT_LIMITS[1]
            output = boosted if boosted < top else top
        gain_scale = pid.gain_scale

        deadband = self.deadband
        if feedforward <= 0 and -deadband <= error <= deadband:
            return ControlDecision(
                "hold", current, error, output, gain_scale, {},
                reason="deadband",
            )

        if output > 0:
            weights = self.estimator.grow_weights(saturation)
            action = "grow"
            effort = output
        elif output < 0:
            weights = self.estimator.reclaim_weights(saturation)
            action = "reclaim"
            effort = output * RECLAIM_CAUTION
        else:
            return ControlDecision(
                "hold", current, error, output, gain_scale, {},
                reason="zero-output",
            )

        # Restrict actuation to the controlled dimensions.
        dims = self.dimensions
        weight = weights.get
        w_cpu = weight("cpu", 0.0) if "cpu" in dims else 0.0
        w_memory = weight("memory", 0.0) if "memory" in dims else 0.0
        w_disk = weight("disk_bw", 0.0) if "disk_bw" in dims else 0.0
        w_net = weight("net_bw", 0.0) if "net_bw" in dims else 0.0
        weights = {
            "cpu": w_cpu, "memory": w_memory, "disk_bw": w_disk, "net_bw": w_net,
        }
        if w_cpu == 0.0 and w_memory == 0.0 and w_disk == 0.0 and w_net == 0.0:
            return ControlDecision(
                "hold", current, error, output, gain_scale, weights,
                reason="no-dimensions",
            )

        # Per dimension: scale by max(0.05, 1 + effort × weight), clamp
        # into the bounds, and test closeness within 1e-9 to the proposal
        # (was it clamped?) and to the current allocation (any change?).
        # Vectors iterate their fields in RESOURCES order.
        bounds = self.bounds
        target = []
        was_clamped = False
        unchanged = True
        for w, cur, lo, hi in zip(
            (w_cpu, w_memory, w_disk, w_net), current, bounds.minimum, bounds.maximum
        ):
            factor = 1.0 + effort * w
            proposed = cur * (factor if factor > 0.05 else 0.05)
            value = lo if lo > proposed else proposed
            value = hi if hi < value else value
            if not -1e-9 <= value - proposed <= 1e-9:
                was_clamped = True
            if not -1e-9 <= value - cur <= 1e-9:
                unchanged = False
            target.append(value)
        if unchanged:
            return ControlDecision(
                "hold", current, error, output, gain_scale, weights,
                reason="clamped", clamped=True,
            )
        return ControlDecision(
            action, ResourceVector._from_fields(*target), error, output,
            gain_scale, weights, clamped=was_clamped,
        )
