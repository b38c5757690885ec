"""Discrete PID controller with the standard production hardening.

* **Anti-windup** — the integral term is clamped, and integration is
  suspended while the output is saturated in the same direction
  (conditional integration), so long violations do not bank unbounded
  corrections.
* **Filtered derivative** — the derivative acts on a first-order-filtered
  error, taming scrape-noise amplification.
* **Output clamping** — actuation is bounded to what the cluster can
  apply in one control period.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Inclusive (lo, hi) clamp on the control signal.
OUTPUT_LIMITS = (-0.5, 1.0)
#: Absolute clamp on the integral term's contribution (after ki).
INTEGRAL_LIMIT = 1.0
#: Smoothing factor in (0, 1] of the derivative's error filter.
DERIVATIVE_ALPHA = 0.3


@dataclass(frozen=True)
class PIDGains:
    """Proportional / integral / derivative gains."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("gains must be non-negative")


class PIDController:
    """Classic discrete PID on an externally-computed error signal.

    Sign convention follows :class:`~repro.workloads.plo.PLOStatus`:
    positive error means the objective is violated and the output should
    push allocations *up*; negative error means overachievement and the
    output may reclaim.

    ``gains`` are the baseline gains; :attr:`gain_scale` multiplies them
    at runtime. The output is clamped to :data:`OUTPUT_LIMITS`, the
    integral term's contribution to :data:`INTEGRAL_LIMIT`, and the
    derivative acts on the error filtered with :data:`DERIVATIVE_ALPHA`.
    """

    def __init__(self, gains: PIDGains):
        self.gains = gains
        self.gain_scale = 1.0
        self._integral = 0.0          # ∫ error dt (before ki)
        self._filtered_error: float | None = None
        self._prev_filtered: float | None = None
        self.last_output = 0.0
        #: Per-term contributions (P, I, D) of the most recent update —
        #: decision-provenance introspection, not control state.
        self.last_terms: tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.updates = 0

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """Clear integral and derivative state (e.g. after redeploys)."""
        self._integral = 0.0
        self._filtered_error = None
        self._prev_filtered = None
        self.last_output = 0.0
        self.last_terms = (0.0, 0.0, 0.0)

    def export_state(self) -> dict:
        """Durable-snapshot view of the mutable loop state.

        Everything a successor controller needs to resume mid-transient
        without re-integrating from zero; gains/limits are configuration,
        not state, and are not exported.
        """
        return {
            "integral": self._integral,
            "filtered_error": self._filtered_error,
            "prev_filtered": self._prev_filtered,
            "gain_scale": self.gain_scale,
            "last_output": self.last_output,
            "updates": self.updates,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (controller failover path)."""
        self._integral = float(state["integral"])
        self._filtered_error = state["filtered_error"]
        self._prev_filtered = state["prev_filtered"]
        self.gain_scale = float(state["gain_scale"])
        self.last_output = float(state["last_output"])
        self.updates = int(state["updates"])

    # -- update --------------------------------------------------------------------

    def update(self, error: float, dt: float) -> float:
        """Advance the controller by ``dt`` seconds with measured ``error``.

        Returns the clamped control output. The gains are the baseline
        gains times :attr:`gain_scale`, which must be positive.

        ``b if b < a else a`` and ``b if b > a else a`` stand for
        ``min(a, b)`` and ``max(a, b)``: they return the same operand as
        the builtins, so ties, signed zeros and NaN give the same floats.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        scale = self.gain_scale
        if scale <= 0:
            raise ValueError("scale factor must be positive")
        gains = self.gains
        kp = gains.kp * scale
        ki = gains.ki * scale
        kd = gains.kd * scale
        self.updates += 1

        # Derivative on filtered error.
        prev = self._filtered_error
        if prev is None:
            filtered = error
        else:
            a = DERIVATIVE_ALPHA
            filtered = a * error + (1 - a) * prev
        self._filtered_error = filtered
        if self._prev_filtered is None:
            derivative = 0.0
        else:
            derivative = (filtered - self._prev_filtered) / dt
        self._prev_filtered = filtered

        # Tentative integral step with conditional anti-windup below.
        proposed_integral = self._integral + error * dt
        if ki > 0:
            limit = INTEGRAL_LIMIT
            term = ki * proposed_integral
            term = term if term < limit else limit
            term = term if term > -limit else -limit
            proposed_integral = term / ki

        terms = (kp * error, ki * proposed_integral, kd * derivative)
        self.last_terms = terms
        unclamped = sum(terms)
        lo, hi = OUTPUT_LIMITS
        output = unclamped if unclamped < hi else hi
        output = output if output > lo else lo

        # Conditional integration: only accept the integral step when the
        # output is not saturated, or when the error pushes away from the
        # saturated rail.
        saturated_high = unclamped > hi and error > 0
        saturated_low = unclamped < lo and error < 0
        if not saturated_high and not saturated_low:
            self._integral = proposed_integral

        self.last_output = output
        return output
