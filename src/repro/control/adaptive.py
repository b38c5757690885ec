"""Online gain adaptation.

Fixed PID gains tuned for one workload oscillate on a twitchier one and
crawl on a heavier one. The tuner watches the recent error signal and
rescales the gains between control periods:

* **Oscillation** (frequent error sign flips with meaningful amplitude)
  → multiply the scale down, damping the loop.
* **Sluggishness** (error stuck on one side of the deadband for many
  consecutive periods) → multiply the scale up, accelerating convergence.
* Otherwise the scale relaxes slowly back toward 1.0, so temporary
  adaptations do not become permanent mis-tunings.
"""

from __future__ import annotations

from collections import deque

#: Gain-scale multipliers for the two diagnoses.
SHRINK = 0.7
GROW = 1.3
#: Number of recent control periods inspected.
WINDOW = 8
#: Minimum sign flips within the window to diagnose oscillation.
OSCILLATION_FLIPS = 3
#: Consecutive same-sign, out-of-deadband periods to diagnose a too-slow
#: loop.
SLUGGISH_PERIODS = 4
#: Inclusive (min, max) clamp on the scale.
SCALE_BOUNDS = (0.2, 5.0)
#: Per-update pull of the scale back toward 1.0.
RELAX = 0.02


class AdaptiveGainTuner:
    """Heuristic gain scheduler driven by the error history.

    ``deadband``: |error| below this is treated as converged (no
    adaptation pressure in either direction). The scale is multiplied by
    :data:`SHRINK` on oscillation and by :data:`GROW` on sluggishness,
    over the last :data:`WINDOW` periods.
    """

    def __init__(self, *, deadband: float = 0.05):
        self.deadband = deadband
        self.scale = 1.0
        self._errors: deque[float] = deque(maxlen=WINDOW)
        self.oscillation_events = 0
        self.sluggish_events = 0
        #: Diagnosis of the most recent update: "oscillation",
        #: "sluggish", or None (provenance introspection).
        self.last_event: str | None = None

    # -- update ----------------------------------------------------------------------

    def update(self, error: float) -> float:
        """Feed one control-period error; returns the new gain scale.

        One pass over the window diagnoses both conditions: sign flips
        between consecutive out-of-deadband errors, and whether the last
        :data:`SLUGGISH_PERIODS` errors all sit out of band on one side.
        """
        errors = self._errors
        errors.append(float(error))
        deadband = self.deadband
        floor = -deadband
        periods = SLUGGISH_PERIODS
        recent = len(errors) - periods  # index of the first recent error
        flips = above = below = 0
        prev = 0.0  # 0.0 × e is never < 0, so the first error flips nothing
        for i, e in enumerate(errors):
            if e > deadband or e < floor:
                if prev * e < 0:
                    flips += 1
                prev = e
                if i >= recent:
                    if e > 0:
                        above += 1
                    elif e < 0:
                        below += 1
        if flips >= OSCILLATION_FLIPS:
            self.scale *= SHRINK
            self.oscillation_events += 1
            self.last_event = "oscillation"
            errors.clear()  # re-observe under the new gains
        elif recent >= 0 and (above == periods or below == periods):
            self.scale *= GROW
            self.sluggish_events += 1
            self.last_event = "sluggish"
            errors.clear()
        else:
            self.scale += (1.0 - self.scale) * RELAX
            self.last_event = None
        lo, hi = SCALE_BOUNDS
        scale = self.scale
        scale = scale if scale < hi else hi
        self.scale = scale if scale > lo else lo
        return self.scale

    def reset(self) -> None:
        self.scale = 1.0
        self._errors.clear()

    def export_state(self) -> dict:
        """Durable-snapshot view (controller failover path)."""
        return {
            "scale": self.scale,
            "errors": list(self._errors),
            "oscillation_events": self.oscillation_events,
            "sluggish_events": self.sluggish_events,
        }

    def restore_state(self, state: dict) -> None:
        self.scale = float(state["scale"])
        self._errors.clear()
        self._errors.extend(float(e) for e in state["errors"])
        self.oscillation_events = int(state["oscillation_events"])
        self.sluggish_events = int(state["sluggish_events"])
