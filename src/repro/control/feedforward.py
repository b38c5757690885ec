"""Feedforward load anticipation (the paper's natural extension).

Pure feedback reacts only after latency has already degraded — one to
two control periods of violation per load surge. The feedforward term
watches the *offered load* signal directly and injects a proportional
scale-up into the controller output as soon as load jumps, before the
queueing model has translated the surge into latency.

Conservative by design: it only ever adds scale-up (never reclaim —
load drops are left to feedback, which is already cautious), ignores
changes below :data:`THRESHOLD`, and clamps its contribution.
"""

from __future__ import annotations

from repro.metrics.collector import MetricsCollector
from repro.workloads.base import Application

#: Output per unit relative load increase (a doubling of load adds +0.5
#: to the controller output).
GAIN = 0.5
#: Relative increase below which nothing is added (noise guard).
THRESHOLD = 0.15
#: Maximum additive contribution per control period.
LIMIT = 1.0
#: Seconds over which "previous" load is measured.
WINDOW = 30.0
#: Seconds after an activation during which *reclaim* decisions are
#: suppressed. Without this hysteresis the feedback loop hands the
#: anticipatory allocation back the moment the latency percentile looks
#: healthy — right before the surge crests — and the violation the
#: feedforward prevented happens anyway.
HOLD = 180.0


class FeedforwardScaler:
    """Offered-load delta → additive controller output."""

    def __init__(self, collector: MetricsCollector):
        self.collector = collector
        self.activations = 0
        self._last_activation: dict[str, float] = {}

    def watch(self, app: Application) -> None:
        """Declare the offered-load series :meth:`signal` reads for ``app``."""
        self.collector.declare(f"{app.metric_prefix()}/offered")

    def reclaim_suppressed(self, app_name: str, now: float) -> bool:
        """Whether a recent activation should block reclaiming."""
        last = self._last_activation.get(app_name)
        return last is not None and (now - last) < HOLD

    def signal(self, app: Application, now: float) -> float:
        """Additive output for this control period (≥ 0)."""
        series_name = f"{app.metric_prefix()}/offered"
        if not self.collector.has_series(series_name):
            return 0.0
        series = self.collector.series(series_name)
        current = series.last()
        last_time = series.last_time()
        if current is None or last_time is None:
            return 0.0
        # Baseline: trailing window just before the newest sample.
        previous = series.mean_over(last_time - 1e-6, WINDOW)
        if previous is None or previous <= 0:
            return 0.0
        delta = (current - previous) / previous
        if delta <= THRESHOLD:
            return 0.0
        self.activations += 1
        self._last_activation[app.name] = now
        return min(LIMIT, GAIN * delta)
