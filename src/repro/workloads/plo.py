"""Performance Level Objectives (PLOs) and violation accounting.

A PLO captures the user's performance intent — the contract the controller
manages to — replacing per-resource requests as the user-facing knob.
``evaluate`` turns collected metrics into a normalized
:class:`PLOStatus`; the controller acts on ``status.error`` and the
evaluation harness integrates violations over time with
:class:`ViolationTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.collector import MetricsCollector


@dataclass(frozen=True)
class PLOStatus:
    """Snapshot of an objective at one evaluation instant.

    Attributes
    ----------
    measured / target:
        Measured metric value and its objective, in the PLO's native unit.
    ratio:
        measured / target for "lower is better" objectives, target /
        measured for "higher is better" — so ratio > 1 always means
        *violating* and ratio < 1 means *overachieving*.
    error:
        ``ratio - 1``: positive when violating, negative when overachieving.
        This signed, normalized error is the controller input.
    violated:
        Whether the objective is currently breached.
    """

    measured: float | None
    target: float
    ratio: float | None
    error: float | None
    violated: bool

    @staticmethod
    def unknown(target: float) -> "PLOStatus":
        """Status when no measurement is available yet."""
        return PLOStatus(None, target, None, None, False)


class _Objective:
    """What every PLO kind shares: the ``app/<app>/<metric>`` series it
    reads, named once per application (each kind's ``__init__`` sets
    ``_names``)."""

    #: The application metric the objective reads.
    metric = ""

    def metric_name(self, app: str) -> str:
        names = self._names
        if app in names:
            return names[app]
        name = names[app] = f"app/{app}/{self.metric}"
        return name


class LatencyPLO(_Objective):
    """Tail-latency objective: ``p99 latency ≤ target`` seconds.

    Parameters
    ----------
    target:
        Latency bound in seconds.
    window:
        Trailing window (s) over which the tail is computed.
    """

    kind = "latency"
    metric = "latency"
    #: Which tail the objective controls.
    percentile = 99.0

    def __init__(self, target: float, *, window: float = 30.0):
        if target <= 0:
            raise ValueError("latency target must be positive")
        self.target = float(target)
        self.window = float(window)
        self._last: PLOStatus | None = None
        self._names: dict[str, str] = {}

    def evaluate(self, collector: MetricsCollector, app: str, now: float) -> PLOStatus:
        series = collector.stored(self.metric_name(app))
        if series is None:
            return PLOStatus.unknown(self.target)
        measured = series.percentile_over(now, self.window, self.percentile)
        if measured is None:
            return PLOStatus.unknown(self.target)
        # A status is a function of measured and target alone, so a repeat
        # (the series hands back the same float object) reuses the last.
        last = self._last
        if (
            last is not None
            and last.measured is measured
            and last.target == self.target
        ):
            return last
        ratio = measured / self.target
        self._last = last = PLOStatus(
            measured, self.target, ratio, ratio - 1.0, ratio > 1.0
        )
        return last


class ThroughputPLO(_Objective):
    """Throughput objective: served rate ≥ target (req/s or tasks/s)."""

    kind = "throughput"
    metric = "throughput"

    def __init__(self, target: float, *, window: float = 30.0):
        if target <= 0:
            raise ValueError("throughput target must be positive")
        self.target = float(target)
        self.window = float(window)
        self._names: dict[str, str] = {}

    def evaluate(self, collector: MetricsCollector, app: str, now: float) -> PLOStatus:
        series = collector.stored(self.metric_name(app))
        if series is None:
            return PLOStatus.unknown(self.target)
        measured = series.mean_over(now, self.window)
        if measured is None:
            return PLOStatus.unknown(self.target)
        # Higher is better: ratio > 1 means under-delivering.
        ratio = self.target / measured if measured > 0 else float("inf")
        return PLOStatus(measured, self.target, ratio, ratio - 1.0, ratio > 1.0)


class DeadlinePLO(_Objective):
    """Batch-job objective: finish by an absolute deadline.

    ``evaluate`` compares projected completion (from the job's reported
    ``progress`` and elapsed runtime) against the deadline, so the
    controller can react *before* the deadline is actually missed.
    """

    kind = "deadline"
    metric = "progress"

    def __init__(self, deadline: float, *, start_time: float = 0.0):
        if deadline <= start_time:
            raise ValueError("deadline must be after start_time")
        self.deadline = float(deadline)
        self.start_time = float(start_time)
        self._names: dict[str, str] = {}

    @property
    def target(self) -> float:
        return self.deadline

    def evaluate(self, collector: MetricsCollector, app: str, now: float) -> PLOStatus:
        series = collector.stored(self.metric_name(app))
        if series is None:
            return PLOStatus.unknown(self.deadline)
        progress = series.last()
        if progress is None:
            return PLOStatus.unknown(self.deadline)
        elapsed = max(1e-9, now - self.start_time)
        budget = self.deadline - self.start_time
        if progress >= 1.0:
            # Finished: violated only if it finished late (now past deadline
            # is fine once complete — completion time was recorded earlier).
            ratio = elapsed / budget if elapsed > budget else 1.0
            return PLOStatus(elapsed, budget, ratio, ratio - 1.0, False)
        if progress <= 0.0:
            projected = float("inf")
        else:
            projected = elapsed / progress
        ratio = projected / budget
        return PLOStatus(projected, budget, ratio, ratio - 1.0, ratio > 1.0)


class ViolationTracker:
    """Integrates PLO violations over time for the evaluation harness.

    Call :meth:`observe` at a fixed cadence; the tracker accumulates
    violation time, total observed time, and the worst violation ratio —
    the quantities reconstructed tables R-T1/R-T3 report.
    """

    def __init__(self) -> None:
        self.observations = 0
        self.violations = 0
        self.violation_seconds = 0.0
        self.observed_seconds = 0.0
        self.worst_ratio = 0.0
        self._last_time: float | None = None

    def observe(self, now: float, status: PLOStatus) -> None:
        """Record one evaluation instant."""
        dt = 0.0
        if self._last_time is not None:
            dt = max(0.0, now - self._last_time)
        self._last_time = now
        self.observed_seconds += dt
        self.observations += 1
        if status.ratio is not None:
            self.worst_ratio = max(self.worst_ratio, status.ratio)
        if status.violated:
            self.violations += 1
            self.violation_seconds += dt

    @property
    def violation_fraction(self) -> float:
        """Fraction of observed time spent in violation."""
        if self.observed_seconds <= 0:
            return 0.0
        return self.violation_seconds / self.observed_seconds

