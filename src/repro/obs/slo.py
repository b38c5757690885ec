"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` names one objective over one collector series —
"web latency ≤ 50 ms for 99 % of ticks", "repair backlog = 0 for 95 %
of ticks" — and the :class:`SLOEngine` evaluates every registered spec
incrementally on each completed scrape round (it attaches to
:meth:`~repro.metrics.collector.MetricsCollector.add_scrape_hook`).
Nothing here schedules engine events or draws RNG: the engine is pure
observation over data the collector already stores, so seeded runs are
bit-identical with the SLO engine on or off.

Per spec the engine maintains

* an **attainment ledger** — good/bad scrape ticks after warmup, the
  attainment fraction, and the error-budget spend in seconds (budget =
  ``(1 - target) × observed``, spend = bad seconds);
* two **burn-rate windows** (:data:`FAST_WINDOW` and
  :data:`SLOW_WINDOW` seconds). The burn rate of a window
  is ``bad_fraction / (1 - target)`` where the fraction is taken over
  the window's full span (unobserved ticks count as good — a window
  still filling after warmup under-reports rather than over-reports):
  burn 1.0 spends the budget exactly at the sustainable rate, burn N
  spends it N× too fast;
* a **multi-window alert**: it *fires* when the fast AND slow windows
  both burn at or above :data:`BURN_THRESHOLD` (the slow window proves the
  problem is real, the fast window proves it is still happening) and
  *resolves* once the fast window drops back below the threshold.
  Fired/resolved times are recorded as :class:`SLOAlert` rows — the
  flight recorder's alert timeline.

When given a registry the engine also exports ``slo/*`` gauges
(attainment, both burn rates, firing flag) so SLO health is scrapeable
like any other ``ctrl/*`` self-metric. Exports lag evaluation by one
scrape round: the registry is sampled during the scrape, the hook runs
after it.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

#: SLO names must be single path segments: they are interpolated into
#: ``slo/<name>/<gauge>`` metric names, which the registry lints.
_SLO_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Objective kinds, for labelling/reporting only — evaluation is always
#: "series value vs threshold".
SLO_KINDS = ("latency", "goodput", "lag", "repair_backlog", "custom")

#: Burn-rate window lengths (s) of every SLO.
FAST_WINDOW = 60.0
SLOW_WINDOW = 600.0
#: Burn rate at which an alert fires (both windows) / resolves (fast
#: window).
BURN_THRESHOLD = 2.0


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Parameters
    ----------
    name:
        Identifier (``[a-z][a-z0-9_]*``), used in metric names and the
        RunReport.
    series:
        Full collector series name to evaluate (e.g.
        ``app/web/latency``, ``ctrl/sched/latch_active``). Read with
        ``latest()`` only, so change-point-encoded ``ctrl/*`` series
        are legal inputs.
    objective:
        Threshold on the series value.
    comparator:
        ``"le"`` — a tick is good while ``value <= objective`` (latency,
        lag, backlog); ``"ge"`` — good while ``value >= objective``
        (goodput, throughput floors).
    target:
        Required fraction of good ticks in ``[0, 1)``; ``1 - target``
        is the error budget.
    warmup:
        Seconds of run start excluded from evaluation (cold-start
        grace, mirroring :data:`repro.platform.evolve.PLO_WARMUP`).
    kind:
        Label from :data:`SLO_KINDS`, reporting only.
    description:
        Free-text shown in reports.
    """

    name: str
    series: str
    objective: float
    comparator: str = "le"
    target: float = 0.99
    warmup: float = 60.0
    kind: str = "custom"
    description: str = ""

    def __post_init__(self) -> None:
        if not _SLO_NAME_RE.match(self.name):
            raise ValueError(
                f"SLO name {self.name!r} must match {_SLO_NAME_RE.pattern}"
            )
        if self.comparator not in ("le", "ge"):
            raise ValueError("comparator must be 'le' or 'ge'")
        if not 0.0 <= self.target < 1.0:
            raise ValueError("target must be in [0, 1)")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.kind not in SLO_KINDS:
            raise ValueError(f"kind must be one of {SLO_KINDS}")

    def good(self, value: float) -> bool:
        if self.comparator == "le":
            return value <= self.objective
        return value >= self.objective


@dataclass
class SLOAlert:
    """One firing of an SLO's burn-rate alert."""

    slo: str
    fired_at: float
    resolved_at: float | None = None
    #: Fast/slow burn rates observed at fire time.
    burn_fast: float = 0.0
    burn_slow: float = 0.0

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def as_dict(self) -> dict:
        return {
            "slo": self.slo,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
        }


class _WindowCounter:
    """Rolling count of bad ticks over the last ``span`` seconds.

    The bad fraction is taken over the window's *capacity* (span /
    scrape tick), not over the ticks actually observed: a window that
    has only just started filling — right after warmup, or after a
    scrape blackout — treats the unobserved remainder as good. That is
    the fixed-window burn-rate semantics: one bad tick is one tick's
    worth of budget, never "100 % bad", so a single post-warmup sample
    cannot fire an alert on its own.
    """

    __slots__ = ("span", "capacity", "ticks", "bad")

    def __init__(self, span: float, tick: float):
        self.span = span
        self.capacity = max(1, round(span / tick))
        self.ticks: deque[tuple[float, bool]] = deque()
        self.bad = 0

    def push(self, now: float, is_bad: bool) -> None:
        self.ticks.append((now, is_bad))
        if is_bad:
            self.bad += 1
        cutoff = now - self.span
        while self.ticks and self.ticks[0][0] <= cutoff:
            _, was_bad = self.ticks.popleft()
            if was_bad:
                self.bad -= 1

    def bad_fraction(self) -> float:
        return self.bad / self.capacity


@dataclass
class _SLOState:
    """Mutable evaluation state for one spec."""

    spec: SLOSpec
    tick: float
    good_ticks: int = 0
    bad_ticks: int = 0
    missing_ticks: int = 0
    first_bad_at: float | None = None
    last_value: float | None = None
    fast: _WindowCounter = None  # type: ignore[assignment]
    slow: _WindowCounter = None  # type: ignore[assignment]
    firing: bool = False
    alerts: list[SLOAlert] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.fast = _WindowCounter(FAST_WINDOW, self.tick)
        self.slow = _WindowCounter(SLOW_WINDOW, self.tick)

    @property
    def observed_ticks(self) -> int:
        return self.good_ticks + self.bad_ticks

    def attainment(self) -> float:
        total = self.observed_ticks
        return self.good_ticks / total if total else 1.0

    def burn(self, window: _WindowCounter) -> float:
        budget = 1.0 - self.spec.target
        return window.bad_fraction() / budget if budget > 0 else 0.0


class SLOEngine:
    """Incremental SLO evaluator driven by collector scrape rounds.

    Parameters
    ----------
    collector:
        The :class:`~repro.metrics.collector.MetricsCollector` whose
        series are evaluated; the engine declares each spec's series and
        reads ``latest()`` only.
    specs:
        The SLOs to track; names must be unique.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` to export
        ``slo/*`` gauges into (normally the Telemetry registry).
    """

    def __init__(self, collector, specs, *, registry=None):
        self.collector = collector
        self.specs = tuple(specs)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        collector.declare(*(s.series for s in self.specs))
        self.tick = float(collector.scrape_interval)
        self.states: dict[str, _SLOState] = {
            s.name: _SLOState(s, self.tick) for s in self.specs
        }
        self._gauges: dict[str, tuple] = {}
        if registry is not None:
            for spec in self.specs:
                base = f"slo/{spec.name}"
                self._gauges[spec.name] = (
                    registry.gauge(f"{base}/attainment"),
                    registry.gauge(f"{base}/burn_fast"),
                    registry.gauge(f"{base}/burn_slow"),
                    registry.gauge(f"{base}/firing"),
                )
                self._gauges[spec.name][0].set(1.0)

    # -- evaluation (the collector's scrape hook) -----------------------------

    def on_scrape(self, now: float) -> None:
        """Evaluate every spec against the just-completed scrape round."""
        latest = self.collector.latest
        for state in self.states.values():
            spec = state.spec
            if now < spec.warmup:
                continue
            value = latest(spec.series)
            state.last_value = value
            if value is None:
                # No sample yet (series not created, blackout): the tick
                # is unobserved rather than silently good or bad.
                state.missing_ticks += 1
                continue
            bad = not spec.good(value)
            if bad:
                state.bad_ticks += 1
                if state.first_bad_at is None:
                    state.first_bad_at = now
            else:
                state.good_ticks += 1
            state.fast.push(now, bad)
            state.slow.push(now, bad)
            burn_fast = state.burn(state.fast)
            burn_slow = state.burn(state.slow)
            if not state.firing:
                if burn_fast >= BURN_THRESHOLD and burn_slow >= BURN_THRESHOLD:
                    state.firing = True
                    state.alerts.append(SLOAlert(
                        spec.name, now,
                        burn_fast=burn_fast, burn_slow=burn_slow,
                    ))
            elif burn_fast < BURN_THRESHOLD:
                state.firing = False
                state.alerts[-1].resolved_at = now
            gauges = self._gauges.get(spec.name)
            if gauges is not None:
                gauges[0].set(state.attainment())
                gauges[1].set(burn_fast)
                gauges[2].set(burn_slow)
                gauges[3].set(1.0 if state.firing else 0.0)

    # -- reporting ------------------------------------------------------------

    def alerts(self) -> list[SLOAlert]:
        """Every alert across all SLOs, ordered by fire time."""
        out = [a for s in self.states.values() for a in s.alerts]
        out.sort(key=lambda a: (a.fired_at, a.slo))
        return out

    def summary(self) -> dict[str, dict]:
        """Per-SLO attainment / budget / alert summary (JSON-friendly)."""
        out: dict[str, dict] = {}
        for name, state in self.states.items():
            spec = state.spec
            observed_s = state.observed_ticks * self.tick
            budget_s = (1.0 - spec.target) * observed_s
            spent_s = state.bad_ticks * self.tick
            out[name] = {
                "kind": spec.kind,
                "series": spec.series,
                "objective": spec.objective,
                "comparator": spec.comparator,
                "target": spec.target,
                "description": spec.description,
                "observed_s": observed_s,
                "attainment": state.attainment(),
                "good_ticks": state.good_ticks,
                "bad_ticks": state.bad_ticks,
                "missing_ticks": state.missing_ticks,
                "budget_s": budget_s,
                "budget_spent_s": spent_s,
                "budget_remaining_s": budget_s - spent_s,
                "burn_fast": state.burn(state.fast),
                "burn_slow": state.burn(state.slow),
                "first_bad_at": state.first_bad_at,
                "firing": state.firing,
                "alerts": [a.as_dict() for a in state.alerts],
            }
        return out
