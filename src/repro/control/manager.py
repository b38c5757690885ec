"""The control loop: evaluate PLOs, decide, actuate — and degrade gracefully.

One :class:`ControlLoopManager` runs per experiment. Every control period
it steps each registered application through evaluate → decide → write →
record:

1. **evaluate** the application's PLO against the metrics pipeline and
   check the signal is *fresh* (recent samples, not a stalled scrape),
2. **decide**: build the saturation snapshot from scraped usage/allocation
   and ask the application's
   :class:`~repro.control.multiresource.MultiResourceController` for a
   decision,
3. **write** it vertically (in-place pod resizes) and, through an optional
   horizontal policy, by adding/removing replicas when vertical scaling
   rails out — every write goes through one path that logs it to the
   write-ahead hook before actuating,
4. **record** the PLO error and controller output as the series
   ``control/<app>/error`` and ``control/<app>/output``.

The step returns its verdict and decision; with telemetry on, the loop
turns them into one decision-provenance record per application and period.

The loop is hardened against the fault taxonomy in
:mod:`repro.cluster.chaos` / :mod:`repro.metrics.faults`:

* **Stale-signal holddown + safe mode** — a missing or stale PLO signal
  never reaches the PID. After :data:`SAFE_MODE_AFTER` consecutive stale
  periods the app enters *safe mode*: the loop freezes it at the
  last-known-good allocation and stops actuating until the signal
  returns, at which point the controller state is reset (stale integral
  discarded) and normal operation resumes.
* **Retry with exponential backoff + jitter** — actuations that raise
  :class:`~repro.cluster.api.ActuationError` are retried on a capped
  exponential schedule instead of hot-looped.
* **Circuit breaker** — an app whose actuations keep failing, or whose
  decisions flap between grow and reclaim, has scaling suppressed for
  :data:`BREAKER_OPEN_DURATION` seconds. When the window elapses the
  breaker goes *half-open*: the next actuation is a probe — success
  closes the breaker, failure re-opens it immediately for another full
  window.
* **Backpressure** (opt-in via
  :class:`~repro.scheduler.admission.OverloadConfig`) — while any loop is
  distressed (pending retries, open/probing breakers, safe mode), grow
  decisions are queued and coalesced in a
  :class:`~repro.control.backpressure.BackpressureState` instead of
  issued, preventing retry storms; they drain on the first calm period.
* **Brownout** (opt-in) — apps exposing the brownout surface
  (``enter_brownout`` / ``exit_brownout``) are hysteretically degraded
  to a cheaper PLO tier under sustained violation and restored once the
  error clears.

The retry, breaker, safe-mode and brownout settings are the module
constants below; which overload features run is chosen by
:class:`~repro.scheduler.admission.OverloadConfig`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import pairwise
from typing import Callable, Protocol

import numpy as np

from repro.cluster.api import ActuationError
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.backpressure import BackpressureState
from repro.control.estimator import SaturationSnapshot
from repro.control.multiresource import ControlDecision, MultiResourceController
from repro.metrics.collector import MetricsCollector
from repro.obs.tracing import DecisionProvenance
from repro.sim.engine import Engine, EventHandle, PeriodicHandle
from repro.workloads.base import Application


class HorizontalPolicy(Protocol):
    """Hook deciding replica-count changes after the vertical decision."""

    def adjust(
        self,
        app: Application,
        decision: ControlDecision,
        controller: MultiResourceController,
    ) -> int:
        """Return the desired replica count (may equal the current one)."""
        ...


#: Consecutive stale control periods before an app enters safe mode.
SAFE_MODE_AFTER = 3
#: Retry schedule for failed actuations: attempt *n* waits
#: ``RETRY_BASE_DELAY · 2ⁿ`` seconds, multiplied by a uniform
#: ``1 ± RETRY_JITTER`` factor so synchronized retries de-correlate. The
#: breaker bounds the retries: it trips on the
#: ``BREAKER_FAILURE_THRESHOLD``-th consecutive failure, so a decision is
#: retried at most ``BREAKER_FAILURE_THRESHOLD - 1`` times.
RETRY_BASE_DELAY = 2.0
RETRY_JITTER = 0.25
#: Consecutive actuation failures that trip the circuit breaker.
BREAKER_FAILURE_THRESHOLD = 3
#: Trip the breaker when the last ``BREAKER_FLAP_WINDOW`` non-hold
#: decisions hold at least ``BREAKER_FLAP_THRESHOLD`` grow↔reclaim flips.
BREAKER_FLAP_WINDOW = 6
BREAKER_FLAP_THRESHOLD = 4
#: Seconds scaling stays suppressed once the breaker opens.
BREAKER_OPEN_DURATION = 120.0
#: Brownout hysteresis: enter after ``BROWNOUT_ENTER_PERIODS`` consecutive
#: periods with PLO error at or above ``BROWNOUT_ENTER_ERROR``, exit after
#: ``BROWNOUT_EXIT_PERIODS`` at or below ``BROWNOUT_EXIT_ERROR`` (plus the
#: latency penalty's share of a latency PLO's target).
BROWNOUT_ENTER_ERROR = 0.5
BROWNOUT_EXIT_ERROR = 0.05
BROWNOUT_ENTER_PERIODS = 3
BROWNOUT_EXIT_PERIODS = 6
#: Multiplier on per-request demand while browned out.
BROWNOUT_DEMAND_FACTOR = 0.6
#: Seconds added to reported latency while browned out — the price of
#: serving the degraded tier.
BROWNOUT_LATENCY_PENALTY = 0.02


#: The resilience counters every application keeps, in report order.
COUNTERS = (
    "safe_mode_entries", "safe_mode_exits", "actuation_failures", "retries",
    "breaker_trips", "breaker_skips", "breaker_probes", "breaker_reopens",
    "brownout_entries", "brownout_exits",
)
#: The counters a durable snapshot carries across controller failover.
DURABLE_COUNTERS = (
    "safe_mode_entries", "safe_mode_exits", "breaker_trips", "breaker_skips"
)


class _Series:
    """The series names one application's loop reads and records, built
    once at registration so a control period formats no strings."""

    __slots__ = ("signal", "usage", "alloc", "error", "output")

    def __init__(self, app: Application):
        #: The PLO metric.
        self.signal = app.plo.metric_name(app.name)
        prefix = app.metric_prefix()
        #: The scraped usage and allocation series, in :data:`RESOURCES` order.
        self.usage = [f"{prefix}/usage/{name}" for name in RESOURCES]
        self.alloc = [f"{prefix}/alloc/{name}" for name in RESOURCES]
        #: The recorded controller internals.
        self.error = f"control/{app.name}/error"
        self.output = f"control/{app.name}/output"


@dataclass
class _Entry:
    app: Application
    controller: MultiResourceController
    horizontal: HorizontalPolicy | None
    feedforward: object | None = None  # optional FeedforwardScaler
    series: _Series = field(init=False)
    skipped: int = 0
    stats: dict[str, int] = field(
        default_factory=lambda: {"grow": 0, "reclaim": 0, "hold": 0}
    )
    #: One count per name in :data:`COUNTERS`.
    counters: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0)
    )
    # -- resilience state ----------------------------------------------------
    stale_periods: int = 0
    last_signal_time: float | None = None
    safe_mode: bool = False
    last_good_allocation: ResourceVector | None = None
    consecutive_failures: int = 0
    retry_attempts: int = 0
    retry_action: Callable[[], None] | None = None
    retry_handle: EventHandle | None = None
    breaker_open_until: float = 0.0
    # Half-open: the open window elapsed and the next actuation is a
    # probe — success closes the breaker, failure re-opens it.
    breaker_half_open: bool = False
    # Last ``BREAKER_FLAP_WINDOW`` non-hold directions (+1 grow, -1 reclaim).
    directions: deque = field(
        default_factory=lambda: deque(maxlen=BREAKER_FLAP_WINDOW)
    )
    # -- brownout hysteresis (only advanced when brownout is enabled) --------
    brownout_high_periods: int = 0
    brownout_low_periods: int = 0
    brownout_episode: object | None = None
    # Span id of the current period's decide span (telemetry only), so
    # actuations — including delayed retries — parent to their decision.
    decision_span_id: int | None = None

    def __post_init__(self) -> None:
        self.series = _Series(self.app)


class ControlLoopManager:
    """Periodic controller executor over registered applications.

    Parameters
    ----------
    interval:
        Control period in seconds (the dt fed to each PID, and the
        trailing window usage is averaged over for saturation snapshots).
        A PLO signal older than 2.5 periods counts as stale.
    rng:
        Source of retry jitter; seeded default keeps runs deterministic.
    overload:
        Optional :class:`~repro.scheduler.admission.OverloadConfig`.
        Its ``backpressure`` flag arms the deferred scale-up ledger and
        ``brownout`` arms hysteretic degradation; both default off, and a
        ``None`` (or all-off) config leaves the loop byte-identical.
    """

    def __init__(
        self,
        engine: Engine,
        collector: MetricsCollector,
        *,
        interval: float = 10.0,
        rng: np.random.Generator | None = None,
        fault_log=None,
        overload=None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.collector = collector
        self.interval = interval
        #: Max age (s) of the newest PLO sample before the signal is stale.
        self.freshness_timeout = 2.5 * interval
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.fault_log = fault_log
        self.backpressure: BackpressureState | None = (
            BackpressureState()
            if overload is not None and overload.backpressure
            else None
        )
        self.brownout = overload is not None and overload.brownout
        # HA hooks (see repro.control.ha). ``partition_guard`` runs at the
        # top of every actuation and may raise ActuationError (a partitioned
        # leader cannot reach the API, so its writes fail like any other
        # transient fault). ``actuation_sink`` is the write-ahead hook: it
        # sees (app, kind, target) *before* the action is issued, so a crash
        # mid-actuation still leaves a WAL record for the successor.
        self.partition_guard: Callable[[], None] | None = None
        self.actuation_sink: Callable[[str, str, object], None] | None = None
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None
        #: Fencing epoch of the lease this manager acts under (set by the
        #: HA control plane on promotion; None when not replicated).
        self.lease_generation: int | None = None
        self._entries: dict[str, _Entry] = {}
        self._handle: PeriodicHandle | None = None
        self.loops = 0

    # -- registration ------------------------------------------------------------

    def register(
        self,
        app: Application,
        controller: MultiResourceController,
        *,
        horizontal: HorizontalPolicy | None = None,
        feedforward=None,
    ) -> None:
        """Manage ``app`` (which must carry a ``plo``) with ``controller``.

        Declares the series the loop reads for ``app``: its PLO metric
        and its scraped usage and allocation per resource.
        """
        if app.plo is None:
            raise ValueError(f"application {app.name!r} has no PLO attached")
        if app.name in self._entries:
            raise ValueError(f"application {app.name!r} already registered")
        entry = _Entry(app, controller, horizontal, feedforward)
        series = entry.series
        self.collector.declare(series.signal, *series.usage, *series.alloc)
        if feedforward is not None:
            feedforward.watch(app)
        self._entries[app.name] = entry

    def unregister(self, app_name: str) -> None:
        entry = self._entries.pop(app_name, None)
        if entry is not None:
            self._cancel_retry(entry)

    def applications(self) -> dict[str, Application]:
        """Registered applications by name (HA replay needs the objects)."""
        return {name: entry.app for name, entry in self._entries.items()}

    def entry_resilience(self, app_name: str) -> dict[str, int | bool]:
        """Resilience state and counters for one application (for tests/reports)."""
        entry = self._entries[app_name]
        return {
            "safe_mode": entry.safe_mode,
            "stale_periods": entry.stale_periods,
            **entry.counters,
        }

    def resilience_stats(self) -> dict[str, int]:
        """Aggregate resilience counters over all registered applications."""
        totals = dict.fromkeys(COUNTERS, 0)
        for entry in self._entries.values():
            for name, count in entry.counters.items():
                totals[name] += count
        return totals

    # -- state export / restore (control-plane HA) ----------------------------------

    def export_state(self) -> dict[str, dict]:
        """Per-application control state for a durable snapshot.

        Captures everything a standby replica needs to resume each loop
        mid-transient: controller internals (PID integrator, adaptive gain
        scale), safe-mode and breaker latches, the last-known-good
        allocation and the :data:`DURABLE_COUNTERS`. In-flight retry
        closures are deliberately *not* exported — they die with the
        process; the WAL covers re-issuing whatever was lost.
        """
        state: dict[str, dict] = {}
        for name, entry in self._entries.items():
            state[name] = {
                "stats": dict(entry.stats),
                "skipped": entry.skipped,
                "stale_periods": entry.stale_periods,
                "last_signal_time": entry.last_signal_time,
                "safe_mode": entry.safe_mode,
                "last_good_allocation": (
                    entry.last_good_allocation.as_dict()
                    if entry.last_good_allocation is not None
                    else None
                ),
                "breaker_open_until": entry.breaker_open_until,
                "breaker_half_open": entry.breaker_half_open,
                "directions": list(entry.directions),
                "controller": entry.controller.export_state(),
                **{key: entry.counters[key] for key in DURABLE_COUNTERS},
            }
        return state

    def restore_state(self, state: dict[str, dict]) -> None:
        """Load a snapshot produced by :meth:`export_state`.

        Unknown application names are ignored (the snapshot may predate an
        unregister); registered apps absent from the snapshot keep their
        current (freshly reset) state.
        """
        for name, app_state in state.items():
            entry = self._entries.get(name)
            if entry is None:
                continue
            entry.stats = dict(app_state["stats"])
            entry.skipped = int(app_state["skipped"])
            entry.stale_periods = int(app_state["stale_periods"])
            entry.last_signal_time = app_state["last_signal_time"]
            entry.safe_mode = bool(app_state["safe_mode"])
            good = app_state["last_good_allocation"]
            entry.last_good_allocation = (
                ResourceVector.from_dict(good) if good is not None else None
            )
            entry.breaker_open_until = float(app_state["breaker_open_until"])
            entry.breaker_half_open = bool(
                app_state.get("breaker_half_open", False)
            )
            entry.directions.clear()
            entry.directions.extend(app_state["directions"])
            entry.controller.restore_state(app_state["controller"])
            for key in DURABLE_COUNTERS:
                entry.counters[key] = int(app_state[key])

    def reset_entries(self) -> None:
        """Discard all in-memory control state (simulated process restart).

        A crashed controller loses its integrators, latches, and pending
        retries; a successor starts from here and then applies whatever the
        statestore preserved via :meth:`restore_state`.
        """
        for entry in self._entries.values():
            self._cancel_retry(entry)
            entry.controller.reset()
            entry.stale_periods = 0
            entry.last_signal_time = None
            entry.safe_mode = False
            entry.last_good_allocation = None
            entry.consecutive_failures = 0
            entry.breaker_open_until = 0.0
            entry.breaker_half_open = False
            entry.brownout_high_periods = 0
            entry.brownout_low_periods = 0
            entry.directions.clear()
        if self.backpressure is not None:
            self.backpressure.clear()

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("manager already started")
        self._handle = self.engine.every(self.interval, self.run_once, priority=5)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        for entry in self._entries.values():
            self._cancel_retry(entry)

    # -- signal freshness / safe mode ---------------------------------------------

    def _signal_fresh(self, entry: _Entry, error: float | None, now: float) -> bool:
        """Whether the PLO signal is present *and* recently scraped."""
        if error is None:
            return False
        last_t = self.collector.latest_time(entry.series.signal)
        return last_t is not None and now - last_t <= self.freshness_timeout

    def _enter_safe_mode(self, entry: _Entry, now: float) -> None:
        entry.safe_mode = True
        entry.counters["safe_mode_entries"] += 1
        if self.telemetry is not None:
            self.telemetry.safe_mode_entries.inc()
            self.telemetry.tracer.instant(
                "safe_mode_enter", "control", app=entry.app.name,
                stale_periods=entry.stale_periods,
            )
        self._cancel_retry(entry)
        # Freeze at the last-known-good allocation: if a decision taken on
        # data that later proved stale moved the target, pull it back.
        good = entry.last_good_allocation
        if good is not None and not good.approx_equal(
            entry.app.target_allocation, tolerance=1e-9
        ):
            try:
                entry.app.set_target_allocation(good)
            except ActuationError:
                pass  # stay frozen wherever we are; retried on exit

    def _exit_safe_mode(self, entry: _Entry) -> None:
        entry.safe_mode = False
        entry.counters["safe_mode_exits"] += 1
        # The PID integrated against a signal that then went dark; start
        # the loop clean rather than acting on pre-outage momentum.
        entry.controller.reset()

    # -- actuation: retries and circuit breaking ------------------------------------

    def _cancel_retry(self, entry: _Entry) -> None:
        if entry.retry_handle is not None:
            entry.retry_handle.cancel()
        entry.retry_handle = None
        entry.retry_action = None
        entry.retry_attempts = 0

    def _trip_breaker(self, entry: _Entry, now: float) -> None:
        entry.breaker_open_until = now + BREAKER_OPEN_DURATION
        entry.counters["breaker_trips"] += 1
        entry.breaker_half_open = False
        if self.telemetry is not None:
            self.telemetry.breaker_trips.inc()
            self.telemetry.tracer.instant(
                "breaker_trip", "control", app=entry.app.name,
                open_until=entry.breaker_open_until,
            )
        entry.directions.clear()
        entry.consecutive_failures = 0
        self._cancel_retry(entry)

    def _record_direction(self, entry: _Entry, decision: ControlDecision) -> bool:
        """Track grow/reclaim flapping; True when the breaker just tripped."""
        if decision.action == "hold":
            return False
        entry.directions.append(1 if decision.action == "grow" else -1)
        flips = sum(1 for a, b in pairwise(entry.directions) if a != b)
        if flips >= BREAKER_FLAP_THRESHOLD:
            self._trip_breaker(entry, self.engine.now)
            return True
        return False

    def _actuate(
        self,
        entry: _Entry,
        action: Callable[[], None],
        *,
        on_success: Callable[[], None] | None = None,
        kind: str = "actuation",
    ) -> bool:
        """Run one actuation, absorbing injected transient failures.

        On failure the actuation is rescheduled with exponential backoff
        and jitter; the :data:`BREAKER_FAILURE_THRESHOLD`-th consecutive
        failure trips the circuit breaker instead of retrying again.
        """
        tel = self.telemetry
        sp = None
        if tel is not None:
            # Parent to the decide span that ordered this actuation — an
            # explicit link, so delayed retries stay causally attached.
            sp = tel.tracer.begin(
                "actuate", "actuation", parent=entry.decision_span_id,
                app=entry.app.name, kind=kind,
            )
        try:
            try:
                if self.partition_guard is not None:
                    self.partition_guard()
                action()
            except ActuationError:
                if sp is not None:
                    sp.args["outcome"] = "failed"
                self._on_actuation_failure(entry, action, on_success)
                return False
            if entry.breaker_half_open:
                # Successful probe: the breaker is fully closed again.
                entry.breaker_half_open = False
                if tel is not None:
                    tel.tracer.instant(
                        "breaker_close", "control", app=entry.app.name,
                    )
            entry.consecutive_failures = 0
            if entry.retry_attempts:  # retry state left by an earlier failure
                self._cancel_retry(entry)
            if sp is not None:
                sp.args["outcome"] = "applied"
                # inc(1.0) inlined: the telemetry overhead gate counts
                # every call on the decision path.
                tel.actuations.value += 1.0
            if on_success is not None:
                on_success()
            return True
        finally:
            if sp is not None:
                tel.tracer.end(sp)

    def _on_actuation_failure(
        self,
        entry: _Entry,
        action: Callable[[], None],
        on_success: Callable[[], None] | None,
    ) -> None:
        entry.counters["actuation_failures"] += 1
        if self.telemetry is not None:
            self.telemetry.actuation_failures.inc()
        if entry.breaker_half_open:
            # Failed probe: re-open immediately for another full window
            # rather than counting toward the failure threshold.
            entry.counters["breaker_reopens"] += 1
            self._trip_breaker(entry, self.engine.now)
            return
        entry.consecutive_failures += 1
        if entry.consecutive_failures >= BREAKER_FAILURE_THRESHOLD:
            self._trip_breaker(entry, self.engine.now)
            return
        delay = RETRY_BASE_DELAY * (2.0 ** entry.retry_attempts)
        delay *= 1.0 + RETRY_JITTER * (2.0 * float(self.rng.random()) - 1.0)
        entry.retry_attempts += 1
        entry.counters["retries"] += 1
        if self.telemetry is not None:
            self.telemetry.actuation_retries.inc()
        entry.retry_action = action
        if entry.retry_handle is not None:
            entry.retry_handle.cancel()
        entry.retry_handle = self.engine.schedule(
            delay, lambda: self._run_retry(entry, action, on_success)
        )
        if self.fault_log is not None:
            # Structured episode per retry window so MTTR attribution in
            # analysis.recovery can separate retry latency from the outage.
            now = self.engine.now
            self.fault_log.record(
                "actuation-retry", entry.app.name, now, now + delay,
                detail=f"attempt={entry.retry_attempts}",
            )

    def _run_retry(
        self,
        entry: _Entry,
        action: Callable[[], None],
        on_success: Callable[[], None] | None,
    ) -> None:
        if entry.retry_action is not action:
            return  # superseded by a newer decision
        entry.retry_handle = None
        if (
            entry.app.finished
            or entry.safe_mode
            or self.engine.now < entry.breaker_open_until
        ):
            entry.retry_action = None
            return
        self._actuate(entry, action, on_success=on_success, kind="retry")

    # -- backpressure and brownout ---------------------------------------------------

    def _distressed(self, now: float) -> bool:
        """Whether any running app's loop shows distress right now: a retry
        pending, a breaker open or probing, safe mode, or unresolved
        actuation failures. Finished apps are skipped, as in
        :meth:`run_once`: nothing could ever clear their distress."""
        for entry in self._entries.values():
            if entry.app.finished:
                continue
            if (
                entry.retry_handle is not None
                or entry.safe_mode
                or entry.breaker_half_open
                or now < entry.breaker_open_until
                or entry.consecutive_failures > 0
            ):
                return True
        return False

    def _apply_backpressure(
        self, entry: _Entry, desired: int, current: int, now: float
    ) -> int:
        """Queue/coalesce grows under distress; drain queued grows when calm.

        Returns the replica target to actually pursue this period.
        """
        bp = self.backpressure
        app_name = entry.app.name
        if self._distressed(now):
            if desired > current:
                bp.defer(app_name, desired)
                desired = current
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "backpressure_defer", "control", app=app_name,
                    )
            elif desired < current:
                # A reclaim supersedes any queued grow.
                bp.drop(app_name)
        else:
            held = bp.release(app_name)
            if held is not None and desired >= current:
                desired = max(desired, held)
        return desired

    def _update_brownout(self, entry: _Entry, error: float | None, now: float) -> None:
        """Hysteretic brownout: enter after :data:`BROWNOUT_ENTER_PERIODS`
        consecutive periods above the enter error, exit after
        :data:`BROWNOUT_EXIT_PERIODS` below the (penalty-compensated) exit
        error. The application object is the source of truth for the
        active flag, so it survives controller failover.
        """
        app = entry.app
        if not getattr(app, "brownout_capable", False):
            return
        if not app.brownout_active:
            if error is not None and error >= BROWNOUT_ENTER_ERROR:
                entry.brownout_high_periods += 1
            else:
                entry.brownout_high_periods = 0
            if entry.brownout_high_periods >= BROWNOUT_ENTER_PERIODS:
                entry.brownout_high_periods = 0
                app.enter_brownout(
                    factor=BROWNOUT_DEMAND_FACTOR,
                    latency_penalty=BROWNOUT_LATENCY_PENALTY,
                )
                entry.counters["brownout_entries"] += 1
                if self.fault_log is not None:
                    entry.brownout_episode = self.fault_log.open(
                        "brownout", app.name, now,
                        detail=f"factor={BROWNOUT_DEMAND_FACTOR}",
                    )
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "brownout_enter", "control", app=app.name,
                    )
        else:
            # The latency penalty keeps the measured error from ever
            # reaching zero; compensate the exit threshold so a service
            # that would be healthy un-degraded can actually leave.
            threshold = BROWNOUT_EXIT_ERROR
            plo = app.plo
            if getattr(plo, "kind", None) == "latency" and plo.target > 0:
                threshold += BROWNOUT_LATENCY_PENALTY / plo.target
            if error is not None and error <= threshold:
                entry.brownout_low_periods += 1
            else:
                entry.brownout_low_periods = 0
            if entry.brownout_low_periods >= BROWNOUT_EXIT_PERIODS:
                entry.brownout_low_periods = 0
                app.exit_brownout()
                entry.counters["brownout_exits"] += 1
                if self.fault_log is not None and entry.brownout_episode is not None:
                    self.fault_log.close(entry.brownout_episode, now)
                    entry.brownout_episode = None
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "brownout_exit", "control", app=app.name,
                    )

    # -- the loop ----------------------------------------------------------------------

    def _saturation(self, entry: _Entry) -> SaturationSnapshot:
        """Saturation from scraped series, falling back to live pods."""
        collector = self.collector
        interval = self.interval
        fractions = {}
        series = entry.series
        for name, usage_series, alloc_series in zip(
            RESOURCES, series.usage, series.alloc
        ):
            usage = collector.window_mean(usage_series, interval)
            alloc = collector.latest(alloc_series)
            if usage is None or alloc is None or alloc <= 0:
                break
            fractions[name] = usage / alloc
        else:  # every resource has a usable scraped sample
            return SaturationSnapshot(fractions)
        total_usage = ResourceVector.zero()
        total_alloc = ResourceVector.zero()
        for pod in entry.app.running_pods():
            total_usage = total_usage + pod.usage
            total_alloc = total_alloc + pod.allocation
        return SaturationSnapshot.from_vectors(total_usage, total_alloc)

    def run_once(self) -> None:
        """Execute one control period over all registered applications."""
        now = self.engine.now
        self.loops += 1
        tel = self.telemetry
        for entry in list(self._entries.values()):
            if entry.app.finished:
                continue
            if tel is None:
                self._step(entry, now)
                continue
            sp = tel.tracer.begin("decide", "control", app=entry.app.name)
            entry.decision_span_id = sp.id
            try:
                self._emit_provenance(entry, now, sp, *self._step(entry, now))
            finally:
                tel.tracer.end(sp)

    def _step(
        self, entry: _Entry, now: float
    ) -> tuple[str, ControlDecision | None, int | None]:
        """One control period for one application: evaluate → decide →
        write → record. Returns the provenance verdict, the decision
        (None when the period ended before the controller was asked) and
        the replica count after its writes (None when it made none)."""
        app = entry.app
        status = app.plo.evaluate(self.collector, app.name, now)

        if not self._signal_fresh(entry, status.error, now):
            entry.skipped += 1
            verdict = "safe-mode-hold" if entry.safe_mode else "stale-skip"
            # Before the first signal ever arrives there is no last-known-
            # good state to protect; stay in the plain skip path.
            if entry.last_signal_time is not None:
                entry.stale_periods += 1
                if (
                    not entry.safe_mode
                    and entry.stale_periods >= SAFE_MODE_AFTER
                ):
                    self._enter_safe_mode(entry, now)
                    verdict = "safe-mode-entry"
            return verdict, None, None

        entry.stale_periods = 0
        entry.last_signal_time = now
        if entry.safe_mode:
            self._exit_safe_mode(entry)

        breaker_open = now < entry.breaker_open_until
        if (
            not breaker_open
            and entry.breaker_open_until > 0.0
            and not entry.breaker_half_open
        ):
            # The open window elapsed: go half-open instead of silently
            # closing — the next actuation is a probe (success closes the
            # breaker, failure re-opens it for another full window).
            entry.breaker_half_open = True
            entry.counters["breaker_probes"] += 1
            entry.breaker_open_until = 0.0
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "breaker_half_open", "control", app=app.name,
                )
        if breaker_open:
            entry.counters["breaker_skips"] += 1
            return "breaker-skip", None, None

        saturation = self._saturation(entry)
        ff = 0.0
        if entry.feedforward is not None:
            ff = entry.feedforward.signal(app, now)
        decision = entry.controller.decide(
            status.error, saturation, app.current_allocation(),
            self.interval, feedforward=ff,
        )
        if self.telemetry is not None:
            self.telemetry.decisions.value += 1.0  # inc(1.0), as above
        action = decision.action
        if (
            action == "reclaim"
            and entry.feedforward is not None
            and entry.feedforward.reclaim_suppressed(app.name, now)
        ):
            decision = ControlDecision(
                "hold", app.current_allocation(), decision.error,
                decision.output, decision.gain_scale, decision.weights,
                reason="reclaim-suppressed",
            )
            action = "hold"
        entry.stats[action] += 1

        if self._record_direction(entry, decision):
            # Flapping tripped the breaker: suppress this actuation too.
            return "flap-breaker", decision, None

        changed = action != "hold"
        if changed:
            self._write(entry, "resize", decision.new_allocation)
        elif entry.last_good_allocation is None:
            entry.last_good_allocation = app.current_allocation()

        if entry.horizontal is not None and now >= entry.breaker_open_until:
            desired = entry.horizontal.adjust(app, decision, entry.controller)
            replicas = app.replica_count
            if self.backpressure is not None:
                desired = self._apply_backpressure(entry, desired, replicas, now)
            if desired != replicas:
                self._write(entry, "scale", desired)
                replicas = app.replica_count
        else:
            replicas = app.replica_count

        if self.brownout:
            self._update_brownout(entry, decision.error, now)

        series = entry.series
        self.collector.record(series.error, decision.error)
        self.collector.record(series.output, decision.output)

        if changed:
            return "actuated", decision, replicas
        if decision.reason in ("reclaim-suppressed", "deadband"):
            return decision.reason, decision, replicas
        return "hold", decision, replicas

    def _write(self, entry: _Entry, kind: str, target) -> None:
        """Log one scaling write to the write-ahead hook, then actuate it.

        ``kind`` is ``"resize"`` (``target`` is the new per-pod allocation,
        last-known-good once applied) or ``"scale"`` (``target`` is the
        replica count). The record goes first so that a crash
        mid-actuation still leaves it for the successor.
        """
        app = entry.app
        if self.actuation_sink is not None:
            self.actuation_sink(app.name, kind, target)
        if kind == "resize":
            action = partial(app.set_target_allocation, target)
            on_success = partial(setattr, entry, "last_good_allocation", target)
        else:
            action, on_success = partial(app.scale_to, target), None
        self._actuate(entry, action, on_success=on_success, kind=kind)

    def _emit_provenance(
        self,
        entry: _Entry,
        now: float,
        sp,
        verdict: str,
        decision: ControlDecision | None,
        replicas: int | None,
    ) -> None:
        """Append one decision-provenance record for the decide span ``sp``.

        Takes what :meth:`_step` returned. Links the decide span back to
        the scrape that stored the newest PLO sample this evaluation read,
        and snapshots controller internals at decision time.
        """
        tel = self.telemetry
        app = entry.app
        metric = entry.series.signal
        sample = self.collector.latest_sample(metric)
        signal = signal_age = scrape_span = None
        if sample is not None:
            signal_time, signal = sample
            signal_age = now - signal_time
            scrape_span = self.collector.scrape_span_at(signal_time)
            if scrape_span is not None:
                sp.parent_id = scrape_span
        controller = entry.controller
        terms = tuner_event = None  # only a decided period has internals
        if decision is not None:
            terms = controller.pid.last_terms
            tuner_event = controller.tuner.last_event
        if verdict == "safe-mode-entry":
            action, target = "freeze", entry.last_good_allocation
        elif decision is None:
            action, target = "none", None
        else:
            action = decision.action
            target = decision.new_allocation if action != "hold" else None
        active: tuple[int, ...] = ()
        if self.fault_log is not None and self.fault_log.episodes:
            active = tuple(ep.eid for ep in self.fault_log.active_at(now))
        tel.tracer.trace.provenance.append(DecisionProvenance(
            app=app.name,
            time=now,
            verdict=verdict,
            action=action,
            error=decision.error if decision is not None else None,
            output=decision.output if decision is not None else None,
            gain_scale=decision.gain_scale if decision is not None else None,
            terms=terms,
            inputs={metric: signal},
            signal_age=signal_age,
            stale_periods=entry.stale_periods,
            safe_mode=entry.safe_mode,
            deadband=controller.deadband,
            clamped=decision.clamped if decision is not None else False,
            weights=dict(decision.weights) if decision is not None else {},
            target=target.as_dict() if target is not None else None,
            replicas=replicas if replicas is not None else app.replica_count,
            lease_generation=self.lease_generation,
            scrape_span_id=scrape_span,
            span_id=sp.id,
            active_faults=active,
            tuner_event=tuner_event,
        ))
        sp.args["verdict"] = verdict
        sp.args["action"] = action
        if verdict == "actuated" and signal_age is not None:
            tel.reaction_latency.observe(signal_age)
